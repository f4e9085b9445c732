"""Theorem 2, executable: weak agreement is impossible in inadequate
graphs under the Bounded-Delay Locality axiom.

The construction (Section 4): measure ``t'``, the decision deadline of
the candidate devices in the two all-correct, all-same-input behaviors
of the triangle; pick ``k > t'/δ`` (a multiple of 3); build the ring of
``4k`` nodes covering the triangle with one half input 1 and the other
half input 0; run it once.

* **Lemma 3** (verified, not assumed): nodes at ring-distance ``>= k``
  from the opposite input region behave identically to the all-0 (or
  all-1) triangle run through time ``k·δ > t'`` — so the middle of each
  half decides its own half's value.
* Every adjacent pair of ring nodes is, by the Fault axiom, a pair of
  correct nodes in a correct behavior of the triangle, so agreement
  must hold around the whole ring — yet the two halves decided
  differently.  The engine finds the boundary pair(s) whose correct
  behavior of ``G`` violates agreement (or the choice condition).
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import methodcaller

from ..graphs.builders import triangle
from ..graphs.coverings import ring_cover_of_triangle
from ..graphs.graph import CommunicationGraph, NodeId
from ..problems.byzantine import WeakAgreementSpec
from ..problems.spec import SpecVerdict, Violation
from ..runtime.timed.behavior import TimedBehavior
from ..runtime.timed.device import DeviceFactory
from .timed_argument import (
    _BoundedDelayProblem,
    _bounded_delay_argument,
    _TimedCover,
    ring_parameter,
)
from .witness import ImpossibilityWitness

_WEAK = _BoundedDelayProblem(
    name="weak-agreement",
    spec=WeakAgreementSpec(),
    outcome=methodcaller("decisions"),
    references=(("all-0", 0), ("all-1", 1)),
    deadline=lambda runs: max(run.max_decision_time() for run in runs.values()),
    deadline_key="t_prime",
)


def refute_weak_agreement(
    factories: Mapping[NodeId, DeviceFactory],
    delta: float,
    decision_deadline: float,
    base: CommunicationGraph | None = None,
    horizon_slack: float = 2.0,
    require_violation: bool = True,
) -> ImpossibilityWitness:
    """Refute claimed weak-agreement devices for the triangle.

    Parameters
    ----------
    factories:
        Device factory per triangle node.
    delta:
        The minimum (here: exact) message delay — the Bounded-Delay
        Locality constant.
    decision_deadline:
        The claimed bound on decision time in all-correct, same-input
        behaviors; if the devices miss it there, that is already a
        choice-condition violation and the witness is immediate.
    """
    base = base or triangle()
    return _bounded_delay_argument(
        _WEAK, base, factories, 1, delta, decision_deadline, horizon_slack,
        require_violation,
        stub_bound="3f+1 nodes",
        construct=lambda k: _four_k_ring(base, k, delta),
        summarize=_lemma3,
    )


def _four_k_ring(
    base: CommunicationGraph, k: int, delta: float
) -> _TimedCover:
    """The ``4k``-ring over the triangle, its first half holding input
    1: the middles are the two centre nodes of each half, and every
    adjacent pair is a scenario."""
    ring_size = 4 * k
    covering = ring_cover_of_triangle(ring_size, base)
    ring = covering.cover.nodes
    return _TimedCover(
        covering=covering,
        inputs={
            node: 1 if index < 2 * k else 0 for index, node in enumerate(ring)
        },
        middles={ring[i]: i for i in (k - 1, k, 3 * k - 1, 3 * k)},
        scenarios=[
            (f"E{i}", [ring[i], ring[(i + 1) % ring_size]])
            for i in range(ring_size)
        ],
        bound=f"3f+1 nodes (Bounded-Delay Locality, δ={delta})",
    )


def _lemma3(
    t_prime: float, k: int, cover: _TimedCover, behavior: TimedBehavior
) -> dict:
    """Lemma 3's record: each middle decides its own half's input."""
    return {
        "ring_size": 4 * k,
        "lemma3": [
            {
                "node": node,
                "distance_to_other_half": k,
                "identical_through": t_prime,
                "decides": behavior.node(node).decision,
                "expected": cover.inputs[node],
            }
            for node in cover.middles
        ],
    }


def agreement_frontier(witness: ImpossibilityWitness) -> list[str]:
    """The labels of the boundary behaviors where agreement breaks —
    the ring positions where 1-deciders meet 0-deciders."""
    return [
        checked.label
        for checked in witness.violated
        if any(
            v.condition == "agreement" for v in checked.verdict.violations
        )
    ]


__all__ = [
    "agreement_frontier",
    "refute_weak_agreement",
    "ring_parameter",
    "SpecVerdict",
    "Violation",
]
