"""Connectivity bounds for the timed problems (Sections 4–5, general
case: "the connectivity bound follows as for Byzantine agreement").

For a graph with ``c(G) <= 2f``, split a cut into halves ``b, d`` and
stretch the §3.2 two-copy construction into a **cyclic m-fold cover**:
``m`` copies of ``G`` in a ring, every ``a``–``d`` edge re-routed to
the next copy.  Information crosses copy boundaries only over those
edges, so — with the Bounded-Delay Locality axiom — a copy at ring
distance ``k`` from the opposite-input region behaves like an
all-correct run of ``G`` through time ``k·δ``.  The agreement chain
then alternates around the ring of copies:

    A(i) = (a ∪ b ∪ c)@i        (the d half masquerades)
    B(i) = a@i ∪ (d ∪ c)@(i+1)  (the b half masquerades)

each a correct behavior of ``G`` sharing correct nodes with its
neighbors — while the two input halves of the ring are pinned to
different outcomes.  Somewhere the chain snaps; the engine returns the
snapped link.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..graphs.coverings import (
    connectivity_cyclic_cover,
    cut_partition_for_connectivity,
)
from ..graphs.graph import CommunicationGraph, NodeId
from ..runtime.timed.behavior import TimedBehavior
from ..runtime.timed.device import DeviceFactory
from .clock_sync import SynchronizationSetting, _clock_argument, _ClockCover
from .covering_argument import _cyclic_scenarios
from .firing_squad import _FIRING
from .timed_argument import _bounded_delay_argument, _TimedCover
from .weak import _WEAK
from .witness import ImpossibilityWitness


def _cyclic(
    graph: CommunicationGraph, max_faults: int, k: int
) -> _TimedCover:
    """The cyclic ``4k``-fold cover, copies ``0..2k-1`` holding input 1:
    the middles are every node of copies ``k`` and ``3k``, and the
    scenarios are the whole ``A(i)``/``B(i)`` chain around the copies."""
    side_a, cut_b, side_c, cut_d = cut_partition_for_connectivity(
        graph, max_faults
    )
    copies = 4 * k
    cover = connectivity_cyclic_cover(
        graph, cut_b, cut_d, side_a, side_c, copies=copies
    )
    return _TimedCover(
        covering=cover.covering,
        inputs={
            cover.copy_of(v, i): 1 if i < 2 * k else 0
            for i in range(copies)
            for v in graph.nodes
        },
        middles={cover.copy_of(v, i): i for i in (k, 3 * k) for v in graph.nodes},
        scenarios=_cyclic_scenarios(cover, side_a, cut_b, side_c, cut_d),
        bound=f"2f+1 connectivity (cyclic {copies}-fold cover)",
    )


def _copy_middles(
    t: float, k: int, cover: _TimedCover, behavior: TimedBehavior
) -> dict:
    """Each middle copy's outcomes, node by node."""
    return {
        "copies": 4 * k,
        "middles": [
            {
                "node": node,
                "copy": copy,
                "decision": behavior.node(node).decision,
                "fire_time": behavior.node(node).fire_time,
            }
            for node, copy in cover.middles.items()
        ],
    }


def refute_weak_agreement_connectivity(
    graph: CommunicationGraph,
    factories: Mapping[NodeId, DeviceFactory],
    max_faults: int,
    delta: float,
    decision_deadline: float,
    horizon_slack: float = 2.0,
    require_violation: bool = True,
) -> ImpossibilityWitness:
    """Theorem 2's connectivity bound: weak agreement is impossible
    with ``c(G) <= 2f`` under Bounded-Delay Locality."""
    return _bounded_delay_argument(
        _WEAK, graph, factories, max_faults, delta, decision_deadline,
        horizon_slack, require_violation,
        stub_bound="2f+1 connectivity",
        construct=lambda k: _cyclic(graph, max_faults, k),
        summarize=_copy_middles,
    )


def refute_firing_squad_connectivity(
    graph: CommunicationGraph,
    factories: Mapping[NodeId, DeviceFactory],
    max_faults: int,
    delta: float,
    fire_deadline: float,
    horizon_slack: float = 2.0,
    require_violation: bool = True,
) -> ImpossibilityWitness:
    """Theorem 4's connectivity bound, by the same cyclic construction."""
    return _bounded_delay_argument(
        _FIRING, graph, factories, max_faults, delta, fire_deadline,
        horizon_slack, require_violation,
        stub_bound="2f+1 connectivity",
        construct=lambda k: _cyclic(graph, max_faults, k),
        summarize=_copy_middles,
    )


def _clocked_copies(
    graph: CommunicationGraph, max_faults: int, k: int
) -> _ClockCover:
    """The cyclic ``(k + 2)``-fold cover, copy ``i`` at power ``i``; the
    scenarios are ``A(i)`` and ``B(i)`` for ``i <= k``, their nodes
    sorted by the ``(base node, copy)`` pairs the violations name."""
    side_a, cut_b, side_c, cut_d = cut_partition_for_connectivity(
        graph, max_faults
    )
    copies = k + 2
    cover = connectivity_cyclic_cover(
        graph, cut_b, cut_d, side_a, side_c, copies=copies
    )
    power = {cover.copy_of(v, i): i for i in range(copies) for v in graph.nodes}
    scenarios = _cyclic_scenarios(cover, side_a, cut_b, side_c, cut_d)

    def named(u):
        return str((cover.covering(u), power[u]))

    def summarize(logical, floor, scaling_checks):
        nu_trace = []
        for i in range(k + 1):
            least = min(logical[cover.copy_of(v, i)] for v in graph.nodes)
            nu_trace.append(
                {"copy": i, "min_logical": least, "nu_min": least - floor[i]}
            )
        return {"copies": copies, "nu_trace": nu_trace}

    return _ClockCover(
        covering=cover.covering,
        power=power,
        scenarios=[
            (label, sorted(nodes, key=named), n // 2)
            for n, (label, nodes) in enumerate(scenarios[: 2 * (k + 1)])
        ],
        bound=f"2f+1 connectivity (cyclic {copies}-fold cover; k = {k})",
        agreement=(
            "|C_{a} - C_{b}| = {skew:.6g} > {bound:.6g} at t'' "
            "(scaled scenario {label}·h^{i})"
        ),
        validity="C_{u}(t'') = {value:.6g} outside [{low:.6g}, {high:.6g}]",
        summarize=summarize,
    )


def refute_clock_sync_connectivity(
    graph: CommunicationGraph,
    factories: Mapping[NodeId, DeviceFactory],
    max_faults: int,
    setting: SynchronizationSetting,
    require_violation: bool = True,
) -> ImpossibilityWitness:
    """Theorem 8's connectivity bound: nontrivial synchronization is
    impossible with ``c(G) <= 2f`` under the Scaling axiom.

    The triangle ring of ever-slower clocks becomes a chain of ``k+2``
    *copies* of ``G``, copy ``i`` running every hardware clock at
    ``q∘h⁻ⁱ``.  Scenario ``A(i)`` (one whole copy side) scaled by
    ``hⁱ`` has all clocks ``q``; scenario ``B(i)`` (straddling copies
    ``i`` and ``i+1``) has clocks ``(q, p)`` — both correct behaviors
    of ``G`` by the Fault and Scaling axioms.  The ν-telescoping of
    Lemmas 10–11 then runs copy by copy.
    """
    return _clock_argument(
        setting, factories, graph, max_faults,
        lambda k: _clocked_copies(graph, max_faults, k),
        (), require_violation,
    )
