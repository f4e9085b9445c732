"""Theorem 4, executable: the Byzantine firing squad problem cannot be
solved in inadequate graphs under the Bounded-Delay Locality axiom.

Section 5's construction mirrors weak agreement: measure ``t``, the
fire time of the all-correct stimulated behavior; pick ``k >= t/δ`` (a
multiple of 3); run the ``4k``-ring cover with one half stimulated.
The stimulated middle fires at ``t`` (its view is identical to the
stimulated triangle run through ``k·δ >= t``), the unstimulated middle
does not (its view is identical to the quiet run), yet every adjacent
pair is a correct behavior of the triangle whose correct nodes must
fire simultaneously or not at all.  Somewhere around the ring that
breaks, and the engine returns the pair.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import methodcaller

from ..graphs.builders import triangle
from ..graphs.graph import CommunicationGraph, NodeId
from ..problems.firing_squad import FiringSquadSpec
from ..runtime.timed.behavior import TimedBehavior
from ..runtime.timed.device import DeviceFactory
from .timed_argument import (
    _BoundedDelayProblem,
    _bounded_delay_argument,
    _TimedCover,
)
from .weak import _four_k_ring
from .witness import ImpossibilityWitness

# The deadline is the stimulated run's fire time t; k·δ > t is then at
# least the paper's k >= t/δ.
_FIRING = _BoundedDelayProblem(
    name="byzantine-firing-squad",
    spec=FiringSquadSpec(),
    outcome=methodcaller("fire_times"),
    references=(("all-stimulated", 1), ("all-quiet", 0)),
    deadline=lambda runs: max(runs[1].fire_times().values()),
    deadline_key="fire_time",
)


def refute_firing_squad(
    factories: Mapping[NodeId, DeviceFactory],
    delta: float,
    fire_deadline: float,
    base: CommunicationGraph | None = None,
    horizon_slack: float = 2.0,
    require_violation: bool = True,
) -> ImpossibilityWitness:
    """Refute claimed firing-squad devices for the triangle.

    ``fire_deadline`` is the claimed bound on the fire time when the
    stimulus occurs and all nodes are correct; missing it (or firing
    without a stimulus) is already a validity violation.
    """
    base = base or triangle()
    return _bounded_delay_argument(
        _FIRING, base, factories, 1, delta, fire_deadline, horizon_slack,
        require_violation,
        stub_bound="3f+1 nodes",
        construct=lambda k: _four_k_ring(base, k, delta),
        summarize=_ring_middles,
    )


def _ring_middles(
    t: float, k: int, cover: _TimedCover, behavior: TimedBehavior
) -> dict:
    """The stimulated middles fire, the quiet ones do not."""
    return {
        "ring_size": 4 * k,
        "middles": [
            {
                "node": node,
                "stimulated": cover.inputs[node] == 1,
                "fire_time": behavior.node(node).fire_time,
            }
            for node in cover.middles
        ],
    }


def fire_time_profile(witness: ImpossibilityWitness) -> list[tuple[str, dict]]:
    """Fire times of the correct pair in each constructed behavior —
    showing the FIRE wave break around the ring."""
    profile = []
    for checked in witness.checked:
        constructed = checked.constructed
        profile.append(
            (
                checked.label,
                {
                    str(u): constructed.behavior.node(u).fire_time
                    for u in constructed.correct_nodes
                },
            )
        )
    return profile

