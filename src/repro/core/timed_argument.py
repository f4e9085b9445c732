"""The covering argument in the continuous-time model.

Identical in shape to :mod:`repro.core.covering_argument`, but over
timed behaviors: a scenario of the covering run is realized as a
correct behavior of the base graph by letting the remaining nodes
replay recorded edge behaviors (the Fault axiom), with optional
*time-scaling* of the scripts — which is how Theorem 8's Lemma 9
("scenario ``S_i h^i`` is a scenario of two correct nodes in a correct
behavior of ``G``") is executed rather than assumed.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from typing import Any

from ..graphs.coverings import CoveringMap
from ..graphs.graph import NodeId
from ..runtime.timed.adversary import TimedReplayDevice
from ..runtime.timed.behavior import TimedBehavior
from ..runtime.timed.clocks import ClockFunction, identity
from ..runtime.timed.device import DeviceFactory
from ..runtime.timed.executor import run_timed
from ..runtime.timed.system import TimedNodeAssignment, TimedSystem


class TimedArgumentError(RuntimeError):
    """Raised when a timed construction's preconditions or Locality /
    Scaling identifications fail."""


@dataclass(frozen=True)
class TimedConstructedBehavior:
    """One correct behavior ``E_i`` of the base graph, assembled from a
    timed covering scenario via the Fault axiom."""

    label: str
    scenario_nodes: tuple[NodeId, ...]
    correct_nodes: frozenset[NodeId]
    faulty_nodes: frozenset[NodeId]
    system: TimedSystem
    behavior: TimedBehavior
    inputs: Mapping[NodeId, Any]

    def decisions(self) -> dict[NodeId, Any | None]:
        return {u: self.behavior.node(u).decision for u in self.correct_nodes}

    def fire_times(self) -> dict[NodeId, float | None]:
        return {u: self.behavior.node(u).fire_time for u in self.correct_nodes}


def build_base_behavior_timed(
    covering: CoveringMap,
    cover_system: TimedSystem,
    cover_behavior: TimedBehavior,
    scenario_nodes: Iterable[NodeId],
    base_factories: Mapping[NodeId, DeviceFactory],
    label: str = "E",
    time_map: Callable[[float], float] | None = None,
    base_clocks: Mapping[NodeId, ClockFunction] | None = None,
    horizon: float | None = None,
    verify_through: float | None = None,
    time_tolerance: float = 0.0,
) -> TimedConstructedBehavior:
    """Realize a timed covering scenario as a correct base behavior.

    Parameters beyond the synchronous analogue:

    time_map:
        Applied to recorded send times of the border (and to the
        verification horizon); ``h^{-i}`` when realizing the scaled
        scenario ``S_i h^i`` of Theorem 8, identity otherwise.
    base_clocks:
        Hardware clocks for the correct base nodes (the scaled clocks
        ``q, p`` in Theorem 8); defaults to the covering nodes' clocks.
    verify_through:
        Check the Locality identification through this (mapped) time;
        defaults to the run horizon.
    """
    base = covering.base
    scenario = tuple(dict.fromkeys(scenario_nodes))
    if not covering.is_isomorphism_on(scenario):
        raise TimedArgumentError(
            f"{label}: phi is not an isomorphism on scenario nodes"
        )
    mapping = time_map or (lambda t: t)
    representative = {covering(u): u for u in scenario}
    correct = frozenset(representative)
    faulty = frozenset(base.nodes) - correct
    base_clocks = base_clocks or {}

    assignments: dict[NodeId, TimedNodeAssignment] = {}
    inputs: dict[NodeId, Any] = {}
    for g, u in representative.items():
        inputs[g] = cover_system.assignments[u].input
        assignments[g] = TimedNodeAssignment(
            factory=base_factories[g],
            input=inputs[g],
            port_of_neighbor={v: v for v in base.neighbors(g)},
            clock=base_clocks.get(g, cover_system.clock(u)),
        )
    for w in faulty:
        script = []
        for g in base.neighbors(w):
            if g not in correct:
                continue
            u = representative[g]
            source = covering.lift_neighbor(u, w)
            for send_time, message, arrival in cover_behavior.edge(
                source, u
            ).sends:
                script.append(
                    (mapping(send_time), g, message, mapping(arrival))
                )
        replay = TimedReplayDevice(script)
        assignments[w] = TimedNodeAssignment(
            factory=(lambda r=replay: r),
            input=None,
            port_of_neighbor={v: v for v in base.neighbors(w)},
            clock=identity(),
        )

    system = TimedSystem(
        base, assignments, cover_system.delay, cover_system.delay_mode
    )
    run_horizon = (
        horizon if horizon is not None else mapping(cover_behavior.horizon)
    )
    behavior = run_timed(system, run_horizon)
    check_through = (
        verify_through if verify_through is not None else run_horizon
    )
    _verify_timed_locality(
        covering,
        cover_behavior,
        behavior,
        representative,
        label,
        mapping,
        check_through,
        time_tolerance,
    )
    return TimedConstructedBehavior(
        label=label,
        scenario_nodes=scenario,
        correct_nodes=correct,
        faulty_nodes=faulty,
        system=system,
        behavior=behavior,
        inputs=inputs,
    )


def _verify_timed_locality(
    covering: CoveringMap,
    cover_behavior: TimedBehavior,
    base_behavior: TimedBehavior,
    representative: Mapping[NodeId, NodeId],
    label: str,
    time_map: Callable[[float], float],
    through: float,
    time_tolerance: float,
) -> None:
    """The Locality (and, when ``time_map`` is nontrivial, Scaling)
    identification: each correct base node's event trace must equal its
    covering counterpart's, with times mapped."""
    from ..runtime.timed.behavior import payloads_close

    payload_tolerance = max(time_tolerance, 0.0)
    limit = through + 1e-12
    slack = time_tolerance + 1e-12
    for g, u in representative.items():
        mapped = [(time_map(e.time), e) for e in cover_behavior.node(u).events]
        expected = [(t, e) for t, e in mapped if t <= limit]
        got = base_behavior.node(g).prefix(through)
        if len(expected) != len(got) or not all(
            a.kind == b.kind
            and (
                a.payload == b.payload
                if payload_tolerance == 0.0
                else payloads_close(a.payload, b.payload, payload_tolerance)
            )
            and abs(t - b.time) <= slack
            for (t, a), b in zip(expected, got)
        ):
            raise TimedArgumentError(
                f"{label}: timed Locality identification failed at base "
                f"node {g!r} (covering node {u!r})"
            )
