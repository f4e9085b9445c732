"""The covering argument in the continuous-time model.

Identical in shape to :mod:`repro.core.covering_argument`, but over
timed behaviors: a scenario of the covering run is realized as a
correct behavior of the base graph by letting the remaining nodes
replay recorded edge behaviors (the Fault axiom), with optional
*time-scaling* of the scripts — which is how Theorem 8's Lemma 9
("scenario ``S_i h^i`` is a scenario of two correct nodes in a correct
behavior of ``G``") is executed rather than assumed.

:func:`_bounded_delay_argument` is the Bounded-Delay Locality argument
of Theorems 2 and 4, written once for both problems and both
constructions (the ``4k``-ring of the triangle and the cyclic cover of
a graph with ``c(G) <= 2f``).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from ..graphs.coverings import CoveringMap
from ..graphs.graph import CommunicationGraph, NodeId
from ..runtime.timed.adversary import TimedReplayDevice
from ..runtime.timed.behavior import TimedBehavior
from ..runtime.timed.clocks import ClockFunction, identity
from ..runtime.timed.device import DeviceFactory
from ..runtime.timed.executor import run_timed
from ..runtime.timed.system import (
    TimedNodeAssignment,
    TimedSystem,
    install_in_covering_timed,
    make_timed_system,
)
from .witness import CheckedBehavior, ImpossibilityWitness, _ScenarioStub


def _identity_time(t: float) -> float:
    return t


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
    mapping = time_map or _identity_time
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
        time_map,
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
    time_map: Callable[[float], float] | None,
    through: float,
    time_tolerance: float,
) -> None:
    """The Locality (and, when ``time_map`` is given, Scaling)
    identification: each correct base node's event trace must equal its
    covering counterpart's, with times mapped.

    Without a time map or tolerance, equal event prefixes settle a node
    at once (they pass the per-event check below; events are tuples,
    so the prefixes compare in one tuple comparison); only a node whose
    prefixes differ is compared event by event.
    """
    from ..runtime.timed.behavior import payloads_close

    exact = time_map is None and time_tolerance == 0.0
    time_map = time_map or _identity_time
    payload_tolerance = max(time_tolerance, 0.0)
    limit = through + 1e-12
    slack = time_tolerance + 1e-12
    for g, u in representative.items():
        got = base_behavior.node(g).prefix(through)
        if exact and cover_behavior.node(u).prefix(through) == got:
            continue
        mapped = [(time_map(e.time), e) for e in cover_behavior.node(u).events]
        expected = [(t, e) for t, e in mapped if t <= limit]
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


# ---------------------------------------------------------------------------
# Theorems 2 and 4: the Bounded-Delay Locality argument
# ---------------------------------------------------------------------------


def ring_parameter(t_prime: float, delta: float) -> int:
    """The paper's ``k``: a multiple of 3 strictly exceeding ``t'/δ``."""
    k = max(3, math.floor(t_prime / delta) + 1)
    while k % 3 != 0:
        k += 1
    return k


@dataclass(frozen=True)
class _BoundedDelayProblem:
    """What Theorems 2 and 4 differ in, apart from the construction.

    ``outcome`` reads decisions (or fire times) off a behavior;
    ``references`` are the all-correct runs' ``(label, common input)``
    in run order; ``deadline`` reads the deadline (``t'``, or the fire
    time ``t``) off those runs, keyed by their common input, and the
    witness records it under ``deadline_key``.
    """

    name: str
    spec: Any
    outcome: Callable[[Any], Mapping[NodeId, Any]]
    references: tuple[tuple[str, int], ...]
    deadline: Callable[[Mapping[int, TimedBehavior]], float]
    deadline_key: str


@dataclass(frozen=True)
class _TimedCover:
    """One Theorem 2/4 construction for ring parameter ``k``.

    One half of the covering holds input 1 and the other input 0.  Each
    of the ``middles`` (mapped to its ring index or copy) is at distance
    ``k`` from the other half, so through the deadline it must behave
    like the all-correct reference run of its own input.
    """

    covering: CoveringMap
    inputs: Mapping[NodeId, int]
    middles: Mapping[NodeId, int]
    scenarios: Sequence[tuple[str, Sequence[NodeId]]]
    bound: str


def _bounded_delay_argument(
    problem: _BoundedDelayProblem,
    graph: CommunicationGraph,
    factories: Mapping[NodeId, DeviceFactory],
    max_faults: int,
    delta: float,
    deadline: float,
    horizon_slack: float,
    require_violation: bool,
    stub_bound: str,
    construct: Callable[[int], _TimedCover],
    summarize: Callable[[float, int, _TimedCover, TimedBehavior], dict],
) -> ImpossibilityWitness:
    """Theorems 2 and 4, once.

    Run the two all-correct references (a violation there is the
    witness at once), pick ``k`` from their deadline, run the
    construction once, check its middles against the references, and
    realize and check every scenario as a correct behavior of
    ``graph``.  ``summarize`` adds the engine's own ``extra`` entries.
    """
    references = {
        value: run_timed(
            make_timed_system(
                graph, factories, {u: value for u in graph.nodes}, delay=delta
            ),
            horizon=deadline,
        )
        for _label, value in problem.references
    }
    for label, value in problem.references:
        verdict = problem.spec.check(
            {u: value for u in graph.nodes},
            problem.outcome(references[value]),
            graph.nodes,
            all_correct=True,
        )
        if not verdict.ok:
            stub = _ScenarioStub(
                label=label,
                scenario_nodes=tuple(graph.nodes),
                correct_nodes=frozenset(graph.nodes),
            )
            return ImpossibilityWitness(
                problem=problem.name,
                bound=stub_bound,
                graph=graph,
                max_faults=max_faults,
                checked=(CheckedBehavior(constructed=stub, verdict=verdict),),
                extra={"stage": "all-correct reference runs"},
            )

    t = problem.deadline(references)
    k = ring_parameter(t, delta)
    cover = construct(k)
    cover_system = install_in_covering_timed(
        cover.covering, factories, cover.inputs, delay=delta
    )
    cover_behavior = run_timed(cover_system, max(k * delta, t) * horizon_slack)

    # Lemma 3 (and its firing-squad analogue), checked operationally.
    for node in cover.middles:
        reference = references[cover.inputs[node]]
        if not cover_behavior.node(node).prefix_equal(
            reference.node(cover.covering(node)), through=t
        ):
            raise TimedArgumentError(
                f"bounded-delay indistinguishability failed at {node!r}: "
                "its behavior differs from the all-correct reference "
                "before information could arrive — candidate devices are "
                "nondeterministic"
            )

    checked = []
    for label, nodes in cover.scenarios:
        constructed = build_base_behavior_timed(
            cover.covering, cover_system, cover_behavior, nodes, factories,
            label=label,
        )
        verdict = problem.spec.check(
            constructed.inputs,
            problem.outcome(constructed),
            constructed.correct_nodes,
            all_correct=False,
        )
        checked.append(CheckedBehavior(constructed=constructed, verdict=verdict))

    witness = ImpossibilityWitness(
        problem=problem.name,
        bound=cover.bound,
        graph=graph,
        max_faults=max_faults,
        checked=tuple(checked),
        extra={
            problem.deadline_key: t,
            "k": k,
            **summarize(t, k, cover, cover_behavior),
        },
    )
    return witness.require_found() if require_violation else witness
