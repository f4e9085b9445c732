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
    CyclicCover,
    connectivity_cyclic_cover,
    cut_partition_for_connectivity,
)
from ..graphs.graph import CommunicationGraph, NodeId
from ..problems.byzantine import WeakAgreementSpec
from ..problems.firing_squad import FiringSquadSpec
from ..runtime.timed.device import DeviceFactory
from ..runtime.timed.executor import run_timed
from ..runtime.timed.system import install_in_covering_timed, make_timed_system
from .timed_argument import TimedArgumentError, build_base_behavior_timed
from .weak import _AllCorrectStub, ring_parameter
from .witness import CheckedBehavior, ImpossibilityWitness

_WEAK_SPEC = WeakAgreementSpec()
_FIRE_SPEC = FiringSquadSpec()


def _scenario_sets(
    cover: CyclicCover,
    side_a: set[NodeId],
    cut_b: set[NodeId],
    side_c: set[NodeId],
    cut_d: set[NodeId],
) -> list[tuple[str, list[NodeId]]]:
    sets = []
    m = cover.fold
    for i in range(m):
        a_i = [cover.copy_of(v, i) for v in sorted(side_a, key=str)]
        b_i = [cover.copy_of(v, i) for v in sorted(cut_b, key=str)]
        c_i = [cover.copy_of(v, i) for v in sorted(side_c, key=str)]
        c_next = [cover.copy_of(v, i + 1) for v in sorted(side_c, key=str)]
        d_next = [cover.copy_of(v, i + 1) for v in sorted(cut_d, key=str)]
        sets.append((f"A{i}", a_i + b_i + c_i))
        sets.append((f"B{i}", a_i + d_next + c_next))
    return sets


def _run_cyclic_construction(
    graph: CommunicationGraph,
    factories: Mapping[NodeId, DeviceFactory],
    max_faults: int,
    delta: float,
    copies_half: int,
    horizon: float,
):
    parts = cut_partition_for_connectivity(graph, max_faults)
    side_a, cut_b, side_c, cut_d = parts
    m = 2 * copies_half
    cover = connectivity_cyclic_cover(
        graph, cut_b, cut_d, side_a, side_c, copies=m
    )
    cover_inputs = {}
    for i in range(m):
        value = 1 if i < copies_half else 0
        for v in graph.nodes:
            cover_inputs[cover.copy_of(v, i)] = value
    cover_system = install_in_covering_timed(
        cover.covering, factories, cover_inputs, delay=delta
    )
    cover_behavior = run_timed(cover_system, horizon)
    return parts, cover, cover_system, cover_behavior


def _check_middles(
    cover: CyclicCover,
    cover_behavior,
    references: Mapping[int, object],
    graph: CommunicationGraph,
    through: float,
) -> list[dict]:
    """The bounded-delay indistinguishability step: every node of the
    middle copy of each half behaves like the all-correct reference."""
    middles = []
    for copy_index, reference in references.items():
        for v in graph.nodes:
            node = cover.copy_of(v, copy_index)
            if not cover_behavior.node(node).prefix_equal(
                reference.node(v), through=through
            ):
                raise TimedArgumentError(
                    f"indistinguishability failed at {node!r}: candidate "
                    "devices are nondeterministic"
                )
            middles.append(
                {
                    "node": node,
                    "copy": copy_index,
                    "decision": cover_behavior.node(node).decision,
                    "fire_time": cover_behavior.node(node).fire_time,
                }
            )
    return middles


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
    run0 = run_timed(
        make_timed_system(
            graph, factories, {u: 0 for u in graph.nodes}, delay=delta
        ),
        horizon=decision_deadline,
    )
    run1 = run_timed(
        make_timed_system(
            graph, factories, {u: 1 for u in graph.nodes}, delay=delta
        ),
        horizon=decision_deadline,
    )
    for label, reference, value in (("all-0", run0, 0), ("all-1", run1, 1)):
        verdict = _WEAK_SPEC.check(
            {u: value for u in graph.nodes},
            reference.decisions(),
            graph.nodes,
            all_correct=True,
        )
        if not verdict.ok:
            return ImpossibilityWitness(
                problem="weak-agreement",
                bound="2f+1 connectivity",
                graph=graph,
                max_faults=max_faults,
                checked=(
                    CheckedBehavior(
                        constructed=_AllCorrectStub(
                            label=label,
                            scenario_nodes=tuple(graph.nodes),
                            correct_nodes=frozenset(graph.nodes),
                        ),
                        verdict=verdict,
                    ),
                ),
                extra={"stage": "all-correct reference runs"},
            )

    t_prime = max(run0.max_decision_time(), run1.max_decision_time())
    k = ring_parameter(t_prime, delta)
    copies_half = 2 * k
    horizon = max(k * delta, t_prime) * horizon_slack
    parts, cover, cover_system, cover_behavior = _run_cyclic_construction(
        graph, factories, max_faults, delta, copies_half, horizon
    )
    side_a, cut_b, side_c, cut_d = parts

    middles = _check_middles(
        cover, cover_behavior, {k: run1, 3 * k: run0}, graph, t_prime
    )
    checked = []
    for label, nodes in _scenario_sets(cover, side_a, cut_b, side_c, cut_d):
        constructed = build_base_behavior_timed(
            cover.covering, cover_system, cover_behavior, nodes, factories,
            label=label,
        )
        verdict = _WEAK_SPEC.check(
            constructed.inputs,
            constructed.decisions(),
            constructed.correct_nodes,
            all_correct=False,
        )
        checked.append(CheckedBehavior(constructed=constructed, verdict=verdict))

    witness = ImpossibilityWitness(
        problem="weak-agreement",
        bound=f"2f+1 connectivity (cyclic {2 * copies_half}-fold cover)",
        graph=graph,
        max_faults=max_faults,
        checked=tuple(checked),
        extra={
            "t_prime": t_prime,
            "k": k,
            "copies": 2 * copies_half,
            "middles": middles,
        },
    )
    if require_violation:
        witness.require_found()
    return witness


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
    stimulated = run_timed(
        make_timed_system(
            graph, factories, {u: 1 for u in graph.nodes}, delay=delta
        ),
        horizon=fire_deadline,
    )
    quiet = run_timed(
        make_timed_system(
            graph, factories, {u: 0 for u in graph.nodes}, delay=delta
        ),
        horizon=fire_deadline,
    )
    for label, reference, inputs in (
        ("all-stimulated", stimulated, {u: 1 for u in graph.nodes}),
        ("all-quiet", quiet, {u: 0 for u in graph.nodes}),
    ):
        verdict = _FIRE_SPEC.check(
            inputs, reference.fire_times(), graph.nodes, all_correct=True
        )
        if not verdict.ok:
            return ImpossibilityWitness(
                problem="byzantine-firing-squad",
                bound="2f+1 connectivity",
                graph=graph,
                max_faults=max_faults,
                checked=(
                    CheckedBehavior(
                        constructed=_AllCorrectStub(
                            label=label,
                            scenario_nodes=tuple(graph.nodes),
                            correct_nodes=frozenset(graph.nodes),
                        ),
                        verdict=verdict,
                    ),
                ),
                extra={"stage": "all-correct reference runs"},
            )

    t_fire = max(
        t for t in stimulated.fire_times().values() if t is not None
    )
    k = ring_parameter(t_fire, delta)
    copies_half = 2 * k
    horizon = max(k * delta, t_fire) * horizon_slack
    parts, cover, cover_system, cover_behavior = _run_cyclic_construction(
        graph, factories, max_faults, delta, copies_half, horizon
    )
    side_a, cut_b, side_c, cut_d = parts

    middles = _check_middles(
        cover, cover_behavior, {k: stimulated, 3 * k: quiet}, graph, t_fire
    )
    checked = []
    for label, nodes in _scenario_sets(cover, side_a, cut_b, side_c, cut_d):
        constructed = build_base_behavior_timed(
            cover.covering, cover_system, cover_behavior, nodes, factories,
            label=label,
        )
        verdict = _FIRE_SPEC.check(
            constructed.inputs,
            constructed.fire_times(),
            constructed.correct_nodes,
            all_correct=False,
        )
        checked.append(CheckedBehavior(constructed=constructed, verdict=verdict))

    witness = ImpossibilityWitness(
        problem="byzantine-firing-squad",
        bound=f"2f+1 connectivity (cyclic {2 * copies_half}-fold cover)",
        graph=graph,
        max_faults=max_faults,
        checked=tuple(checked),
        extra={
            "fire_time": t_fire,
            "k": k,
            "copies": 2 * copies_half,
            "middles": middles,
        },
    )
    if require_violation:
        witness.require_found()
    return witness


def refute_clock_sync_connectivity(
    graph: CommunicationGraph,
    factories: Mapping[NodeId, DeviceFactory],
    max_faults: int,
    setting,
    delay: float = 0.125,
    require_violation: bool = True,
    tolerance: float = 1e-7,
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
    from ..problems.spec import SpecVerdict, Violation
    from ..runtime.timed.clocks import compose, drift_map, verify_clock_order
    from .clock_sync import choose_k

    verify_clock_order(setting.p, setting.q)
    h = drift_map(setting.p, setting.q)
    k = choose_k(setting)
    copies = k + 2
    side_a, cut_b, side_c, cut_d = cut_partition_for_connectivity(
        graph, max_faults
    )
    cover = connectivity_cyclic_cover(
        graph, cut_b, cut_d, side_a, side_c, copies=copies
    )
    copy_clock = [
        compose(setting.q, h_back) for h_back in h.inverse().powers(copies)
    ]
    cover_clocks = {}
    for i in range(copies):
        for v in graph.nodes:
            cover_clocks[cover.copy_of(v, i)] = copy_clock[i]
    cover_system = install_in_covering_timed(
        cover.covering,
        factories,
        {cover.copy_of(v, i): None for i in range(copies) for v in graph.nodes},
        delay=delay,
        delay_mode="clock",
        cover_clocks=cover_clocks,
    )
    t_double_prime = h.iterate(k)(setting.t_prime)
    horizon = t_double_prime * 1.05 + 1.0
    cover_behavior = run_timed(cover_system, horizon)

    def logical(copy_index, v):
        return cover_behavior.node(
            cover.copy_of(v, copy_index)
        ).logical_value(t_double_prime)

    def part_nodes(part, i):
        return [(v, i) for v in sorted(part, key=str)]

    checked = []
    nu_trace = []
    for i in range(k + 1):
        fast = copy_clock[i](t_double_prime)     # q at scaled time
        slow = copy_clock[i + 1](t_double_prime)  # p at scaled time
        scale = max(1.0, abs(fast), abs(slow))
        tol = tolerance * scale
        bound = setting.lower(fast) - setting.lower(slow) - setting.alpha
        low = setting.lower(slow)
        high = setting.upper(fast)

        scenarios = (
            (
                f"A{i}",
                part_nodes(side_a, i) + part_nodes(cut_b, i)
                + part_nodes(side_c, i),
                frozenset(side_a | cut_b | side_c),
                frozenset(cut_d),
            ),
            (
                f"B{i}",
                part_nodes(side_a, i) + part_nodes(cut_d, i + 1)
                + part_nodes(side_c, i + 1),
                frozenset(side_a | cut_d | side_c),
                frozenset(cut_b),
            ),
        )
        for label, members, correct, faulty in scenarios:
            violations = []
            values = {
                (v, ci): logical(ci, v) for (v, ci) in members
            }
            items = sorted(values.items(), key=lambda kv: str(kv[0]))
            for index, ((v1, c1), val1) in enumerate(items):
                for (v2, c2), val2 in items[index + 1:]:
                    if abs(val1 - val2) > bound + tol:
                        violations.append(
                            Violation(
                                "agreement",
                                f"|C_{v1}@{c1} - C_{v2}@{c2}| = "
                                f"{abs(val1 - val2):.6g} > {bound:.6g} at "
                                f"t'' (scaled scenario {label}·h^{i})",
                                (v1, v2),
                            )
                        )
                if val1 < low - tol or val1 > high + tol:
                    violations.append(
                        Violation(
                            "validity",
                            f"C_{v1}@{c1}(t'') = {val1:.6g} outside "
                            f"[{low:.6g}, {high:.6g}]",
                            (v1,),
                        )
                    )
            checked.append(
                CheckedBehavior(
                    constructed=_AllCorrectStub(
                        label=label,
                        scenario_nodes=tuple(
                            cover.copy_of(v, ci) for (v, ci) in members
                        ),
                        correct_nodes=correct,
                        faulty_nodes=faulty,
                    ),
                    verdict=SpecVerdict(tuple(violations)),
                )
            )
        nu_trace.append(
            {
                "copy": i,
                "min_logical": min(
                    logical(i, v) for v in graph.nodes
                ),
                "nu_min": min(logical(i, v) for v in graph.nodes)
                - setting.lower(copy_clock[i](t_double_prime)),
            }
        )

    witness = ImpossibilityWitness(
        problem="clock-synchronization",
        bound=f"2f+1 connectivity (cyclic {copies}-fold cover; k = {k})",
        graph=graph,
        max_faults=max_faults,
        checked=tuple(checked),
        extra={
            "k": k,
            "copies": copies,
            "t_double_prime": t_double_prime,
            "nu_trace": nu_trace,
        },
    )
    if require_violation:
        witness.require_found()
    return witness
