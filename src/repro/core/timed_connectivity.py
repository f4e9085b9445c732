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
from ..problems.spec import SpecVerdict, Violation
from ..runtime.timed.behavior import TimedBehavior
from ..runtime.timed.clocks import compose, drift_map, verify_clock_order
from ..runtime.timed.device import DeviceFactory
from ..runtime.timed.executor import run_timed
from ..runtime.timed.system import install_in_covering_timed
from .clock_sync import choose_k
from .covering_argument import _cyclic_scenarios
from .firing_squad import _FIRING
from .timed_argument import _bounded_delay_argument, _TimedCover
from .weak import _WEAK
from .witness import CheckedBehavior, ImpossibilityWitness, _ScenarioStub


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

    def logical(node):
        return cover_behavior.node(node).logical_value(t_double_prime)

    # Name each scenario node by its (base node, copy) pair, as the
    # violations do.
    pair = {
        cover.copy_of(v, i): (v, i) for i in range(copies) for v in graph.nodes
    }
    scenarios = _cyclic_scenarios(cover, side_a, cut_b, side_c, cut_d)

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

        for label, nodes in scenarios[2 * i : 2 * i + 2]:
            violations = []
            values = {pair[u]: logical(u) for u in nodes}
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
            correct = frozenset(cover.covering(u) for u in nodes)
            checked.append(
                CheckedBehavior(
                    constructed=_ScenarioStub(
                        label=label,
                        scenario_nodes=tuple(nodes),
                        correct_nodes=correct,
                        faulty_nodes=frozenset(graph.nodes) - correct,
                    ),
                    verdict=SpecVerdict(tuple(violations)),
                )
            )
        min_logical = min(logical(cover.copy_of(v, i)) for v in graph.nodes)
        nu_trace.append(
            {
                "copy": i,
                "min_logical": min_logical,
                "nu_min": min_logical
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
    return witness.require_found() if require_violation else witness
