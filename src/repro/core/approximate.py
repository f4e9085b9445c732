"""Theorems 5 and 6, executable: approximate agreement is impossible in
inadequate graphs.

Theorem 5 (:func:`refute_simple_node_bound`,
:func:`refute_simple_connectivity`) reuses the Theorem 1 chains with
real inputs 0 and 1: in ``E1`` validity forces output 0, in ``E3`` it
forces output 1, and in ``E2`` the agreement condition then demands the
outputs be strictly closer than the inputs — impossible.

Theorem 6 (:func:`refute_epsilon_delta`) uses the ``(k+2)``-node ring
cover with inputs ``0, δ, 2δ, ..., (k+1)δ``: each adjacent pair is a
correct behavior of the triangle, validity anchors node 1 near 0,
agreement lets each step drift at most ε, and validity at the far end
demands a value near ``kδ`` — unreachable once
``k > 1 + 2γ / (δ - ε)`` (Lemma 7).
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from ..graphs.adequacy import required_nodes
from ..graphs.builders import triangle
from ..graphs.coverings import (
    connectivity_double_cover,
    cut_partition_for_connectivity,
    node_bound_double_cover,
    partition_for_node_bound,
    ring_cover_of_triangle,
)
from ..graphs.graph import CommunicationGraph, GraphError, NodeId
from ..problems.approximate import (
    EpsilonDeltaGammaSpec,
    SimpleApproximateAgreementSpec,
)
from ..runtime.sync.device import SyncDevice
from ..runtime.sync.system import install_in_covering
from .covering_argument import (
    ChainResult,
    build_base_behavior,
    connectivity_scenarios,
    node_bound_scenarios,
    run,
    run_scenario_chain,
    shared_links,
)
from .witness import CheckedBehavior, ImpossibilityWitness

_SIMPLE_SPEC = SimpleApproximateAgreementSpec()


def refute_simple_node_bound(
    graph: CommunicationGraph,
    devices: Mapping[NodeId, SyncDevice],
    max_faults: int,
    rounds: int,
    require_violation: bool = True,
) -> ImpossibilityWitness:
    """Theorem 5, node bound: simple approximate agreement on ``n <= 3f``."""
    if len(graph) >= required_nodes(max_faults):
        raise GraphError(
            f"graph has {len(graph)} >= 3f+1 nodes; argument does not apply"
        )
    part_a, part_b, part_c = partition_for_node_bound(graph, max_faults)
    dc = node_bound_double_cover(graph, part_a, part_b, part_c)
    cover_inputs = {dc.copy_of(v, 0): 0.0 for v in graph.nodes}
    cover_inputs.update({dc.copy_of(v, 1): 1.0 for v in graph.nodes})
    cover_system = install_in_covering(dc.covering, devices, cover_inputs)
    chain = run_scenario_chain(
        dc.covering,
        cover_system,
        devices,
        node_bound_scenarios(dc, part_a, part_b, part_c),
        rounds,
    )
    return _simple_witness(
        "simple-approximate-agreement", "3f+1 nodes", graph, max_faults,
        chain, require_violation,
    )


def refute_simple_connectivity(
    graph: CommunicationGraph,
    devices: Mapping[NodeId, SyncDevice],
    max_faults: int,
    rounds: int,
    require_violation: bool = True,
) -> ImpossibilityWitness:
    """Theorem 5, connectivity bound: ``c(G) <= 2f``."""
    side_a, cut_b, side_c, cut_d = cut_partition_for_connectivity(
        graph, max_faults
    )
    dc = connectivity_double_cover(graph, cut_b, cut_d, side_a, side_c)
    cover_inputs = {dc.copy_of(v, 0): 0.0 for v in graph.nodes}
    cover_inputs.update({dc.copy_of(v, 1): 1.0 for v in graph.nodes})
    cover_system = install_in_covering(dc.covering, devices, cover_inputs)
    chain = run_scenario_chain(
        dc.covering,
        cover_system,
        devices,
        connectivity_scenarios(dc, side_a, cut_b, side_c, cut_d),
        rounds,
    )
    return _simple_witness(
        "simple-approximate-agreement", "2f+1 connectivity", graph,
        max_faults, chain, require_violation,
    )


def _simple_witness(
    problem: str,
    bound: str,
    graph: CommunicationGraph,
    max_faults: int,
    chain: ChainResult,
    require_violation: bool,
) -> ImpossibilityWitness:
    checked = tuple(
        CheckedBehavior(
            constructed=c,
            verdict=_SIMPLE_SPEC.check(
                c.inputs, c.decisions(), c.correct_nodes
            ),
        )
        for c in chain.constructed
    )
    witness = ImpossibilityWitness(
        problem=problem,
        bound=bound,
        graph=graph,
        max_faults=max_faults,
        checked=checked,
        links=chain.links,
    )
    if require_violation:
        witness.require_found()
    return witness


# ---------------------------------------------------------------------------
# Theorem 6: (ε, δ, γ)-agreement
# ---------------------------------------------------------------------------


def ring_size_for_epsilon_delta(
    epsilon: float, delta: float, gamma: float
) -> int:
    """The smallest valid ring size ``k + 2`` for Theorem 6's argument.

    Needs ``δ > 2γ/(k-1) + ε`` — i.e. ``k > 1 + 2γ/(δ - ε)`` — and
    ``k + 2`` divisible by three.
    """
    if epsilon >= delta:
        raise ValueError(
            "(ε,δ,γ)-agreement with ε >= δ is trivially solvable; "
            "Theorem 6 needs ε < δ"
        )
    k = max(2, math.floor(1 + 2 * gamma / (delta - epsilon)) + 1)
    while (k + 2) % 3 != 0:
        k += 1
    return k


def refute_epsilon_delta_connectivity(
    graph: CommunicationGraph,
    devices: Mapping[NodeId, SyncDevice],
    max_faults: int,
    epsilon: float,
    delta: float,
    gamma: float,
    rounds: int,
    require_violation: bool = True,
) -> ImpossibilityWitness:
    """Theorem 6's connectivity bound: (ε,δ,γ)-agreement with ``ε < δ``
    is impossible when ``c(G) <= 2f``.

    The §3.2 construction stretched: a cyclic chain of ``k + 2`` copies
    of ``G`` (every ``a``–``d`` edge re-routed to the next copy), copy
    ``i`` holding input ``i·δ``.  Scenarios alternate
    ``A(i) = (a∪b∪c)@i`` (inputs δ-close: equal) and
    ``B(i) = a@i ∪ (d∪c)@(i+1)`` (inputs exactly δ apart), each a
    correct behavior of ``G``; the Lemma 7 drift argument then runs
    along the chain of copies.

    Stepping from copy ``i`` to ``i+1`` passes through *two* agreement
    conditions (one ``B``, one ``A``), so the per-copy drift allowance
    is ``2ε`` and this chain refutes exactly the range ``ε < δ/2``
    (the triangle-ring engine covers the full ``ε < δ`` for ``n <= 3f``
    graphs; the stronger connectivity-only statement would need a
    finer scenario interleaving).
    """
    import math

    from ..graphs.coverings import (
        connectivity_cyclic_cover,
        cut_partition_for_connectivity,
    )

    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    if epsilon >= delta / 2:
        raise ValueError(
            "the cyclic-cover chain drifts 2ε per copy; this engine needs "
            "ε < δ/2"
        )
    side_a, cut_b, side_c, cut_d = cut_partition_for_connectivity(
        graph, max_faults
    )
    # Contradiction requires k·δ - γ > δ + γ + 2kε.
    k = max(2, math.floor((delta + 2 * gamma) / (delta - 2 * epsilon)) + 1)
    copies = k + 2
    cover = connectivity_cyclic_cover(
        graph, cut_b, cut_d, side_a, side_c, copies=copies
    )
    cover_inputs = {}
    for i in range(copies):
        for v in graph.nodes:
            cover_inputs[cover.copy_of(v, i)] = i * delta
    cover_system = install_in_covering(
        cover.covering, dict(devices), cover_inputs
    )
    cover_behavior = run(cover_system, rounds)

    spec = EpsilonDeltaGammaSpec(epsilon, delta, gamma)

    def part_nodes(part, i):
        return [cover.copy_of(v, i) for v in sorted(part, key=str)]

    checked = []
    constructed = []
    # Scenario chain along the copies 0..k+1 (the wrap pair, whose
    # inputs differ by (k+1)·δ, is never used — same as the triangle
    # ring construction never using the wrap edge's pair).
    for i in range(copies - 1):
        a_i = part_nodes(side_a, i)
        b_i = part_nodes(cut_b, i)
        c_i = part_nodes(side_c, i)
        c_next = part_nodes(side_c, i + 1)
        d_next = part_nodes(cut_d, i + 1)
        for label, nodes in (
            (f"A{i}", a_i + b_i + c_i),
            (f"B{i}", a_i + d_next + c_next),
        ):
            c = build_base_behavior(
                cover.covering, cover_system, cover_behavior, nodes,
                dict(devices), label=label,
            )
            checked.append(
                CheckedBehavior(
                    constructed=c,
                    verdict=spec.check(
                        c.inputs, c.decisions(), c.correct_nodes
                    ),
                )
            )
            constructed.append(c)

    links = []
    for previous, current in zip(constructed, constructed[1:]):
        links.extend(shared_links(cover.covering, previous, current))
    witness = ImpossibilityWitness(
        problem="epsilon-delta-gamma-agreement",
        bound=(
            f"2f+1 connectivity (cyclic {copies}-fold cover; "
            f"ε={epsilon}, δ={delta}, γ={gamma}, k={k})"
        ),
        graph=graph,
        max_faults=max_faults,
        checked=tuple(checked),
        links=tuple(links),
        extra={"k": k, "copies": copies},
    )
    if require_violation:
        witness.require_found()
    return witness


def refute_epsilon_delta(
    devices: Mapping[NodeId, SyncDevice],
    epsilon: float,
    delta: float,
    gamma: float,
    rounds: int,
    base: CommunicationGraph | None = None,
    require_violation: bool = True,
) -> ImpossibilityWitness:
    """Theorem 6: refute claimed (ε,δ,γ)-devices for the triangle.

    ``devices`` maps the triangle's nodes (``a, b, c`` by default) to
    the claimed devices.  The returned witness carries the Lemma 7
    trace in ``extra["lemma7"]``: for each ring node, the value its
    device chose and the inductive upper bound ``δ + γ + iε``.
    """
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    base = base or triangle()
    k = ring_size_for_epsilon_delta(epsilon, delta, gamma)
    covering = ring_cover_of_triangle(k + 2, base)
    ring_nodes = covering.cover.nodes
    cover_inputs = {
        node: index * delta for index, node in enumerate(ring_nodes)
    }
    cover_system = install_in_covering(covering, devices, cover_inputs)
    cover_behavior = run(cover_system, rounds)

    spec_cache: dict[int, EpsilonDeltaGammaSpec] = {}
    checked = []
    constructed = []
    for i in range(k + 1):
        pair = [ring_nodes[i], ring_nodes[i + 1]]
        c = build_base_behavior(
            covering, cover_system, cover_behavior, pair, devices,
            label=f"E{i}",
        )
        spec = spec_cache.setdefault(
            0, EpsilonDeltaGammaSpec(epsilon, delta, gamma)
        )
        checked.append(
            CheckedBehavior(
                constructed=c,
                verdict=spec.check(c.inputs, c.decisions(), c.correct_nodes),
            )
        )
        constructed.append(c)

    links = []
    for previous, current in zip(constructed, constructed[1:]):
        links.extend(shared_links(covering, previous, current))

    lemma7 = []
    for index, node in enumerate(ring_nodes):
        chosen = cover_behavior.decision(node)
        bound = delta + gamma + max(0, index - 1) * epsilon
        lemma7.append(
            {
                "node": node,
                "input": cover_inputs[node],
                "chosen": chosen,
                "lemma7_upper_bound": bound if index >= 1 else None,
                "validity_lower_bound": cover_inputs[node] - delta - gamma,
            }
        )

    witness = ImpossibilityWitness(
        problem="epsilon-delta-gamma-agreement",
        bound=f"3f+1 nodes (ε={epsilon}, δ={delta}, γ={gamma}, k={k})",
        graph=base,
        max_faults=1,
        checked=tuple(checked),
        links=tuple(links),
        extra={"lemma7": lemma7, "k": k},
    )
    if require_violation:
        witness.require_found()
    return witness
