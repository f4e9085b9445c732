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

from ..graphs.builders import triangle
from ..graphs.coverings import (
    connectivity_cyclic_cover,
    cut_partition_for_connectivity,
    ring_cover_of_triangle,
)
from ..graphs.graph import CommunicationGraph, NodeId
from ..problems.approximate import (
    EpsilonDeltaGammaSpec,
    SimpleApproximateAgreementSpec,
)
from ..runtime.sync.device import SyncDevice
from ..runtime.sync.system import install_in_covering
from .byzantine import _connectivity_chain, _node_bound_chain
from .covering_argument import ChainResult, _chain, _cyclic_scenarios
from .witness import ImpossibilityWitness, _chain_witness, _spec_verdict

_SIMPLE_VERDICT = _spec_verdict(SimpleApproximateAgreementSpec())


def refute_simple_node_bound(
    graph: CommunicationGraph,
    devices: Mapping[NodeId, SyncDevice],
    max_faults: int,
    rounds: int,
    require_violation: bool = True,
) -> ImpossibilityWitness:
    """Theorem 5, node bound: simple approximate agreement on ``n <= 3f``."""
    return _chain_witness(
        "simple-approximate-agreement", "3f+1 nodes", graph, max_faults,
        _node_bound_chain(graph, devices, max_faults, rounds, (0.0, 1.0)),
        _SIMPLE_VERDICT, require_violation,
    )


def refute_simple_connectivity(
    graph: CommunicationGraph,
    devices: Mapping[NodeId, SyncDevice],
    max_faults: int,
    rounds: int,
    require_violation: bool = True,
) -> ImpossibilityWitness:
    """Theorem 5, connectivity bound: ``c(G) <= 2f``."""
    return _chain_witness(
        "simple-approximate-agreement", "2f+1 connectivity", graph,
        max_faults,
        _connectivity_chain(graph, devices, max_faults, rounds, (0.0, 1.0)),
        _SIMPLE_VERDICT, require_violation,
    )


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


def _epsilon_delta_ring(
    devices: Mapping[NodeId, SyncDevice],
    epsilon: float,
    delta: float,
    gamma: float,
    rounds: int,
    base: CommunicationGraph,
) -> tuple[int, ChainResult]:
    """Theorem 6's chain on the triangle ``base``: ring node ``i`` of
    the ``(k+2)``-ring holds input ``i·δ``, and each adjacent pair is
    the correct behavior ``E_i``.  Returns ``k`` and the chain."""
    k = ring_size_for_epsilon_delta(epsilon, delta, gamma)
    covering = ring_cover_of_triangle(k + 2, base)
    ring = covering.cover.nodes
    cover_system = install_in_covering(
        covering, devices, {node: i * delta for i, node in enumerate(ring)}
    )
    chain = _chain(
        covering,
        cover_system,
        devices,
        ((f"E{i}", ring[i : i + 2]) for i in range(k + 1)),
        rounds,
    )
    return k, chain


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
    cover_system = install_in_covering(
        cover.covering,
        devices,
        {
            cover.copy_of(v, i): i * delta
            for i in range(copies)
            for v in graph.nodes
        },
    )
    # The chain runs along the copies 0..k+1: the wrap pair, whose
    # inputs differ by (k+1)·δ, is never used — as the triangle ring
    # construction never uses the wrap edge's pair.
    scenarios = _cyclic_scenarios(cover, side_a, cut_b, side_c, cut_d)[:-2]
    return _chain_witness(
        "epsilon-delta-gamma-agreement",
        (
            f"2f+1 connectivity (cyclic {copies}-fold cover; "
            f"ε={epsilon}, δ={delta}, γ={gamma}, k={k})"
        ),
        graph,
        max_faults,
        _chain(cover.covering, cover_system, devices, scenarios, rounds),
        _spec_verdict(EpsilonDeltaGammaSpec(epsilon, delta, gamma)),
        require_violation,
        extra={"k": k, "copies": copies},
    )


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
    base = base or triangle()
    k, chain = _epsilon_delta_ring(
        devices, epsilon, delta, gamma, rounds, base
    )
    lemma7 = []
    for index, node in enumerate(chain.cover_system.graph.nodes):
        value = chain.cover_system.input(node)
        lemma7.append(
            {
                "node": node,
                "input": value,
                "chosen": chain.cover_behavior.decision(node),
                "lemma7_upper_bound": (
                    delta + gamma + max(0, index - 1) * epsilon
                    if index >= 1
                    else None
                ),
                "validity_lower_bound": value - delta - gamma,
            }
        )
    return _chain_witness(
        "epsilon-delta-gamma-agreement",
        f"3f+1 nodes (ε={epsilon}, δ={delta}, γ={gamma}, k={k})",
        base,
        1,
        chain,
        _spec_verdict(EpsilonDeltaGammaSpec(epsilon, delta, gamma)),
        require_violation,
        extra={"lemma7": lemma7, "k": k},
    )
