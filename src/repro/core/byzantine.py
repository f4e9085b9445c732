"""Theorem 1, executable: Byzantine agreement is impossible in
inadequate graphs.

:func:`refute_node_bound` runs the Section 3.1 argument (``n <= 3f``):
partition the nodes into three classes of size at most ``f``, build the
rewired double cover (the hexagon, for the triangle), run the candidate
devices in it, and realize the three scenarios ``E1, E2, E3`` as
correct behaviors of ``G``.  Validity pins ``E1`` to the 0-input value
and ``E3`` to the 1-input value, while agreement and the shared correct
behaviors force them to be equal — so, for any concrete devices, at
least one of the three behaviors violates the spec, and the returned
witness names it.

:func:`refute_connectivity` runs the Section 3.2 argument
(``c(G) <= 2f``) with the two-copies-crossed-at-the-cut covering (the
eight-node ring, for the diamond).

Both chains are shared with Theorem 5 (:mod:`repro.core.approximate`),
which only changes the inputs and the specification.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from ..graphs.adequacy import required_connectivity
from ..graphs.coverings import (
    connectivity_double_cover,
    cut_partition_for_connectivity,
    node_bound_double_cover,
    partition_for_node_bound,
)
from ..graphs.graph import CommunicationGraph, NodeId
from ..problems.byzantine import ByzantineAgreementSpec
from ..runtime.sync.device import SyncDevice
from .covering_argument import (
    ChainResult,
    _two_sheet_chain,
    connectivity_scenarios,
    node_bound_scenarios,
)
from .witness import ImpossibilityWitness, _chain_witness, _spec_verdict

_VERDICT = _spec_verdict(ByzantineAgreementSpec())


def refute_node_bound(
    graph: CommunicationGraph,
    devices: Mapping[NodeId, SyncDevice],
    max_faults: int,
    rounds: int,
    inputs: tuple[Any, Any] = (0, 1),
    require_violation: bool = True,
) -> ImpossibilityWitness:
    """Refute claimed agreement devices on a graph with ``n <= 3f``.

    Parameters
    ----------
    graph:
        The inadequate communication graph ``G``.
    devices:
        One claimed agreement device per node of ``G``.
    max_faults:
        The fault budget ``f``; must satisfy ``len(graph) <= 3f``.
    rounds:
        Horizon: an upper bound on the devices' decision time.
    inputs:
        The two input values assigned to the two sheets of the cover.
    """
    return _chain_witness(
        "byzantine-agreement", "3f+1 nodes", graph, max_faults,
        _node_bound_chain(graph, devices, max_faults, rounds, inputs),
        _VERDICT, require_violation,
    )


def refute_connectivity(
    graph: CommunicationGraph,
    devices: Mapping[NodeId, SyncDevice],
    max_faults: int,
    rounds: int,
    inputs: tuple[Any, Any] = (0, 1),
    require_violation: bool = True,
) -> ImpossibilityWitness:
    """Refute claimed agreement devices on a graph with ``c(G) <= 2f``."""
    return _chain_witness(
        "byzantine-agreement",
        f"2f+1 connectivity (κ < {required_connectivity(max_faults)})",
        graph,
        max_faults,
        _connectivity_chain(graph, devices, max_faults, rounds, inputs),
        _VERDICT,
        require_violation,
    )


def _node_bound_chain(
    graph: CommunicationGraph,
    devices: Mapping[NodeId, SyncDevice],
    max_faults: int,
    rounds: int,
    inputs: tuple[Any, Any],
) -> ChainResult:
    """The Section 3.1 chain; the partition raises a ``GraphError`` when
    ``n > 3f``."""
    parts = partition_for_node_bound(graph, max_faults)
    cover = node_bound_double_cover(graph, *parts)
    return _two_sheet_chain(
        cover, devices, inputs, node_bound_scenarios(cover, *parts), rounds
    )


def _connectivity_chain(
    graph: CommunicationGraph,
    devices: Mapping[NodeId, SyncDevice],
    max_faults: int,
    rounds: int,
    inputs: tuple[Any, Any],
) -> ChainResult:
    """The Section 3.2 chain; the cut search raises a ``GraphError``
    when ``c(G) > 2f``."""
    side_a, cut_b, side_c, cut_d = cut_partition_for_connectivity(
        graph, max_faults
    )
    cover = connectivity_double_cover(graph, cut_b, cut_d, side_a, side_c)
    return _two_sheet_chain(
        cover,
        devices,
        inputs,
        connectivity_scenarios(cover, side_a, cut_b, side_c, cut_d),
        rounds,
    )
