"""General-case engines by reduction (footnote 3 made operational).

The paper proves its ring-based theorems (6, and by the same pattern 2,
4, 8) on the triangle and notes the general ``n <= 3f`` case "follows
immediately": partition the nodes into three classes of at most ``f``
and treat each class as one device.  This module executes that
reduction for (ε, δ, γ)-agreement: collapse the graph into a supernode
triangle (:mod:`repro.runtime.sync.collapse`), install the collapsed
group devices in the ``(k+2)``-ring, and evaluate the specification on
the *member* decisions unwrapped from the group decisions.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from ..graphs.builders import triangle
from ..graphs.coverings import partition_for_node_bound
from ..graphs.graph import CommunicationGraph, GraphError, NodeId
from ..problems.approximate import EpsilonDeltaGammaSpec
from ..problems.spec import SpecVerdict
from ..runtime.sync.collapse import GroupDevice, PortRenamedDevice, collapse_system
from ..runtime.sync.device import NodeContext, SyncDevice
from ..runtime.sync.system import make_system
from .approximate import _epsilon_delta_ring, refute_epsilon_delta
from .covering_argument import ConstructedBehavior
from .witness import ImpossibilityWitness, _chain_witness

_TRIANGLE_NAMES = {"group0": "a", "group1": "b", "group2": "c"}


def collapse_to_triangle(
    graph: CommunicationGraph,
    devices: Mapping[NodeId, SyncDevice],
    max_faults: int,
) -> tuple[dict[NodeId, SyncDevice], dict[NodeId, GroupDevice]]:
    """Collapse an ``n <= 3f`` system into three triangle devices.

    Returns the renamed triangle devices and, per triangle node, the
    underlying :class:`GroupDevice` (for decision unwrapping).
    """
    parts = partition_for_node_bound(graph, max_faults)
    system = make_system(graph, dict(devices), {u: None for u in graph.nodes})
    quotient, _member_of = collapse_system(
        system, [sorted(p, key=str) for p in parts]
    )
    if len(quotient.graph) != 3 or not quotient.graph.is_complete():
        raise GraphError(
            "the three partition classes are not pairwise adjacent; the "
            "triangle reduction needs every pair of classes to share an "
            "edge (true for complete and near-complete graphs)"
        )
    tri_devices: dict[NodeId, SyncDevice] = {}
    groups: dict[NodeId, GroupDevice] = {}
    for group, name in _TRIANGLE_NAMES.items():
        rename = {
            other: _TRIANGLE_NAMES[other]
            for other in quotient.graph.neighbors(group)
        }
        inner = quotient.device(group)
        assert isinstance(inner, GroupDevice)
        tri_devices[name] = PortRenamedDevice(inner, rename)
        groups[name] = inner
    return tri_devices, groups


def refute_epsilon_delta_general(
    graph: CommunicationGraph,
    devices: Mapping[NodeId, SyncDevice],
    max_faults: int,
    epsilon: float,
    delta: float,
    gamma: float,
    rounds: int,
    require_violation: bool = True,
) -> ImpossibilityWitness:
    """Theorem 6 for any graph with ``3 <= n <= 3f``.

    For the literal triangle this defers to
    :func:`repro.core.refute_epsilon_delta`; otherwise it performs the
    collapse reduction and runs the same ``(k+2)``-ring construction on
    the supernode triangle, checking the spec on unwrapped member
    decisions.
    """
    if len(graph) == 3:
        name_map = dict(zip(graph.nodes, ("a", "b", "c")))
        renamed = {name_map[u]: devices[u] for u in graph.nodes}
        return refute_epsilon_delta(
            renamed, epsilon, delta, gamma, rounds,
            require_violation=require_violation,
        )
    tri_devices, groups = collapse_to_triangle(graph, devices, max_faults)
    k, chain = _epsilon_delta_ring(
        tri_devices, epsilon, delta, gamma, rounds, triangle()
    )
    spec = EpsilonDeltaGammaSpec(epsilon, delta, gamma)

    def member_verdict(c: ConstructedBehavior) -> SpecVerdict:
        member_inputs: dict[NodeId, float] = {}
        member_decisions: dict[NodeId, Any] = {}
        for g in sorted(c.correct_nodes, key=str):
            group = groups[g]
            final_state = c.behavior.node(g).states[-1]
            ctx = NodeContext(ports=(), input=c.inputs[g])
            for member in group.members:
                member_inputs[member] = c.inputs[g]
                member_decisions[member] = group.member_decision(
                    final_state, member, ctx
                )
        return spec.check(member_inputs, member_decisions, list(member_inputs))

    return _chain_witness(
        "epsilon-delta-gamma-agreement",
        (
            f"3f+1 nodes, general case via footnote-3 collapse "
            f"(n={len(graph)}, f={max_faults}, k={k})"
        ),
        graph,
        max_faults,
        chain,
        member_verdict,
        require_violation,
        extra={"k": k, "collapsed": True},
    )
