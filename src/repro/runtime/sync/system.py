"""Synchronous systems: a communication graph plus, at every node, a
device, an input, and a port labeling.

The *port labeling* is the mechanism that makes covering-graph
installation work.  A device addresses its links through local labels;
on a base graph the default labeling names each port after the actual
neighbor, while :func:`install_in_covering` labels a covering node's
ports after the *images* of its neighbors under the covering map.  The
two systems are then indistinguishable from inside any device — which
is the operational content of the paper's "S looks locally like G".
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from ...graphs.coverings import CoveringMap
from ...graphs.graph import CommunicationGraph, GraphError, NodeId
from ..plan import identity_labelling
from .device import NodeContext, PortLabel, SyncDevice


@dataclass(frozen=True)
class NodeAssignment:
    """Device, input and port labeling for one node."""

    device: SyncDevice
    input: Any
    port_of_neighbor: Mapping[NodeId, PortLabel]

    def context(self) -> NodeContext:
        return NodeContext(
            ports=tuple(self.port_of_neighbor.values()), input=self.input
        )

    @cached_property
    def neighbor_of_port(self) -> Mapping[PortLabel, NodeId]:
        """The reverse of ``port_of_neighbor``, built once per
        assignment (port labels are distinct, enforced by the system)."""
        return {
            port: neighbor
            for neighbor, port in self.port_of_neighbor.items()
        }


@dataclass(frozen=True)
class SyncSystem:
    """A fully specified synchronous system (graph + assignments)."""

    graph: CommunicationGraph
    assignments: Mapping[NodeId, NodeAssignment]

    def __post_init__(self) -> None:
        for u in self.graph.nodes:
            if u not in self.assignments:
                raise GraphError(f"node {u!r} has no assignment")
            assignment = self.assignments[u]
            labeled = set(assignment.port_of_neighbor)
            actual = set(self.graph.neighbors(u))
            if labeled != actual:
                raise GraphError(
                    f"port labeling of {u!r} covers {sorted(map(str, labeled))}, "
                    f"expected {sorted(map(str, actual))}"
                )
            labels = list(assignment.port_of_neighbor.values())
            if len(set(labels)) != len(labels):
                raise GraphError(f"port labels of {u!r} are not distinct")

    def device(self, u: NodeId) -> SyncDevice:
        return self.assignments[u].device

    def input(self, u: NodeId) -> Any:
        return self.assignments[u].input

    def context(self, u: NodeId) -> NodeContext:
        return self.assignments[u].context()

    def port(self, u: NodeId, neighbor: NodeId) -> PortLabel:
        """The label node ``u`` uses for its link to ``neighbor``."""
        return self.assignments[u].port_of_neighbor[neighbor]

    def neighbor_of_port(self, u: NodeId, label: PortLabel) -> NodeId:
        """The neighbor behind one of ``u``'s port labels (O(1): the
        reverse map is cached per assignment)."""
        try:
            return self.assignments[u].neighbor_of_port[label]
        except KeyError:
            raise GraphError(
                f"node {u!r} has no port labeled {label!r}"
            ) from None

    def with_devices(
        self, replacements: Mapping[NodeId, SyncDevice]
    ) -> "SyncSystem":
        """A copy with some nodes' devices replaced (inputs and port
        labels unchanged).  Used to inject faulty devices."""
        new_assignments = dict(self.assignments)
        for u, device in replacements.items():
            old = new_assignments[u]
            new_assignments[u] = NodeAssignment(
                device=device,
                input=old.input,
                port_of_neighbor=old.port_of_neighbor,
            )
        return SyncSystem(self.graph, new_assignments)

    def with_inputs(self, replacements: Mapping[NodeId, Any]) -> "SyncSystem":
        """A copy with some nodes' inputs replaced."""
        new_assignments = dict(self.assignments)
        for u, value in replacements.items():
            old = new_assignments[u]
            new_assignments[u] = NodeAssignment(
                device=old.device,
                input=value,
                port_of_neighbor=old.port_of_neighbor,
            )
        return SyncSystem(self.graph, new_assignments)


def identity_ports(graph: CommunicationGraph, u: NodeId) -> dict[NodeId, PortLabel]:
    """The default labeling: each port named after the actual neighbor."""
    return {v: v for v in graph.neighbors(u)}


def make_system(
    graph: CommunicationGraph,
    devices: Mapping[NodeId, SyncDevice],
    inputs: Mapping[NodeId, Any],
) -> SyncSystem:
    """A system on ``graph`` with identity port labels.

    Every such system shares the graph's one read-only identity
    labelling (:func:`repro.runtime.plan.identity_labelling`), so they
    all compile against one cached route table.
    """
    labelling = identity_labelling(graph)
    assignments = {
        u: NodeAssignment(
            device=devices[u],
            input=inputs[u],
            port_of_neighbor=labelling[u],
        )
        for u in graph.nodes
    }
    return SyncSystem(graph, assignments)


def uniform_system(
    graph: CommunicationGraph, device: SyncDevice, inputs: Mapping[NodeId, Any]
) -> SyncSystem:
    """A system running the same device everywhere."""
    return make_system(graph, {u: device for u in graph.nodes}, inputs)


def install_in_covering(
    covering: CoveringMap,
    base_devices: Mapping[NodeId, SyncDevice],
    cover_inputs: Mapping[NodeId, Any],
) -> SyncSystem:
    """Install base-graph devices in a covering graph (the paper's move).

    Every covering node ``u`` runs the device of its image
    ``phi(u)``, with ports labeled by the images of its neighbors —
    so from inside the device, node ``u`` is indistinguishable from
    ``phi(u)``.  Inputs are chosen per *covering* node (the
    constructions assign different inputs to different sheets).
    """
    base = covering.base
    for w in base.nodes:
        if w not in base_devices:
            raise GraphError(f"no device supplied for base node {w!r}")
    cover = covering.cover
    assignments = {}
    for u in cover.nodes:
        if u not in cover_inputs:
            raise GraphError(f"no input supplied for covering node {u!r}")
        # Order ports by the *base* node's neighbor order, so that the
        # i-th port of the covering node corresponds to the i-th port
        # of its image — the paper's "S looks locally like G" includes
        # the port ordering the Fault axiom speaks of.
        ports = {
            covering.lift_neighbor(u, w): w
            for w in base.neighbors(covering(u))
        }
        assignments[u] = NodeAssignment(
            device=base_devices[covering(u)],
            input=cover_inputs[u],
            port_of_neighbor=ports,
        )
    return SyncSystem(cover, assignments)
