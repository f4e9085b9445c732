"""Timed systems: graph + per-node device factory, input, hardware
clock, and port labeling + a message-delay policy.

Two delay policies cover the paper's two timed settings:

* ``"real"`` — every message arrives exactly ``delay`` time units
  after it is sent.  This realizes the Bounded-Delay Locality axiom
  with ``δ = delay`` (Sections 4–5).
* ``"clock"`` — a message sent when the sender's hardware clock reads
  ``x`` arrives when it reads ``x + delay``.  Every time-dependent
  aspect of the system is then a function of hardware clock states,
  which is exactly the premise of the Scaling axiom (Section 7).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Literal

from ...graphs.coverings import CoveringMap
from ...graphs.graph import CommunicationGraph, GraphError, NodeId
from .clocks import ClockFunction, identity
from .device import DeviceFactory, PortLabel, TimedContext


@dataclass(frozen=True)
class TimedNodeAssignment:
    """Device factory, input, hardware clock and ports for one node."""

    factory: DeviceFactory
    input: Any
    port_of_neighbor: Mapping[NodeId, PortLabel]
    clock: ClockFunction = field(default_factory=identity)

    def context(self) -> TimedContext:
        return TimedContext(
            ports=tuple(self.port_of_neighbor.values()), input=self.input
        )

    @cached_property
    def neighbor_of_port(self) -> Mapping[PortLabel, NodeId]:
        """The reverse of ``port_of_neighbor``, built once per
        assignment."""
        return {
            port: neighbor
            for neighbor, port in self.port_of_neighbor.items()
        }


@dataclass(frozen=True)
class TimedSystem:
    """A fully specified timed system."""

    graph: CommunicationGraph
    assignments: Mapping[NodeId, TimedNodeAssignment]
    delay: float = 1.0
    delay_mode: Literal["real", "clock"] = "real"

    def __post_init__(self) -> None:
        if self.delay <= 0:
            raise GraphError("the minimum delay δ must be positive")
        for u in self.graph.nodes:
            if u not in self.assignments:
                raise GraphError(f"node {u!r} has no assignment")
            labeled = set(self.assignments[u].port_of_neighbor)
            if labeled != set(self.graph.neighbors(u)):
                raise GraphError(f"port labeling of {u!r} mismatches graph")
            labels = list(self.assignments[u].port_of_neighbor.values())
            if len(set(labels)) != len(labels):
                raise GraphError(f"port labels of {u!r} are not distinct")

    def context(self, u: NodeId) -> TimedContext:
        return self.assignments[u].context()

    def clock(self, u: NodeId) -> ClockFunction:
        return self.assignments[u].clock

    def port(self, u: NodeId, neighbor: NodeId) -> PortLabel:
        return self.assignments[u].port_of_neighbor[neighbor]

    def neighbor_of_port(self, u: NodeId, label: PortLabel) -> NodeId:
        try:
            return self.assignments[u].neighbor_of_port[label]
        except KeyError:
            raise GraphError(
                f"node {u!r} has no port labeled {label!r}"
            ) from None

    def with_factories(
        self, replacements: Mapping[NodeId, DeviceFactory]
    ) -> "TimedSystem":
        new = dict(self.assignments)
        for u, factory in replacements.items():
            old = new[u]
            new[u] = TimedNodeAssignment(
                factory=factory,
                input=old.input,
                port_of_neighbor=old.port_of_neighbor,
                clock=old.clock,
            )
        return TimedSystem(self.graph, new, self.delay, self.delay_mode)

    def scaled(self, h: ClockFunction) -> "TimedSystem":
        """The system ``Sh``: every hardware clock scaled by ``h``.

        Requires ``delay_mode == "clock"`` — otherwise real-time delays
        would not scale and the Scaling axiom would fail (which is the
        paper's own caveat: bounding transmission delay in real time
        makes synchronization possible).
        """
        if self.delay_mode != "clock":
            raise GraphError(
                "scaling requires clock-based delays (delay_mode='clock')"
            )
        new = {
            u: TimedNodeAssignment(
                factory=a.factory,
                input=a.input,
                port_of_neighbor=a.port_of_neighbor,
                clock=h.then(a.clock),
            )
            for u, a in self.assignments.items()
        }
        return TimedSystem(self.graph, new, self.delay, self.delay_mode)


def make_timed_system(
    graph: CommunicationGraph,
    factories: Mapping[NodeId, DeviceFactory],
    inputs: Mapping[NodeId, Any],
    delay: float = 1.0,
    delay_mode: Literal["real", "clock"] = "real",
    clocks: Mapping[NodeId, ClockFunction] | None = None,
) -> TimedSystem:
    """A timed system with identity port labels."""
    clocks = clocks or {}
    assignments = {
        u: TimedNodeAssignment(
            factory=factories[u],
            input=inputs[u],
            port_of_neighbor={v: v for v in graph.neighbors(u)},
            clock=clocks.get(u, identity()),
        )
        for u in graph.nodes
    }
    return TimedSystem(graph, assignments, delay, delay_mode)


def install_in_covering_timed(
    covering: CoveringMap,
    base_factories: Mapping[NodeId, DeviceFactory],
    cover_inputs: Mapping[NodeId, Any],
    delay: float = 1.0,
    delay_mode: Literal["real", "clock"] = "real",
    cover_clocks: Mapping[NodeId, ClockFunction] | None = None,
) -> TimedSystem:
    """Install base-node device factories in a covering graph, with
    ports labeled by the covering map (as in the synchronous model)."""
    base = covering.base
    cover = covering.cover
    cover_clocks = cover_clocks or {}
    assignments = {}
    for u in cover.nodes:
        if u not in cover_inputs:
            raise GraphError(f"no input supplied for covering node {u!r}")
        lifts = covering.lifts(u)
        ports = {lifts[w]: w for w in base.neighbors(covering(u))}
        assignments[u] = TimedNodeAssignment(
            factory=base_factories[covering(u)],
            input=cover_inputs[u],
            port_of_neighbor=ports,
            clock=cover_clocks.get(u, identity()),
        )
    return TimedSystem(cover, assignments, delay, delay_mode)
