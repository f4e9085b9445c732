"""Compiled execution plans for both runtimes.

The interpretive executors resolve the same questions over and over:
*which device runs at node ``u``? what are its port labels? which edge
does its ``i``-th port feed? which clock does it read?*  None of the
answers change between rounds (or events) — they are fixed the moment
a :class:`~repro.runtime.sync.system.SyncSystem` or
:class:`~repro.runtime.timed.system.TimedSystem` is built.  This
module resolves them **once per system** (the synchronous routes once
per graph, see below) into flat, precomputed structures, so the
executors' hot loops touch only local tuples and dict lookups:

* :func:`compile_sync_plan` → :class:`SyncPlan`: per node, the device,
  its (single, shared) :class:`NodeContext` and its
  :class:`NodeRoutes`: the valid-port set for send validation and the
  node's message slots.  Every directed edge has one slot, numbered in
  graph node order and then ``graph.neighbors(u)`` order, so a node's
  out-edges fill one contiguous range of a round's message row and its
  inbox reads the slots of its in-edges; ``SyncPlan.slot_of`` maps each
  edge back to its slot, for readers of one edge's messages.
  Compilation is split in two.  The routes and slots depend only on
  the graph and its port labelling (the slots on the graph alone); for the
  graph's shared read-only identity labelling
  (:func:`identity_labelling`, which every
  :func:`~repro.runtime.sync.system.make_system` system uses) they are
  computed once per graph and cached in its
  :meth:`~repro.graphs.graph.CommunicationGraph.analytics_cache`.  Any
  other labelling — covering installations, hand-built systems —
  compiles its own.  The per-system part only binds a device and a
  :class:`NodeContext` to each node.
* :func:`compile_timed_plan` → :class:`TimedPlan`: per node, its rank,
  context, hardware clock (plus its lazily computed inverse) and its
  compiled sends (``port label → (edge, neighbor rank, receiver
  port)``).

Plans are pure *data*; execution stays in the executors
(:func:`repro.runtime.sync.executor.execute_plan` runs a
:class:`SyncPlan`, and :func:`repro.runtime.timed.executor.run_timed`
reads a :class:`TimedPlan`).  A plan never caches per-run state — timed
device *instances* in particular are still created fresh for every run
— so executing the same plan twice yields the same behavior, byte for
byte, exactly as re-running the system did before compilation existed.

Compilation is memoized on the system instance itself (systems are
frozen; the plan is stashed in ``__dict__`` the same way
``functools.cached_property`` does), so repeated ``run()`` calls on
one system — the campaign shrinker's bread and butter — compile once.
A plan holds the system's graph, never the system, so the memo is not
a reference cycle: a system, its plan and every run of it are freed by
reference counting alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, repeat
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple

from ..graphs.graph import CommunicationGraph, DirectedEdge, NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .sync.device import NodeContext, PortLabel, SyncDevice
    from .sync.system import SyncSystem
    from .timed.clocks import ClockFunction
    from .timed.device import TimedContext
    from .timed.system import TimedSystem

_SYNC_PLAN_ATTR = "_compiled_sync_plan"
_TIMED_PLAN_ATTR = "_compiled_timed_plan"
# Keys in a graph's analytics cache.
_IDENTITY_PORTS_KEY = "sync_identity_ports"
_ROUTES_KEY = "sync_routes"


# -- synchronous plans -----------------------------------------------------


class NodeRoutes(NamedTuple):
    """The part of a compiled node fixed by the graph and the node's
    port labelling alone.  ``ports`` is the order of
    ``NodeContext.ports``.  The node's sends fill the slots
    ``out_slots``, one per port of ``out_labels`` (neighbor order, as
    the interpretive executor visited them); its inbox maps
    ``in_labels[k]`` to slot ``in_slots[k]`` in in-neighbor order, so it
    has the reference's keys in the reference's insertion order."""

    ports: tuple
    valid_ports: frozenset
    out_labels: tuple
    out_slots: slice
    in_labels: tuple
    in_slots: tuple[int, ...]


class CompiledSyncNode(NamedTuple):
    """Everything the round loop needs about one node, pre-resolved."""

    node: NodeId
    device: "SyncDevice"
    ctx: "NodeContext"
    routes: NodeRoutes


@dataclass(frozen=True)
class SyncPlan:
    """A compiled synchronous system: flat per-node tables plus the
    edge of each message slot (and its inverse, ``slot_of``), ready for
    the tight loop in ``execute_plan``."""

    graph: CommunicationGraph
    nodes: tuple[CompiledSyncNode, ...]
    edges: tuple[DirectedEdge, ...]
    slot_of: Mapping[DirectedEdge, int]


def identity_labelling(
    graph: CommunicationGraph,
) -> Mapping[NodeId, Mapping[NodeId, Any]]:
    """The graph's one read-only identity port labelling (each port
    named after its neighbor), built on first use and cached on the
    graph.  Systems that share it share one route table."""
    cache = graph.analytics_cache()
    labelling = cache.get(_IDENTITY_PORTS_KEY)
    if labelling is None:
        labelling = {
            u: MappingProxyType({v: v for v in graph.neighbors(u)})
            for u in graph.nodes
        }
        cache[_IDENTITY_PORTS_KEY] = labelling
    return labelling


def shared_identity_labelling(
    graph: CommunicationGraph,
) -> Mapping[NodeId, Mapping[NodeId, Any]] | None:
    """The graph's shared identity labelling if one was built, else
    ``None`` (builds nothing)."""
    return graph.analytics_cache().get(_IDENTITY_PORTS_KEY)


_Routes = tuple[
    tuple[NodeRoutes, ...], tuple[DirectedEdge, ...], dict[DirectedEdge, int]
]


def _compile_routes(
    graph: CommunicationGraph, labelling: Mapping[NodeId, Mapping]
) -> _Routes:
    """Each node's routes, in graph node order, each slot's edge and
    each edge's slot (the numbering depends on the graph alone)."""
    edges: list[DirectedEdge] = []
    for u in graph.nodes:
        edges += zip(repeat(u), graph.neighbors(u))
    slot_of = dict(zip(edges, count()))
    routes = []
    stop = 0
    for u in graph.nodes:
        ports = labelling[u]
        port_tuple = tuple(ports.values())
        out, into = graph.neighbors(u), graph.in_neighbors(u)
        start, stop = stop, stop + len(out)
        routes.append(NodeRoutes(
            port_tuple, frozenset(port_tuple),
            tuple(map(ports.__getitem__, out)), slice(start, stop),
            tuple(map(ports.__getitem__, into)),
            tuple(map(slot_of.__getitem__, zip(into, repeat(u)))),
        ))
    return tuple(routes), tuple(edges), slot_of


def _routes_of(system: "SyncSystem") -> _Routes:
    """The system's routes and slots: the graph's cached table when
    every node uses the shared identity labelling, otherwise compiled
    for this system."""
    graph = system.graph
    shared = shared_identity_labelling(graph)
    assignments = system.assignments
    if shared is None or any(
        assignments[u].port_of_neighbor is not shared[u] for u in graph.nodes
    ):
        return _compile_routes(
            graph,
            {u: assignments[u].port_of_neighbor for u in graph.nodes},
        )
    cache = graph.analytics_cache()
    routes = cache.get(_ROUTES_KEY)
    if routes is None:
        routes = cache[_ROUTES_KEY] = _compile_routes(graph, shared)
    return routes


def compile_sync_plan(system: "SyncSystem") -> SyncPlan:
    """Compile (and memoize on the system) a :class:`SyncPlan`.

    The same system object always returns the same plan object; systems
    derived via ``with_devices`` / ``with_inputs`` are new objects and
    compile their own plans, reusing the graph's cached routes when
    they keep its shared identity labelling.
    """
    cached = system.__dict__.get(_SYNC_PLAN_ATTR)
    if cached is not None:
        return cached
    from .sync.device import NodeContext  # runtime.sync imports this module

    graph = system.graph
    assignments = system.assignments
    routes, edges, slot_of = _routes_of(system)
    compiled = tuple(
        CompiledSyncNode(
            node=u,
            device=assignments[u].device,
            ctx=NodeContext(ports=r.ports, input=assignments[u].input),
            routes=r,
        )
        for u, r in zip(graph.nodes, routes)
    )
    plan = SyncPlan(graph=graph, nodes=compiled, edges=edges, slot_of=slot_of)
    # Frozen dataclasses forbid setattr; writing through __dict__ is the
    # same trick functools.cached_property uses.
    system.__dict__[_SYNC_PLAN_ATTR] = plan
    return plan


# -- timed plans -----------------------------------------------------------


@dataclass(frozen=True)
class CompiledTimedNode:
    """Per-node tables for the discrete-event loop: the context and
    clock are resolved once instead of once per event, and ``sends``
    maps each port label to ``(edge, neighbor rank, receiver port)`` —
    everything a send needs except the run's edge record."""

    node: NodeId
    rank: int
    ctx: "TimedContext"
    clock: "ClockFunction"
    sends: Mapping[Any, tuple[DirectedEdge, int, Any]]

    @cached_property
    def clock_inverse(self) -> "ClockFunction":
        """The clock's functional inverse, computed on first use (some
        exotic clocks may not implement ``inverse`` and are only an
        error if a device actually sets a timer through them)."""
        return self.clock.inverse()


@dataclass(frozen=True)
class TimedPlan:
    """A compiled timed system: per-node tables, in rank order."""

    graph: CommunicationGraph
    by_node: Mapping[NodeId, CompiledTimedNode]


def compile_timed_plan(system: "TimedSystem") -> TimedPlan:
    """Compile (and memoize on the system) a :class:`TimedPlan`.

    Device *factories* are deliberately not called here: timed device
    instances are stateful per run and must stay per-run.
    """
    cached = system.__dict__.get(_TIMED_PLAN_ATTR)
    if cached is not None:
        return cached
    graph = system.graph
    assignments = system.assignments
    rank_of = {u: rank for rank, u in enumerate(graph.nodes)}
    by_node = {}
    for u, rank in rank_of.items():
        assignment = assignments[u]
        by_node[u] = CompiledTimedNode(
            node=u,
            rank=rank,
            ctx=assignment.context(),
            clock=assignment.clock,
            sends={
                port: ((u, v), rank_of[v], assignments[v].port_of_neighbor[u])
                for v, port in assignment.port_of_neighbor.items()
            },
        )
    plan = TimedPlan(graph=graph, by_node=by_node)
    system.__dict__[_TIMED_PLAN_ATTR] = plan
    return plan


__all__ = [
    "CompiledSyncNode",
    "CompiledTimedNode",
    "NodeRoutes",
    "SyncPlan",
    "TimedPlan",
    "compile_sync_plan",
    "compile_timed_plan",
    "identity_labelling",
    "shared_identity_labelling",
]
