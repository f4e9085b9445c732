"""Recorded behaviors and scenarios for the synchronous model.

The paper (Section 2) takes node and edge behaviors as primitives and
suggests "a finite or infinite sequence of states" as one concrete
interpretation; that is exactly what we record:

* a **node behavior** is the node's state sequence (one state per round
  boundary) together with its decision history;
* an **edge behavior** is the sequence of messages sent over one
  directed edge, one per round;
* a **system behavior** is the tuple of all node and edge behaviors;
* a **scenario** is the restriction of a system behavior to a subgraph:
  the behaviors of its nodes and of the edges between them.

Equality of behaviors is structural — two behaviors are "identical" in
the paper's sense iff ``==`` holds here.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any

from ...graphs.graph import CommunicationGraph, DirectedEdge, GraphError, NodeId


@dataclass(frozen=True)
class NodeBehavior:
    """State trace and decision history of one node.

    ``states[r]`` is the state entering round ``r``; the final entry is
    the state after the last round.  ``decision`` is the first value
    other than ``None`` returned by CHOOSE, with ``decided_at`` the
    round after which it appeared (``None`` if never).
    """

    states: tuple[Any, ...]
    decision: Any | None = None
    decided_at: int | None = None

    @property
    def rounds(self) -> int:
        return len(self.states) - 1

    def prefix(self, rounds: int) -> "NodeBehavior":
        """The behavior through the first ``rounds`` rounds."""
        if rounds > self.rounds:
            raise GraphError(f"behavior has only {self.rounds} rounds")
        if self.decided_at is not None and self.decided_at <= rounds:
            return NodeBehavior(
                self.states[: rounds + 1], self.decision, self.decided_at
            )
        return NodeBehavior(self.states[: rounds + 1])


@dataclass(frozen=True)
class EdgeBehavior:
    """The message sequence sent over one directed edge, one per round."""

    messages: tuple[Any, ...]

    @property
    def rounds(self) -> int:
        return len(self.messages)

    def prefix(self, rounds: int) -> "EdgeBehavior":
        if rounds > self.rounds:
            raise GraphError(f"edge behavior has only {self.rounds} rounds")
        return EdgeBehavior(self.messages[:rounds])


class EdgeColumns(Mapping[DirectedEdge, EdgeBehavior]):
    """The edge behaviors of one synchronous run, read from its rows.

    The executor records each round's messages as one *row* with a slot
    per directed edge; edge ``edges[s]``'s behavior is the rows' column
    ``s`` (``slot_of`` maps each edge to its slot).  Many readers (fault
    campaigns among them) look only at the decisions, so the columns
    are built on the first lookup, not at the end of the run: then this
    mapping builds exactly the dict ``{edge: EdgeBehavior(column)}`` the
    executor used to return, keeps it, and drops the rows.  A reader
    that needs only some edges' messages (the engines' Locality checks
    and replay scripts) takes them one :meth:`column` at a time, which
    builds nothing.

    Iteration follows ``edges`` (the plan's slot order) and ``len`` is
    the edge count, neither of which builds anything.  ``==`` against a
    plain dict, ``dict(...)`` and ``repr`` behave as that dict's.
    """

    __slots__ = ("_edges", "_slot_of", "_rows", "_built")

    def __init__(
        self,
        edges: tuple[DirectedEdge, ...],
        rows: list[list[Any]],
        slot_of: Mapping[DirectedEdge, int],
    ) -> None:
        self._edges = edges
        self._slot_of = slot_of
        self._rows: list[list[Any]] | None = rows
        self._built: dict[DirectedEdge, EdgeBehavior] | None = None

    def column(self, edge: DirectedEdge) -> tuple[Any, ...]:
        """The messages sent over ``edge``, one per round: the
        ``messages`` of its behavior, read from the rows while they are
        unbuilt."""
        rows = self._rows
        if rows is None:
            return self._built[edge].messages
        slot = self._slot_of[edge]
        return tuple([row[slot] for row in rows])

    def __getitem__(self, edge: DirectedEdge) -> EdgeBehavior:
        if self._built is None:
            rows = self._rows
            columns = zip(*rows) if rows else [()] * len(self._edges)
            self._built = dict(zip(self._edges, map(EdgeBehavior, columns)))
            self._rows = None
        return self._built[edge]

    def __iter__(self) -> Iterator[DirectedEdge]:
        return iter(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class Scenario:
    """The restriction of a system behavior to a set of nodes: their
    node behaviors plus the behaviors of edges *between* them.

    The inedge border (messages arriving from outside) is kept
    separately because it is the scenario's interface to the rest of
    the system: the Locality axiom says border + devices + inputs
    determine the scenario.
    """

    nodes: tuple[NodeId, ...]
    node_behaviors: Mapping[NodeId, NodeBehavior]
    edge_behaviors: Mapping[DirectedEdge, EdgeBehavior]
    border_behaviors: Mapping[DirectedEdge, EdgeBehavior]

    def renamed(self, mapping: Mapping[NodeId, NodeId]) -> "Scenario":
        """The same scenario with nodes renamed (e.g. by a covering map).

        Border edge sources outside the mapping keep their names.
        """

        def rn(u: NodeId) -> NodeId:
            return mapping.get(u, u)

        return Scenario(
            nodes=tuple(rn(u) for u in self.nodes),
            node_behaviors={rn(u): b for u, b in self.node_behaviors.items()},
            edge_behaviors={
                (rn(u), rn(v)): b for (u, v), b in self.edge_behaviors.items()
            },
            border_behaviors={
                (rn(u), rn(v)): b
                for (u, v), b in self.border_behaviors.items()
            },
        )

    def core_equal(self, other: "Scenario") -> bool:
        """Identity in the paper's sense: same node and internal edge
        behaviors (borders are the scenarios' inputs, not part of it)."""
        return (
            set(self.nodes) == set(other.nodes)
            and dict(self.node_behaviors) == dict(other.node_behaviors)
            and dict(self.edge_behaviors) == dict(other.edge_behaviors)
        )


@dataclass(frozen=True)
class SyncBehavior:
    """The (unique) behavior of a synchronous system: every node's state
    trace and every directed edge's message trace.

    The executor hands ``edge_behaviors`` over as an
    :class:`EdgeColumns`, whose :class:`EdgeBehavior` values are built
    from the run's message rows on first read; it compares equal to
    (and copies into) the plain dict of those behaviors.
    :meth:`column` reads one edge's messages without that build.
    """

    graph: CommunicationGraph
    rounds: int
    node_behaviors: Mapping[NodeId, NodeBehavior] = field(default_factory=dict)
    edge_behaviors: Mapping[DirectedEdge, EdgeBehavior] = field(
        default_factory=dict
    )

    def node(self, u: NodeId) -> NodeBehavior:
        return self.node_behaviors[u]

    def edge(self, u: NodeId, v: NodeId) -> EdgeBehavior:
        return self.edge_behaviors[(u, v)]

    def column(self, u: NodeId, v: NodeId) -> tuple[Any, ...]:
        """``edge(u, v).messages``, without building any
        :class:`EdgeBehavior` when the edges are an
        :class:`EdgeColumns`."""
        edges = self.edge_behaviors
        if type(edges) is EdgeColumns:
            return edges.column((u, v))
        return edges[(u, v)].messages

    def decision(self, u: NodeId) -> Any | None:
        return self.node_behaviors[u].decision

    def decisions(self) -> dict[NodeId, Any | None]:
        return {u: b.decision for u, b in self.node_behaviors.items()}

    def scenario(self, nodes: Iterable[NodeId]) -> Scenario:
        """The scenario of the induced subgraph on ``nodes``."""
        inside = list(dict.fromkeys(nodes))
        inside_set = set(inside)
        for u in inside:
            if u not in self.graph:
                raise GraphError(f"node {u!r} not in system graph")
        edge_behaviors = {
            (u, v): self.edge_behaviors[(u, v)]
            for (u, v) in self.graph.edges
            if u in inside_set and v in inside_set
        }
        border = {
            (u, v): self.edge_behaviors[(u, v)]
            for (u, v) in self.graph.inedge_border(inside_set)
        }
        return Scenario(
            nodes=tuple(inside),
            node_behaviors={u: self.node_behaviors[u] for u in inside},
            edge_behaviors=edge_behaviors,
            border_behaviors=border,
        )
