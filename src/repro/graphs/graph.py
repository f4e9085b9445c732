"""Communication graphs (Section 2 of FLM 1985).

A *communication graph* is a directed graph whose edges occur in
symmetric pairs: ``(u, v)`` is an edge iff ``(v, u)`` is.  The pair of
directed edges models the two directions of a bidirectional link
separately, exactly as in the paper.

The class here is immutable; use :mod:`repro.graphs.builders` to
construct common topologies, or :meth:`CommunicationGraph.from_undirected`
for ad-hoc graphs.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import TypeAlias

NodeId: TypeAlias = Hashable
DirectedEdge: TypeAlias = tuple[NodeId, NodeId]


class GraphError(ValueError):
    """Raised for malformed graph constructions."""


class CommunicationGraph:
    """An immutable communication graph with paired directed edges.

    Parameters
    ----------
    nodes:
        Iterable of hashable node identifiers.  Order is preserved and
        becomes the canonical iteration order.
    undirected_edges:
        Iterable of unordered node pairs; each contributes the two
        directed edges ``(u, v)`` and ``(v, u)``.
    """

    __slots__ = ("_nodes", "_index", "_out", "_in", "_edges", "_analytics")

    def __init__(
        self,
        nodes: Iterable[NodeId],
        undirected_edges: Iterable[tuple[NodeId, NodeId]],
    ) -> None:
        node_list = list(nodes)
        if len(set(node_list)) != len(node_list):
            raise GraphError("duplicate node identifiers")
        self._nodes: tuple[NodeId, ...] = tuple(node_list)
        self._index: dict[NodeId, int] = {u: i for i, u in enumerate(node_list)}
        out: dict[NodeId, list[NodeId]] = {u: [] for u in node_list}
        inn: dict[NodeId, list[NodeId]] = {u: [] for u in node_list}
        seen: set[frozenset[NodeId]] = set()
        for u, v in undirected_edges:
            if u not in self._index or v not in self._index:
                raise GraphError(f"edge ({u!r}, {v!r}) references unknown node")
            if u == v:
                raise GraphError(f"self-loop at {u!r} is not allowed")
            key = frozenset((u, v))
            if key in seen:
                continue
            seen.add(key)
            out[u].append(v)
            out[v].append(u)
            inn[u].append(v)
            inn[v].append(u)
        self._out: dict[NodeId, tuple[NodeId, ...]] = {
            u: tuple(vs) for u, vs in out.items()
        }
        self._in: dict[NodeId, tuple[NodeId, ...]] = {
            u: tuple(vs) for u, vs in inn.items()
        }
        self._edges: frozenset[DirectedEdge] = frozenset(
            (u, v) for u in node_list for v in self._out[u]
        )
        # Per-instance scratch space for derived analytics (connectivity,
        # compiled port routes, ...).  The graph itself is immutable, so
        # anything computed from it may be cached here for the instance's
        # lifetime.
        self._analytics: dict = {}

    # -- basic accessors ------------------------------------------------

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """All nodes, in canonical order."""
        return self._nodes

    @property
    def edges(self) -> frozenset[DirectedEdge]:
        """All directed edges.  Always closed under reversal."""
        return self._edges

    @property
    def undirected_edges(self) -> frozenset[frozenset[NodeId]]:
        """The undirected edge set (each pair of directed edges, once)."""
        return frozenset(frozenset(e) for e in self._edges)

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommunicationGraph):
            return NotImplemented
        return set(self._nodes) == set(other._nodes) and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((frozenset(self._nodes), self._edges))

    def __repr__(self) -> str:
        return (
            f"CommunicationGraph(n={len(self)}, "
            f"m={len(self._edges) // 2} undirected edges)"
        )

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """True if the directed edge ``(u, v)`` exists."""
        return (u, v) in self._edges

    def out_neighbors(self, u: NodeId) -> tuple[NodeId, ...]:
        """Targets of ``u``'s outedges, in insertion order."""
        self._require(u)
        return self._out[u]

    def in_neighbors(self, u: NodeId) -> tuple[NodeId, ...]:
        """Sources of ``u``'s inedges, in insertion order."""
        self._require(u)
        return self._in[u]

    def neighbors(self, u: NodeId) -> tuple[NodeId, ...]:
        """Neighbors of ``u`` (identical to out/in neighbors here)."""
        return self.out_neighbors(u)

    def outedges(self, u: NodeId) -> tuple[DirectedEdge, ...]:
        """The outedges of ``u``, as directed pairs."""
        return tuple((u, v) for v in self.out_neighbors(u))

    def inedges(self, u: NodeId) -> tuple[DirectedEdge, ...]:
        """The inedges of ``u``, as directed pairs."""
        return tuple((v, u) for v in self.in_neighbors(u))

    def degree(self, u: NodeId) -> int:
        """Number of neighbors of ``u``."""
        return len(self.out_neighbors(u))

    def min_degree(self) -> int:
        """Minimum degree over all nodes."""
        return min(self.degree(u) for u in self._nodes)

    def _require(self, u: NodeId) -> None:
        if u not in self._index:
            raise GraphError(f"node {u!r} not in graph")

    def analytics_cache(self) -> dict:
        """Per-instance memo table for derived analytics.

        Immutability makes this sound: everything computable from the
        graph is fixed at construction, so modules like
        :mod:`repro.graphs.connectivity` and :mod:`repro.runtime.plan`
        stash their (expensive) results here under module-private
        keys.
        """
        return self._analytics

    # -- subgraphs and borders (paper Section 2) -------------------------

    def subgraph(self, nodes: Iterable[NodeId]) -> "CommunicationGraph":
        """The induced subgraph ``G_U`` on the given node set."""
        keep = list(dict.fromkeys(nodes))
        for u in keep:
            self._require(u)
        keep_set = set(keep)
        edges = [
            (u, v)
            for u in keep
            for v in self._out[u]
            if v in keep_set and self._index[u] < self._index[v]
        ]
        return CommunicationGraph(keep, edges)

    def inedge_border(self, nodes: Iterable[NodeId]) -> frozenset[DirectedEdge]:
        """Edges from outside ``U`` into ``U``: ``edges(G) ∩ ((V\\U) × U)``."""
        inside = set(nodes)
        for u in inside:
            self._require(u)
        return frozenset(
            (v, u) for u in inside for v in self._in[u] if v not in inside
        )

    def outedge_border(self, nodes: Iterable[NodeId]) -> frozenset[DirectedEdge]:
        """Edges from inside ``U`` to the rest of the graph."""
        inside = set(nodes)
        for u in inside:
            self._require(u)
        return frozenset(
            (u, v) for u in inside for v in self._out[u] if v not in inside
        )

    # -- connectivity helpers --------------------------------------------

    def is_connected(self) -> bool:
        """True if the graph is (weakly == strongly) connected."""
        if not self._nodes:
            return True
        return len(self.reachable_from(self._nodes[0])) == len(self)

    def reachable_from(
        self, start: NodeId, removed: Iterable[NodeId] = ()
    ) -> set[NodeId]:
        """Nodes reachable from ``start`` after deleting ``removed`` nodes."""
        self._require(start)
        gone = set(removed)
        if start in gone:
            return set()
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in self._out[u]:
                if v not in gone and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def is_complete(self) -> bool:
        """True if every pair of distinct nodes is adjacent."""
        n = len(self)
        return all(self.degree(u) == n - 1 for u in self._nodes)

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_undirected(
        cls, edges: Iterable[tuple[NodeId, NodeId]]
    ) -> "CommunicationGraph":
        """Build a graph whose node set is inferred from the edge list."""
        edge_list = list(edges)
        nodes: dict[NodeId, None] = {}
        for u, v in edge_list:
            nodes.setdefault(u)
            nodes.setdefault(v)
        return cls(nodes, edge_list)

    def relabel(self, mapping: Mapping[NodeId, NodeId]) -> "CommunicationGraph":
        """A copy with nodes renamed by ``mapping`` (must be injective)."""
        new_names = [mapping.get(u, u) for u in self._nodes]
        if len(set(new_names)) != len(new_names):
            raise GraphError("relabeling is not injective")
        rename = dict(zip(self._nodes, new_names))
        edges = [
            (rename[u], rename[v])
            for (u, v) in self._edges
            if self._index[u] < self._index[v]
        ]
        return CommunicationGraph(new_names, edges)
