"""Node connectivity, from scratch — with cached flow analytics.

The paper's bounds are stated in terms of the *connectivity* of the
communication graph: the minimum number of nodes whose removal
disconnects it.  We compute it with Menger's theorem: the minimum
``s``–``t`` vertex cut equals the maximum number of internally
vertex-disjoint ``s``–``t`` paths, found by unit-capacity max-flow on
the split-node digraph.  Global connectivity uses Even's reduction,
which needs only ``O(n)`` pairwise computations instead of all pairs.

Every public function here is **memoized on the graph instance**
(:meth:`CommunicationGraph.analytics_cache`): graphs are immutable, so
a flow result is valid for the instance's lifetime.  An equal graph
built afresh recomputes: a content-keyed table shared across instances
hit too rarely on any measured workload to pay for itself.  Mutable
results (cut sets, path lists) are copied on every return, so callers
can scribble on them without corrupting the cache.
:func:`analytics_stats` exposes hit/miss counters and
:func:`clear_analytics` resets them.

Cross-checked against ``networkx.node_connectivity`` in the test suite.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from .graph import CommunicationGraph, GraphError, NodeId

_STATS = {"hits": 0, "misses": 0}


def _cached(
    graph: CommunicationGraph, op: tuple, compute: Callable[[], Any]
) -> Any:
    """Memoize ``compute()`` under ``op`` in the graph's own cache."""
    local = graph.analytics_cache()
    if op in local:
        _STATS["hits"] += 1
        return local[op]
    _STATS["misses"] += 1
    local[op] = compute()
    return local[op]


def analytics_stats() -> dict[str, int]:
    """Hit/miss counters of the per-instance connectivity caches."""
    return dict(_STATS)


def clear_analytics() -> None:
    """Reset the counters (per-instance caches die with their graphs)."""
    _STATS["hits"] = 0
    _STATS["misses"] = 0


def min_vertex_cut(
    graph: CommunicationGraph, source: NodeId, target: NodeId
) -> set[NodeId]:
    """A minimum set of nodes (excluding endpoints) separating two nodes.

    Raises :class:`GraphError` if the nodes are adjacent or identical
    (no vertex cut exists in those cases).
    """
    if source == target:
        raise GraphError("source and target must differ")
    if graph.has_edge(source, target):
        raise GraphError("no vertex cut separates adjacent nodes")

    def compute() -> frozenset[NodeId]:
        flow = _SplitNodeFlow(graph, source, target)
        flow.run()
        return frozenset(flow.min_cut_nodes())

    return set(_cached(graph, ("min_vertex_cut", source, target), compute))


def local_connectivity(
    graph: CommunicationGraph, source: NodeId, target: NodeId
) -> int:
    """Maximum number of internally vertex-disjoint ``s``–``t`` paths."""
    if source == target:
        raise GraphError("source and target must differ")
    if graph.has_edge(source, target):
        # Adjacent nodes: one direct path plus disjoint paths avoiding
        # the direct edge; by convention (and to match networkx) this is
        # unbounded for the cut formulation, so callers skip this case.
        raise GraphError("local connectivity of adjacent nodes is unbounded")
    return _cached(
        graph,
        ("local_connectivity", source, target),
        lambda: _SplitNodeFlow(graph, source, target).run(),
    )


def node_connectivity(graph: CommunicationGraph) -> int:
    """The connectivity ``c(G)``: minimum nodes whose removal disconnects.

    Uses Even's algorithm: fix a minimum-degree node ``v``; the answer is
    the minimum of ``κ(v, w)`` over non-neighbors ``w`` of ``v`` and
    ``κ(x, y)`` over non-adjacent pairs of neighbors of ``v``, capped by
    the minimum degree.  A complete graph on ``n`` nodes has
    connectivity ``n - 1`` by convention.
    """
    n = len(graph)
    if n == 0:
        raise GraphError("connectivity of the empty graph is undefined")
    return _cached(
        graph, ("node_connectivity",), lambda: _node_connectivity(graph)
    )


def _node_connectivity(graph: CommunicationGraph) -> int:
    n = len(graph)
    if n == 1:
        return 0
    if not graph.is_connected():
        return 0
    if graph.is_complete():
        return n - 1

    pivot = min(graph.nodes, key=graph.degree)
    best = graph.degree(pivot)
    pivot_neighbors = graph.neighbors(pivot)
    neighbor_set = set(pivot_neighbors)

    for w in graph.nodes:
        if w == pivot or w in neighbor_set:
            continue
        best = min(best, local_connectivity(graph, pivot, w))
        if best == 0:
            return 0
    for i, x in enumerate(pivot_neighbors):
        for y in pivot_neighbors[i + 1 :]:
            if not graph.has_edge(x, y):
                best = min(best, local_connectivity(graph, x, y))
                if best == 0:
                    return 0
    return best


def global_min_cut(graph: CommunicationGraph) -> set[NodeId]:
    """A minimum vertex cut of the whole graph.

    Returns an empty set for disconnected graphs.  Raises
    :class:`GraphError` for complete graphs, which have no vertex cut.
    """
    if not graph.is_connected():
        return set()
    if graph.is_complete():
        raise GraphError("complete graphs have no vertex cut")
    best_cut: set[NodeId] | None = None
    pivot = min(graph.nodes, key=graph.degree)
    neighbor_set = set(graph.neighbors(pivot))
    candidates: list[tuple[NodeId, NodeId]] = [
        (pivot, w)
        for w in graph.nodes
        if w != pivot and w not in neighbor_set
    ]
    pivot_neighbors = graph.neighbors(pivot)
    candidates.extend(
        (x, y)
        for i, x in enumerate(pivot_neighbors)
        for y in pivot_neighbors[i + 1 :]
        if not graph.has_edge(x, y)
    )
    for s, t in candidates:
        cut = min_vertex_cut(graph, s, t)
        if best_cut is None or len(cut) < len(best_cut):
            best_cut = cut
    assert best_cut is not None  # non-complete connected graph has a cut
    return best_cut


def vertex_disjoint_paths(
    graph: CommunicationGraph, source: NodeId, target: NodeId
) -> list[list[NodeId]]:
    """A maximum collection of internally vertex-disjoint paths.

    Adjacent endpoints are allowed: the direct edge contributes the
    two-node path, and the remaining paths are computed on the graph
    without that edge.  Used by the Dolev-relay protocol, which routes
    messages over ``2f + 1`` disjoint paths.
    """
    if source == target:
        raise GraphError("source and target must differ")

    def compute() -> tuple[tuple[NodeId, ...], ...]:
        direct: list[list[NodeId]] = []
        working = graph
        if graph.has_edge(source, target):
            direct.append([source, target])
            keep = [
                (u, v)
                for (u, v) in graph.edges
                if {u, v} != {source, target} and _ordered(graph, u, v)
            ]
            working = CommunicationGraph(graph.nodes, keep)
        flow = _SplitNodeFlow(working, source, target)
        flow.run()
        return tuple(tuple(p) for p in direct + flow.disjoint_paths())

    cached = _cached(
        graph, ("vertex_disjoint_paths", source, target), compute
    )
    return [list(path) for path in cached]


def _ordered(graph: CommunicationGraph, u: NodeId, v: NodeId) -> bool:
    order = {node: i for i, node in enumerate(graph.nodes)}
    return order[u] < order[v]


class _SplitNodeFlow:
    """Unit-capacity max-flow on the split-node digraph.

    Every node ``v`` other than the endpoints becomes ``v_in -> v_out``
    with capacity one; every directed edge ``(u, v)`` becomes
    ``u_out -> v_in`` with capacity one.  Max-flow = max number of
    internally vertex-disjoint paths; saturated split arcs reachable
    from the residual source frontier give the minimum vertex cut.
    """

    def __init__(
        self, graph: CommunicationGraph, source: NodeId, target: NodeId
    ) -> None:
        self.graph = graph
        self.source = source
        self.target = target
        # Arc representation: adjacency of arc indices; arcs stored as
        # (head, capacity); reverse arc is index ^ 1.
        self._head: list[int] = []
        self._cap: list[int] = []
        self._initial_cap: list[int] = []
        self._adj: dict[int, list[int]] = {}
        self._vertex_ids: dict[tuple[NodeId, str], int] = {}
        self._build()

    def _vid(self, node: NodeId, side: str) -> int:
        key = (node, side)
        if key not in self._vertex_ids:
            self._vertex_ids[key] = len(self._vertex_ids)
            self._adj[self._vertex_ids[key]] = []
        return self._vertex_ids[key]

    def _add_arc(self, u: int, v: int, cap: int) -> None:
        self._adj[u].append(len(self._head))
        self._head.append(v)
        self._cap.append(cap)
        self._initial_cap.append(cap)
        self._adj[v].append(len(self._head))
        self._head.append(u)
        self._cap.append(0)
        self._initial_cap.append(0)

    def _build(self) -> None:
        g = self.graph
        # Edge arcs get effectively infinite capacity so that minimum
        # cuts consist of split (node) arcs only; n suffices as
        # "infinite" because the vertex connectivity is below n.
        infinite = len(g) + 1
        for node in g.nodes:
            if node in (self.source, self.target):
                # Endpoints are not split (they may not be cut).
                vid = self._vid(node, "both")
                self._vertex_ids[(node, "in")] = vid
                self._vertex_ids[(node, "out")] = vid
            else:
                self._add_arc(self._vid(node, "in"), self._vid(node, "out"), 1)
        for u, v in g.edges:
            self._add_arc(self._vid(u, "out"), self._vid(v, "in"), infinite)

    def run(self) -> int:
        """Edmonds–Karp; returns the max-flow value."""
        s = self._vertex_ids[(self.source, "out")]
        t = self._vertex_ids[(self.target, "in")]
        flow = 0
        while True:
            parent_arc = self._bfs(s, t)
            if parent_arc is None:
                return flow
            # Unit capacities: each augmenting path carries one unit.
            v = t
            while v != s:
                arc = parent_arc[v]
                self._cap[arc] -= 1
                self._cap[arc ^ 1] += 1
                v = self._head[arc ^ 1]
            flow += 1

    def _bfs(self, s: int, t: int) -> dict[int, int] | None:
        parent_arc: dict[int, int] = {}
        queue = deque([s])
        seen = {s}
        while queue:
            u = queue.popleft()
            for arc in self._adj[u]:
                v = self._head[arc]
                if self._cap[arc] > 0 and v not in seen:
                    seen.add(v)
                    parent_arc[v] = arc
                    if v == t:
                        return parent_arc
                    queue.append(v)
        return None

    def _residual_reachable(self) -> set[int]:
        s = self._vertex_ids[(self.source, "out")]
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for arc in self._adj[u]:
                v = self._head[arc]
                if self._cap[arc] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen

    def min_cut_nodes(self) -> set[NodeId]:
        """Nodes whose split arcs cross the residual cut (call after run)."""
        reach = self._residual_reachable()
        cut: set[NodeId] = set()
        for node in self.graph.nodes:
            if node in (self.source, self.target):
                continue
            vin = self._vertex_ids[(node, "in")]
            vout = self._vertex_ids[(node, "out")]
            if vin in reach and vout not in reach:
                cut.add(node)
        return cut

    def disjoint_paths(self) -> list[list[NodeId]]:
        """Decompose the (unit) flow into vertex-disjoint paths."""
        out_of: dict[int, NodeId] = {}
        for (node, side), vid in self._vertex_ids.items():
            if side in ("out", "both"):
                out_of[vid] = node
        # Build successor map from flow-carrying edge arcs.
        successor: dict[NodeId, list[NodeId]] = {}
        for u, v in self.graph.edges:
            uid = self._vertex_ids[(u, "out")]
            vid = self._vertex_ids[(v, "in")]
            if uid == vid:
                continue
            for arc in self._adj[uid]:
                if (
                    self._head[arc] == vid
                    and arc % 2 == 0
                    and self._initial_cap[arc] - self._cap[arc] > 0
                ):
                    flow = self._initial_cap[arc] - self._cap[arc]
                    successor.setdefault(u, []).extend([v] * flow)
        paths: list[list[NodeId]] = []
        starts = list(successor.get(self.source, []))
        for first in starts:
            path = [self.source, first]
            while path[-1] != self.target:
                nxt = successor[path[-1]].pop(0)
                path.append(nxt)
            paths.append(path)
        return paths
