"""Graph coverings (Section 2 of FLM 1985).

A graph ``S`` *covers* ``G`` when there is a map ``phi`` from nodes of
``S`` to nodes of ``G`` preserving "neighbors": ``phi`` restricted to
the neighbors of any node ``u`` of ``S`` is a bijection onto the
neighbors of ``phi(u)``.  Under such a map ``S`` looks locally like
``G`` — the lever every proof in the paper pulls.

This module provides:

* :class:`CoveringMap` — a verified covering with fiber lookups;
* the paper's concrete constructions:
  :func:`hexagon_cover_of_triangle` (Theorem 1 node bound, figure in
  §3.1), :func:`ring_cover_of_triangle` (Theorems 2/4/6/8 figures),
  :func:`node_bound_double_cover` (general ``n <= 3f`` case),
  :func:`connectivity_double_cover` (§3.2, general ``c(G) <= 2f`` case);
* :func:`cyclic_cover` — ``m`` copies of ``G`` with some edges re-routed
  to the next copy.  The double covers are its two-copy case, and the
  timed and Theorem 6 connectivity engines stretch §3.2 along it
  (:func:`connectivity_cyclic_cover`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .graph import CommunicationGraph, GraphError, NodeId


class CoveringError(GraphError):
    """Raised when a claimed covering map is not one."""


@dataclass(frozen=True)
class CoveringMap:
    """A verified covering ``phi : nodes(S) -> nodes(G)``.

    Construction validates the neighbor-preservation property and
    raises :class:`CoveringError` otherwise.
    """

    cover: CommunicationGraph
    base: CommunicationGraph
    phi: Mapping[NodeId, NodeId]

    def __post_init__(self) -> None:
        verify_covering(self.cover, self.base, self.phi)

    def __call__(self, node: NodeId) -> NodeId:
        return self.phi[node]

    def fiber(self, base_node: NodeId) -> tuple[NodeId, ...]:
        """All covering nodes mapping to ``base_node``."""
        if base_node not in self.base:
            raise GraphError(f"{base_node!r} not in base graph")
        return tuple(u for u in self.cover.nodes if self.phi[u] == base_node)

    def lifts(self, cover_node: NodeId) -> dict[NodeId, NodeId]:
        """``base neighbor → its lift`` for every neighbor of ``cover_node``.

        One pass over the neighbors; one-to-one because construction
        verified that ``phi`` is injective on every neighborhood.
        """
        return {self.phi[s]: s for s in self.cover.neighbors(cover_node)}

    def lift_neighbor(self, cover_node: NodeId, base_neighbor: NodeId) -> NodeId:
        """The unique neighbor of ``cover_node`` mapping to ``base_neighbor``.

        Well-defined exactly because ``phi`` preserves neighbors.
        """
        try:
            return self.lifts(cover_node)[base_neighbor]
        except KeyError:
            raise CoveringError(
                f"covering property broken at {cover_node!r}/{base_neighbor!r}"
            ) from None

    def is_isomorphism_on(self, cover_nodes: Iterable[NodeId]) -> bool:
        """True if ``phi`` restricted to ``cover_nodes`` is a graph
        isomorphism onto the induced base subgraph.

        The impossibility engines require this of every scenario node
        set: the correct part of the constructed behavior of ``G`` must
        be literally the same wiring as the covering scenario.
        """
        nodes = list(cover_nodes)
        node_set = set(nodes)
        images = [self.phi[u] for u in nodes]
        if len(set(images)) != len(nodes):
            return False
        image_set = set(images)
        for u in nodes:
            mapped = {
                self.phi[v] for v in self.cover.neighbors(u) if v in node_set
            }
            expected = {
                w
                for w in self.base.neighbors(self.phi[u])
                if w in image_set
            }
            if mapped != expected:
                return False
        return True


def verify_covering(
    cover: CommunicationGraph,
    base: CommunicationGraph,
    phi: Mapping[NodeId, NodeId],
) -> None:
    """Check the neighbor-preservation property; raise if violated."""
    for u in cover.nodes:
        if u not in phi:
            raise CoveringError(f"phi undefined at covering node {u!r}")
        if phi[u] not in base:
            raise CoveringError(f"phi({u!r}) = {phi[u]!r} not in base graph")
    for u in cover.nodes:
        images = [phi[v] for v in cover.neighbors(u)]
        expected = base.neighbors(phi[u])
        if len(images) != len(set(images)):
            raise CoveringError(
                f"phi not injective on neighbors of {u!r}: {images!r}"
            )
        if set(images) != set(expected):
            raise CoveringError(
                f"neighbors of {u!r} map to {sorted(map(repr, images))}, "
                f"expected {sorted(map(repr, expected))}"
            )


def is_covering(
    cover: CommunicationGraph,
    base: CommunicationGraph,
    phi: Mapping[NodeId, NodeId],
) -> bool:
    """Boolean form of :func:`verify_covering`."""
    try:
        verify_covering(cover, base, phi)
    except CoveringError:
        return False
    return True


# ---------------------------------------------------------------------------
# The paper's constructions
# ---------------------------------------------------------------------------


def hexagon_cover_of_triangle(
    triangle_graph: CommunicationGraph | None = None,
) -> CoveringMap:
    """The six-node double cover of the triangle from Section 3.1.

    Nodes ``u, v, w, x, y, z`` arranged in a ring, with
    ``phi(u) = phi(x) = a``, ``phi(v) = phi(y) = b``,
    ``phi(w) = phi(z) = c`` — exactly the paper's figure.
    """
    from .builders import triangle

    base = triangle_graph or triangle()
    a, b, c = base.nodes
    ring_nodes = ["u", "v", "w", "x", "y", "z"]
    edges = [
        ("u", "v"),
        ("v", "w"),
        ("w", "x"),
        ("x", "y"),
        ("y", "z"),
        ("z", "u"),
    ]
    cover = CommunicationGraph(ring_nodes, edges)
    phi = {"u": a, "v": b, "w": c, "x": a, "y": b, "z": c}
    return CoveringMap(cover, base, phi)


def ring_cover_of_triangle(
    n_nodes: int, triangle_graph: CommunicationGraph | None = None
) -> CoveringMap:
    """A ring of ``n_nodes`` (a multiple of 3, at least 6) covering the
    triangle: node ``i`` maps to the ``(i mod 3)``-th triangle node.

    This is the covering used for Theorems 2 and 4 (rings of ``4k``
    nodes) and, relabeled, for Theorems 6 and 8 (rings of ``k + 2``
    nodes).
    """
    from .builders import triangle

    if n_nodes < 6 or n_nodes % 3 != 0:
        raise CoveringError("ring cover of triangle needs n >= 6, n % 3 == 0")
    base = triangle_graph or triangle()
    letters = base.nodes
    nodes = [f"s{i}" for i in range(n_nodes)]
    edges = [(nodes[i], nodes[(i + 1) % n_nodes]) for i in range(n_nodes)]
    cover = CommunicationGraph(nodes, edges)
    phi = {nodes[i]: letters[i % 3] for i in range(n_nodes)}
    return CoveringMap(cover, base, phi)


@dataclass(frozen=True)
class CyclicCover:
    """An ``m``-fold cyclic cover: ``m`` copies of the base graph with
    a set of base edges re-routed from each copy to the next (mod m).

    ``copies[i][v]`` names copy ``i`` of base node ``v``.  The double
    covers of Section 3 are the special case ``m = 2``.
    """

    covering: CoveringMap
    copies: tuple[Mapping[NodeId, NodeId], ...]

    @property
    def fold(self) -> int:
        return len(self.copies)

    def copy_of(self, base_node: NodeId, copy: int) -> NodeId:
        return self.copies[copy % self.fold][base_node]


def cyclic_cover(
    base: CommunicationGraph,
    crossed_edges: Iterable[tuple[NodeId, NodeId]],
    copies: int,
) -> CyclicCover:
    """``copies`` copies of ``base``; each *crossed* edge ``(u, v)``
    becomes ``u@i — v@(i+1)`` instead of in-copy.  Always a covering.

    The orientation matters: crossing ``(u, v)`` sends ``u``'s side
    forward and ``v``'s side backward around the cycle of copies.  The
    timed connectivity engines use this to stretch an inadequate
    graph's cut into a long cycle that information crosses one copy
    per ``δ``.
    """
    if copies < 2:
        raise CoveringError("cyclic covers need at least two copies")
    crossed: dict[frozenset[NodeId], tuple[NodeId, NodeId]] = {}
    for u, v in crossed_edges:
        if not base.has_edge(u, v):
            raise CoveringError(f"crossed edge {u!r}-{v!r} not in base graph")
        crossed[frozenset((u, v))] = (u, v)
    copy_maps = [
        {v: f"{v}@{i}" for v in base.nodes} for i in range(copies)
    ]
    nodes = [copy_maps[i][v] for i in range(copies) for v in base.nodes]
    edges: list[tuple[NodeId, NodeId]] = []
    seen: set[frozenset[NodeId]] = set()
    for u, v in base.edges:
        key = frozenset((u, v))
        if key in seen:
            continue
        seen.add(key)
        if key in crossed:
            forward, _backward = crossed[key]
            if forward != u:
                u, v = v, u
            for i in range(copies):
                edges.append((copy_maps[i][u], copy_maps[(i + 1) % copies][v]))
        else:
            for i in range(copies):
                edges.append((copy_maps[i][u], copy_maps[i][v]))
    cover = CommunicationGraph(nodes, edges)
    phi = {
        copy_maps[i][v]: v for i in range(copies) for v in base.nodes
    }
    return CyclicCover(CoveringMap(cover, base, phi), tuple(copy_maps))


def connectivity_cyclic_cover(
    base: CommunicationGraph,
    cut_b: Iterable[NodeId],
    cut_d: Iterable[NodeId],
    side_a: Iterable[NodeId],
    side_c: Iterable[NodeId],
    copies: int,
) -> CyclicCover:
    """The §3.2 construction stretched to ``copies`` copies: cross every
    edge between ``side_a`` and ``cut_d``.  :func:`connectivity_double_cover`
    is the case ``copies = 2``."""
    b, d = set(cut_b), set(cut_d)
    a, c = set(side_a), set(side_c)
    _check_partition(base, (a, b, c, d))
    for u in a:
        for v in base.neighbors(u):
            if v in c:
                raise CoveringError(
                    f"edge {u!r}-{v!r} joins side_a to side_c; the cut "
                    "does not disconnect them"
                )
    crossed = [(u, v) for (u, v) in base.edges if u in a and v in d]
    if not crossed:
        raise CoveringError(
            "no edges between side_a and cut_d; choose a cut adjacent to "
            "the a side"
        )
    return cyclic_cover(base, crossed, copies)


def double_cover(
    base: CommunicationGraph,
    crossed_edges: Iterable[tuple[NodeId, NodeId]],
) -> CyclicCover:
    """Two copies of ``base`` with the given undirected edges re-routed
    across the copies (``u@0 — v@1`` and ``u@1 — v@0`` instead of the
    in-copy edges): the two-copy :func:`cyclic_cover`, in which an
    edge's orientation no longer matters.  Always a covering of
    ``base``.
    """
    return cyclic_cover(base, crossed_edges, 2)


def node_bound_double_cover(
    base: CommunicationGraph,
    part_a: Iterable[NodeId],
    part_b: Iterable[NodeId],
    part_c: Iterable[NodeId],
) -> CyclicCover:
    """The general Theorem 1 node-bound covering (Section 3.1).

    Given a partition of the base nodes into ``a``, ``b``, ``c``, build
    two copies of ``G`` and cross every edge between the ``a`` part and
    the ``c`` part.  For the triangle with singleton parts this is the
    hexagon of the paper's figure.
    """
    a, b, c = set(part_a), set(part_b), set(part_c)
    _check_partition(base, (a, b, c))
    crossed = [(u, v) for (u, v) in base.edges if u in a and v in c]
    return double_cover(base, crossed)


def connectivity_double_cover(
    base: CommunicationGraph,
    cut_b: Iterable[NodeId],
    cut_d: Iterable[NodeId],
    side_a: Iterable[NodeId],
    side_c: Iterable[NodeId],
) -> CyclicCover:
    """The general Theorem 1 connectivity covering (Section 3.2).

    ``cut_b`` and ``cut_d`` together disconnect ``side_a`` from
    ``side_c``; the covering takes two copies of ``G`` and crosses every
    edge between ``side_a`` and ``cut_d``.  For the diamond graph with
    singleton sets this is the eight-node ring of the paper's figure.
    """
    return connectivity_cyclic_cover(
        base, cut_b, cut_d, side_a, side_c, copies=2
    )


def _check_partition(
    base: CommunicationGraph, parts: Sequence[set[NodeId]]
) -> None:
    union: set[NodeId] = set()
    for part in parts:
        if not part:
            raise CoveringError("every partition class must be nonempty")
        if part & union:
            raise CoveringError("partition classes must be disjoint")
        union |= part
    if union != set(base.nodes):
        raise CoveringError("partition must exhaust the node set")


def partition_for_node_bound(
    base: CommunicationGraph, max_faults: int
) -> tuple[set[NodeId], set[NodeId], set[NodeId]]:
    """Partition nodes into three classes of size between 1 and ``f``.

    Exists exactly when ``3 <= n <= 3f`` — i.e. when the graph is
    inadequate by node count; raises :class:`CoveringError` otherwise.
    """
    n = len(base)
    f = max_faults
    if n < 3:
        raise CoveringError("graphs are assumed to have at least three nodes")
    if n > 3 * f:
        raise CoveringError(f"n = {n} > 3f = {3 * f}: graph is not inadequate")
    nodes = list(base.nodes)
    size_a = min(f, n - 2)
    size_b = min(f, n - size_a - 1)
    size_c = n - size_a - size_b
    if size_c > f:  # pragma: no cover - impossible when n <= 3f
        raise CoveringError("cannot partition into classes of size <= f")
    return (
        set(nodes[:size_a]),
        set(nodes[size_a : size_a + size_b]),
        set(nodes[size_a + size_b :]),
    )


def cut_partition_for_connectivity(
    base: CommunicationGraph, max_faults: int
) -> tuple[set[NodeId], set[NodeId], set[NodeId], set[NodeId]]:
    """Find ``(side_a, cut_b, side_c, cut_d)`` for the §3.2 covering.

    Requires ``c(G) <= 2f``.  Splits a minimum vertex cut into two
    halves ``b`` and ``d`` of size at most ``f`` each, and the remainder
    into the component side ``a`` (containing a node whose removal of
    the cut separates) and everything else ``c``.

    To build the covering we need at least one edge between ``a`` and
    ``d``; since every cut node has neighbors on both sides of the cut
    (else it would not be needed in a *minimum* cut), we put into ``d``
    at least one cut node adjacent to ``a``.
    """
    from .connectivity import global_min_cut, node_connectivity

    f = max_faults
    kappa = node_connectivity(base)
    if kappa > 2 * f:
        raise CoveringError(
            f"connectivity {kappa} > 2f = {2 * f}: graph is not inadequate"
        )
    if base.is_complete():
        raise CoveringError(
            "complete graph has no vertex cut; a complete graph with "
            "connectivity <= 2f also has n <= 2f+1 <= 3f nodes — use the "
            "node-bound construction instead"
        )
    cut = global_min_cut(base)
    if not cut:
        # Disconnected graph: any single node on one side works as a
        # degenerate "cut" is empty — the caller should special-case
        # this; we refuse because the paper assumes connected graphs.
        raise CoveringError("graph is disconnected; cut construction void")
    remaining = [v for v in base.nodes if v not in cut]
    first = remaining[0]
    component = base.reachable_from(first, removed=cut)
    side_a = set(component)
    side_c = set(remaining) - side_a
    if not side_c:  # pragma: no cover - cannot happen for a true cut
        raise CoveringError("cut does not disconnect the graph")
    cut_list = sorted(cut, key=str)
    # Order the cut so nodes adjacent to side_a land in part d.
    adjacent_to_a = [v for v in cut_list if set(base.neighbors(v)) & side_a]
    not_adjacent = [v for v in cut_list if v not in adjacent_to_a]
    ordered = adjacent_to_a + not_adjacent
    half = (len(ordered) + 1) // 2
    cut_d = set(ordered[:half])
    cut_b = set(ordered[half:])
    if not cut_b:
        # Both halves must be nonempty for the partition.  A cut of size
        # one goes entirely into d; removing one extra node (from the
        # larger side) still disconnects a from c, so borrow it for b.
        if len(cut_d) >= 2:
            mover = next(iter(cut_d - set(adjacent_to_a[:1])))
            cut_d.discard(mover)
            cut_b.add(mover)
        elif len(side_c) >= 2:
            mover = sorted(side_c, key=str)[0]
            side_c.discard(mover)
            cut_b.add(mover)
        elif len(side_a) >= 2:
            # Keep side_a adjacent to cut_d: remove a node that is not
            # the last one adjacent to d, if possible.
            candidates = sorted(side_a, key=str)
            d_adjacent = [
                v for v in candidates if set(base.neighbors(v)) & cut_d
            ]
            mover = next(
                (v for v in candidates if v not in d_adjacent[:1]),
                candidates[0],
            )
            side_a.discard(mover)
            cut_b.add(mover)
        else:  # pragma: no cover - n >= 3 guarantees a side of size >= 2
            raise CoveringError("graph too small to split the cut")
    if len(cut_b) > f or len(cut_d) > f:
        raise CoveringError("could not split the cut into halves of size <= f")
    return side_a, cut_b, side_c, cut_d
