"""Covering-map tests: verification and the paper's constructions."""

import pytest

from repro.graphs import (
    CommunicationGraph,
    CoveringError,
    CoveringMap,
    complete_graph,
    connectivity_double_cover,
    cut_partition_for_connectivity,
    diamond,
    hexagon_cover_of_triangle,
    is_covering,
    node_bound_double_cover,
    partition_for_node_bound,
    ring,
    ring_cover_of_triangle,
    triangle,
)


class TestVerification:
    def test_hexagon_is_covering(self):
        cm = hexagon_cover_of_triangle()
        assert len(cm.cover) == 6
        assert set(cm.fiber("a")) == {"u", "x"}

    def test_identity_is_covering(self):
        g = triangle()
        cm = CoveringMap(g, g, {u: u for u in g.nodes})
        assert cm("a") == "a"

    def test_bad_map_rejected(self):
        g = triangle()
        square = ring(4)
        phi = {"r0": "a", "r1": "b", "r2": "a", "r3": "b"}
        # Square covers the two-path a-b only if neighbor sets match;
        # against the triangle the c-neighbor is missing.
        assert not is_covering(square, g, phi)

    def test_incomplete_phi_rejected(self):
        g = triangle()
        with pytest.raises(CoveringError):
            CoveringMap(g, g, {"a": "a"})

    def test_non_injective_on_neighbors_rejected(self):
        base = CommunicationGraph(["a", "b"], [("a", "b")])
        cover = ring(4)
        phi = {"r0": "a", "r1": "b", "r2": "a", "r3": "b"}
        # r0's neighbors r1, r3 both map to b: fine (b has one neighbor
        # in base? a has only neighbor b) -> not injective on neighbors.
        assert not is_covering(cover, base, phi)

    def test_lift_neighbor(self):
        cm = hexagon_cover_of_triangle()
        assert cm.lift_neighbor("u", "b") == "v"
        assert cm.lift_neighbor("u", "c") == "z"
        with pytest.raises(CoveringError):
            cm.lift_neighbor("u", "a")

    def test_lifts_agree_with_lift_neighbor(self):
        cm = hexagon_cover_of_triangle()
        for u in cm.cover.nodes:
            lifts = cm.lifts(u)
            assert sorted(lifts) == sorted(cm.base.neighbors(cm(u)))
            assert all(cm.lift_neighbor(u, w) == s for w, s in lifts.items())

    def test_is_isomorphism_on(self):
        cm = hexagon_cover_of_triangle()
        assert cm.is_isomorphism_on(["v", "w"])
        assert cm.is_isomorphism_on(["w", "x"])
        # Two nodes in the same fiber are not an isomorphic image.
        assert not cm.is_isomorphism_on(["u", "x"])


class TestRingCover:
    def test_sizes(self):
        cm = ring_cover_of_triangle(12)
        assert len(cm.cover) == 12
        assert all(len(cm.fiber(w)) == 4 for w in cm.base.nodes)

    def test_bad_sizes_rejected(self):
        with pytest.raises(CoveringError):
            ring_cover_of_triangle(7)
        with pytest.raises(CoveringError):
            ring_cover_of_triangle(3)


class TestNodeBoundCover:
    def test_triangle_gives_hexagon(self):
        g = triangle()
        dc = node_bound_double_cover(g, {"a"}, {"b"}, {"c"})
        assert len(dc.covering.cover) == 6
        # The cover is a single 6-cycle: every node has degree 2 and it
        # is connected.
        cover = dc.covering.cover
        assert all(cover.degree(u) == 2 for u in cover.nodes)
        assert cover.is_connected()

    def test_general_partition(self):
        g = complete_graph(6)
        a, b, c = partition_for_node_bound(g, max_faults=2)
        assert all(1 <= len(part) <= 2 for part in (a, b, c))
        dc = node_bound_double_cover(g, a, b, c)
        assert len(dc.covering.cover) == 12

    def test_partition_rejects_adequate_graph(self):
        with pytest.raises(CoveringError):
            partition_for_node_bound(complete_graph(4), max_faults=1)


class TestConnectivityCover:
    def test_diamond_gives_eight_ring(self):
        g = diamond()
        side_a, cut_b, side_c, cut_d = cut_partition_for_connectivity(g, 1)
        assert len(cut_b) == 1 and len(cut_d) == 1
        dc = connectivity_double_cover(g, cut_b, cut_d, side_a, side_c)
        cover = dc.covering.cover
        assert len(cover) == 8
        assert all(cover.degree(u) == 2 for u in cover.nodes)
        assert cover.is_connected()

    def test_cut_disconnects(self):
        g = diamond()
        side_a, cut_b, side_c, cut_d = cut_partition_for_connectivity(g, 1)
        removed = cut_b | cut_d
        start = next(iter(side_a))
        reach = g.reachable_from(start, removed=removed)
        assert not reach & side_c

    def test_adequate_graph_rejected(self):
        with pytest.raises(CoveringError):
            cut_partition_for_connectivity(complete_graph(4), 1)

    def test_cut_of_size_one(self):
        # Barbell: two triangles joined through one node.
        g = CommunicationGraph(
            ["a", "b", "h", "x", "y"],
            [
                ("a", "b"),
                ("a", "h"),
                ("b", "h"),
                ("h", "x"),
                ("h", "y"),
                ("x", "y"),
            ],
        )
        side_a, cut_b, side_c, cut_d = cut_partition_for_connectivity(g, 1)
        assert len(cut_d) == 1 and len(cut_b) == 1
        dc = connectivity_double_cover(g, cut_b, cut_d, side_a, side_c)
        assert len(dc.covering.cover) == 10
