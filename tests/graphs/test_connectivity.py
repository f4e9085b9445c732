"""Connectivity tests, including a cross-check against networkx."""

import random

import pytest

from repro.graphs import (
    CommunicationGraph,
    GraphError,
    complete_bipartite,
    complete_graph,
    diamond,
    global_min_cut,
    line,
    local_connectivity,
    min_vertex_cut,
    node_connectivity,
    random_connected_graph,
    ring,
    star,
    triangle,
    vertex_disjoint_paths,
    wheel,
)


class TestKnownConnectivities:
    def test_complete_graph(self):
        for n in (3, 4, 7):
            assert node_connectivity(complete_graph(n)) == n - 1

    def test_ring(self):
        assert node_connectivity(ring(5)) == 2

    def test_line(self):
        assert node_connectivity(line(4)) == 1

    def test_star(self):
        assert node_connectivity(star(4)) == 1

    def test_wheel(self):
        assert node_connectivity(wheel(5)) == 3

    def test_diamond_is_two_connected(self):
        assert node_connectivity(diamond()) == 2

    def test_complete_bipartite(self):
        assert node_connectivity(complete_bipartite(2, 5)) == 2

    def test_disconnected_graph(self):
        g = CommunicationGraph(["a", "b", "c"], [("a", "b")])
        assert node_connectivity(g) == 0


class TestMinVertexCut:
    def test_diamond_cut_separates(self):
        g = diamond()
        cut = min_vertex_cut(g, "a", "c")
        assert cut == {"b", "d"}

    def test_cut_actually_disconnects(self):
        g = wheel(6)
        cut = min_vertex_cut(g, "w0", "w3")
        assert "w3" not in g.reachable_from("w0", removed=cut)

    def test_adjacent_nodes_rejected(self):
        with pytest.raises(GraphError):
            min_vertex_cut(triangle(), "a", "b")

    def test_same_node_rejected(self):
        with pytest.raises(GraphError):
            min_vertex_cut(triangle(), "a", "a")

    def test_global_min_cut_disconnects(self):
        g = wheel(6)
        cut = global_min_cut(g)
        assert len(cut) == 3
        survivors = [u for u in g.nodes if u not in cut]
        reach = g.reachable_from(survivors[0], removed=cut)
        assert reach != set(survivors)

    def test_global_min_cut_of_complete_graph_raises(self):
        with pytest.raises(GraphError):
            global_min_cut(complete_graph(4))


class TestLocalConnectivity:
    def test_matches_cut_size(self):
        g = complete_bipartite(3, 4)
        s = g.nodes[0]  # bL0
        t = g.nodes[1]  # bL1 (same side: non-adjacent)
        assert local_connectivity(g, s, t) == len(min_vertex_cut(g, s, t))


class TestVertexDisjointPaths:
    def test_paths_are_disjoint_and_valid(self):
        g = wheel(6)
        paths = vertex_disjoint_paths(g, "w0", "w3")
        assert len(paths) == 3
        interior: set = set()
        for path in paths:
            assert path[0] == "w0" and path[-1] == "w3"
            for u, v in zip(path, path[1:]):
                assert g.has_edge(u, v)
            middle = set(path[1:-1])
            assert not middle & interior
            interior |= middle

    def test_adjacent_endpoints_include_direct_edge(self):
        g = complete_graph(5)
        paths = vertex_disjoint_paths(g, "n0", "n1")
        assert ["n0", "n1"] in paths
        assert len(paths) == 4

    def test_count_equals_connectivity_in_ring(self):
        g = ring(7)
        paths = vertex_disjoint_paths(g, "r0", "r3")
        assert len(paths) == 2


class TestEdgeCases:
    def test_single_node_graph_has_zero_connectivity(self):
        g = CommunicationGraph(["only"], [])
        assert node_connectivity(g) == 0

    def test_empty_graph_rejected(self):
        g = CommunicationGraph([], [])
        with pytest.raises(GraphError):
            node_connectivity(g)

    def test_two_isolated_nodes(self):
        g = CommunicationGraph(["a", "b"], [])
        assert node_connectivity(g) == 0

    def test_disconnected_pair_has_empty_cut(self):
        g = CommunicationGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert node_connectivity(g) == 0
        assert min_vertex_cut(g, "a", "c") == set()
        assert vertex_disjoint_paths(g, "a", "c") == []

    def test_global_min_cut_of_disconnected_graph_is_empty(self):
        g = CommunicationGraph(["a", "b", "c"], [("a", "b")])
        assert global_min_cut(g) == set()

    def test_local_connectivity_adjacent_pair_rejected(self):
        g = triangle()
        with pytest.raises(GraphError):
            local_connectivity(g, "a", "b")

    def test_local_connectivity_same_node_rejected(self):
        with pytest.raises(GraphError):
            local_connectivity(triangle(), "a", "a")

    def test_local_connectivity_non_adjacent_pair(self):
        g = ring(5)
        assert local_connectivity(g, "r0", "r2") == 2


class TestAnalyticsCache:
    def setup_method(self):
        from repro.graphs.connectivity import clear_analytics

        clear_analytics()

    def test_repeat_queries_hit_the_instance_cache(self):
        from repro.graphs.connectivity import analytics_stats

        g = wheel(6)
        first = node_connectivity(g)
        before = analytics_stats()
        assert node_connectivity(g) == first
        after = analytics_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_returned_cut_is_a_defensive_copy(self):
        g = diamond()
        cut = min_vertex_cut(g, "a", "c")
        cut.add("XXX")
        assert min_vertex_cut(g, "a", "c") == {"b", "d"}

    def test_returned_paths_are_defensive_copies(self):
        g = wheel(6)
        paths = vertex_disjoint_paths(g, "w0", "w3")
        paths[0].append("XXX")
        paths.clear()
        fresh = vertex_disjoint_paths(g, "w0", "w3")
        assert len(fresh) == 3
        assert all("XXX" not in p for p in fresh)

    def test_clear_analytics_resets_counters(self):
        from repro.graphs.connectivity import analytics_stats, clear_analytics

        node_connectivity(ring(5))
        clear_analytics()
        s = analytics_stats()
        assert s == {"hits": 0, "misses": 0}


class TestAgainstNetworkx:
    nx = pytest.importorskip("networkx")

    def _to_nx(self, g):
        nxg = self.nx.Graph()
        nxg.add_nodes_from(g.nodes)
        nxg.add_edges_from(
            (u, v) for (u, v) in g.edges if str(u) < str(v) or (u, v)[0] != u
        )
        nxg.add_edges_from((u, v) for (u, v) in g.edges)
        return nxg

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs_match(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        g = random_connected_graph(n, rng.uniform(0.1, 0.6), rng)
        assert node_connectivity(g) == self.nx.node_connectivity(self._to_nx(g))

    @pytest.mark.parametrize("seed", range(6))
    def test_min_cut_size_matches_connectivity(self, seed):
        rng = random.Random(100 + seed)
        g = random_connected_graph(8, 0.3, rng)
        if g.is_complete():
            pytest.skip("no cut in a complete graph")
        cut = global_min_cut(g)
        assert len(cut) == node_connectivity(g)
        survivors = [u for u in g.nodes if u not in cut]
        reach = g.reachable_from(survivors[0], removed=cut)
        assert reach != set(survivors)
