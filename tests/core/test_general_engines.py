"""General-case (ε,δ,γ) engine via the footnote-3 collapse."""

import pytest

from repro.core.general import (
    collapse_to_triangle,
    refute_epsilon_delta_general,
)
from repro.graphs import GraphError, complete_graph, triangle
from repro.protocols import MedianDevice, MidpointDevice


class TestCollapseToTriangle:
    def test_k6_collapses(self):
        g = complete_graph(6)
        devices = {u: MedianDevice() for u in g.nodes}
        tri_devices, groups = collapse_to_triangle(g, devices, max_faults=2)
        assert set(tri_devices) == {"a", "b", "c"}
        assert sum(len(g2.members) for g2 in groups.values()) == 6

    def test_adequate_graph_rejected(self):
        g = complete_graph(6)
        devices = {u: MedianDevice() for u in g.nodes}
        with pytest.raises(GraphError):
            refute_epsilon_delta_general(
                g, devices, max_faults=1, epsilon=0.5, delta=1.0,
                gamma=1.0, rounds=2,
            )


class TestGeneralEpsilonDelta:
    def test_triangle_delegates(self):
        g = triangle()
        witness = refute_epsilon_delta_general(
            g,
            {u: MedianDevice() for u in g.nodes},
            max_faults=1,
            epsilon=0.25,
            delta=1.0,
            gamma=1.0,
            rounds=3,
        )
        assert witness.found

    def test_k6_two_faults(self):
        g = complete_graph(6)
        witness = refute_epsilon_delta_general(
            g,
            {u: MedianDevice() for u in g.nodes},
            max_faults=2,
            epsilon=0.25,
            delta=1.0,
            gamma=1.0,
            rounds=3,
        )
        assert witness.found
        assert witness.extra["collapsed"]
        # Chain structure intact: consecutive scenarios share a node.
        assert len(witness.links) >= witness.extra["k"] - 1

    def test_k5_two_faults_midpoint(self):
        g = complete_graph(5)
        witness = refute_epsilon_delta_general(
            g,
            {u: MidpointDevice() for u in g.nodes},
            max_faults=2,
            epsilon=0.5,
            delta=1.0,
            gamma=0.5,
            rounds=3,
        )
        assert witness.found

    def test_violations_name_member_nodes(self):
        g = complete_graph(6)
        witness = refute_epsilon_delta_general(
            g,
            {u: MedianDevice() for u in g.nodes},
            max_faults=2,
            epsilon=0.25,
            delta=1.0,
            gamma=1.0,
            rounds=3,
        )
        named = {
            node
            for checked in witness.violated
            for violation in checked.verdict.violations
            for node in violation.nodes
        }
        # The violations speak about ORIGINAL graph nodes, not groups.
        assert named <= set(g.nodes)

    def test_negative_rounds_rejected_before_any_device_runs(self):
        g = complete_graph(6)

        class Tripwire(MedianDevice):
            def send(self, *args, **kwargs):
                raise AssertionError("a device ran")

        with pytest.raises(ValueError, match="rounds must be non-negative"):
            refute_epsilon_delta_general(
                g, {u: Tripwire() for u in g.nodes}, max_faults=2,
                epsilon=0.25, delta=1.0, gamma=1.0, rounds=-1,
            )
