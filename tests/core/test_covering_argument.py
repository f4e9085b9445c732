"""Unit tests of the covering-argument machinery itself."""

from itertools import count

import pytest

from repro.core import (
    CoveringArgumentError,
    build_base_behavior,
    connectivity_scenarios,
    node_bound_scenarios,
    run_scenario_chain,
    shared_links,
)
from repro.graphs import (
    connectivity_double_cover,
    diamond,
    hexagon_cover_of_triangle,
    node_bound_double_cover,
    triangle,
)
from repro.protocols import MajorityVoteDevice
from repro.runtime.sync import install_in_covering, run
from repro.runtime.sync.device import SyncDevice


def hexagon_setup():
    g = triangle()
    dc = node_bound_double_cover(g, {"a"}, {"b"}, {"c"})
    devices = {u: MajorityVoteDevice() for u in g.nodes}
    cover_inputs = {dc.copy_of(v, 0): 0 for v in g.nodes}
    cover_inputs.update({dc.copy_of(v, 1): 1 for v in g.nodes})
    cover_system = install_in_covering(dc.covering, devices, cover_inputs)
    return g, dc, devices, cover_system


class _CountingSender(SyncDevice):
    """Its state never changes, but every ``send`` carries the next
    number of a counter the device instance keeps: the same instance
    sends other messages in the base run than in the cover run."""

    def __init__(self):
        self._sent = count()

    def init_state(self, ctx):
        return "idle"

    def send(self, ctx, state, round_index):
        return {port: next(self._sent) for port in ctx.ports}

    def transition(self, ctx, state, round_index, inbox):
        return state


class TestScenarioSets:
    def test_node_bound_scenarios_shape(self):
        _, dc, _, _ = hexagon_setup()
        sets = node_bound_scenarios(dc, {"a"}, {"b"}, {"c"})
        assert len(sets) == 3
        # Consecutive sets overlap in exactly one covering node.
        assert len(set(sets[0]) & set(sets[1])) == 1
        assert len(set(sets[1]) & set(sets[2])) == 1
        assert not set(sets[0]) & set(sets[2])

    def test_connectivity_scenarios_shape(self):
        from repro.graphs import cut_partition_for_connectivity

        g = diamond()
        side_a, cut_b, side_c, cut_d = cut_partition_for_connectivity(g, 1)
        dc = connectivity_double_cover(g, cut_b, cut_d, side_a, side_c)
        sets = connectivity_scenarios(dc, side_a, cut_b, side_c, cut_d)
        assert len(sets) == 3
        assert len(sets[0]) == 3 and len(sets[1]) == 3 and len(sets[2]) == 3


class TestBuildBaseBehavior:
    def test_correct_nodes_match_scenario_images(self):
        g, dc, devices, cover_system = hexagon_setup()
        cover_behavior = run(cover_system, 2)
        scenario = node_bound_scenarios(dc, {"a"}, {"b"}, {"c"})[0]
        constructed = build_base_behavior(
            dc.covering, cover_system, cover_behavior, scenario, devices
        )
        assert constructed.correct_nodes == frozenset({"b", "c"})
        assert constructed.faulty_nodes == frozenset({"a"})
        assert constructed.inputs == {"b": 0, "c": 0}

    def test_behavior_matches_covering_exactly(self):
        g, dc, devices, cover_system = hexagon_setup()
        cover_behavior = run(cover_system, 2)
        scenario = node_bound_scenarios(dc, {"a"}, {"b"}, {"c"})[1]
        constructed = build_base_behavior(
            dc.covering, cover_system, cover_behavior, scenario, devices
        )
        # E2 realizes {c@0, a@1}: decisions equal the covering's.
        assert constructed.behavior.decision("c") == cover_behavior.decision(
            dc.copy_of("c", 0)
        )
        assert constructed.behavior.decision("a") == cover_behavior.decision(
            dc.copy_of("a", 1)
        )

    def test_non_isomorphic_scenario_rejected(self):
        g, dc, devices, cover_system = hexagon_setup()
        cover_behavior = run(cover_system, 2)
        # Two covering nodes of the SAME fiber are not an isomorphic
        # image of any base subgraph.
        with pytest.raises(CoveringArgumentError):
            build_base_behavior(
                dc.covering,
                cover_system,
                cover_behavior,
                [dc.copy_of("a", 0), dc.copy_of("a", 1)],
                devices,
            )

    def test_edge_mismatch_with_equal_states_raises(self):
        """Node behaviors agree (the state never changes), so only the
        comparison of message columns can catch the base run's sends."""
        g = triangle()
        dc = node_bound_double_cover(g, {"a"}, {"b"}, {"c"})
        devices = {u: _CountingSender() for u in g.nodes}
        cover_system = install_in_covering(
            dc.covering, devices, {u: 0 for u in dc.covering.cover.nodes}
        )
        cover_behavior = run(cover_system, 2)
        scenario = node_bound_scenarios(dc, {"a"}, {"b"}, {"c"})[0]
        with pytest.raises(CoveringArgumentError, match="edge behavior mismatch"):
            build_base_behavior(
                dc.covering, cover_system, cover_behavior, scenario, devices
            )

    def test_works_with_plain_covering_map(self):
        """The machinery accepts any CoveringMap, not only the double
        covers — e.g. the handwritten hexagon."""
        cm = hexagon_cover_of_triangle()
        devices = {u: MajorityVoteDevice() for u in cm.base.nodes}
        cover_inputs = {u: 0 for u in ("u", "v", "w")}
        cover_inputs.update({u: 1 for u in ("x", "y", "z")})
        cover_system = install_in_covering(cm, devices, cover_inputs)
        cover_behavior = run(cover_system, 2)
        constructed = build_base_behavior(
            cm, cover_system, cover_behavior, ["v", "w"], devices
        )
        assert constructed.correct_nodes == frozenset({"b", "c"})


class TestChain:
    def test_run_scenario_chain_links(self):
        g, dc, devices, cover_system = hexagon_setup()
        chain = run_scenario_chain(
            dc.covering,
            cover_system,
            devices,
            node_bound_scenarios(dc, {"a"}, {"b"}, {"c"}),
            rounds=2,
        )
        assert [c.label for c in chain.constructed] == ["E1", "E2", "E3"]
        assert [link.node for link in chain.links] == ["c", "a"]

    def test_chain_builds_no_edge_behaviors(self):
        """Locality and the replay scripts read message columns, so no
        run of a chain builds its ``EdgeBehavior`` dict; a later reader
        still gets the same behaviors."""
        g, dc, devices, cover_system = hexagon_setup()
        chain = run_scenario_chain(
            dc.covering,
            cover_system,
            devices,
            node_bound_scenarios(dc, {"a"}, {"b"}, {"c"}),
            rounds=2,
        )
        behaviors = [chain.cover_behavior]
        behaviors += [c.behavior for c in chain.constructed]
        assert all(b.edge_behaviors._built is None for b in behaviors)
        assert chain.cover_behavior == run(cover_system, 2)
        for c in chain.constructed:
            assert c.behavior == run(c.system, 2)

    def test_shared_links_empty_without_overlap(self):
        g, dc, devices, cover_system = hexagon_setup()
        chain = run_scenario_chain(
            dc.covering,
            cover_system,
            devices,
            node_bound_scenarios(dc, {"a"}, {"b"}, {"c"}),
            rounds=2,
        )
        links = shared_links(
            dc.covering, chain.constructed[0], chain.constructed[2]
        )
        assert links == []
