"""Sync behavior data-structure tests: prefixes, scenarios, renaming,
and the executor's lazily built edge behaviors."""

import pickle

import pytest

from repro.graphs import CommunicationGraph, GraphError, triangle
from repro.graphs.builders import complete_graph
from repro.protocols import MajorityVoteDevice
from repro.runtime.faults import FaultPlan, LinkFault, SyncFaultInjector
from repro.runtime.plan import compile_sync_plan
from repro.runtime.sync import check_determinism, run, uniform_system
from repro.runtime.sync.behavior import EdgeBehavior, EdgeColumns, NodeBehavior
from repro.testing import reference_sync_run


@pytest.fixture
def behavior():
    g = triangle()
    return run(
        uniform_system(g, MajorityVoteDevice(), {"a": 1, "b": 0, "c": 0}), 3
    )


class TestNodeBehavior:
    def test_rounds(self, behavior):
        assert behavior.node("a").rounds == 3

    def test_prefix_truncates_states(self, behavior):
        nb = behavior.node("a")
        prefix = nb.prefix(1)
        assert prefix.states == nb.states[:2]

    def test_prefix_keeps_decision_if_early(self, behavior):
        nb = behavior.node("a")
        assert nb.decided_at == 1
        assert nb.prefix(1).decision == nb.decision
        assert nb.prefix(0).decision is None

    def test_prefix_beyond_length_raises(self, behavior):
        with pytest.raises(GraphError):
            behavior.node("a").prefix(10)

    def test_manual_prefix(self):
        nb = NodeBehavior(states=(0, 1, 2), decision="x", decided_at=2)
        assert nb.prefix(1) == NodeBehavior(states=(0, 1))


class TestEdgeBehavior:
    def test_prefix(self):
        eb = EdgeBehavior(messages=("m0", "m1", "m2"))
        assert eb.prefix(2).messages == ("m0", "m1")
        with pytest.raises(GraphError):
            eb.prefix(5)

    def test_rounds(self, behavior):
        assert behavior.edge("a", "b").rounds == 3


class TestScenario:
    def test_scenario_contents(self, behavior):
        scenario = behavior.scenario(["a", "b"])
        assert set(scenario.nodes) == {"a", "b"}
        assert set(scenario.edge_behaviors) == {("a", "b"), ("b", "a")}
        assert set(scenario.border_behaviors) == {("c", "a"), ("c", "b")}

    def test_unknown_node_rejected(self, behavior):
        with pytest.raises(GraphError):
            behavior.scenario(["a", "zzz"])

    def test_renamed(self, behavior):
        scenario = behavior.scenario(["a", "b"])
        renamed = scenario.renamed({"a": "x", "b": "y"})
        assert set(renamed.nodes) == {"x", "y"}
        assert ("x", "y") in renamed.edge_behaviors
        # Border source c keeps its name.
        assert ("c", "x") in renamed.border_behaviors

    def test_core_equal_ignores_border(self, behavior):
        s1 = behavior.scenario(["a", "b"])
        s2 = behavior.scenario(["a", "b"])
        object.__setattr__(s2, "border_behaviors", {})
        assert s1.core_equal(s2)

    def test_core_equal_detects_difference(self, behavior):
        s1 = behavior.scenario(["a", "b"])
        s2 = behavior.scenario(["a", "c"])
        assert not s1.core_equal(s2)

    def test_decisions_mapping(self, behavior):
        decisions = behavior.decisions()
        assert set(decisions) == {"a", "b", "c"}
        assert set(decisions.values()) == {0}


class TestWitnessExplain:
    def test_explain_includes_traces(self):
        from repro.analysis.traces import explain_witness
        from repro.core import refute_node_bound

        g = triangle()
        witness = refute_node_bound(
            g, {u: MajorityVoteDevice() for u in g.nodes}, 1, rounds=3
        )
        text = explain_witness(witness)
        assert "full trace" in text
        assert "messages per round" in text
        assert "decisions" in text


def _k4_system():
    g = complete_graph(4)
    return uniform_system(
        g, MajorityVoteDevice(rounds=3), {u: i % 2 for i, u in enumerate(g.nodes)}
    )


def _faulted_runs(rounds=3):
    """A fresh executor run and a reference run of K4 under one drop
    fault, so some edge behaviors hold ``None``."""
    system = _k4_system()
    nodes = system.graph.nodes
    plan = FaultPlan(
        link_faults=(LinkFault(edge=(nodes[0], nodes[1]), kind="drop"),),
        seed=3,
    )
    return (
        system,
        run(system, rounds, SyncFaultInjector(plan)),
        reference_sync_run(system, rounds, SyncFaultInjector(plan)),
    )


class TestEdgeColumns:
    """``execute_plan`` hands the edge behaviors over as an
    :class:`EdgeColumns` over its round rows; every reader must see the
    plain dict the executor used to build."""

    def test_is_lazy_mapping(self):
        _, behavior, _ = _faulted_runs()
        assert isinstance(behavior.edge_behaviors, EdgeColumns)

    def test_equals_plain_dict_in_both_orders(self):
        _, behavior, reference = _faulted_runs()
        assert behavior.edge_behaviors == reference.edge_behaviors
        _, behavior, reference = _faulted_runs()
        assert reference.edge_behaviors == behavior.edge_behaviors
        assert not (behavior.edge_behaviors != reference.edge_behaviors)
        # ... and as a field of the frozen dataclass, both ways round.
        _, behavior, reference = _faulted_runs()
        assert behavior == reference and reference == behavior

    def test_unequal_to_a_different_dict(self):
        _, behavior, reference = _faulted_runs()
        other = dict(reference.edge_behaviors)
        edge = next(iter(other))
        other[edge] = EdgeBehavior(("x",) * 3)
        assert behavior.edge_behaviors != other
        assert other != behavior.edge_behaviors
        assert behavior.edge_behaviors != list(other)

    def test_two_lazy_mappings_compare_by_content(self):
        system = _k4_system()
        assert run(system, 3).edge_behaviors == run(system, 3).edge_behaviors
        assert run(system, 3).edge_behaviors != run(system, 2).edge_behaviors

    def test_dict_len_and_order_follow_the_plan(self):
        system, behavior, reference = _faulted_runs()
        edges = compile_sync_plan(system).edges
        assert len(behavior.edge_behaviors) == len(edges) == 12
        assert list(behavior.edge_behaviors) == list(edges)
        copied = dict(behavior.edge_behaviors)
        assert type(copied) is dict
        assert list(copied) == list(edges)
        assert copied == dict(reference.edge_behaviors)
        assert [k for k, _ in behavior.edge_behaviors.items()] == list(edges)
        assert list(behavior.edge_behaviors.keys()) == list(edges)
        assert list(behavior.edge_behaviors.values()) == [
            reference.edge_behaviors[e] for e in edges
        ]

    def test_lookups(self):
        system, behavior, reference = _faulted_runs()
        columns = behavior.edge_behaviors
        u, v = system.graph.nodes[:2]
        assert columns[(u, v)] == reference.edge(u, v)
        assert columns[(u, v)].messages == (None, None, None)
        assert columns[(u, v)] is columns[(u, v)]  # built once, kept
        assert behavior.edge(v, u) == reference.edge(v, u)
        assert (u, v) in columns and (u, u) not in columns
        assert columns.get((u, u)) is None
        with pytest.raises(KeyError):
            columns[(u, "ghost")]

    def test_missing_edge_raises_before_any_read(self):
        system, behavior, _ = _faulted_runs()
        with pytest.raises(KeyError):
            behavior.edge(system.graph.nodes[0], "ghost")

    @pytest.mark.parametrize("read_first", [False, True], ids=["lazy", "built"])
    def test_column_reads(self, read_first):
        system, behavior, reference = _faulted_runs()
        if read_first:
            dict(behavior.edge_behaviors)
        for u, v in system.graph.edges:
            assert behavior.column(u, v) == reference.edge(u, v).messages
            assert reference.column(u, v) == reference.edge(u, v).messages
        with pytest.raises(KeyError):
            behavior.column(system.graph.nodes[0], "ghost")

    def test_zero_rounds(self):
        system = _k4_system()
        behavior = run(system, 0)
        assert len(behavior.edge_behaviors) == 12
        assert set(behavior.edge_behaviors) == set(system.graph.edges)
        assert dict(behavior.edge_behaviors) == {
            e: EdgeBehavior(()) for e in system.graph.edges
        }
        assert behavior == reference_sync_run(system, 0)

    def test_edgeless_graph(self):
        g = CommunicationGraph(["solo"], [])
        behavior = run(uniform_system(g, MajorityVoteDevice(), {"solo": 1}), 2)
        assert len(behavior.edge_behaviors) == 0
        assert dict(behavior.edge_behaviors) == {}
        assert not behavior.edge_behaviors

    @pytest.mark.parametrize("read_first", [False, True], ids=["lazy", "built"])
    def test_pickle_round_trip(self, read_first):
        # Pool workers pickle what they return to the parent.
        _, behavior, reference = _faulted_runs()
        columns = behavior.edge_behaviors
        if read_first:
            dict(columns)
        restored = pickle.loads(pickle.dumps(columns))
        assert isinstance(restored, EdgeColumns)
        assert restored == reference.edge_behaviors
        assert list(restored) == list(columns)

    def test_repr_is_the_dict_repr(self):
        _, behavior, _ = _faulted_runs()
        columns = behavior.edge_behaviors
        text = repr(columns)
        assert text == repr(dict(columns))
        assert "EdgeColumns" not in repr(behavior)

    def test_check_determinism(self):
        assert check_determinism(_k4_system(), 4)

    def test_scenario_reads_edges(self):
        system, behavior, reference = _faulted_runs()
        nodes = system.graph.nodes[:3]
        assert behavior.scenario(nodes) == reference.scenario(nodes)


class TestPickleAfterRun:
    """A run caches read-only port labellings and routes on its graph;
    graphs, behaviors and witnesses must still pickle (a spawned pool
    or a cached witness would), dropping the cache."""

    def test_graph(self):
        g = complete_graph(4)
        run(uniform_system(g, MajorityVoteDevice(), {u: 0 for u in g}), 2)
        assert g.analytics_cache()
        restored = pickle.loads(pickle.dumps(g))
        assert restored == g
        assert restored.nodes == g.nodes
        assert [restored.neighbors(u) for u in g] == [g.neighbors(u) for u in g]
        assert restored.analytics_cache() == {}
        assert run(
            uniform_system(restored, MajorityVoteDevice(), {u: 0 for u in g}), 2
        ).decisions() == {u: 0 for u in g}

    @pytest.mark.parametrize("read_first", [False, True], ids=["lazy", "built"])
    def test_behavior(self, read_first):
        system, behavior, reference = _faulted_runs()
        if read_first:
            dict(behavior.edge_behaviors)
        restored = pickle.loads(pickle.dumps(behavior))
        assert restored == reference
        assert restored.graph == system.graph

    def test_witness(self):
        from repro.analysis.witness_io import witness_to_dict
        from repro.core import refute_node_bound

        g = triangle()
        witness = refute_node_bound(
            g, {u: MajorityVoteDevice() for u in g.nodes}, 1, rounds=3
        )
        restored = pickle.loads(pickle.dumps(witness))
        assert witness_to_dict(restored, include_traces=True) == (
            witness_to_dict(witness, include_traces=True)
        )
        for checked in restored.checked:
            c = checked.constructed
            assert run(c.system, 3) == c.behavior
