"""System-construction guards and helpers for both runtimes."""

import pytest

from repro.graphs import CommunicationGraph, GraphError, triangle
from repro.runtime.plan import identity_labelling
from repro.protocols import MajorityVoteDevice
from repro.runtime.sync import (
    NodeAssignment,
    SyncSystem,
    run,
    uniform_system,
)
from repro.runtime.timed import (
    LinearClock,
    TimedNodeAssignment,
    TimedSystem,
    make_timed_system,
)
from repro.runtime.timed.device import TimedDevice


class TestSyncSystemGuards:
    def test_missing_assignment_rejected(self):
        g = triangle()
        assignments = {
            "a": NodeAssignment(
                MajorityVoteDevice(), 0, {"b": "b", "c": "c"}
            )
        }
        with pytest.raises(GraphError):
            SyncSystem(g, assignments)

    def test_wrong_port_set_rejected(self):
        g = triangle()
        base = uniform_system(g, MajorityVoteDevice(), {u: 0 for u in g.nodes})
        bad = dict(base.assignments)
        bad["a"] = NodeAssignment(MajorityVoteDevice(), 0, {"b": "b"})
        with pytest.raises(GraphError):
            SyncSystem(g, bad)

    def test_duplicate_labels_rejected(self):
        g = triangle()
        base = uniform_system(g, MajorityVoteDevice(), {u: 0 for u in g.nodes})
        bad = dict(base.assignments)
        bad["a"] = NodeAssignment(
            MajorityVoteDevice(), 0, {"b": "x", "c": "x"}
        )
        with pytest.raises(GraphError):
            SyncSystem(g, bad)

    def test_shared_labelling_of_another_graph_rejected(self):
        # Only this graph's own shared labelling skips the check.
        path = CommunicationGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        identity_labelling(path)  # path's own shared labelling exists
        star = CommunicationGraph(["a", "b", "c"], [("a", "b"), ("a", "c")])
        for other in (triangle(), star):
            labelling = identity_labelling(other)
            assignments = {
                u: NodeAssignment(MajorityVoteDevice(), 0, labelling[u])
                for u in path.nodes
            }
            with pytest.raises(GraphError, match="port labeling of 'a'"):
                SyncSystem(path, assignments)

    def test_shared_labelling_skips_only_its_own_nodes(self):
        g = triangle()
        base = uniform_system(g, MajorityVoteDevice(), {u: 0 for u in g.nodes})
        shared = identity_labelling(g)
        assert all(
            base.assignments[u].port_of_neighbor is shared[u] for u in g.nodes
        )
        # Node b's shared labelling handed to node a is still checked.
        bad = dict(base.assignments)
        bad["a"] = NodeAssignment(MajorityVoteDevice(), 0, shared["b"])
        with pytest.raises(GraphError, match="port labeling of 'a'"):
            SyncSystem(g, bad)

    def test_with_inputs_preserves_devices(self):
        g = triangle()
        system = uniform_system(
            g, MajorityVoteDevice(), {u: 0 for u in g.nodes}
        )
        updated = system.with_inputs({"a": 1})
        assert updated.input("a") == 1
        assert updated.input("b") == 0
        assert updated.device("a") is system.device("a")

    def test_neighbor_of_port_roundtrip(self):
        g = triangle()
        system = uniform_system(
            g, MajorityVoteDevice(), {u: 0 for u in g.nodes}
        )
        label = system.port("a", "b")
        assert system.neighbor_of_port("a", label) == "b"
        with pytest.raises(GraphError):
            system.neighbor_of_port("a", "nope")

    def test_behaviors_depend_only_on_inputs(self):
        g = triangle()
        s1 = uniform_system(g, MajorityVoteDevice(), {u: 1 for u in g.nodes})
        s2 = s1.with_inputs({u: 1 for u in g.nodes})
        assert run(s1, 2).decisions() == run(s2, 2).decisions()

    def test_reverse_port_map_cached_per_assignment(self):
        g = triangle()
        system = uniform_system(
            g, MajorityVoteDevice(), {u: 0 for u in g.nodes}
        )
        first = system.assignments["a"].neighbor_of_port
        second = system.assignments["a"].neighbor_of_port
        assert first is second  # built once, then cached
        assert first == {"b": "b", "c": "c"}

    def test_reverse_map_with_non_identity_labels(self):
        # Covering-style labelings rename ports; the cached reverse map
        # must follow the labeling, not the node ids.
        g = triangle()
        assignments = {
            "a": NodeAssignment(
                MajorityVoteDevice(), 0, {"b": "east", "c": "west"}
            ),
            "b": NodeAssignment(
                MajorityVoteDevice(), 0, {"a": "a", "c": "c"}
            ),
            "c": NodeAssignment(
                MajorityVoteDevice(), 0, {"a": "a", "b": "b"}
            ),
        }
        system = SyncSystem(g, assignments)
        assert system.neighbor_of_port("a", "east") == "b"
        assert system.neighbor_of_port("a", "west") == "c"
        with pytest.raises(GraphError):
            system.neighbor_of_port("a", "b")


class _Noop(TimedDevice):
    pass


class TestTimedSystemGuards:
    def test_nonpositive_delay_rejected(self):
        g = triangle()
        with pytest.raises(GraphError):
            make_timed_system(
                g, {u: _Noop for u in g.nodes}, {u: None for u in g.nodes},
                delay=0.0,
            )

    def test_missing_assignment_rejected(self):
        g = triangle()
        assignments = {
            "a": TimedNodeAssignment(_Noop, None, {"b": "b", "c": "c"})
        }
        with pytest.raises(GraphError):
            TimedSystem(g, assignments)

    def test_duplicate_labels_rejected(self):
        g = triangle()
        good = make_timed_system(
            g, {u: _Noop for u in g.nodes}, {u: None for u in g.nodes}
        )
        bad = dict(good.assignments)
        bad["a"] = TimedNodeAssignment(_Noop, None, {"b": "x", "c": "x"})
        with pytest.raises(GraphError):
            TimedSystem(g, bad)

    def test_reverse_port_map_cached_per_assignment(self):
        g = triangle()
        system = make_timed_system(
            g, {u: _Noop for u in g.nodes}, {u: None for u in g.nodes}
        )
        first = system.assignments["a"].neighbor_of_port
        assert first is system.assignments["a"].neighbor_of_port
        assert system.neighbor_of_port("a", "b") == "b"
        with pytest.raises(GraphError):
            system.neighbor_of_port("a", "nope")

    def test_with_factories_swaps_only_devices(self):
        g = triangle()
        system = make_timed_system(
            g,
            {u: _Noop for u in g.nodes},
            {u: u for u in g.nodes},
            clocks={u: LinearClock(2.0, 0.0) for u in g.nodes},
        )

        class Other(TimedDevice):
            pass

        updated = system.with_factories({"a": Other})
        assert updated.assignments["a"].factory is Other
        assert updated.clock("a") == LinearClock(2.0, 0.0)
        assert updated.assignments["b"].factory is _Noop

    def test_default_clock_is_identity(self):
        g = triangle()
        system = make_timed_system(
            g, {u: _Noop for u in g.nodes}, {u: None for u in g.nodes}
        )
        assert system.clock("a")(7.5) == 7.5
