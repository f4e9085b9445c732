"""Timed behavior data-structure tests: prefixes, logical clocks,
payload comparison, edge restriction."""

import math
import pickle

import pytest

from repro.graphs import GraphError, diamond
from repro.protocols import ExchangeOnceWeakDevice
from repro.runtime.timed import (
    LinearClock,
    TimedEvent,
    make_timed_system,
    run_timed,
)
from repro.runtime.timed.behavior import (
    TimedEdgeBehavior,
    TimedEdgeSends,
    TimedNodeBehavior,
    events_equal,
    payloads_close,
)

from .reference_timed import reference_run_timed


def node_behavior(events, clock=None, segments=()):
    return TimedNodeBehavior(
        events=tuple(events),
        clock=clock,
        logical_segments=tuple(segments),
    )


class TestEventPrefixes:
    EVENTS = [
        TimedEvent(0.0, "start"),
        TimedEvent(1.0, "receive", ("p", "m")),
        TimedEvent(2.0, "timer", "t"),
    ]

    def test_prefix_cuts_by_time(self):
        nb = node_behavior(self.EVENTS)
        assert len(nb.prefix(0.5)) == 1
        assert len(nb.prefix(1.0)) == 2
        assert len(nb.prefix(10.0)) == 3

    def test_prefix_equal(self):
        nb1 = node_behavior(self.EVENTS)
        nb2 = node_behavior(self.EVENTS[:2] + [TimedEvent(2.0, "timer", "u")])
        assert nb1.prefix_equal(nb2, through=1.5)
        assert not nb1.prefix_equal(nb2, through=2.5)

    def test_prefix_equal_with_tolerance(self):
        shifted = [
            TimedEvent(e.time + 1e-9, e.kind, e.payload) for e in self.EVENTS
        ]
        nb1 = node_behavior(self.EVENTS)
        nb2 = node_behavior(shifted)
        assert nb1.prefix_equal(nb2, through=5.0, time_tolerance=1e-6)
        assert not nb1.prefix_equal(nb2, through=5.0, time_tolerance=0.0)

    def test_events_equal(self):
        a = TimedEvent(1.0, "receive", ("p", 1))
        b = TimedEvent(1.0, "receive", ("p", 1))
        c = TimedEvent(1.0, "receive", ("p", 2))
        assert events_equal(a, b)
        assert not events_equal(a, c)


class TestLogicalClocks:
    def test_default_reads_hardware(self):
        nb = node_behavior([], clock=LinearClock(2.0, 0.0))
        assert nb.logical_value(3.0) == pytest.approx(6.0)

    def test_segments_switch_over_time(self):
        clock = LinearClock(1.0, 0.0)
        nb = node_behavior(
            [],
            clock=clock,
            segments=[(0.0, lambda c: c), (5.0, lambda c: c + 100)],
        )
        assert nb.logical_value(4.0) == pytest.approx(4.0)
        assert nb.logical_value(6.0) == pytest.approx(106.0)

    def test_no_clock_raises(self):
        nb = node_behavior([])
        with pytest.raises(GraphError):
            nb.logical_value(1.0)


class TestEdgeBehavior:
    def test_through_filters_by_send_time(self):
        eb = TimedEdgeBehavior(
            ((0.0, "a", 1.0), (2.0, "b", 3.0), (4.0, "c", 5.0))
        )
        assert eb.through(2.0).messages() == ("a", "b")
        assert eb.through(0.5).messages() == ("a",)


def _weak_runs():
    """One diamond run of the weak-agreement exchange, from the executor
    and from the reference executor."""
    g = diamond()
    system = make_timed_system(
        g,
        {u: (lambda: ExchangeOnceWeakDevice(decide_at=2.0)) for u in g.nodes},
        {u: i % 2 for i, u in enumerate(g.nodes)},
        delay=1.0,
    )
    return system, run_timed(system, 3.0), reference_run_timed(system, 3.0)


class TestTimedEdgeSends:
    """The executor hands its per-edge send lists over as a mapping
    built on first read; every reader must see the reference's dict."""

    def test_equals_plain_dict_in_both_orders(self):
        _, behavior, reference = _weak_runs()
        edges = behavior.edge_behaviors
        assert isinstance(edges, TimedEdgeSends)
        assert type(reference.edge_behaviors) is dict
        assert edges == reference.edge_behaviors
        _, behavior, reference = _weak_runs()
        assert reference.edge_behaviors == behavior.edge_behaviors
        assert behavior == reference and reference == behavior
        other = dict(reference.edge_behaviors)
        other[next(iter(other))] = TimedEdgeBehavior(((0.0, "x", 1.0),))
        assert behavior.edge_behaviors != other
        assert other != behavior.edge_behaviors

    def test_order_len_and_lookups(self):
        system, behavior, reference = _weak_runs()
        edges = behavior.edge_behaviors
        order = list(system.graph.edges)
        assert list(edges) == order and len(edges) == len(order)
        assert any(edges[e].sends for e in order)  # builds the dict
        assert list(edges) == order
        assert [k for k, _ in edges.items()] == order
        assert list(dict(edges)) == order
        assert edges[order[0]] is edges[order[0]]  # built once, kept
        assert repr(edges) == repr(dict(reference.edge_behaviors))
        with pytest.raises(KeyError):
            edges[("a", "ghost")]

    @pytest.mark.parametrize("read_first", [False, True], ids=["lazy", "built"])
    def test_pickle_round_trip(self, read_first):
        system, behavior, reference = _weak_runs()
        edges = behavior.edge_behaviors
        if read_first:
            dict(edges)
        restored = pickle.loads(pickle.dumps(edges))
        assert isinstance(restored, TimedEdgeSends)
        assert list(restored) == list(system.graph.edges)
        assert restored == reference.edge_behaviors


class TestPayloadsClose:
    def test_float_tolerance(self):
        assert payloads_close(1.0, 1.0 + 1e-9, 1e-6)
        assert not payloads_close(1.0, 1.1, 1e-6)

    def test_relative_scaling(self):
        assert payloads_close(1e9, 1e9 + 10, 1e-6)

    def test_nested_structures(self):
        a = ("reading", 2.0, {"x": (1.0, 2.0)})
        b = ("reading", 2.0 + 1e-10, {"x": (1.0, 2.0 + 1e-10)})
        assert payloads_close(a, b, 1e-6)

    def test_mismatched_shapes(self):
        assert not payloads_close((1, 2), (1, 2, 3), 1e-6)
        assert not payloads_close({"a": 1}, {"b": 1}, 1e-6)

    def test_callables_pass(self):
        assert payloads_close(math.sin, math.cos, 1e-6)

    def test_plain_equality_fallback(self):
        assert payloads_close("x", "x", 0.0)
        assert not payloads_close("x", "y", 0.0)
