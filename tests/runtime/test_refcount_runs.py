"""Runs are freed by reference counting alone.

A run that leaves reference cycles behind is reclaimed only by the
cyclic collector, so its witnesses pile up until a gen-1 or gen-2
collection.  With the collector disabled and ``gc.DEBUG_SAVEALL`` set,
``gc.collect()`` reports exactly the objects that only it could free;
each workload below must leave none.
"""

import gc

import pytest

from repro.analysis.report import full_report
from repro.graphs import triangle
from repro.protocols import MajorityVoteDevice
from repro.runtime.sync import run, uniform_system
from repro.runtime.timed import (
    TimedCrashDevice,
    TimedEvent,
    make_timed_system,
    run_timed,
)
from repro.runtime.timed.behavior import _event, events_equal
from repro.runtime.timed.device import TimedDevice


class _Beacon(TimedDevice):
    """Broadcasts a tick at clock times 1, 2, 3, ... and decides."""

    def on_start(self, ctx, api):
        api.set_timer(1, 1.0)

    def on_message(self, ctx, api, port, message):
        api.decide("ticked")

    def on_timer(self, ctx, api, name):
        for port in ctx.ports:
            api.send(port, name)
        api.set_timer(name + 1, float(name + 1))


def _timed_run():
    g = triangle()
    system = make_timed_system(
        g, {u: _Beacon for u in g.nodes}, {u: None for u in g.nodes},
        delay=0.25,
    )
    run_timed(system, 6.0)


def _crash_run():
    g = triangle()
    factories = {u: _Beacon for u in g.nodes}
    factories["a"] = lambda: TimedCrashDevice(_Beacon(), 2.5)
    system = make_timed_system(
        g, factories, {u: None for u in g.nodes}, delay=0.25
    )
    run_timed(system, 6.0)


def _sync_run():
    g = triangle()
    system = uniform_system(g, MajorityVoteDevice(), {"a": 1, "b": 0, "c": 1})
    run(system, 3)


def _report_pass():
    assert len(full_report()) == 16


@pytest.fixture
def saveall():
    """Collector off, every unreachable object kept in ``gc.garbage``."""
    enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "workload", [_timed_run, _sync_run, _crash_run, _report_pass],
    ids=["run_timed", "sync run", "crash device", "report engines"],
)
def test_run_leaves_no_cyclic_garbage(workload, saveall):
    gc.collect()
    gc.garbage.clear()
    workload()
    leftover = gc.collect()
    kinds = sorted({type(o).__name__ for o in gc.garbage})
    assert leftover == 0, f"{leftover} objects in cycles: {kinds[:10]}"


class TestEventAllocator:
    def test_matches_the_constructor(self):
        for args in [(0.0, "start", None), (1.5, "receive", ("p", (1, 2))),
                     (2.0, "logical", len)]:
            built = TimedEvent(*args)
            allocated = _event(*args)
            assert allocated == built
            assert hash(allocated) == hash(built)
            assert repr(allocated) == repr(built)
            assert type(allocated) is TimedEvent
        # The repr names each field; the constructor takes keywords and
        # defaults the payload to None.
        assert repr(_event(1.5, "receive", ("p", 1))) == (
            "TimedEvent(time=1.5, kind='receive', payload=('p', 1))"
        )
        assert TimedEvent(time=0.0, kind="start") == _event(0.0, "start", None)

    def test_has_slots_and_is_frozen(self):
        # Setting, adding or deleting an attribute raises.
        event = _event(1.0, "send", ("p", "m"))
        assert not hasattr(event, "__dict__")
        with pytest.raises(AttributeError):
            event.time = 2.0
        with pytest.raises(AttributeError):
            event.extra = 1
        with pytest.raises(AttributeError):
            del event.kind
        assert event == TimedEvent(1.0, "send", ("p", "m"))

    def test_events_equal_reads_allocated_events(self):
        event = _event(4.0, "timer", "t")
        assert event == TimedEvent(4.0, "timer", "t")
        assert events_equal(event, TimedEvent(4.0, "timer", "t"))
        assert not events_equal(event, TimedEvent(4.0, "timer", "u"))
        assert events_equal(
            event, TimedEvent(4.0 + 1e-9, "timer", "t"), time_tolerance=1e-6
        )
