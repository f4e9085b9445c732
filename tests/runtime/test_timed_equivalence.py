"""Differential tests: the timed executor against its reference copy.

:func:`repro.runtime.timed.run_timed` compiles each node's sends once,
builds events through a slot allocator and takes ``repr`` of a payload
only when heap entries tie on (time, rank, kind).  The reference loop
in :mod:`tests.runtime.reference_timed` does none of that.  On every
system below the two must agree on the full behavior (each node's
events, decision, decision and fire times, clock and logical segments,
and each edge's sends), on the ``timed_event`` telemetry stream, and
on any exception raised.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.report import _entries
from repro.graphs import GraphError, diamond, line, triangle
from repro.runtime.timed import (
    LinearClock,
    TimedExecutionError,
    TimedNodeAssignment,
    TimedReplayDevice,
    TimedSystem,
    make_timed_system,
    run_timed,
)
from repro.runtime.timed import executor as timed_executor
from repro.runtime.timed.device import TimedDevice

from .reference_timed import reference_run_timed


def _canon_fn(fn):
    """Logical-clock functions are fresh objects per run; compare them
    by type and by their values at a few clock readings."""
    samples = []
    for x in (0.5, 1.0, 2.5, 10.0):
        try:
            samples.append(fn(x))
        except (ArithmeticError, ValueError):
            samples.append("undefined")
    return (type(fn).__qualname__, tuple(samples))


def _full(behavior):
    nodes = [
        (
            u,
            tuple(
                (
                    e.time,
                    e.kind,
                    _canon_fn(e.payload) if e.kind == "logical" else e.payload,
                )
                for e in nb.events
            ),
            nb.decision,
            nb.decision_time,
            nb.fire_time,
            nb.clock,
            tuple((t, _canon_fn(fn)) for t, fn in nb.logical_segments),
        )
        for u, nb in behavior.node_behaviors.items()
    ]
    edges = [(e, eb.sends) for e, eb in behavior.edge_behaviors.items()]
    return behavior.graph, behavior.horizon, nodes, edges


def _outcome(execute, system, horizon):
    """The full behavior (or the exception) and the ``timed_event``
    telemetry stream of one run."""
    obs.enable()
    try:
        try:
            result = _full(execute(system, horizon))
        except Exception as exc:  # noqa: BLE001 - compared across executors
            result = (type(exc), str(exc))
        stream = [e.fields for e in obs.get_log() if e.kind == obs.TIMED_EVENT]
    finally:
        obs.reset()
    return result, stream


def assert_equivalent(system, horizon):
    fast, fast_stream = _outcome(run_timed, system, horizon)
    reference, reference_stream = _outcome(reference_run_timed, system, horizon)
    assert fast == reference
    assert fast_stream == reference_stream
    return fast


# -- every system the timed engines build ----------------------------------

_TIMED_ENGINES = [
    entry
    for entry in _entries()
    if entry[0].startswith(("Thm 2", "Thm 4", "Thm 8", "Cor"))
]


@pytest.mark.parametrize(
    "runner", [runner for _, _, runner in _TIMED_ENGINES],
    ids=[name for name, _, _ in _TIMED_ENGINES],
)
def test_engine_systems_match_reference(runner, monkeypatch):
    recorded = []

    def recording(system, horizon):
        recorded.append((system, horizon))
        return run_timed(system, horizon)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.core") and (
            getattr(module, "run_timed", None) is timed_executor.run_timed
        ):
            monkeypatch.setattr(module, "run_timed", recording)
    assert runner().violated
    monkeypatch.undo()

    assert recorded
    for system, horizon in recorded:
        assert_equivalent(system, horizon)


# -- hand-built systems ----------------------------------------------------


class _Chatter(TimedDevice):
    """Broadcasts its input at start, echoes each message once per
    port, reads its clock and decides on a timer."""

    def __init__(self):
        self.echoed = set()

    def on_start(self, ctx, api):
        for port in ctx.ports:
            api.send(port, ("hello", ctx.input))
        api.set_timer("decide", api.clock() + 2.0)

    def on_message(self, ctx, api, port, message):
        if port not in self.echoed:
            self.echoed.add(port)
            api.send(port, ("echo", message, round(api.clock(), 9)))

    def on_timer(self, ctx, api, name):
        api.decide(len(self.echoed))
        api.fire()


def _skewed_clocks(graph):
    return {
        u: LinearClock(rate=1.0 + 0.15 * i, offset=0.3 * i)
        for i, u in enumerate(graph.nodes)
    }


@pytest.mark.parametrize("graph", [triangle(), diamond(), line(4)], ids=str)
def test_clock_delay_mode(graph):
    system = make_timed_system(
        graph,
        {u: _Chatter for u in graph.nodes},
        {u: i for i, u in enumerate(graph.nodes)},
        delay=0.75,
        delay_mode="clock",
        clocks=_skewed_clocks(graph),
    )
    _, _, nodes, _ = assert_equivalent(system, 6.0)
    assert all(node[2] is not None for node in nodes)


class _TwinTimers(TimedDevice):
    """Sets several timers for the same instant, named so that their
    ``repr`` order differs from the order they were set in."""

    def on_start(self, ctx, api):
        for name in ("zeta", "alpha", ("mid", 2), ("mid", 1)):
            api.set_timer(name, 1.0)

    def on_timer(self, ctx, api, name):
        api.set_logical(LinearClock(1.0, float(len(repr(name)))))


def _replay_triangle(scripts):
    """Triangle whose node ``a`` runs ``_Chatter`` and whose ``b``/``c``
    replay ``scripts``; ``a`` labels its ports so that the
    lexicographic port order is the reverse of the rank order."""
    g = triangle()
    ports = {"a": {"b": "z-port", "c": "a-port"}, "b": {"a": "a", "c": "c"},
             "c": {"a": "a", "b": "b"}}
    factories = {
        "a": _Chatter,
        "b": lambda: TimedReplayDevice(scripts["b"]),
        "c": lambda: TimedReplayDevice(scripts["c"]),
    }
    return TimedSystem(
        g,
        {
            u: TimedNodeAssignment(
                factory=factories[u], input=u, port_of_neighbor=ports[u]
            )
            for u in g.nodes
        },
        delay=1.0,
    )


def test_simultaneous_deliveries_on_several_ports():
    # b and c both deliver to a at t = 1.0 and t = 2.0; b also sends two
    # messages on one port at the same instant, in reverse repr order,
    # and c sends with zero transit time, so deliveries are scheduled
    # during the very instant they are due.
    scripts = {
        "b": [(0.0, "a", ("zz", 1), 1.0), (0.0, "a", ("aa", 1), 1.0),
              (1.0, "a", 9, 2.0), (1.5, "c", "x", 2.0)],
        "c": [(0.0, "a", ("mm", 2), 1.0), (1.0, "a", 3, 2.0),
              (2.0, "a", "now", 2.0), (2.0, "b", "now", 2.0)],
    }
    _, _, nodes, _ = assert_equivalent(_replay_triangle(scripts), 4.0)
    received = [e for e in nodes[0][1] if e[1] == "receive"]
    assert len({e[0] for e in received}) < len(received)


def test_same_instant_timers():
    g = triangle()
    system = make_timed_system(
        g, {u: _TwinTimers for u in g.nodes}, {u: None for u in g.nodes}
    )
    assert_equivalent(system, 2.0)


class _BadPort(TimedDevice):
    def on_start(self, ctx, api):
        api.send(ctx.ports[0], "fine")
        api.send("nope", "lost")


class _PastTimer(TimedDevice):
    def on_start(self, ctx, api):
        api.send(ctx.ports[0], "before")

    def on_message(self, ctx, api, port, message):
        api.set_timer("late", api.clock())


class _Fickle(TimedDevice):
    def on_start(self, ctx, api):
        api.decide(0)
        api.set_timer("again", 1.0)

    def on_timer(self, ctx, api, name):
        api.decide(1)


@pytest.mark.parametrize(
    "device, error",
    [
        (_BadPort, GraphError),
        (_PastTimer, TimedExecutionError),
        (_Fickle, TimedExecutionError),
    ],
)
def test_misuse_raises_the_same_exception(device, error):
    g = triangle()
    system = make_timed_system(
        g, {u: device for u in g.nodes}, {u: None for u in g.nodes}
    )
    result, _ = _outcome(run_timed, system, 3.0)
    assert result[0] is error
    assert_equivalent(system, 3.0)


def test_replay_on_a_bad_port_raises_the_same_exception():
    scripts = {"b": [(0.5, "nowhere", "x", 1.0)], "c": []}
    system = _replay_triangle(scripts)
    result, _ = _outcome(run_timed, system, 2.0)
    assert result[0] is GraphError
    assert_equivalent(system, 2.0)


# -- random timed devices --------------------------------------------------


class _Programmed(TimedDevice):
    """Runs a fixed program: the i-th callback performs instruction
    ``i`` (cyclically), for at most ``len(program) * 3`` callbacks."""

    def __init__(self, program):
        self.program = program
        self.step = 0

    def _act(self, ctx, api, token):
        if self.step >= 3 * len(self.program):
            return
        op, a, b = self.program[self.step % len(self.program)]
        self.step += 1
        if op == "send":
            api.send(ctx.ports[a % len(ctx.ports)], (token, b))
        elif op == "broadcast":
            for port in ctx.ports:
                api.send(port, b)
        elif op == "timer":
            api.set_timer(("t", b), api.clock() + 0.25 * (a + 1))
        elif op == "past-timer":
            api.set_timer(("t", b), api.clock() - a)
        elif op == "decide":
            api.decide(b)
        elif op == "fire":
            api.fire()
        elif op == "logical":
            api.set_logical(LinearClock(1.0, float(b)))
        elif op == "bad-port":
            api.send(("no such port", a), b)

    def on_start(self, ctx, api):
        self._act(ctx, api, "start")

    def on_message(self, ctx, api, port, message):
        self._act(ctx, api, port)

    def on_timer(self, ctx, api, name):
        self._act(ctx, api, name)


_OPS = ["send", "send", "broadcast", "timer", "timer", "decide", "fire",
        "logical", "past-timer", "bad-port"]
_instructions = st.tuples(
    st.sampled_from(_OPS), st.integers(0, 3), st.integers(0, 2)
)
_programs = st.lists(_instructions, min_size=1, max_size=6)
_GRAPHS = [triangle(), diamond(), line(3)]


@st.composite
def _random_systems(draw):
    graph = draw(st.sampled_from(_GRAPHS))
    delay_mode = draw(st.sampled_from(["real", "clock"]))
    delay = draw(st.sampled_from([0.25, 0.5, 1.0]))
    factories = {}
    clocks = {}
    for u in graph.nodes:
        clocks[u] = LinearClock(
            rate=draw(st.sampled_from([0.5, 1.0, 1.25, 2.0])),
            offset=draw(st.sampled_from([0.0, 0.5, 1.0])),
        )
        if draw(st.integers(0, 4)) == 0:
            script = draw(
                st.lists(
                    st.tuples(
                        st.sampled_from([0.0, 0.5, 1.0]),
                        st.sampled_from(list(graph.neighbors(u))),
                        st.integers(0, 2),
                        st.sampled_from([0.0, 0.5, 1.0]),
                    ),
                    max_size=4,
                )
            )
            entries = [(t, p, m, t + d) for t, p, m, d in script]
            factories[u] = lambda e=entries: TimedReplayDevice(e)
        else:
            program = draw(_programs)
            factories[u] = lambda p=program: _Programmed(p)
    system = make_timed_system(
        graph,
        factories,
        {u: i for i, u in enumerate(graph.nodes)},
        delay=delay,
        delay_mode=delay_mode,
        clocks=clocks,
    )
    horizon = draw(st.sampled_from([0.0, 1.0, 2.5, 4.0]))
    return system, horizon


@given(_random_systems())
@settings(max_examples=150, deadline=None)
def test_random_devices_match_reference(case):
    system, horizon = case
    assert_equivalent(system, horizon)
