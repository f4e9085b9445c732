"""A reference copy of the timed event loop, for differential tests only.

This is the straightforward interpretive executor: every heap key
carries ``repr(payload)`` eagerly, every send resolves its port, its
neighbour and the receiver's port from the system afresh, and events
are built with the ``TimedEvent`` constructor.  It has no link-fault
layer.  ``tests/runtime/test_timed_equivalence.py`` checks that
:func:`repro.runtime.timed.run_timed` produces exactly the same
behaviors and exceptions, and dispatches events across nodes in the
same order.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any

from repro.runtime.timed import (
    TimedBehavior,
    TimedEdgeBehavior,
    TimedEvent,
    TimedExecutionError,
    TimedNodeBehavior,
    TimedReplayDevice,
)
from repro.runtime.timed.device import DeviceApi

_KIND_RANK = {"start": 0, "scripted": 1, "timer": 2, "deliver": 3}


@dataclass
class _Record:
    events: list = field(default_factory=list)
    decision: Any = None
    decision_time: float | None = None
    fire_time: float | None = None
    logical_segments: list = field(default_factory=list)


class _ReferenceApi(DeviceApi):
    def __init__(self, run: "_ReferenceRun", node) -> None:
        self._run = run
        self._node = node
        self.now = 0.0

    def clock(self) -> float:
        return self._run.system.clock(self._node)(self.now)

    def send(self, port, message) -> None:
        self._run.send_from(self._node, port, message, self.now)

    def set_timer(self, name, clock_value: float) -> None:
        real = self._run.system.clock(self._node).inverse()(clock_value)
        if real <= self.now + 1e-15:
            raise TimedExecutionError(
                f"timer {name!r} at node {self._node!r} set for clock value "
                f"{clock_value} which is not in the future"
            )
        self._run.schedule(real, self._node, "timer", name)

    def decide(self, value) -> None:
        record = self._run.records[self._node]
        if record.decision is not None:
            if record.decision != value:
                raise TimedExecutionError(
                    f"node {self._node!r} changed its decision from "
                    f"{record.decision!r} to {value!r}"
                )
            return
        record.decision = value
        record.decision_time = self.now
        record.events.append(TimedEvent(self.now, "decide", value))

    def fire(self) -> None:
        record = self._run.records[self._node]
        if record.fire_time is not None:
            return
        record.fire_time = self.now
        record.events.append(TimedEvent(self.now, "fire"))

    def set_logical(self, fn) -> None:
        record = self._run.records[self._node]
        record.logical_segments.append((self.now, fn))
        record.events.append(TimedEvent(self.now, "logical", fn))


class _ReferenceRun:
    def __init__(self, system, horizon: float, dispatches: list) -> None:
        self.system = system
        self.horizon = horizon
        self.dispatches = dispatches
        graph = system.graph
        self.rank = {u: i for i, u in enumerate(graph.nodes)}
        self.queue: list = []
        self.seq = itertools.count()
        self.records = {u: _Record() for u in graph.nodes}
        self.edge_sends = {e: [] for e in graph.edges}

    def schedule(self, time, node, kind, payload) -> None:
        key = (
            time,
            self.rank[node],
            _KIND_RANK[kind],
            repr(payload),
            next(self.seq),
        )
        heapq.heappush(self.queue, (key, node, kind, payload))

    def send_from(self, node, port, message, now) -> None:
        system = self.system
        neighbor = system.neighbor_of_port(node, port)
        if system.delay_mode == "clock":
            clock = system.clock(node)
            arrival = clock.inverse()(clock(now) + system.delay)
        else:
            arrival = now + system.delay
        self.transmit(node, neighbor, port, message, now, arrival)

    def transmit(self, node, neighbor, port, message, now, arrival) -> None:
        self.records[node].events.append(
            TimedEvent(now, "send", (port, message))
        )
        self.edge_sends[(node, neighbor)].append((now, message, arrival))
        receiver_port = self.system.port(neighbor, node)
        self.schedule(arrival, neighbor, "deliver", (receiver_port, message))

    def execute(self) -> TimedBehavior:
        system = self.system
        graph = system.graph
        apis = {u: _ReferenceApi(self, u) for u in graph.nodes}
        devices = {}
        for u in graph.nodes:
            device = system.assignments[u].factory()
            devices[u] = device
            if isinstance(device, TimedReplayDevice):
                for time, port, message, arrival in device.script:
                    if time < 0:
                        raise TimedExecutionError(
                            "replay scripts cannot send before time 0"
                        )
                    self.schedule(time, u, "scripted", (port, message, arrival))
            self.schedule(0.0, u, "start", None)

        while self.queue:
            key, node, kind, payload = heapq.heappop(self.queue)
            time = key[0]
            if time > self.horizon:
                break
            self.dispatches.append((time, node))
            api = apis[node]
            api.now = time
            device = devices[node]
            ctx = system.context(node)
            if kind == "start":
                self.records[node].events.append(TimedEvent(time, "start"))
                device.on_start(ctx, api)
            elif kind == "scripted":
                port, message, arrival = payload
                neighbor = system.neighbor_of_port(node, port)
                self.transmit(node, neighbor, port, message, time, arrival)
            elif kind == "timer":
                self.records[node].events.append(
                    TimedEvent(time, "timer", payload)
                )
                device.on_timer(ctx, api, payload)
            else:
                port, message = payload
                self.records[node].events.append(
                    TimedEvent(time, "receive", (port, message))
                )
                device.on_message(ctx, api, port, message)

        return TimedBehavior(
            graph=graph,
            horizon=self.horizon,
            node_behaviors={
                u: TimedNodeBehavior(
                    events=tuple(r.events),
                    decision=r.decision,
                    decision_time=r.decision_time,
                    fire_time=r.fire_time,
                    clock=system.clock(u),
                    logical_segments=tuple(r.logical_segments),
                )
                for u, r in self.records.items()
            },
            edge_behaviors={
                e: TimedEdgeBehavior(tuple(sends))
                for e, sends in self.edge_sends.items()
            },
        )


def reference_run_timed(
    system, horizon: float, dispatches: list | None = None
) -> TimedBehavior:
    """The reference executor's behavior of ``system`` through
    ``horizon``.  Each dispatched event appends ``(time, node)`` to
    ``dispatches``, if given, before its handler runs."""
    if math.isnan(horizon) or horizon < 0:
        raise TimedExecutionError("horizon must be non-negative")
    run = _ReferenceRun(system, horizon, [] if dispatches is None else dispatches)
    return run.execute()
