"""The continuous-time executor.

A deterministic discrete-event simulator over real time.  The paper's
timed axioms hold by construction:

* **Bounded-Delay Locality** — the only inter-node channel is message
  delivery, and every message arrives exactly ``delay`` after it is
  sent (in real time, or in sender-clock time under
  ``delay_mode="clock"``), so information crosses at most one edge per
  ``δ`` of time.
* **Scaling** — devices observe time exclusively through their
  hardware clock (timers are set in clock values; in clock mode the
  delay is measured on the sender's clock), so rescaling every clock
  by ``h`` rescales the one behavior by ``h``.  The test suite checks
  this by re-running scaled systems.

Determinism: simultaneous events are ordered canonically — by time,
target node rank, event kind, then ``repr`` of the payload (port and
message, or timer name), then scheduling order — so a system has
exactly one behavior, the model's standing assumption.  The heap is
keyed on (time, rank, kind, scheduling order) alone; ``repr`` is taken
only when the two smallest entries tie on (time, rank, kind), and the
tied group is then resolved by ``(repr, scheduling order)``, which
dispatches in exactly the canonical order.  Ties are detected by
comparing the three fields, so an untied pop builds no tuples.

Hot path: the event loop reads a compiled
:class:`~repro.runtime.plan.TimedPlan`.  Each node's sends are resolved
once per run into ``port → (neighbor rank, receiver port, edge
record)``, so :meth:`_Api.send` records the send and pushes the
delivery itself.  Device *instances* remain per-run (factories are
called inside :func:`run_timed`), so behaviors are unchanged.  The
per-edge send lists are handed over as a
:class:`~repro.runtime.timed.behavior.TimedEdgeSends`, which builds
the edge behaviors only when a reader first asks for one.  A run
builds no reference cycle: its device APIs live only for the call, and
everything it leaves behind is freed by reference counting.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Hashable
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any

from ...graphs.graph import GraphError, NodeId
from ..plan import CompiledTimedNode, compile_timed_plan
from .adversary import TimedReplayDevice
from .behavior import (
    TimedBehavior,
    TimedEdgeSends,
    TimedEvent,
    TimedNodeBehavior,
    _event,
)
from .device import DeviceApi, LogicalClockFn, Message, PortLabel, TimedDevice
from .system import TimedSystem


class TimedExecutionError(RuntimeError):
    """Raised when a device misuses the API (past timers, changed
    decisions, ...)."""


# Heap entries are ``(time, rank, kind, seq, payload)``; ``kind`` orders
# start, scripted send, timer, delivery (the canonical kind order).
_START, _SCRIPTED, _TIMER, _DELIVER = range(4)


@dataclass(slots=True)
class _NodeRecord:
    events: list[TimedEvent] = field(default_factory=list)
    decision: Any | None = None
    decision_time: float | None = None
    fire_time: float | None = None
    logical_segments: list[tuple[float, LogicalClockFn]] = field(
        default_factory=list
    )


def _no_port(node: NodeId, port: PortLabel) -> GraphError:
    return GraphError(f"node {node!r} has no port labeled {port!r}")


class _Api(DeviceApi):
    """Device-facing API bound to one node for one run; ``now`` is
    maintained by the event loop.  It holds the node's record, the
    run's queue and its compiled sends, never the loop itself."""

    def __init__(
        self,
        compiled: CompiledTimedNode,
        routes: dict[PortLabel, tuple[int, PortLabel, list]],
        queue: list,
        seq: itertools.count,
        delay: float,
        clocked: bool,
    ) -> None:
        self.now = 0.0
        self.node = compiled.node
        self.ctx = compiled.ctx
        self.record = _NodeRecord()
        self.events = self.record.events
        self.routes = routes
        self._compiled = compiled
        self._rank = compiled.rank
        self._queue = queue
        self._seq = seq
        self._delay = delay
        self._clocked = clocked

    def clock(self) -> float:
        return self._compiled.clock(self.now)

    def send(self, port: PortLabel, message: Message) -> None:
        try:
            rank, receiver_port, sends = self.routes[port]
        except KeyError:
            raise _no_port(self.node, port) from None
        now = self.now
        if self._clocked:
            compiled = self._compiled
            arrival = compiled.clock_inverse(compiled.clock(now) + self._delay)
        else:
            arrival = now + self._delay
        self.events.append(_event(now, "send", (port, message)))
        sends.append((now, message, arrival))
        heappush(
            self._queue,
            (arrival, rank, _DELIVER, next(self._seq), (receiver_port, message)),
        )

    def set_timer(self, name: Hashable, clock_value: float) -> None:
        real = self._compiled.clock_inverse(clock_value)
        if real <= self.now + 1e-15:
            raise TimedExecutionError(
                f"timer {name!r} at node {self.node!r} set for clock value "
                f"{clock_value} which is not in the future"
            )
        heappush(self._queue, (real, self._rank, _TIMER, next(self._seq), name))

    def decide(self, value: Any) -> None:
        record = self.record
        if record.decision is not None:
            if record.decision != value:
                raise TimedExecutionError(
                    f"node {self.node!r} changed its decision from "
                    f"{record.decision!r} to {value!r}"
                )
            return
        record.decision = value
        record.decision_time = self.now
        self.events.append(_event(self.now, "decide", value))

    def fire(self) -> None:
        record = self.record
        if record.fire_time is not None:
            return
        record.fire_time = self.now
        self.events.append(_event(self.now, "fire", None))

    def set_logical(self, fn: LogicalClockFn) -> None:
        self.record.logical_segments.append((self.now, fn))
        self.events.append(_event(self.now, "logical", fn))


def _pop_tied(queue: list, entry: tuple) -> tuple:
    """``entry`` was just popped and the heap top ties with it on
    (time, rank, kind): pop the whole tied group, return its canonical
    first (least ``(repr(payload), seq)``) and push the rest back."""
    time, rank, kind = entry[0], entry[1], entry[2]
    group = [entry]
    while queue:
        top = queue[0]
        if top[0] != time or top[1] != rank or top[2] != kind:
            break
        group.append(heappop(queue))
    first = min(group, key=lambda e: (repr(e[4]), e[3]))
    for other in group:
        if other is not first:
            heappush(queue, other)
    return first


def run_timed(system: TimedSystem, horizon: float) -> TimedBehavior:
    """Execute ``system`` through real time ``horizon``.

    ``horizon`` is validated exactly like ``rounds`` in the synchronous
    executor's ``run`` — negative (or NaN) horizons raise
    :class:`TimedExecutionError` before any device code runs.
    """
    if math.isnan(horizon) or horizon < 0:
        raise TimedExecutionError("horizon must be non-negative")
    plan = compile_timed_plan(system)
    graph = system.graph
    queue: list[tuple] = []
    seq = itertools.count()
    edge_sends: dict = {e: [] for e in graph.edges}
    clocked = system.delay_mode == "clock"
    apis = [
        _Api(
            cn,
            {
                port: (rank, receiver_port, edge_sends[edge])
                for port, (edge, rank, receiver_port) in cn.sends.items()
            },
            queue,
            seq,
            system.delay,
            clocked,
        )
        for cn in plan.by_node.values()
    ]
    devices: list[TimedDevice] = []
    for rank, api in enumerate(apis):
        device = system.assignments[api.node].factory()
        devices.append(device)
        if isinstance(device, TimedReplayDevice):
            for time, port, message, arrival in device.script:
                if time < 0:
                    raise TimedExecutionError(
                        "replay scripts cannot send before time 0"
                    )
                heappush(
                    queue,
                    (time, rank, _SCRIPTED, next(seq), (port, message, arrival)),
                )
        heappush(queue, (0.0, rank, _START, next(seq), None))

    while queue:
        entry = heappop(queue)
        if queue:
            top = queue[0]
            if top[0] == entry[0] and top[1] == entry[1] and top[2] == entry[2]:
                entry = _pop_tied(queue, entry)
        time, rank, kind, _, payload = entry
        if time > horizon:
            break
        api = apis[rank]
        api.now = time
        if kind == _DELIVER:
            api.events.append(_event(time, "receive", payload))
            devices[rank].on_message(api.ctx, api, payload[0], payload[1])
        elif kind == _TIMER:
            api.events.append(_event(time, "timer", payload))
            devices[rank].on_timer(api.ctx, api, payload)
        elif kind == _START:
            api.events.append(_event(time, "start", None))
            devices[rank].on_start(api.ctx, api)
        else:
            # A replayed send: its arrival is part of the recorded edge
            # behavior and is reproduced verbatim rather than recomputed
            # from the (faulty) sender's clock.
            port, message, arrival = payload
            try:
                to_rank, receiver_port, sends = api.routes[port]
            except KeyError:
                raise _no_port(api.node, port) from None
            api.events.append(_event(time, "send", (port, message)))
            sends.append((time, message, arrival))
            heappush(
                queue,
                (arrival, to_rank, _DELIVER, next(seq), (receiver_port, message)),
            )

    node_behaviors = {}
    for api in apis:
        r = api.record
        node_behaviors[api.node] = TimedNodeBehavior(
            events=tuple(r.events),
            decision=r.decision,
            decision_time=r.decision_time,
            fire_time=r.fire_time,
            clock=system.clock(api.node),
            logical_segments=tuple(r.logical_segments),
        )
    return TimedBehavior(
        graph=graph,
        horizon=horizon,
        node_behaviors=node_behaviors,
        edge_behaviors=TimedEdgeSends(edge_sends),
    )
