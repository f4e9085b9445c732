"""Recorded behaviors for the continuous-time model.

Following Section 4's refinement of the model, behaviors are mappings
from ``[0, ∞)`` to states.  Operationally a node's state between
events is constant, so we record the *event list*: start, receives,
timers, sends, decisions, FIRE, and logical-clock updates, each
timestamped with real time.  Two behaviors are identical through time
``t`` iff their event prefixes up to ``t`` are equal — the form in
which the Bounded-Delay Locality axiom and Lemma 3 are checked.

Every record class here is a frozen slotted dataclass.  The executor
builds events through :func:`_event`, which fills a
:class:`TimedEvent`'s slots directly instead of going through the
frozen ``__init__``; the result is indistinguishable from the
constructor's.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from ...graphs.graph import CommunicationGraph, DirectedEdge, GraphError, NodeId
from .clocks import ClockFunction
from .device import LogicalClockFn


@dataclass(frozen=True, slots=True)
class TimedEvent:
    """One observable event at a node."""

    time: float
    kind: str  # start | receive | timer | send | decide | fire | logical
    payload: Any = None

    def shifted(self, fn) -> "TimedEvent":
        """The same event at time ``fn(time)`` (used for scaling)."""
        return _event(fn(self.time), self.kind, self.payload)


def _event(
    time: float,
    kind: str,
    payload: Any,
    _new=object.__new__,
    _time=TimedEvent.time.__set__,
    _kind=TimedEvent.kind.__set__,
    _payload=TimedEvent.payload.__set__,
) -> TimedEvent:
    """``TimedEvent(time, kind, payload)`` without the frozen
    ``__init__``: the slot descriptors are written directly."""
    event = _new(TimedEvent)
    _time(event, time)
    _kind(event, kind)
    _payload(event, payload)
    return event


def events_equal(
    first: TimedEvent, second: TimedEvent, time_tolerance: float = 0.0
) -> bool:
    """Structural equality with optional time tolerance (scaled
    comparisons accumulate floating-point error)."""
    return (
        first.kind == second.kind
        and first.payload == second.payload
        and abs(first.time - second.time) <= time_tolerance
    )


def payloads_close(first: Any, second: Any, tolerance: float) -> bool:
    """Structural payload comparison with float tolerance.

    Needed when comparing a scaled reconstruction against the original
    run: message payloads that carry clock readings differ in the last
    ulps because the scaled clocks are composed differently.
    """
    if isinstance(first, float) and isinstance(second, (int, float)):
        scale = max(1.0, abs(first), abs(float(second)))
        return abs(first - float(second)) <= tolerance * scale
    if isinstance(second, float) and isinstance(first, int):
        return payloads_close(float(first), second, tolerance)
    if isinstance(first, (tuple, list)) and isinstance(second, (tuple, list)):
        return len(first) == len(second) and all(
            payloads_close(a, b, tolerance) for a, b in zip(first, second)
        )
    if isinstance(first, dict) and isinstance(second, dict):
        return set(first) == set(second) and all(
            payloads_close(v, second[k], tolerance) for k, v in first.items()
        )
    if callable(first) and callable(second):
        # Logical-clock functions: fresh instances differ by identity;
        # engines verify logical readings numerically instead.
        return True
    return bool(first == second)


@dataclass(frozen=True, slots=True)
class TimedNodeBehavior:
    """Event trace of one node over a run, plus derived observables."""

    events: tuple[TimedEvent, ...]
    decision: Any | None = None
    decision_time: float | None = None
    fire_time: float | None = None
    clock: ClockFunction | None = None
    logical_segments: tuple[tuple[float, LogicalClockFn], ...] = ()

    def prefix(self, through: float) -> tuple[TimedEvent, ...]:
        """Events with time at most ``through``."""
        return tuple(e for e in self.events if e.time <= through + 1e-12)

    def prefix_equal(
        self,
        other: "TimedNodeBehavior",
        through: float,
        time_tolerance: float = 0.0,
    ) -> bool:
        """Identical behaviors through time ``through`` (Lemma 3's
        notion)."""
        mine = self.prefix(through)
        theirs = other.prefix(through)
        if len(mine) != len(theirs):
            return False
        return all(
            events_equal(a, b, time_tolerance) for a, b in zip(mine, theirs)
        )

    def logical_value(self, t: float) -> float:
        """The logical clock reading at real time ``t``:
        the active logical function applied to the hardware clock."""
        if self.clock is None:
            raise GraphError("node has no hardware clock")
        active: LogicalClockFn | None = None
        for start, fn in self.logical_segments:
            if start <= t + 1e-12:
                active = fn
            else:
                break
        if active is None:
            # Before any logical-clock definition the logical clock
            # reads the hardware clock.
            return self.clock(t)
        return active(self.clock(t))


@dataclass(frozen=True, slots=True)
class TimedEdgeBehavior:
    """All messages sent over one directed edge: (send_time, message,
    arrival_time) triples in send order."""

    sends: tuple[tuple[float, Any, float], ...] = ()

    def through(self, time: float) -> "TimedEdgeBehavior":
        return TimedEdgeBehavior(
            tuple(s for s in self.sends if s[0] <= time + 1e-12)
        )

    def messages(self) -> tuple[Any, ...]:
        return tuple(m for _, m, _ in self.sends)


@dataclass(frozen=True, slots=True)
class TimedBehavior:
    """The full recorded behavior of a timed system."""

    graph: CommunicationGraph
    horizon: float
    node_behaviors: Mapping[NodeId, TimedNodeBehavior] = field(
        default_factory=dict
    )
    edge_behaviors: Mapping[DirectedEdge, TimedEdgeBehavior] = field(
        default_factory=dict
    )

    def node(self, u: NodeId) -> TimedNodeBehavior:
        return self.node_behaviors[u]

    def edge(self, u: NodeId, v: NodeId) -> TimedEdgeBehavior:
        return self.edge_behaviors[(u, v)]

    def decisions(self) -> dict[NodeId, Any | None]:
        return {u: b.decision for u, b in self.node_behaviors.items()}

    def fire_times(self) -> dict[NodeId, float | None]:
        return {u: b.fire_time for u, b in self.node_behaviors.items()}

    def max_decision_time(self, nodes: Iterable[NodeId] | None = None) -> float:
        """Largest decision time among the given (default: all) nodes;
        ``inf`` if any of them never decided."""
        nodes = list(nodes) if nodes is not None else list(self.graph.nodes)
        worst = 0.0
        for u in nodes:
            t = self.node_behaviors[u].decision_time
            if t is None:
                return math.inf
            worst = max(worst, t)
        return worst
