"""Typed, timestamped structured events and the telemetry core.

FLM's proof technique is retrospective — cut a scenario out of a
recorded execution and replay it — yet until this subsystem our own
runs were opaque: counters lived in half a dozen objects and nothing
recorded *what a campaign actually did*.  This module is the core of
``repro.obs``: a process-wide telemetry switch, a bounded ring buffer
of structured events, and the capture/replay machinery that makes
traces **deterministic across worker counts**.

Design rules
------------
* **Off by default, near-zero when off.**  All emission funnels through
  :func:`emit`, which returns after one attribute check when telemetry
  is disabled.  The synchronous round loop emits nothing: its ``run()``
  checks :func:`is_enabled` once and, when on, derives the round
  events from the run's recorded rows and injections.  The timed
  executor hoists one :func:`is_enabled` check per call, so its
  per-event cost of disabled telemetry is a pointer comparison.
* **Two scopes.**  ``run``-scope events describe the *execution itself*
  (rounds, deliveries, injections, attempts) and are a pure
  function of the workload — the same campaign emits the same
  ``run``-scope stream whether it executed serially, under ``--jobs
  N``, or through the attempt memo.
  ``host``-scope events (:data:`HOST_KINDS`) describe *this process's*
  optimization luck — cache hits, worker pools — and are
  excluded from exported traces, which is what makes trace files
  byte-identical across ``--jobs`` settings.
* **Logical time.**  Events carry a monotonic sequence number and
  model-level timestamps (round index, simulated time), never wall
  time — wall time is observed host-side (:func:`observe_span`) into
  the registry's ``host.span.*`` histograms, outside every trace.
* **Capture/replay.**  :func:`capture` redirects emission into a
  picklable capsule; :func:`replay` appends a capsule to the active
  sink, re-stamping sequence numbers.  Fork-based workers capture each
  item's events and ship them back to the parent, which replays them
  in item-index order — reproducing the serial event stream exactly.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

# -- event taxonomy --------------------------------------------------------

# run scope: deterministic given the workload.
ROUND_START = "round_start"
ROUND_END = "round_end"
MESSAGE_DELIVERY = "message_delivery"
FAULT_INJECTION = "fault_injection"
TIMED_EVENT = "timed_event"
ATTEMPT_START = "attempt_start"
ATTEMPT_END = "attempt_end"
SHRINK_STEP = "shrink_step"
FRONTIER_LEVEL = "frontier_level"
SWEEP_POINT = "sweep_point"

# host scope: process-local optimization/lifecycle facts.  Excluded
# from exported traces (and from cached-attempt replay payloads), so
# the deterministic stream never depends on which process got lucky.
# Checkpoint/resume facts live here too: whether an item was journaled
# by an earlier process must not change the exported trace.
CACHE_HIT = "cache_hit"
CACHE_MISS = "cache_miss"
WORKER_POOL = "worker_pool"
WORKER_MERGE = "worker_merge"
WORKER_RETRY = "worker_retry"
CHECKPOINT_WRITE = "checkpoint_write"
CHECKPOINT_REUSE = "checkpoint_reuse"

HOST_KINDS = frozenset(
    {
        CACHE_HIT,
        CACHE_MISS,
        WORKER_POOL,
        WORKER_MERGE,
        WORKER_RETRY,
        CHECKPOINT_WRITE,
        CHECKPOINT_REUSE,
    }
)

RUN_KINDS = frozenset(
    {
        ROUND_START,
        ROUND_END,
        MESSAGE_DELIVERY,
        FAULT_INJECTION,
        TIMED_EVENT,
        ATTEMPT_START,
        ATTEMPT_END,
        SHRINK_STEP,
        FRONTIER_LEVEL,
        SWEEP_POINT,
    }
)


@dataclass(frozen=True, slots=True)
class Event:
    """One structured telemetry event.

    ``seq`` is the position in the run's logical timeline (assigned
    when the event reaches the main log — capsule replay re-stamps);
    ``kind`` is one of the module's kind constants; ``fields`` is a
    canonically sorted tuple of ``(name, value)`` pairs whose values
    are JSON scalars.
    """

    seq: int
    kind: str
    fields: tuple[tuple[str, Any], ...]

    @property
    def scope(self) -> str:
        return "host" if self.kind in HOST_KINDS else "run"

    def to_jsonable(self) -> dict[str, Any]:
        data: dict[str, Any] = {"type": "event", "seq": self.seq,
                                "kind": self.kind}
        data.update(self.fields)
        return data

    def describe(self) -> str:
        parts = " ".join(f"{k}={v!r}" for k, v in self.fields)
        return f"#{self.seq} {self.kind} {parts}".rstrip()


class EventLog:
    """Two bounded ring buffers of events, one per scope.

    Run-scope and host-scope events live in **separate streams with
    separate sequence counters**: a cache hit or worker-pool event must
    not consume a run sequence number, or the deterministic stream
    would renumber depending on process-local luck.  ``seq`` is the
    run-stream counter (what the trace's sequence numbers come from);
    host events count on ``host_seq``.

    Each ring holds the most recent ``capacity`` events of its scope;
    per-kind totals and the counters keep counting past evictions, and
    ``dropped`` reports how many run events fell off the front
    (recorded in the trace's meta line, so a truncated trace says so).
    """

    __slots__ = (
        "capacity",
        "_events",
        "_host_events",
        "seq",
        "host_seq",
        "kind_counts",
    )

    def __init__(self, capacity: int = 131072) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: deque[Event] = deque(maxlen=capacity)
        self._host_events: deque[Event] = deque(maxlen=capacity)
        self.seq = 0
        self.host_seq = 0
        self.kind_counts: dict[str, int] = {}

    def append(self, kind: str, fields: tuple[tuple[str, Any], ...]) -> Event:
        if kind in HOST_KINDS:
            event = Event(seq=self.host_seq, kind=kind, fields=fields)
            self.host_seq += 1
            self._host_events.append(event)
        else:
            event = Event(seq=self.seq, kind=kind, fields=fields)
            self.seq += 1
            self._events.append(event)
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        return event

    @property
    def dropped(self) -> int:
        return self.seq - len(self._events)

    def __len__(self) -> int:
        return len(self._events) + len(self._host_events)

    def __iter__(self) -> Iterator[Event]:
        yield from self._events
        yield from self._host_events

    def events(self, scope: str | None = None) -> list[Event]:
        if scope is None:
            return list(self)
        if scope == "host":
            return list(self._host_events)
        return list(self._events)


class Capsule:
    """A captured slice of the event stream (one work item's worth).

    Holds ``(kind, fields)`` pairs — no sequence numbers, those are
    assigned at replay — and is picklable, so forked workers can ship
    it back to the parent over the pool's result pipe.
    """

    __slots__ = ("items",)

    def __init__(self) -> None:
        self.items: list[tuple[str, tuple[tuple[str, Any], ...]]] = []

    def append(self, kind: str, fields: tuple[tuple[str, Any], ...]) -> None:
        self.items.append((kind, fields))

    def payload(self) -> tuple[tuple[str, tuple[tuple[str, Any], ...]], ...]:
        return tuple(self.items)


def run_payload(payload) -> tuple:
    """``payload`` with host-scope events (cache luck, worker pools,
    checkpoint facts) stripped: the deterministic stream a memo entry
    or a journal record stores, so replaying it reproduces exactly the
    run-scope events of the original execution."""
    return tuple(
        (kind, fields) for kind, fields in payload if kind not in HOST_KINDS
    )


class _TelemetryState:
    __slots__ = ("enabled", "log", "registry", "sinks")

    def __init__(self) -> None:
        self.enabled = False
        self.log: EventLog | None = None
        self.registry = None  # MetricsRegistry, created on enable()
        self.sinks: list[Capsule] = []


_STATE = _TelemetryState()


def enable(capacity: int = 131072) -> None:
    """Turn telemetry on with a fresh log and registry.

    Idempotent in effect but not in state: calling it again starts a
    fresh recording (the previous log is dropped).
    """
    from .metrics import MetricsRegistry

    _STATE.log = EventLog(capacity)
    _STATE.registry = MetricsRegistry()
    _STATE.sinks = []
    _STATE.enabled = True


def disable() -> None:
    """Stop recording; the log and registry stay readable until
    :func:`reset` or the next :func:`enable`."""
    _STATE.enabled = False


def reset() -> None:
    """Disable telemetry and drop all recorded state."""
    _STATE.enabled = False
    _STATE.log = None
    _STATE.registry = None
    _STATE.sinks = []


def is_enabled() -> bool:
    return _STATE.enabled


def get_log() -> EventLog | None:
    return _STATE.log


def get_registry():
    return _STATE.registry


def _append_main(kind: str, fields: tuple[tuple[str, Any], ...]) -> None:
    state = _STATE
    state.log.append(kind, fields)
    state.registry.record_event(kind, fields)


def emit(kind: str, **fields: Any) -> None:
    """Emit one event (no-op when telemetry is disabled).

    Field values must be JSON scalars (str/int/float/bool/None); field
    order is canonicalized, so equal calls yield equal events.
    """
    state = _STATE
    if not state.enabled:
        return
    canonical = tuple(sorted(fields.items()))
    if state.sinks:
        state.sinks[-1].append(kind, canonical)
    else:
        _append_main(kind, canonical)


_NULL_CAPSULE = Capsule()


@contextmanager
def capture() -> Iterator[Capsule]:
    """Redirect emission into a fresh :class:`Capsule`.

    Nestable: an inner capture's events stay out of the outer capsule
    until explicitly replayed.  When telemetry is disabled this yields
    a shared empty capsule and records nothing.
    """
    state = _STATE
    if not state.enabled:
        yield _NULL_CAPSULE
        return
    capsule = Capsule()
    state.sinks.append(capsule)
    try:
        yield capsule
    finally:
        state.sinks.pop()


def replay(payload) -> None:
    """Append a captured payload to the active sink (capsule or main
    log), re-stamping sequence numbers.  No-op when disabled or for
    empty payloads."""
    state = _STATE
    if not state.enabled or not payload:
        return
    if state.sinks:
        sink = state.sinks[-1]
        for kind, fields in payload:
            sink.append(kind, fields)
    else:
        for kind, fields in payload:
            _append_main(kind, fields)


def observe_span(name: str, seconds: float) -> None:
    """Record ``seconds`` of wall time for the region ``name`` in the
    registry's ``host.span.<name>`` histogram.  Host scope only: no
    event is emitted, so traces never see wall time.  No-op when
    disabled."""
    state = _STATE
    if state.enabled:
        state.registry.observe(f"host.span.{name}", seconds)


__all__ = [
    "ATTEMPT_END",
    "ATTEMPT_START",
    "CACHE_HIT",
    "CACHE_MISS",
    "CHECKPOINT_REUSE",
    "CHECKPOINT_WRITE",
    "Capsule",
    "Event",
    "EventLog",
    "FAULT_INJECTION",
    "FRONTIER_LEVEL",
    "HOST_KINDS",
    "MESSAGE_DELIVERY",
    "ROUND_END",
    "ROUND_START",
    "RUN_KINDS",
    "SHRINK_STEP",
    "SWEEP_POINT",
    "TIMED_EVENT",
    "WORKER_MERGE",
    "WORKER_POOL",
    "WORKER_RETRY",
    "capture",
    "disable",
    "emit",
    "enable",
    "get_log",
    "get_registry",
    "is_enabled",
    "observe_span",
    "replay",
    "reset",
    "run_payload",
]
