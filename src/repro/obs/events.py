"""Typed, timestamped structured events and the telemetry core.

FLM's proof technique is retrospective — cut a scenario out of a
recorded execution and replay it — yet until this subsystem our own
runs were opaque: counters lived in half a dozen objects and nothing
recorded *what a campaign actually did*.  This module is the core of
``repro.obs``: a process-wide telemetry switch, a write-through spool
of run-scope trace lines, and the capture/replay machinery that makes
traces **deterministic across worker counts**.

Design rules
------------
* **Off by default, near-zero when off.**  All emission funnels through
  :func:`emit`, which returns after one attribute check when telemetry
  is disabled.  Neither executor emits per-event telemetry: the
  synchronous round loop only records, and its ``run()`` checks
  :func:`is_enabled` once and, when on, derives the round events from
  the run's recorded rows and injections; the timed executor's loop
  only records and emits nothing at all.
* **Two scopes.**  ``run``-scope events describe the *execution itself*
  (rounds, deliveries, injections, attempts) and are a pure
  function of the workload — the same campaign emits the same
  ``run``-scope stream whether it executed serially, under ``--jobs
  N``, or through the attempt memo.
  ``host``-scope events (:data:`HOST_KINDS`) describe *this process's*
  optimization luck — cache hits, worker pools — and are counted in
  the live registry the moment they are emitted, inside a capture or
  not; they are never stored, captured or exported, which is what
  makes trace files byte-identical across ``--jobs`` settings.  A
  forked worker's host events stay in that worker's registry.
* **Write-through, never truncated.**  Under ``enable(trace=True)``
  each run-scope event becomes its final trace line the moment it
  reaches the main log and goes straight to an anonymous temporary
  file, so a trace holds every event whatever the campaign's size and
  memory does not grow with it.  Without ``trace`` the registry's
  counters are the only record.
* **Logical time.**  Trace lines carry a run sequence number and
  model-level timestamps (round index, simulated time), never wall
  time — wall time is observed host-side (:func:`observe_span`) into
  the registry's ``host.span.*`` histograms, outside every trace.
* **Capture/replay.**  :func:`capture` redirects run-scope emission
  into a picklable capsule, so a payload holds run events only;
  :func:`replay` appends a payload to the active sink, re-stamping
  sequence numbers.  Fork-based workers capture each item's events and
  ship them back to the parent.  One place replays a work item's
  payload: the run store's stream
  (:func:`~repro.analysis.runstore.journaled_imap`), in item-index
  order, whether the item ran fresh or came from the journal — which
  reproduces the serial event stream exactly.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from typing import IO, Any, Iterator

# -- event taxonomy --------------------------------------------------------

# run scope: deterministic given the workload.
ROUND_START = "round_start"
ROUND_END = "round_end"
MESSAGE_DELIVERY = "message_delivery"
FAULT_INJECTION = "fault_injection"
ATTEMPT_START = "attempt_start"
ATTEMPT_END = "attempt_end"
SHRINK_STEP = "shrink_step"
FRONTIER_LEVEL = "frontier_level"
SWEEP_POINT = "sweep_point"

# host scope: process-local optimization/lifecycle facts.  Counted at
# emit time and never captured, so no payload (worker capsule, memo
# entry or journal record) holds one and the deterministic stream never
# depends on which process got lucky.  Checkpoint/resume facts live
# here too: whether an item was journaled by an earlier process must
# not change the exported trace.
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
        ATTEMPT_START,
        ATTEMPT_END,
        SHRINK_STEP,
        FRONTIER_LEVEL,
        SWEEP_POINT,
    }
)


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


class _TelemetryState:
    __slots__ = ("enabled", "registry", "sinks", "spool")

    def __init__(self) -> None:
        self.enabled = False
        self.registry = None  # MetricsRegistry, created on enable()
        self.sinks: list[Capsule] = []
        self.spool: IO[str] | None = None  # trace lines, under trace=True


_STATE = _TelemetryState()

#: Spools a forked child inherited from its parent, parked here so the
#: child never writes to or closes them (see :func:`_detach_spool`).
_INHERITED: list[IO[str]] = []


#: ``record`` as one canonical JSON trace line (no newline); what
#: ``json.dumps(record, sort_keys=True, separators=(",", ":"))``
#: returns, without building an encoder per call.
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def enable(trace: bool = False) -> None:
    """Turn telemetry on with a fresh registry.

    With ``trace``, each run-scope event is written as its final trace
    line to an anonymous temporary file (the spool) the moment it
    reaches the main log, so a trace keeps every event at a bounded
    memory cost; without it, events are only counted.  Calling it again
    starts a fresh recording (the previous one is dropped).
    """
    from .metrics import MetricsRegistry

    _close_spool()
    _STATE.registry = MetricsRegistry()
    _STATE.sinks = []
    if trace:
        _STATE.spool = tempfile.TemporaryFile("w+", encoding="utf-8")
    _STATE.enabled = True


def disable() -> None:
    """Stop recording; the registry and spool stay readable until
    :func:`reset` or the next :func:`enable`."""
    _STATE.enabled = False


def reset() -> None:
    """Disable telemetry and drop all recorded state."""
    _STATE.enabled = False
    _close_spool()
    _STATE.registry = None
    _STATE.sinks = []


def _close_spool() -> None:
    if _STATE.spool is not None:
        _STATE.spool.close()
        _STATE.spool = None


def _flush_spool() -> None:
    # Run before every fork: the child's copy of the write buffer must
    # hold nothing it could later flush into the shared file.
    if _STATE.spool is not None:
        _STATE.spool.flush()


def _detach_spool() -> None:
    # Run in every forked child, which shares the spool's file offset
    # with its parent: a line it wrote would land in the parent's
    # trace.  The child keeps counting events but spools none.
    if _STATE.spool is not None:
        _INHERITED.append(_STATE.spool)
        _STATE.spool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_flush_spool, after_in_child=_detach_spool)


def is_enabled() -> bool:
    return _STATE.enabled


def get_registry():
    return _STATE.registry


def spooled_lines() -> Iterator[str]:
    """The spooled trace lines of the run-scope events so far, in
    sequence order; raises :class:`ValueError` unless telemetry was
    enabled with ``trace=True``."""
    spool = _STATE.spool
    if spool is None:
        raise ValueError(
            "telemetry was not enabled with trace=True; nothing to export"
        )
    spool.flush()
    spool.seek(0)
    return _read_spool(spool)


def _read_spool(spool: IO[str]) -> Iterator[str]:
    try:
        for line in spool:
            yield line[:-1]
    finally:
        spool.seek(0, os.SEEK_END)  # later events append after the rest


def _append_main(kind: str, fields: tuple[tuple[str, Any], ...]) -> None:
    state = _STATE
    if state.spool is not None:
        record = {
            "type": "event",
            "seq": state.registry.counters.get("run.events.total", 0),
            "kind": kind,
        }
        record.update(fields)
        state.spool.write(_dump(record) + "\n")
    state.registry.record_event(kind, fields)


def emit(kind: str, **fields: Any) -> None:
    """Emit one event (no-op when telemetry is disabled).

    Field values must be JSON scalars (str/int/float/bool/None); field
    order is canonicalized, so equal calls yield equal events.  A
    host-scope event is only counted, at once (``host.events.<kind>``
    and ``host.events.total``), and its fields are dropped.
    """
    state = _STATE
    if not state.enabled:
        return
    if kind in HOST_KINDS:
        state.registry.inc("host.events.total")
        state.registry.inc(f"host.events.{kind}")
        return
    canonical = tuple(sorted(fields.items()))
    if state.sinks:
        state.sinks[-1].append(kind, canonical)
    else:
        _append_main(kind, canonical)


_NULL_CAPSULE = Capsule()


@contextmanager
def capture() -> Iterator[Capsule]:
    """Redirect run-scope emission into a fresh :class:`Capsule`.

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
    log), re-stamping sequence numbers.  Each event is a ``(kind,
    fields)`` pair of sequences, so a payload read back from JSON
    (lists for tuples) replays as well.  No-op when disabled or for
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
    "FAULT_INJECTION",
    "FRONTIER_LEVEL",
    "HOST_KINDS",
    "MESSAGE_DELIVERY",
    "ROUND_END",
    "ROUND_START",
    "RUN_KINDS",
    "SHRINK_STEP",
    "SWEEP_POINT",
    "WORKER_MERGE",
    "WORKER_POOL",
    "WORKER_RETRY",
    "capture",
    "disable",
    "emit",
    "enable",
    "get_registry",
    "is_enabled",
    "observe_span",
    "replay",
    "reset",
    "spooled_lines",
]
