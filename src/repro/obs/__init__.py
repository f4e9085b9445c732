"""``repro.obs`` — unified observability: event tracing, metrics, and
run provenance.

Public surface (re-exported here):

* the telemetry switch — :func:`enable` (``trace=True`` spools every
  run-scope event for export), :func:`disable`, :func:`reset`,
  :func:`is_enabled`;
* emission — :func:`emit`, :func:`capture`, :func:`replay`,
  :func:`observe_span` (host-side wall time into ``host.span.*``
  histograms), and the event-kind constants;
* the registry accessor — :func:`get_registry`;
* export — :func:`write_trace`, :func:`read_trace`,
  :func:`render_live_summary` and the ``repro profile`` formatters.

Telemetry is off by default; when off, every entry point above is a
cheap no-op, so call sites instrument unconditionally.
"""

from .events import (
    ATTEMPT_END,
    ATTEMPT_START,
    CACHE_HIT,
    CACHE_MISS,
    CHECKPOINT_REUSE,
    CHECKPOINT_WRITE,
    Capsule,
    FAULT_INJECTION,
    FRONTIER_LEVEL,
    HOST_KINDS,
    MESSAGE_DELIVERY,
    ROUND_END,
    ROUND_START,
    RUN_KINDS,
    SHRINK_STEP,
    SWEEP_POINT,
    WORKER_MERGE,
    WORKER_POOL,
    WORKER_RETRY,
    capture,
    disable,
    emit,
    enable,
    get_registry,
    is_enabled,
    observe_span,
    replay,
    reset,
)
from .export import (
    TRACE_FORMAT,
    format_events,
    format_metrics,
    read_trace,
    render_live_summary,
    summarize_trace,
    trace_lines,
    write_trace,
)
from .metrics import (
    MetricsRegistry,
    absorb_cache_stats,
    absorb_connectivity_stats,
    metric_key,
)

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
    "MetricsRegistry",
    "ROUND_END",
    "ROUND_START",
    "RUN_KINDS",
    "SHRINK_STEP",
    "SWEEP_POINT",
    "TRACE_FORMAT",
    "WORKER_MERGE",
    "WORKER_POOL",
    "WORKER_RETRY",
    "absorb_cache_stats",
    "absorb_connectivity_stats",
    "capture",
    "disable",
    "emit",
    "enable",
    "format_events",
    "format_metrics",
    "get_registry",
    "is_enabled",
    "metric_key",
    "observe_span",
    "read_trace",
    "render_live_summary",
    "replay",
    "reset",
    "summarize_trace",
    "trace_lines",
    "write_trace",
]
