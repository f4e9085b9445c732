"""Trace export and run summaries.

Three consumers, one format:

* ``--trace FILE`` writes a JSONL trace: one ``meta`` line, the
  run-scope events in sequence order, then the ``run.*`` metric totals
  sorted by name.  Everything in the file is deterministic — host-scope
  events and wall times are excluded by design — so a campaign traced
  under ``--jobs 1`` and ``--jobs 4`` produces **byte-identical**
  files (golden-tested).
* ``--metrics`` prints a human-readable run summary: event counts by
  kind, the run metrics, then the host-side sections (cache luck, span
  wall times) clearly marked as process-local.
* ``repro profile {summary,events,metrics} FILE`` reads a trace back
  for retrospective inspection — hindsight as a subcommand.
"""

from __future__ import annotations

import json
from typing import Any, Iterator, TextIO

from . import events as ev
from .metrics import MetricsRegistry

TRACE_FORMAT = "repro-trace/1"


def _dump(record: dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def trace_lines() -> Iterator[str]:
    """The current telemetry state as JSONL lines (deterministic
    subset: run-scope events + run metrics)."""
    log = ev.get_log()
    registry = ev.get_registry()
    if log is None or registry is None:
        raise ValueError("telemetry was never enabled; nothing to export")
    run_events = log.events(scope="run")
    yield _dump(
        {
            "type": "meta",
            "format": TRACE_FORMAT,
            "events": len(run_events),
            "dropped": log.dropped,
        }
    )
    for event in run_events:
        yield _dump(event.to_jsonable())
    for name, value in registry.run_counters().items():
        yield _dump({"type": "metric", "name": name, "value": value})


def write_trace(path: str) -> int:
    """Write the current telemetry state to ``path`` as JSONL; returns
    the number of run-scope events written."""
    count = 0
    with open(path, "w") as fh:
        for line in trace_lines():
            fh.write(line + "\n")
            if '"type":"event"' in line:
                count += 1
    return count


def read_trace(path_or_file: str | TextIO) -> dict[str, Any]:
    """Parse a JSONL trace into ``{"meta": ..., "events": [...],
    "metrics": {name: value}}``.  Unknown record types are ignored
    (forward compatibility)."""
    if isinstance(path_or_file, str):
        with open(path_or_file) as fh:
            lines = fh.read().splitlines()
    else:
        lines = path_or_file.read().splitlines()
    meta: dict[str, Any] = {}
    events: list[dict[str, Any]] = []
    metrics: dict[str, Any] = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed trace line {lineno}: {exc}") from exc
        kind = record.get("type")
        if kind == "meta":
            meta = record
        elif kind == "event":
            events.append(record)
        elif kind == "metric":
            metrics[record["name"]] = record["value"]
    if meta.get("format") not in (TRACE_FORMAT,):
        raise ValueError(
            f"not a repro trace (format={meta.get('format')!r})"
        )
    return {"meta": meta, "events": events, "metrics": metrics}


# -- summaries --------------------------------------------------------------


def _counts_section(counts: dict[str, int], title: str) -> list[str]:
    lines = [title]
    if not counts:
        lines.append("  (none)")
        return lines
    width = max(len(k) for k in counts)
    for kind in sorted(counts):
        lines.append(f"  {kind:<{width}}  {counts[kind]}")
    return lines


def render_live_summary() -> str:
    """Summarize the live telemetry state: run section first, then the
    host-side (process-local, non-deterministic) sections."""
    log = ev.get_log()
    registry = ev.get_registry()
    tracer = ev.get_tracer()
    if log is None or registry is None:
        return "telemetry was never enabled"
    run_counts = {
        k: v for k, v in log.kind_counts.items() if k not in ev.HOST_KINDS
    }
    host_counts = {
        k: v for k, v in log.kind_counts.items() if k in ev.HOST_KINDS
    }
    lines = [
        "== telemetry summary ==",
        f"events: {log.seq} run + {log.host_seq} host recorded"
        + (f" ({log.dropped} dropped from the ring)" if log.dropped else ""),
    ]
    lines += _counts_section(run_counts, "run events by kind:")
    run_metrics = registry.run_counters()
    derived = {
        k: v
        for k, v in run_metrics.items()
        if not k.startswith("run.events.")
    }
    if derived:
        lines += _counts_section(
            {k: int(v) for k, v in derived.items()}, "run metrics:"
        )
    host = registry.snapshot(scope="host")
    if host_counts or host["gauges"]:
        lines.append("-- host (process-local, not part of the trace) --")
        if host_counts:
            lines += _counts_section(host_counts, "host events by kind:")
        if host["gauges"]:
            lines += _counts_section(
                {k: int(v) for k, v in host["gauges"].items()},
                "host gauges:",
            )
    if tracer is not None and tracer.aggregates:
        lines.append("-- spans (wall time, this process) --")
        lines.append(tracer.render())
    return "\n".join(lines)


def summarize_trace(path: str) -> str:
    """The ``repro profile summary`` view of a recorded trace."""
    trace = read_trace(path)
    events = trace["events"]
    counts: dict[str, int] = {}
    for event in events:
        counts[event["kind"]] = counts.get(event["kind"], 0) + 1
    meta = trace["meta"]
    lines = [
        f"trace: {path}",
        f"format: {meta.get('format')}; {meta.get('events', len(events))} "
        f"events ({meta.get('dropped', 0)} dropped)",
    ]
    lines += _counts_section(counts, "events by kind:")
    derived = {
        k: int(v)
        for k, v in sorted(trace["metrics"].items())
        if not k.startswith("run.events.")
    }
    if derived:
        lines += _counts_section(derived, "run metrics:")
    spans = [e for e in events if e["kind"] == ev.SPAN_START]
    if spans:
        span_counts: dict[str, int] = {}
        for s in spans:
            span_counts[s["name"]] = span_counts.get(s["name"], 0) + 1
        lines += _counts_section(span_counts, "spans by name:")
    return "\n".join(lines)


def format_events(
    path: str, kind: str | None = None, limit: int = 40, offset: int = 0
) -> str:
    """The ``repro profile events`` view: a filtered window of the
    event timeline."""
    for name, value in (("limit", limit), ("offset", offset)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    trace = read_trace(path)
    events = trace["events"]
    if kind is not None:
        events = [e for e in events if e["kind"] == kind]
    window = events[offset : offset + limit] if limit else events[offset:]
    lines = []
    for event in window:
        fields = {
            k: v
            for k, v in sorted(event.items())
            if k not in ("type", "seq", "kind")
        }
        rendered = " ".join(f"{k}={v!r}" for k, v in fields.items())
        lines.append(f"#{event['seq']} {event['kind']} {rendered}".rstrip())
    shown = len(window)
    lines.append(
        f"({shown} of {len(events)} events"
        + (f" of kind {kind!r}" if kind else "")
        + ")"
    )
    return "\n".join(lines)


def format_metrics(path: str) -> str:
    """The ``repro profile metrics`` view: the trace's metric totals."""
    trace = read_trace(path)
    metrics = trace["metrics"]
    if not metrics:
        return "no metrics in trace"
    width = max(len(k) for k in metrics)
    return "\n".join(
        f"{name:<{width}}  {metrics[name]}" for name in sorted(metrics)
    )


def registry_from_trace(path: str) -> MetricsRegistry:
    """Rebuild a registry holding the trace's recorded metric totals."""
    registry = MetricsRegistry()
    for name, value in read_trace(path)["metrics"].items():
        registry.inc(name, value)
    return registry


__all__ = [
    "TRACE_FORMAT",
    "format_events",
    "format_metrics",
    "read_trace",
    "registry_from_trace",
    "render_live_summary",
    "summarize_trace",
    "trace_lines",
    "write_trace",
]
