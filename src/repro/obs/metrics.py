"""Central metrics registry: counters, gauges, histograms.

One interface absorbs the stats that used to be scattered across
:class:`~repro.runtime.memo.BehaviorCache` (hit/miss) and the
connectivity analytics cache — behind labeled metric names with a ``run.`` /
``host.`` scope split:

* ``run.*`` metrics are derived exclusively from run-scope events as
  they reach the main event log (:meth:`MetricsRegistry.record_event`),
  so they are byte-identical across ``--jobs`` settings — the parent
  replays worker capsules in item order and the counters fall out of
  the same stream.
* ``host.*`` metrics are process-local facts: host-event counts
  (taken at emit time, see :func:`~repro.obs.events.emit`), the cache
  stats absorbed from those objects as gauges, and wall time per
  region in ``host.span.<name>`` histograms
  (:func:`~repro.obs.events.observe_span`).  They are printed in
  summaries but excluded from exported traces.

The module imports nothing from the rest of the repo but the event
kinds at module level, so every layer can use it without cycles.
"""

from __future__ import annotations

from typing import Any, Mapping

from . import events as ev

RUN_SCOPE = "run"


def metric_key(name: str, **labels: Any) -> str:
    """Flatten a metric name + labels into one canonical string key:
    ``name{a=1,b=x}`` with labels sorted by name."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Histogram:
    """A minimal aggregate histogram: count / total / min / max."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def snapshot(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": (self.total / self.count) if self.count else 0.0,
            "min": self.min if self.count else 0.0,
            "max": self.max,
        }


class MetricsRegistry:
    """Counters, gauges and histograms under flattened label keys."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- instruments -------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        key = metric_key(name, **labels)
        self.counters[key] = self.counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        self.gauges[metric_key(name, **labels)] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = metric_key(name, **labels)
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = Histogram()
        hist.observe(value)

    # -- event derivation --------------------------------------------------

    def record_event(
        self, kind: str, fields: tuple[tuple[str, Any], ...]
    ) -> None:
        """Fold one run-scope event (just appended to the main log) into
        the registry.  Every ``run.*`` counter is derived here and
        nowhere else, which is what makes the run-scope metrics a pure
        function of the event stream.  ``fields`` may be any sequence
        of pairs (a journal record's payload holds lists)."""
        self.inc("run.events.total")
        self.inc(f"run.events.{kind}")
        if kind == ev.ROUND_END:
            data = dict(fields)
            self.inc("run.rounds.total")
            self.inc("run.messages.delivered", data.get("messages", 0))
            self.inc("run.faults.injected", data.get("injected", 0))
        elif kind == ev.ATTEMPT_END:
            data = dict(fields)
            self.inc("run.attempts.total")
            if data.get("ok"):
                self.inc("run.attempts.ok")
            else:
                self.inc("run.attempts.violations")
        elif kind == ev.SHRINK_STEP:
            self.inc("run.shrink.deletions")
        elif kind == ev.SWEEP_POINT:
            self.inc("run.sweep.points")
        elif kind == ev.FRONTIER_LEVEL:
            self.inc("run.frontier.levels")

    # -- snapshots ---------------------------------------------------------

    def _filtered(
        self, table: Mapping[str, Any], scope: str | None
    ) -> dict[str, Any]:
        if scope is None:
            return dict(sorted(table.items()))
        prefix = scope + "."
        return {
            k: v for k, v in sorted(table.items()) if k.startswith(prefix)
        }

    def snapshot(self, scope: str | None = None) -> dict[str, Any]:
        return {
            "counters": self._filtered(self.counters, scope),
            "gauges": self._filtered(self.gauges, scope),
            "histograms": {
                k: h.snapshot()
                for k, h in self._filtered(self.histograms, scope).items()
            },
        }

    def run_counters(self) -> dict[str, float]:
        """The deterministic section, sorted — what trace export
        writes."""
        return self._filtered(self.counters, RUN_SCOPE)


# -- absorbing stat objects ------------------------------------------------


def absorb_cache_stats(
    registry: MetricsRegistry, stats: Mapping[str, int], cache: str = "behavior"
) -> None:
    """Fold a :meth:`BehaviorCache.stats`-shaped dict into ``host.cache.*``."""
    registry.set_gauge("host.cache.hits", stats["hits"], cache=cache)
    registry.set_gauge("host.cache.misses", stats["misses"], cache=cache)
    registry.set_gauge("host.cache.size", stats["size"], cache=cache)
    registry.set_gauge("host.cache.maxsize", stats["maxsize"], cache=cache)


def absorb_connectivity_stats(registry: MetricsRegistry) -> None:
    """Fold the connectivity analytics cache counters into
    ``host.connectivity.*``."""
    from ..graphs.connectivity import analytics_stats

    for name, value in analytics_stats().items():
        registry.set_gauge(f"host.connectivity.{name}", value)


__all__ = [
    "Histogram",
    "MetricsRegistry",
    "RUN_SCOPE",
    "absorb_cache_stats",
    "absorb_connectivity_stats",
    "metric_key",
]
