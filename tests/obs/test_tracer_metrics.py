"""Host-side span wall times and the metrics registry."""

from repro import obs


class TestTracer:
    def test_wall_time_aggregates_not_in_events(self):
        obs.enable(trace=True)
        obs.emit(obs.ROUND_START, round=0)
        obs.observe_span("s", 0.25)
        obs.observe_span("s", 0.5)
        registry = obs.get_registry()
        stats = registry.snapshot(scope="host")["histograms"]["host.span.s"]
        assert stats["count"] == 2
        assert stats["total"] == 0.75
        assert stats["max"] == 0.5
        counters = registry.counters
        assert counters["run.events.total"] == 1
        assert "host.events.total" not in counters
        assert not any("seconds" in line for line in obs.trace_lines())
        assert not registry.snapshot(scope="run")["histograms"]
        # The --metrics span table reads the same histograms.
        summary = obs.render_live_summary().splitlines()
        header = summary.index("-- spans (wall time, this process) --")
        head, row = summary[header + 1:header + 3]
        assert head.split() == ["span", "count", "total(s)", "mean(s)", "max(s)"]
        assert row.split() == ["s", "2", "0.7500", "0.375000", "0.500000"]

    def test_span_disabled_is_noop(self):
        assert obs.get_registry() is None  # telemetry off: no registry
        obs.observe_span("s", 1.0)  # must not raise
        assert obs.get_registry() is None


class TestRegistryDerivation:
    def test_run_counters_derived_from_events(self):
        obs.enable()
        obs.emit(obs.ROUND_END, round=0, messages=6, injected=2)
        obs.emit(obs.ATTEMPT_END, attempt=1, ok=True)
        obs.emit(obs.ATTEMPT_END, attempt=2, ok=False)
        obs.emit(obs.SHRINK_STEP, attempt=2, deleted="atom", atoms=1, nodes=0)
        obs.emit(obs.SWEEP_POINT, sweep="node-bound", n=4)
        obs.emit(obs.FRONTIER_LEVEL, budget=1, attempts=5, broken="-")
        counters = obs.get_registry().run_counters()
        assert counters["run.rounds.total"] == 1
        assert counters["run.messages.delivered"] == 6
        assert counters["run.faults.injected"] == 2
        assert counters["run.attempts.total"] == 2
        assert counters["run.attempts.ok"] == 1
        assert counters["run.attempts.violations"] == 1
        assert counters["run.shrink.deletions"] == 1
        assert counters["run.sweep.points"] == 1
        assert counters["run.frontier.levels"] == 1

    def test_captured_events_do_not_touch_registry_until_replayed(self):
        obs.enable()
        with obs.capture() as capsule:
            obs.emit(obs.ROUND_END, round=0, messages=3, injected=0)
        assert "run.rounds.total" not in obs.get_registry().run_counters()
        obs.replay(capsule.payload())
        assert obs.get_registry().run_counters()["run.rounds.total"] == 1

    def test_scope_snapshot_filtering(self):
        obs.enable()
        obs.emit(obs.ROUND_START, round=0)
        obs.emit(obs.CACHE_HIT, cache="behavior")
        registry = obs.get_registry()
        run = registry.snapshot(scope="run")["counters"]
        host = registry.snapshot(scope="host")["counters"]
        assert "run.events.round_start" in run
        assert "host.events.cache_hit" in host
        assert not any(k.startswith("host.") for k in run)
