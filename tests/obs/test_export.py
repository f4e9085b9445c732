"""Trace export: JSONL round-trip, summaries, executor instrumentation."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro import obs
from repro.graphs import complete_graph
from repro.protocols import MajorityVoteDevice
from repro.runtime.sync import make_system, run
from repro.runtime.plan import compile_sync_plan


def _bare_execute_plan():
    """The telemetry-free executor copy that ``overhead_gates.py``
    gates the disabled-telemetry overhead against."""
    path = Path(__file__).resolve().parents[2] / "scripts" / "overhead_gates.py"
    spec = importlib.util.spec_from_file_location("overhead_gates", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.bare_execute_plan


def _run_workload():
    graph = complete_graph(3)
    system = make_system(
        graph,
        {u: MajorityVoteDevice() for u in graph.nodes},
        {u: i % 2 for i, u in enumerate(graph.nodes)},
    )
    return run(system, 2)


class TestTraceRoundTrip:
    def test_write_then_read(self, tmp_path):
        obs.enable()
        _run_workload()
        path = str(tmp_path / "t.jsonl")
        count = obs.write_trace(path)
        trace = obs.read_trace(path)
        assert trace["meta"]["format"] == obs.TRACE_FORMAT
        assert trace["meta"]["events"] == count == len(trace["events"])
        assert trace["meta"]["dropped"] == 0
        kinds = {e["kind"] for e in trace["events"]}
        assert obs.ROUND_START in kinds and obs.MESSAGE_DELIVERY in kinds
        assert trace["metrics"]["run.rounds.total"] == 2
        # 3 nodes x 2 out-edges x 2 rounds
        assert trace["metrics"]["run.messages.delivered"] == 12

    def test_trace_lines_are_canonical_json(self):
        obs.enable()
        _run_workload()
        for line in obs.trace_lines():
            assert line == json.dumps(
                json.loads(line), sort_keys=True, separators=(",", ":")
            )

    def test_host_events_excluded_from_trace(self, tmp_path):
        obs.enable()
        obs.emit(obs.ROUND_START, round=0)
        obs.emit(obs.CACHE_HIT, cache="behavior")
        path = str(tmp_path / "t.jsonl")
        obs.write_trace(path)
        kinds = [e["kind"] for e in obs.read_trace(path)["events"]]
        assert kinds == [obs.ROUND_START]

    def test_read_rejects_non_trace(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"meta","format":"something-else"}\n')
        with pytest.raises(ValueError):
            obs.read_trace(str(path))

    def test_export_without_enable_raises(self):
        with pytest.raises(ValueError):
            list(obs.trace_lines())


class TestSummaries:
    def test_live_summary_sections(self):
        obs.enable()
        _run_workload()
        obs.emit(obs.CACHE_MISS, cache="behavior")
        out = obs.render_live_summary()
        assert "run events by kind:" in out
        assert "run metrics:" in out
        assert "process-local" in out

    def test_live_summary_without_enable(self):
        assert obs.render_live_summary() == "telemetry was never enabled"

    def test_profile_views(self, tmp_path):
        obs.enable()
        _run_workload()
        path = str(tmp_path / "t.jsonl")
        obs.write_trace(path)
        summary = obs.summarize_trace(path)
        assert "events by kind:" in summary
        events = obs.format_events(path, kind=obs.ROUND_END, limit=1)
        assert "round_end" in events
        assert "(1 of 2 events" in events
        metrics = obs.format_metrics(path)
        assert "run.rounds.total" in metrics


class TestExecutorInstrumentation:
    def test_disabled_run_matches_bare_executor(self):
        graph = complete_graph(4)
        system = make_system(
            graph,
            {u: MajorityVoteDevice() for u in graph.nodes},
            {u: i % 2 for i, u in enumerate(graph.nodes)},
        )
        plan = compile_sync_plan(system)
        assert _bare_execute_plan()(plan, 3) == run(system, 3)

    def test_instrumentation_does_not_change_behavior(self):
        baseline = _run_workload()
        obs.enable()
        traced = _run_workload()
        assert traced == baseline

    def test_round_events_shape(self):
        obs.enable()
        _run_workload()
        events = obs.get_log().events("run")
        starts = [e for e in events if e.kind == obs.ROUND_START]
        ends = [e for e in events if e.kind == obs.ROUND_END]
        assert len(starts) == len(ends) == 2
        deliveries = [e for e in events if e.kind == obs.MESSAGE_DELIVERY]
        assert len(deliveries) == 12
        # deliveries are emitted in sorted edge order within each round
        first_round = [
            dict(e.fields) for e in deliveries if dict(e.fields)["round"] == 0
        ]
        keys = [(d["src"], d["dst"]) for d in first_round]
        assert keys == sorted(keys)

    def test_timed_executor_emits_events(self):
        from repro.core import refute_weak_agreement
        from repro.graphs import triangle
        from repro.protocols import ExchangeOnceWeakDevice

        obs.enable()
        factories = {
            u: (lambda: ExchangeOnceWeakDevice(decide_at=2.0))
            for u in triangle().nodes
        }
        refute_weak_agreement(factories, delta=1.0, decision_deadline=3.0)
        kinds = {e.kind for e in obs.get_log().events("run")}
        assert obs.TIMED_EVENT in kinds
