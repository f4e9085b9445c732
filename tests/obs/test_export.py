"""Trace export: JSONL round-trip, summaries, executor instrumentation."""

import inspect
import json
import sys
import types

import pytest

from repro import obs
from repro.graphs import complete_graph
from repro.protocols import MajorityVoteDevice
from repro.runtime.sync import executor, make_system, run


def _names_reached(function):
    """The global and attribute names that ``function``'s code, its
    nested code, and (transitively) every function of its own module
    that it names mention."""
    module = sys.modules[function.__module__]
    names = set()
    todo = [function.__code__]
    while todo:
        code = todo.pop()
        fresh = set(code.co_names) - names
        names |= fresh
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        todo += [
            callee.__code__
            for callee in map(vars(module).get, fresh)
            if inspect.isfunction(callee)
            and callee.__module__ == module.__name__
        ]
    return names


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
    def test_execute_plan_names_no_telemetry(self):
        # The round loop records; only run() emits.  A telemetry call
        # (or a timer) anywhere execute_plan reaches would be paid by
        # every untraced run.
        telemetry = {"obs", "perf_counter"}
        reached = _names_reached(executor.execute_plan)
        assert "_execute" in reached
        assert not reached & telemetry
        assert telemetry <= _names_reached(executor.run)

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
