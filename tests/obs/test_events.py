"""Event core: the switch, the two scopes, the spool, capture/replay."""

import json
import os

import pytest

from repro import obs


def _run_events():
    """The spooled run-scope events, parsed."""
    return [
        json.loads(line)
        for line in obs.trace_lines()
        if '"type":"event"' in line
    ]


def _count(name):
    return obs.get_registry().counters.get(name, 0)


class TestSwitch:
    def test_off_by_default_and_emit_is_noop(self):
        assert not obs.is_enabled()
        obs.emit(obs.ROUND_START, round=0)  # must not raise or record
        assert obs.get_registry() is None

    def test_enable_records_disable_stops_reset_drops(self):
        obs.enable(trace=True)
        obs.emit(obs.ROUND_START, round=0)
        assert _count("run.events.total") == 1
        obs.disable()
        obs.emit(obs.ROUND_START, round=1)
        # still readable, no longer recording
        assert _count("run.events.total") == 1
        assert [e["round"] for e in _run_events()] == [0]
        obs.reset()
        assert obs.get_registry() is None
        with pytest.raises(ValueError):
            list(obs.trace_lines())

    def test_enable_starts_fresh(self):
        obs.enable(trace=True)
        obs.emit(obs.ROUND_START, round=0)
        obs.enable(trace=True)
        assert _count("run.events.total") == 0
        assert _run_events() == []

    def test_untraced_enable_counts_but_cannot_export(self):
        obs.enable()
        obs.emit(obs.ROUND_START, round=0)
        assert _count("run.events.round_start") == 1
        with pytest.raises(ValueError, match="trace=True"):
            list(obs.trace_lines())


class TestScopeSplit:
    def test_host_events_do_not_consume_run_seq(self):
        obs.enable(trace=True)
        obs.emit(obs.ROUND_START, round=0)
        obs.emit(obs.CACHE_HIT, cache="behavior")
        obs.emit(obs.ROUND_END, round=0, messages=0, injected=0)
        run_events = _run_events()
        assert [e["seq"] for e in run_events] == [0, 1]
        assert [e["kind"] for e in run_events] == [
            obs.ROUND_START, obs.ROUND_END,
        ]
        # Host events are counted, never stored.
        assert _count("host.events.total") == 1
        assert _count(f"host.events.{obs.CACHE_HIT}") == 1

    def test_kind_constants_partition(self):
        assert not (obs.HOST_KINDS & obs.RUN_KINDS)


class TestSpool:
    def test_every_event_is_kept(self):
        obs.enable(trace=True)
        for i in range(5):
            obs.emit(obs.ROUND_START, round=i)
        meta = json.loads(next(obs.trace_lines()))
        assert meta["events"] == 5 and meta["dropped"] == 0
        assert [e["round"] for e in _run_events()] == [0, 1, 2, 3, 4]

    def test_events_after_an_export_append(self):
        obs.enable(trace=True)
        obs.emit(obs.ROUND_START, round=0)
        lines = obs.trace_lines()
        next(lines), next(lines)
        lines.close()  # abandoned mid-spool
        obs.emit(obs.ROUND_START, round=1)
        assert [(e["seq"], e["round"]) for e in _run_events()] == [
            (0, 0), (1, 1),
        ]

    def test_forked_child_never_writes_to_the_spool(self):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        obs.enable(trace=True)
        obs.emit(obs.ROUND_START, round=0)
        pid = os.fork()
        if pid == 0:  # child: emit, export, reset, then vanish
            code = 1
            try:
                obs.emit(obs.ROUND_START, round=99)
                try:
                    list(obs.trace_lines())
                except ValueError:
                    code = 0
                obs.reset()
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        obs.emit(obs.ROUND_START, round=1)
        assert [e["round"] for e in _run_events()] == [0, 1]


class TestCaptureReplay:
    def test_capture_diverts_and_replay_restamps(self):
        obs.enable(trace=True)
        obs.emit(obs.ATTEMPT_START, attempt=1)
        with obs.capture() as capsule:
            obs.emit(obs.ROUND_START, round=0)
            obs.emit(obs.CACHE_MISS, cache="behavior")
        # no run event hit the main log; the host event is counted
        assert _count("run.events.total") == 1
        assert _count(f"host.events.{obs.CACHE_MISS}") == 1
        obs.replay(capsule.payload())
        run_events = _run_events()
        assert [e["kind"] for e in run_events] == [
            obs.ATTEMPT_START,
            obs.ROUND_START,
        ]
        assert [e["seq"] for e in run_events] == [0, 1]
        assert _count(f"host.events.{obs.CACHE_MISS}") == 1

    def test_host_event_counted_once_at_emit_never_captured(self):
        obs.enable(trace=True)
        with obs.capture() as outer:
            with obs.capture() as inner:
                obs.emit(obs.CACHE_HIT, cache="behavior")
                obs.emit(obs.ROUND_START, round=0)
                assert _count(f"host.events.{obs.CACHE_HIT}") == 1
                assert _count("host.events.total") == 1
            obs.replay(inner.payload())
        assert [kind for kind, _ in inner.payload()] == [obs.ROUND_START]
        assert [kind for kind, _ in outer.payload()] == [obs.ROUND_START]
        obs.replay(outer.payload())
        assert _count(f"host.events.{obs.CACHE_HIT}") == 1
        assert _count("host.events.total") == 1
        assert [e["kind"] for e in _run_events()] == [obs.ROUND_START]

    def test_payload_read_back_from_json_replays_the_same(self):
        obs.enable(trace=True)
        with obs.capture() as capsule:
            obs.emit(obs.ROUND_END, round=0, messages=3, injected=1)
        obs.replay(capsule.payload())
        obs.replay(json.loads(json.dumps(capsule.payload())))
        first, second = (
            {k: v for k, v in e.items() if k != "seq"} for e in _run_events()
        )
        assert first == second
        assert _count("run.messages.delivered") == 6

    def test_capture_disabled_yields_empty_capsule(self):
        with obs.capture() as capsule:
            obs.emit(obs.ROUND_START, round=0)
        assert capsule.payload() == ()

    def test_nested_capture(self):
        obs.enable()
        with obs.capture() as outer:
            obs.emit(obs.ROUND_START, round=0)
            with obs.capture() as inner:
                obs.emit(obs.ROUND_END, round=0, messages=0, injected=0)
            obs.replay(inner.payload())
        kinds = [kind for kind, _ in outer.payload()]
        assert kinds == [obs.ROUND_START, obs.ROUND_END]

    def test_fields_canonically_sorted(self):
        obs.enable()
        with obs.capture() as capsule:
            obs.emit(obs.ROUND_END, round=0, injected=0, messages=3)
            obs.emit(obs.ROUND_END, messages=3, injected=0, round=0)
        (_, a), (_, b) = capsule.payload()
        assert a == b == (("injected", 0), ("messages", 3), ("round", 0))
