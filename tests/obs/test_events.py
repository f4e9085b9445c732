"""Event core: the switch, the two-scope log, capture/replay."""

from repro import obs


class TestSwitch:
    def test_off_by_default_and_emit_is_noop(self):
        assert not obs.is_enabled()
        obs.emit(obs.ROUND_START, round=0)  # must not raise or record
        assert obs.get_log() is None

    def test_enable_records_disable_stops_reset_drops(self):
        obs.enable()
        obs.emit(obs.ROUND_START, round=0)
        assert obs.get_log().seq == 1
        obs.disable()
        obs.emit(obs.ROUND_START, round=1)
        assert obs.get_log().seq == 1  # still readable, no longer recording
        obs.reset()
        assert obs.get_log() is None

    def test_enable_starts_fresh(self):
        obs.enable()
        obs.emit(obs.ROUND_START, round=0)
        obs.enable()
        assert obs.get_log().seq == 0


class TestScopeSplit:
    def test_host_events_do_not_consume_run_seq(self):
        obs.enable()
        obs.emit(obs.ROUND_START, round=0)
        obs.emit(obs.CACHE_HIT, cache="behavior")
        obs.emit(obs.ROUND_END, round=0, messages=0, injected=0)
        log = obs.get_log()
        run_events = log.events(scope="run")
        assert [e.seq for e in run_events] == [0, 1]
        assert [e.kind for e in run_events] == [obs.ROUND_START, obs.ROUND_END]
        host_events = log.events(scope="host")
        assert [e.seq for e in host_events] == [0]
        assert host_events[0].scope == "host"

    def test_kind_constants_partition(self):
        assert not (obs.HOST_KINDS & obs.RUN_KINDS)

    def test_ring_buffer_drops_oldest_and_counts(self):
        obs.enable(capacity=3)
        for i in range(5):
            obs.emit(obs.ROUND_START, round=i)
        log = obs.get_log()
        assert log.dropped == 2
        assert [dict(e.fields)["round"] for e in log.events("run")] == [2, 3, 4]
        assert log.kind_counts[obs.ROUND_START] == 5  # totals keep counting


class TestCaptureReplay:
    def test_capture_diverts_and_replay_restamps(self):
        obs.enable()
        obs.emit(obs.ATTEMPT_START, attempt=1)
        with obs.capture() as capsule:
            obs.emit(obs.ROUND_START, round=0)
            obs.emit(obs.CACHE_MISS, cache="behavior")
        assert obs.get_log().seq == 1  # nothing hit the main log
        obs.replay(capsule.payload())
        log = obs.get_log()
        assert [e.kind for e in log.events("run")] == [
            obs.ATTEMPT_START,
            obs.ROUND_START,
        ]
        assert [e.seq for e in log.events("run")] == [0, 1]
        assert [e.kind for e in log.events("host")] == [obs.CACHE_MISS]

    def test_run_payload_strips_host_events(self):
        obs.enable()
        with obs.capture() as capsule:
            obs.emit(obs.CACHE_HIT, cache="behavior")
            obs.emit(obs.ROUND_START, round=0)
        kinds = [kind for kind, _ in obs.run_payload(capsule.payload())]
        assert kinds == [obs.ROUND_START]
        assert len(capsule.payload()) == 2

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
        obs.emit(obs.ROUND_END, round=0, injected=0, messages=3)
        obs.emit(obs.ROUND_END, messages=3, injected=0, round=0)
        a, b = obs.get_log().events("run")
        assert a.fields == b.fields
