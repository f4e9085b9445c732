"""The run store: atomic writes, torn-tail journals, resume metadata."""

import json
import os
import time
from contextlib import closing

import pytest

from repro import obs
from repro.analysis.parallel import ParallelRunner
from repro.analysis.runstore import (
    STALE_TMP_SECONDS,
    RunStore,
    RunStoreError,
    Shard,
    atomic_write_text,
    journaled_imap,
    reusable,
)


class TestAtomicWriteText:
    def test_writes_and_returns_path(self, tmp_path):
        path = atomic_write_text(tmp_path / "out.json", '{"a": 1}')
        assert path.read_text() == '{"a": 1}'

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "out.json", "x")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_removes_a_killed_writes_leftover(self, tmp_path):
        # What a SIGKILL between mkstemp and os.replace leaves behind,
        # next to files that only look similar, and next to a young
        # temp file that may be another process's write in flight.
        old = time.time() - STALE_TMP_SECONDS - 10
        others = ["out.json.x.tmp", "out.jsonl.0o98oj7m.tmp", "other.0o98oj7m.tmp"]
        for name in ["out.json.0o98oj7m.tmp", *others]:
            (tmp_path / name).write_text("torn")
            os.utime(tmp_path / name, (old, old))
        (tmp_path / "out.json.inflight.tmp").write_text("partial")
        others.append("out.json.inflight.tmp")
        atomic_write_text(tmp_path / "out.json", "x")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["out.json", *others]
        )

    def test_failed_write_leaves_no_droppings(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write_text(tmp_path / "out.json", object())  # not str
        assert list(tmp_path.iterdir()) == []


class TestShard:
    def test_append_and_get(self, tmp_path):
        with Shard(tmp_path / "s.jsonl") as shard:
            shard.append("a", {"ok": True})
            shard.append("b", {"ok": False})
            assert shard.get("a") is None  # appends are not kept
        reopened = Shard(tmp_path / "s.jsonl")
        assert reopened.get("a") == {"ok": True}
        assert reopened.get("b") == {"ok": False}
        assert reopened.get("missing") is None

    def test_reload_from_disk(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with Shard(path) as shard:
            shard.append("a", {"ok": True})
        reloaded = Shard(path)
        assert reloaded.get("a") == {"ok": True}
        assert path.read_text().count("\n") == 1

    def test_last_record_wins(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with Shard(path) as shard:
            shard.append("a", {"ok": True})
            shard.append("a", {"ok": False})
        assert Shard(path).get("a") == {"ok": False}

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with Shard(path) as shard:
            shard.append("a", {"ok": True})
            shard.append("b", {"ok": True})
        # Simulate a crash mid-append: the final line is truncated.
        text = path.read_text()
        path.write_text(text + '{"k": "c", "v": {"ok"')
        survivor = Shard(path)
        assert survivor.get("a") == {"ok": True}
        assert survivor.get("b") == {"ok": True}
        assert survivor.get("c") is None

    def test_mid_file_garbage_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        lines = [
            json.dumps({"k": "a", "v": {"ok": True}}),
            "definitely not json",
            json.dumps({"k": "b", "v": {"ok": True}}),
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RunStoreError, match="corrupt journal"):
            Shard(path)

    def test_non_record_final_line_is_torn_tail(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            json.dumps({"k": "a", "v": {}}) + "\n" + json.dumps(["list"])
        )
        reloaded = Shard(path)
        assert reloaded.get("a") == {}
        assert reloaded.get("list") is None

    def test_append_after_reload_appends(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with Shard(path) as shard:
            shard.append("a", {"ok": True})
        with Shard(path) as shard:
            shard.append("b", {"ok": False})
        assert len(path.read_text().splitlines()) == 2
        reloaded = Shard(path)
        assert reloaded.get("a") == {"ok": True}
        assert reloaded.get("b") == {"ok": False}

    @pytest.mark.parametrize(
        "tail",
        ['\n{"k": "c", "v": {"ok"', ""],
        ids=["torn-final-line", "no-final-newline"],
    )
    def test_append_after_a_damaged_tail_starts_a_new_line(
        self, tmp_path, tail
    ):
        # A crash mid-append tears the final line, or leaves the last
        # good record without its newline; records appended by the
        # next process must still load, by that process and the next.
        path = tmp_path / "s.jsonl"
        path.write_text(
            json.dumps({"k": "a", "v": {"ok": True}})
            + "\n"
            + json.dumps({"k": "b", "v": {"ok": True}})
            + tail
        )
        before = path.read_bytes()
        Shard(path).close()
        assert path.read_bytes() == before  # opening changes no byte
        with Shard(path) as shard:
            shard.append("c", {"ok": False})
            shard.append("d", {"ok": True})
        with Shard(path) as shard:
            shard.append("e", {"ok": True})
        reloaded = Shard(path)
        for key, ok in zip("abcde", [True, True, False, True, True]):
            assert reloaded.get(key) == {"ok": ok}
        assert len(path.read_text().splitlines()) == 5

    def test_a_torn_only_line_is_cut_away(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"k": "a", "v"')
        with Shard(path) as shard:
            shard.append("b", {})
        assert path.read_text() == '{"k":"b","v":{}}\n'


class TestRunStore:
    def test_meta_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.write_meta("campaign", 7, {"attempts": 10})
        meta = store.read_meta()
        assert meta["command"] == "campaign"
        assert meta["seed"] == 7
        assert meta["args"] == {"attempts": 10}

    def test_missing_store_without_create(self, tmp_path):
        with pytest.raises(RunStoreError, match="no run store"):
            RunStore(tmp_path / "nowhere", create=False)

    def test_missing_meta_is_clear(self, tmp_path):
        store = RunStore(tmp_path / "store")
        with pytest.raises(RunStoreError, match="not a run store"):
            store.read_meta()

    def test_corrupt_meta_is_clear(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.meta_path.write_text('{"format": "repro-runsto')
        with pytest.raises(RunStoreError, match="corrupt or truncated"):
            store.read_meta()

    def test_foreign_format_rejected(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.meta_path.write_text(json.dumps({"format": "other/9"}))
        with pytest.raises(RunStoreError, match="is not repro-runstore"):
            store.read_meta()

    def test_shards_live_under_shard_dir(self, tmp_path):
        store = RunStore(tmp_path / "store")
        with store.shard("abc123") as shard:
            shard.append("x", {})
        assert (tmp_path / "store" / "shards" / "abc123.jsonl").exists()

    def test_runstore_error_is_value_error(self):
        # The CLI maps ValueError to a one-line `error: ...` exit.
        assert issubclass(RunStoreError, ValueError)


class TestPayloadRoundTrip:
    def test_reusable_rules(self):
        assert not reusable(None)
        assert reusable({"ok": True})  # telemetry off: no payload needed
        obs.enable()
        try:
            assert not reusable({"ok": True})
            assert reusable({"ok": True, "obs": []})
        finally:
            obs.reset()


def _square(x):
    return x * x


def _journaled(fn, items, shard, calls=None):
    """Drain a ``journaled_imap`` stream into its results, recording
    the items ``fn`` executed in ``calls``."""

    def traced(x):
        if calls is not None:
            calls.append(x)
        return fn(x)

    stream = journaled_imap(
        ParallelRunner(1), traced, items, shard,
        key_fn=str, encode=lambda r: {"v": r}, decode=lambda d: d["v"],
    )
    return list(stream)


def _emits_square(x):
    obs.emit(obs.ROUND_START, round=x)
    obs.emit(obs.CHECKPOINT_WRITE, item="host")  # counted, never captured
    return x * x


class TestJournaledMap:
    def test_without_shard_is_plain_map(self):
        calls = []
        out = _journaled(_square, [1, 2, 3], None, calls)
        assert out == [1, 4, 9]
        assert calls == [1, 2, 3]

    def test_journaled_items_skip_execution(self, tmp_path):
        calls = []
        path = tmp_path / "s.jsonl"
        with Shard(path) as shard:
            first = _journaled(_square, [1, 2, 3], shard, calls)
        calls.clear()
        with Shard(path) as shard:
            second = _journaled(_square, [1, 2, 3], shard, calls)
        assert first == second == [1, 4, 9]
        assert calls == []  # everything came from the journal

    def test_partial_journal_executes_only_the_rest(self, tmp_path):
        calls = []
        path = tmp_path / "s.jsonl"
        with Shard(path) as shard:
            shard.append("2", {"v": -2})
        with Shard(path) as shard:
            out = _journaled(lambda x: -x, [1, 2, 3], shard, calls)
        assert out == [-1, -2, -3]
        assert calls == [1, 3]

    def test_stream_replays_fresh_and_journaled_payloads(self, tmp_path):
        path = tmp_path / "s.jsonl"
        runs = []
        for stop in (2, None):  # stop early, then resume the rest
            obs.enable(trace=True)
            try:
                with Shard(path) as shard:
                    stream = journaled_imap(
                        ParallelRunner(1), _emits_square, range(4), shard,
                        key_fn=str, encode=lambda r: {"v": r},
                        decode=lambda d: d["v"],
                    )
                    with closing(stream):
                        for seen, _ in enumerate(stream, 1):
                            if seen == stop:
                                break
                lines = obs.trace_lines()
                runs.append([line for line in lines if '"kind":"round_' in line])
            finally:
                obs.reset()
        # Only merged items replay; a resume replays the journaled ones.
        assert [len(events) for events in runs] == [2, 4]
        assert runs[1][:2] == runs[0]
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["v"]["obs"] for r in records] == [
            [["round_start", [["round", x]]]] for x in range(4)
        ]

    def test_items_are_journaled_before_they_are_yielded(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with Shard(path) as shard:
            stream = journaled_imap(
                ParallelRunner(1), _square, range(5), shard,
                key_fn=str, encode=lambda r: {"v": r},
                decode=lambda d: d["v"],
            )
            with closing(stream):
                for seen, _ in enumerate(stream, 1):
                    assert len(path.read_text().splitlines()) == seen
                    if seen == 2:
                        break
        reloaded = Shard(path)
        assert [reloaded.get(str(i)) for i in range(3)] == [
            {"v": 0}, {"v": 1}, None
        ]
