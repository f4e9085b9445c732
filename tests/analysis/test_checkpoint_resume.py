"""Checkpointing must be invisible: resumed runs are byte-identical.

The contract under test: a campaign/frontier/sweep journaling to a run
store, interrupted at any point (journal truncation here, a literal
SIGKILL of the driver process in ``TestKillAndResume``) and resumed
against the same store, produces byte-identical results, witness
files, and exported telemetry traces to an uninterrupted run — for any
``--jobs`` value.
"""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro import obs
from repro.analysis.campaign import (
    CampaignConfig,
    campaign_store_key,
    degradation_frontier,
    frontier_store_key,
    run_campaign,
)
from repro.analysis.runstore import RunStore
from repro.analysis.sweep import node_bound_sweep, sweep_store_key
from repro.analysis.witness_io import campaign_to_dict
from repro.graphs.builders import complete_graph
from repro.protocols.eig import eig_devices
from repro.protocols.naive import MajorityVoteDevice


def _naive_factory(graph):
    return {u: MajorityVoteDevice() for u in graph.nodes}


def _eig_factory(graph):
    return dict(eig_devices(graph, 1))


def _surviving_config():
    # EIG tolerates these tiny drop-only budgets: the campaign scans
    # every attempt, so the journal exercises the full span.
    return CampaignConfig(
        graph=complete_graph(4),
        device_factory=_eig_factory,
        rounds=2,
        max_link_faults=1,
        attempts=6,
        seed=5,
        link_kinds=("drop",),
    )


def _breaking_config():
    return CampaignConfig(
        graph=complete_graph(4),
        device_factory=_naive_factory,
        rounds=3,
        max_link_faults=2,
        attempts=40,
        seed=11,
    )


def _as_json(result):
    return json.dumps(campaign_to_dict(result), sort_keys=True)


def _run_traced(fn):
    """Run ``fn`` under fresh telemetry; return (result, trace lines)."""
    obs.enable(trace=True)
    try:
        result = fn()
        return result, list(obs.trace_lines())
    finally:
        obs.reset()


def _truncate_journal(store_dir, key, keep):
    path = Path(store_dir) / "shards" / f"{key}.jsonl"
    lines = path.read_text().splitlines()
    assert len(lines) > keep, "journal too short to truncate meaningfully"
    # Leave a torn tail behind the kept prefix — the crash signature.
    path.write_text("\n".join(lines[:keep]) + '\n{"k": "attempt')
    return len(lines)


class TestCampaignResumeEquivalence:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_resumed_equals_uninterrupted(self, tmp_path, jobs):
        config = _surviving_config()
        golden, golden_trace = _run_traced(lambda: run_campaign(config))
        key = campaign_store_key(config)

        with RunStore(tmp_path).shard(key) as shard:
            first, first_trace = _run_traced(
                lambda: run_campaign(config, store=shard, jobs=jobs)
            )
        total = _truncate_journal(tmp_path, key, keep=3)
        assert total == config.attempts
        with RunStore(tmp_path).shard(key) as shard:
            resumed, resumed_trace = _run_traced(
                lambda: run_campaign(config, store=shard, jobs=jobs)
            )

        assert _as_json(golden) == _as_json(first) == _as_json(resumed)
        assert golden_trace == first_trace == resumed_trace

    def test_breaking_campaign_resumes_to_same_counterexample(
        self, tmp_path
    ):
        config = _breaking_config()
        golden = run_campaign(config)
        assert golden.broken
        key = campaign_store_key(config)
        with RunStore(tmp_path).shard(key) as shard:
            first = run_campaign(config, store=shard)
        with RunStore(tmp_path).shard(key) as shard:
            resumed = run_campaign(config, store=shard)
        assert _as_json(golden) == _as_json(first) == _as_json(resumed)

    def test_checkpoint_reuse_events_are_host_scope(self, tmp_path):
        config = _surviving_config()
        key = campaign_store_key(config)
        with RunStore(tmp_path).shard(key) as shard:
            _run_traced(lambda: run_campaign(config, store=shard))
        obs.enable(trace=True)
        try:
            with RunStore(tmp_path).shard(key) as shard:
                run_campaign(config, store=shard)
            counters = obs.get_registry().counters
            reused = counters.get(f"host.events.{obs.CHECKPOINT_REUSE}", 0)
            assert reused == config.attempts
            # Reuse facts must never reach the exported trace.
            lines = list(obs.trace_lines())
            assert any('"kind":"attempt_end"' in line for line in lines)
            assert not any(
                f'"kind":"{obs.CHECKPOINT_REUSE}"' in line for line in lines
            )
        finally:
            obs.reset()

    def test_telemetry_off_journal_not_reused_by_traced_resume(
        self, tmp_path
    ):
        # Records journaled without telemetry carry no event payload;
        # a traced resume must re-execute them to keep the trace whole.
        config = _surviving_config()
        key = campaign_store_key(config)
        with RunStore(tmp_path).shard(key) as shard:
            run_campaign(config, store=shard)  # telemetry off
        golden, golden_trace = _run_traced(lambda: run_campaign(config))
        with RunStore(tmp_path).shard(key) as shard:
            resumed, resumed_trace = _run_traced(
                lambda: run_campaign(config, store=shard)
            )
        assert _as_json(golden) == _as_json(resumed)
        assert golden_trace == resumed_trace


class TestFrontierResumeEquivalence:
    def test_resumed_frontier_identical(self, tmp_path):
        config = replace(_breaking_config(), attempts=12)
        golden, golden_trace = _run_traced(
            lambda: degradation_frontier(config)
        )
        key = frontier_store_key(config)
        with RunStore(tmp_path).shard(key) as shard:
            first, first_trace = _run_traced(
                lambda: degradation_frontier(config, store=shard)
            )
        # Drop the last journaled level; resume recomputes just it.
        path = tmp_path / "shards" / f"{key}.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with RunStore(tmp_path).shard(key) as shard:
            resumed, resumed_trace = _run_traced(
                lambda: degradation_frontier(config, store=shard)
            )
        assert golden == first == resumed
        assert golden_trace == first_trace == resumed_trace


class TestSweepResumeEquivalence:
    def test_resumed_sweep_identical(self, tmp_path):
        golden, golden_trace = _run_traced(lambda: node_bound_sweep((1,)))
        key = sweep_store_key("nodes", [1])
        with RunStore(tmp_path).shard(key) as shard:
            first, first_trace = _run_traced(
                lambda: node_bound_sweep((1,), store=shard)
            )
        path = tmp_path / "shards" / f"{key}.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1]) + "\n")
        with RunStore(tmp_path).shard(key) as shard:
            resumed, resumed_trace = _run_traced(
                lambda: node_bound_sweep((1,), store=shard)
            )
        assert golden == first == resumed
        assert golden_trace == first_trace == resumed_trace


class _Interrupted(Exception):
    """Stands in for a process killed mid-run."""


def _stop_after(monkeypatch, module, name, completed):
    """Wrap ``module.name`` to record its first argument and raise
    :class:`_Interrupted` once ``completed`` calls have returned
    (``None``: never).  Returns the recorded arguments."""
    real = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        if completed is not None and len(calls) > completed:
            raise _Interrupted(f"stopped during call {len(calls)}")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _journaled_keys(store_dir, key):
    path = Path(store_dir) / "shards" / f"{key}.jsonl"
    if not path.exists():
        return []
    return [json.loads(line)["k"] for line in path.read_text().splitlines()]


class TestInterruptedResume:
    """Stop a checkpointed frontier or sweep while it runs (not by
    truncating a complete journal): every item merged before the stop
    is already journaled, and the resume executes only the rest."""

    def test_interrupted_frontier_resumes_from_the_next_level(
        self, tmp_path, monkeypatch
    ):
        import repro.analysis.campaign as campaign

        config = replace(_breaking_config(), max_link_faults=4, attempts=12)

        def frontier(store=None):
            return degradation_frontier(config, store=store)

        golden, golden_trace = _run_traced(frontier)
        key = frontier_store_key(config)
        _stop_after(monkeypatch, campaign, "run_campaign", 3)
        with RunStore(tmp_path).shard(key) as shard:
            with pytest.raises(_Interrupted):
                _run_traced(lambda: frontier(shard))
        assert _journaled_keys(tmp_path, key) == [
            "level:0", "level:1", "level:2"
        ]

        monkeypatch.undo()
        calls = _stop_after(monkeypatch, campaign, "run_campaign", None)
        with RunStore(tmp_path).shard(key) as shard:
            resumed, resumed_trace = _run_traced(lambda: frontier(shard))
        assert [level.max_link_faults for level in calls] == [3, 4]
        assert resumed == golden
        assert resumed_trace == golden_trace

    def test_interrupted_sweep_resumes_from_the_next_point(
        self, tmp_path, monkeypatch
    ):
        import repro.analysis.sweep as sweep

        golden, golden_trace = _run_traced(lambda: node_bound_sweep((1, 2)))
        key = sweep_store_key("nodes", [1, 2])
        _stop_after(monkeypatch, sweep, "_node_bound_point", 3)
        with RunStore(tmp_path).shard(key) as shard:
            with pytest.raises(_Interrupted):
                _run_traced(lambda: node_bound_sweep((1, 2), store=shard))
        assert _journaled_keys(tmp_path, key) == [
            "point:(1, 3)", "point:(1, 4)", "point:(1, 5)"
        ]

        monkeypatch.undo()
        calls = _stop_after(monkeypatch, sweep, "_node_bound_point", None)
        with RunStore(tmp_path).shard(key) as shard:
            resumed, resumed_trace = _run_traced(
                lambda: node_bound_sweep((1, 2), store=shard)
            )
        assert calls == [(2, n) for n in range(3, 9)]
        assert resumed == golden
        assert resumed_trace == golden_trace


_FACTORY_SOURCE = """
def factory(graph):
    return {u: MajorityVoteDevice() for u in graph.nodes}
"""


class TestStoreKeyIgnoresSourceLocation:
    """A campaign's shard name depends on what its device factory
    computes, not on where the factory's source sits: another checkout
    or an edit that moves the factory down its file keeps the name, so
    ``repro resume`` still finds the journal."""

    def _key(self, filename, offset, source=_FACTORY_SOURCE):
        namespace = {"MajorityVoteDevice": MajorityVoteDevice}
        exec(compile("\n" * offset + source, filename, "exec"), namespace)
        return campaign_store_key(
            replace(_breaking_config(), device_factory=namespace["factory"])
        )

    def test_same_source_anywhere_gives_one_key(self):
        keys = {
            self._key(filename, offset)
            for filename in ("one/src/repro/cli.py", "two/src/repro/cli.py")
            for offset in (0, 40)
        }
        assert len(keys) == 1

    @pytest.mark.parametrize("old, before, after", [
        # Inside the comprehension, a nested code object before 3.12.
        ("Device()", "Device()", "Device(default=1)"),
        ("(graph)", "(graph)", "(graph, rounds=1)"),
        ("(graph)", "(graph, rounds=1)", "(graph, rounds=2)"),
        ("(graph)", "(graph, *, rounds=1)", "(graph, *, rounds=2)"),
    ])
    def test_changed_code_or_default_gives_another_key(self, old, before, after):
        assert self._key(
            "cli.py", 0, _FACTORY_SOURCE.replace(old, before)
        ) != self._key("cli.py", 0, _FACTORY_SOURCE.replace(old, after))


class TestOlderStoreResume:
    """Stores written before ``--incremental``, ``--cache-stats`` and
    ``--orbit-dedup`` were removed still name them in ``meta.json``;
    resume ignores them."""

    ARGS = [
        "--seed", "11", "campaign", "--protocol", "naive",
        "--graph", "complete:4", "--links", "2", "--rounds", "3",
        "--attempts", "40",
    ]

    def test_resume_ignores_removed_flags(self, tmp_path, capsys):
        from repro.cli import main

        golden_json = tmp_path / "golden.json"
        golden_trace = tmp_path / "golden.trace"
        assert main(
            [*self.ARGS, "--json", str(golden_json),
             "--trace", str(golden_trace)]
        ) == 0

        store = tmp_path / "store"
        out_json = tmp_path / "out.json"
        out_trace = tmp_path / "out.trace"
        assert main(
            [*self.ARGS, "--json", str(out_json), "--trace", str(out_trace),
             "--checkpoint", str(store)]
        ) == 0
        meta_path = store / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["args"].update(
            incremental=True, cache_stats=True, orbit_dedup=True
        )
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True))
        (shard,) = (store / "shards").glob("*.jsonl")
        shard.write_text(shard.read_text().splitlines()[0] + "\n")
        out_json.unlink()
        out_trace.unlink()
        capsys.readouterr()

        assert main(["resume", str(store)]) == 0
        assert out_json.read_text() == golden_json.read_text()
        assert out_trace.read_bytes() == golden_trace.read_bytes()


class TestResumeAfterTornTail:
    """A kill mid-append tears the shard's final line (or leaves the
    last record without its newline).  The resume that appends after
    it must leave a shard the next resume still loads: every resume
    reproduces the uninterrupted run's stdout, ``--json`` and trace."""

    ARGS = TestOlderStoreResume.ARGS

    @pytest.mark.parametrize(
        "cut", ["mid-line", "no-final-newline"]
    )
    def test_resume_twice_is_byte_identical(self, tmp_path, capsys, cut):
        from repro.cli import main

        # stdout names the output files: write both runs' to one place.
        out_json = tmp_path / "out.json"
        out_trace = tmp_path / "out.trace"
        outputs = ["--json", str(out_json), "--trace", str(out_trace)]
        capsys.readouterr()
        assert main([*self.ARGS, *outputs]) == 0
        golden_out = capsys.readouterr().out
        golden_json = out_json.rename(tmp_path / "golden.json")
        golden_trace = out_trace.rename(tmp_path / "golden.trace")

        store = tmp_path / "store"
        assert main(
[*self.ARGS, *outputs, "--checkpoint", str(store)]) == 0
        capsys.readouterr()
        (shard,) = (store / "shards").glob("*.jsonl")
        lines = shard.read_text().splitlines()
        assert len(lines) > 4
        kept = "\n".join(lines[:3])
        if cut == "mid-line":
            kept += "\n" + lines[3][: len(lines[3]) // 2]
        shard.write_text(kept)

        for _ in range(2):
            out_json.unlink()
            out_trace.unlink()
            assert main(["resume", str(store)]) == 0
            assert capsys.readouterr().out == golden_out
            assert out_json.read_text() == golden_json.read_text()
            assert out_trace.read_bytes() == golden_trace.read_bytes()
        assert shard.read_text().splitlines() == lines


class TestStoreFormat:
    """A store written in another format is refused before any shard
    opens: ``repro resume`` and both ``--checkpoint`` commands exit 2."""

    def _old_store(self, tmp_path):
        store = tmp_path / "store"
        (store / "shards").mkdir(parents=True)
        meta = {
            "format": "repro-runstore/1",
            "command": "sweep",
            "seed": 0,
            "args": {"dimension": "nodes", "faults": [1], "jobs": 1,
                     "trace": None, "metrics": False},
        }
        (store / "meta.json").write_text(json.dumps(meta))
        return store

    @pytest.mark.parametrize("argv", [
        ["resume", "STORE"],
        ["campaign", "--protocol", "naive", "--graph", "complete:4",
         "--links", "1", "--rounds", "2", "--attempts", "3",
         "--checkpoint", "STORE"],
        ["sweep", "nodes", "--faults", "1", "--checkpoint", "STORE"],
    ], ids=["resume", "campaign", "sweep"])
    def test_older_format_exits_2_before_any_shard(
        self, tmp_path, capsys, argv
    ):
        from repro.cli import main

        store = self._old_store(tmp_path)
        meta = (store / "meta.json").read_text()
        argv = [str(store) if arg == "STORE" else arg for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "repro-runstore/1" in err
        assert list((store / "shards").iterdir()) == []
        assert (store / "meta.json").read_text() == meta


class TestPayloadsHoldRunEventsOnly:
    """Every journal record's payload and every memo entry's payload
    holds run-scope events only, and a campaign record's payload is the
    whole attempt, from its ``attempt_start`` to its ``attempt_end`` —
    serially, from a forked pool, and after a resume."""

    @staticmethod
    def _check_journal(store_dir, key):
        path = Path(store_dir) / "shards" / f"{key}.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records
        for record in records:
            attempt = int(record["k"].removeprefix("attempt:"))
            events = record["v"]["obs"]
            kinds = [kind for kind, _ in events]
            assert set(kinds) <= obs.RUN_KINDS
            assert kinds.count(obs.ATTEMPT_START) == 1
            assert events[0] == [obs.ATTEMPT_START, [["attempt", attempt]]]
            assert events[-1] == [
                obs.ATTEMPT_END,
                [["attempt", attempt], ["ok", record["v"]["ok"]]],
            ]

    @pytest.mark.parametrize("mode", ["jobs1", "jobs2", "resumed"])
    def test_journal_and_memo_payloads(self, tmp_path, monkeypatch, mode):
        import repro.analysis.parallel as parallel
        from repro.runtime.memo import BehaviorCache

        monkeypatch.setattr(parallel, "available_parallelism", lambda: 2)
        jobs = 2 if mode == "jobs2" else 1
        memo = []
        for config in (_surviving_config(), _breaking_config()):
            key = campaign_store_key(config)
            cache = BehaviorCache()

            def campaign():
                with RunStore(tmp_path).shard(key) as shard:
                    return run_campaign(
                        config, jobs=jobs, cache=cache, store=shard
                    )

            _run_traced(campaign)
            if mode == "resumed":
                path = tmp_path / "shards" / f"{key}.jsonl"
                first = path.read_text().splitlines(keepends=True)[0]
                path.write_text(first)
                cache = BehaviorCache()
                _run_traced(campaign)
            self._check_journal(tmp_path, key)
            memo += [payload for _, payload in cache._data.values()]
        # Forked workers run uncached; the breaking campaign's shrink
        # fills the parent's memo at every jobs value.
        assert memo
        for payload in memo:
            assert payload
            assert {kind for kind, _ in payload} <= obs.RUN_KINDS


class TestFrontierJson:
    """``campaign --frontier --json F`` writes the frontier's rows in the
    journal's row encoding, directly and through ``repro resume``."""

    ARGS = [
        "--seed", "7", "campaign", "--protocol", "naive",
        "--graph", "complete:4", "--frontier", "--links", "4",
        "--rounds", "3", "--attempts", "30",
    ]

    def test_json_holds_the_frontier_rows(self, tmp_path, capsys):
        from repro.analysis.campaign import frontier_row_to_dict
        from repro.cli import main

        path = tmp_path / "frontier.json"
        assert main([*self.ARGS, "--json", str(path)]) == 0
        assert capsys.readouterr().out.endswith(
            f"frontier written to {path}\n"
        )
        config = CampaignConfig(
            graph=complete_graph(4),
            device_factory=_naive_factory,
            rounds=3,
            max_link_faults=4,
            attempts=30,
            seed=7,
        )
        frontier = degradation_frontier(config)
        rows = json.loads(path.read_text())["rows"]
        assert rows == [frontier_row_to_dict(row) for row in frontier.rows]
        assert any(row["example"] is not None for row in rows)

    def test_resumed_frontier_rewrites_the_json(self, tmp_path, capsys):
        from repro.cli import main

        golden = tmp_path / "golden.json"
        assert main([*self.ARGS, "--json", str(golden)]) == 0
        store = tmp_path / "store"
        out = tmp_path / "out.json"
        assert main(
            [*self.ARGS, "--json", str(out), "--checkpoint", str(store),
             "--jobs", "2"]
        ) == 0
        (shard,) = (store / "shards").glob("*.jsonl")
        shard.write_text(shard.read_text().splitlines()[0] + "\n")
        out.unlink()
        capsys.readouterr()

        assert main(["resume", str(store)]) == 0
        assert capsys.readouterr().out.endswith(
            f"frontier written to {out}\n"
        )
        assert out.read_text() == golden.read_text()

    def test_verbose_with_frontier_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "store"
        code = main([*self.ARGS, "--verbose", "--checkpoint", str(store)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --verbose")
        assert not (store / "meta.json").exists()


class TestKillAndResume:
    """SIGKILL the driver mid-campaign, then ``repro resume``."""

    ARGS = [
        "--seed", "5", "campaign", "--protocol", "eig",
        "--graph", "complete:4", "--links", "1", "--kinds", "drop",
        "--rounds", "2", "--attempts", "600",
    ]

    def _env(self):
        env = dict(os.environ)
        root = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(root / "src")
        return env

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        env = self._env()
        golden_json = tmp_path / "golden.json"
        golden_trace = tmp_path / "golden.trace"
        subprocess.run(
            [sys.executable, "-m", "repro", *self.ARGS,
             "--json", str(golden_json), "--trace", str(golden_trace)],
            check=True, env=env, cwd=tmp_path, capture_output=True,
        )

        store = tmp_path / "store"
        out_json = tmp_path / "out.json"
        out_trace = tmp_path / "out.trace"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.ARGS,
             "--json", str(out_json), "--trace", str(out_trace),
             "--checkpoint", str(store)],
            env=env, cwd=tmp_path,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # Kill once a few attempts are journaled.  If the run finishes
        # first, resume still must reproduce the golden output.
        deadline = time.monotonic() + 60
        try:
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                shards = list((store / "shards").glob("*.jsonl")) if (
                    store / "shards"
                ).is_dir() else []
                if shards and len(
                    shards[0].read_text().splitlines()
                ) >= 3:
                    proc.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.05)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        resumed = subprocess.run(
            [sys.executable, "-m", "repro", "resume", str(store)],
            check=True, env=env, cwd=tmp_path, capture_output=True,
            text=True,
        )
        assert resumed.returncode == 0
        assert out_json.read_text() == golden_json.read_text()
        assert out_trace.read_bytes() == golden_trace.read_bytes()

    def test_resume_on_missing_store_is_clean_error(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "resume",
             str(tmp_path / "nowhere")],
            env=self._env(), cwd=tmp_path, capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error:")
