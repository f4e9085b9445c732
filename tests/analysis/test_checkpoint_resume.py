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
    obs.enable()
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
        obs.enable()
        try:
            with RunStore(tmp_path).shard(key) as shard:
                run_campaign(config, store=shard)
            counts = obs.get_log().kind_counts
            assert counts.get(obs.CHECKPOINT_REUSE, 0) == config.attempts
            # Reuse facts must never reach the exported trace.
            assert not any(
                f'"kind": "{obs.CHECKPOINT_REUSE}"' in line
                for line in obs.trace_lines()
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
        config = _breaking_config()
        golden, golden_trace = _run_traced(
            lambda: degradation_frontier(
                config, max_link_faults=2, attempts_per_level=12
            )
        )
        key = frontier_store_key(
            config, max_link_faults=2, attempts_per_level=12
        )
        with RunStore(tmp_path).shard(key) as shard:
            first, first_trace = _run_traced(
                lambda: degradation_frontier(
                    config, max_link_faults=2, attempts_per_level=12,
                    store=shard,
                )
            )
        # Drop the last journaled level; resume recomputes just it.
        path = tmp_path / "shards" / f"{key}.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with RunStore(tmp_path).shard(key) as shard:
            resumed, resumed_trace = _run_traced(
                lambda: degradation_frontier(
                    config, max_link_faults=2, attempts_per_level=12,
                    store=shard,
                )
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
