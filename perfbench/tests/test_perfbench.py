"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402
from repro.runtime.sync.device import SyncDevice  # noqa: E402


class TinyEig(workloads.EigSurvive):
    attempts = 16


class TinyNaive(workloads.NaiveShrink):
    digest_ops = 3


def tiny(cls, tmp_path, seed=0):
    if cls is workloads.EigSurvive:
        cls = TinyEig
    elif cls is workloads.EigSurvivePar:
        cls = type("TinyEigPar", (workloads.EigSurvivePar,), {"attempts": 16})
    elif cls is workloads.NaiveShrink:
        cls = TinyNaive
    return cls(seed, tmp_path)


def ops(workload) -> int:
    return 2 * workload.digest_ops if isinstance(workload, TinyNaive) else workload.digest_ops


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_and_checks_out(name, tmp_path):
    workload = tiny(workloads.WORKLOADS[name], tmp_path)
    try:
        workload.warmup()
        phase = run.measure(workload, count=ops(workload))
    finally:
        workload.close()
    assert phase.items >= 1
    assert phase.failed == 0
    assert len(phase.latencies()) == phase.items
    assert all(x > 0 for x in phase.latencies())


class FlippedDecision(SyncDevice):
    """An EIG device that decides the opposite of what EIG decides."""

    def __init__(self, inner):
        self.inner = inner

    def init_state(self, ctx):
        return self.inner.init_state(ctx)

    def send(self, ctx, state, round_index):
        return self.inner.send(ctx, state, round_index)

    def transition(self, ctx, state, round_index, inbox):
        return self.inner.transition(ctx, state, round_index, inbox)

    def choose(self, ctx, state):
        value = self.inner.choose(ctx, state)
        return None if value is None else 1 - value


def flipped_factory(graph):
    devices = dict(workloads.eig_factory(graph))
    first = sorted(graph.nodes, key=repr)[0]
    devices[first] = FlippedDecision(devices[first])
    return devices


def test_planted_wrong_decision_counts_as_failed(tmp_path):
    class Planted(TinyEig):
        device_factory = staticmethod(flipped_factory)

    phase = run.measure(Planted(0, tmp_path), count=2)
    assert phase.failed > 0
    assert phase.failed / phase.items > 0


def test_tampered_witness_counts_as_failed(tmp_path):
    workload = TinyNaive(0, tmp_path)
    raw = workload.prepare(0)()
    assert workload.finish(0, raw, 0.0, 0.01).failed == 0
    config, cache, result = raw
    shrunk = result.shrunk
    emptied = dataclasses.replace(
        shrunk, plan=shrunk.plan.without_atoms(range(shrunk.plan.size)), node_faults=()
    )
    tampered = dataclasses.replace(result, shrunk=emptied)
    outcome = workload.finish(0, (config, cache, tampered), 0.0, 0.01)
    assert outcome.failed == 1
    assert outcome.errors


@pytest.mark.parametrize("name", ["naive-shrink", "engines"])
def test_traced_and_untraced_digests_agree(name, tmp_path):
    workload = tiny(workloads.WORKLOADS[name], tmp_path)
    args = argparse.Namespace(seconds=0.01)
    metrics, attempted, failed, consistent, _ = run.run_traced(args, workload)
    assert consistent and failed == 0 and attempted > 0
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    assert metrics["trace.overhead_ratio"] > 0
    if name == "engines":
        assert metrics["core.refute_calls"] >= len(workloads.ENGINES)
        assert metrics["runtime.timed.run_calls"] > 0
    else:
        assert metrics["runtime.faults.deliver_calls"] > 0
        assert metrics["analysis.campaign.shrink_candidates"] > 0
        assert 0 < metrics["analysis.campaign.shrink_useful_ratio"] <= 1


def test_tracer_restores_every_patched_function():
    import repro.analysis.campaign as campaign
    import repro.runtime.sync.executor as executor
    from tracing import Tracer, install_layers

    before = (campaign.run, executor.run, campaign.execute_attempt)
    tracer = Tracer()
    assert install_layers(tracer) == []
    assert campaign.run is executor.run is not before[1]
    tracer.uninstall()
    assert (campaign.run, executor.run, campaign.execute_attempt) == before


def bench(*argv, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=300,
    )


def result_of(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = dict(line.split(": ", 1) for line in lines if "digest: " in line)
    return info, json.loads(lines[-1])


def test_same_seed_same_digest_across_processes_new_seed_new_inputs():
    runs = []
    for seed, hash_seed in ((4, "1"), (4, "2"), (5, "1")):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        runs.append(result_of(bench(
            "--workload", "engines", "--seed", str(seed), "--seconds", "0.05",
            "--trace", "0", env=env,
        )))
    (a, ra), (b, rb), (c, rc) = runs
    assert ra["correct"] and rb["correct"] and rc["correct"]
    assert a["output digest"] == b["output digest"]
    assert a["inputs digest"] == b["inputs digest"]
    assert a["inputs digest"] != c["inputs digest"]
    assert set(ra["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in ra["metrics"].values())


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "engines", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
