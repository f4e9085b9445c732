"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload eig-survive --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs a fixed set of operations twice, untraced and then
with layer spans installed (see ``tracing.py``), and reports the
per-layer metrics plus what the tracing itself costs.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from clock import CALIBRATE_EVERY_S, REFERENCE_S, kernel_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("protocols.send_calls", "count"),
    ("protocols.send_s", "s"),
    ("protocols.transition_calls", "count"),
    ("protocols.transition_s", "s"),
    ("runtime.sync.run_calls", "count"),
    ("runtime.sync.run_self_s", "s"),
    ("runtime.sync.make_system_s", "s"),
    ("runtime.plan.compile_calls", "count"),
    ("runtime.plan.compile_s", "s"),
    ("runtime.faults.deliver_calls", "count"),
    ("runtime.faults.deliver_s", "s"),
    ("runtime.faults.injected", "count"),
    ("problems.check_calls", "count"),
    ("problems.check_s", "s"),
    ("runtime.memo.lookups", "count"),
    ("runtime.memo.hit_ratio", "ratio"),
    ("runtime.memo.entries", "count"),
    ("analysis.campaign.sample_s", "s"),
    ("analysis.campaign.execute_calls", "count"),
    ("analysis.campaign.execute_self_s", "s"),
    ("analysis.campaign.attempts_to_break", "count"),
    ("analysis.campaign.shrink_s", "s"),
    ("analysis.campaign.shrink_candidates", "count"),
    ("analysis.campaign.shrink_useful_ratio", "ratio"),
    ("analysis.adversary_search.build_calls", "count"),
    ("analysis.adversary_search.build_s", "s"),
    ("analysis.parallel.batches", "count"),
    ("analysis.parallel.items", "count"),
    ("analysis.parallel.map_s", "s"),
    ("analysis.runstore.appends", "count"),
    ("analysis.runstore.append_s", "s"),
    ("analysis.runstore.syncs", "count"),
    ("analysis.runstore.sync_s", "s"),
    ("core.refute_calls", "count"),
    ("core.chain_s", "s"),
    ("core.base_behavior_calls", "count"),
    ("core.base_behavior_s", "s"),
    ("graphs.coverings.build_s", "s"),
    ("graphs.connectivity.calls", "count"),
    ("graphs.connectivity.s", "s"),
    ("graphs.connectivity.hit_ratio", "ratio"),
    ("runtime.timed.run_calls", "count"),
    ("runtime.timed.run_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe", action="store_true",
        help="internal: set up, print 'ready' and exit (times setup_s)",
    )
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``0 < q <= 1``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def json_digest(values) -> str:
    text = json.dumps(values, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


class Phase:
    """The operations of one measured pass, closed loop."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.outcomes = []
        self.intervals: list[tuple[float, float]] = []  # per operation

    @property
    def items(self) -> int:
        return sum(o.items for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    @property
    def raw_s(self) -> float:
        """Operation time on the clock, unscaled; checks are excluded."""
        return sum(end - start for start, end in self.intervals)

    @property
    def busy_s(self) -> float:
        """Operation time in reference seconds."""
        return sum(self.clock.scaled(a, b) for a, b in self.intervals)

    def latencies(self) -> list[float]:
        """Per-item latency in reference milliseconds."""
        out = []
        for outcome in self.outcomes:
            for start, end, items in outcome.spans:
                out.extend([self.clock.scaled(start, end) * 1e3 / items] * items)
        return out

    def digest(self, ops: int) -> str:
        return json_digest([o.result for o in self.outcomes[:ops]])


def measure(workload, *, seconds: float | None = None, count: int | None = None,
            tracer=None) -> Phase:
    """Run operations 0, 1, ... one after another, until ``seconds`` of
    operation time have passed (and at least the digest's operations
    ran), or exactly ``count`` operations.  The clock is calibrated
    between operations, never inside one."""
    clock = workload.clock
    phase = Phase(clock)
    clock.calibrate()
    index = 0
    while True:
        if count is not None and index >= count:
            break
        if (count is None and phase.raw_s >= seconds
                and index >= workload.digest_ops):
            break
        call = workload.prepare(index)
        if tracer is not None:
            tracer.active = True
        start = clock.now()
        try:
            raw, error = call(), None
        except Exception as exc:  # a raising operation is counted as failed
            raw, error = None, f"{type(exc).__name__}: {exc}"
        end = clock.now()
        if tracer is not None:
            tracer.active = False
        if clock.now() - clock.last >= CALIBRATE_EVERY_S:
            clock.calibrate()
        phase.intervals.append((start, end))
        if error is None:
            outcome = workload.finish(index, raw, start, end)
        else:
            outcome = workload.failure(error, start, end)
        # Drop the output before the next operation, so two operations'
        # caches are never alive at once, and keep results only for the
        # digest, so peak_rss_mb does not grow with the run's length.
        raw = None
        if index >= workload.digest_ops:
            outcome.result = None
        for message in outcome.errors[:3]:
            print(f"check failed: op {index}: {message}", file=sys.stderr)
        phase.outcomes.append(outcome)
        index += 1
    clock.calibrate()
    return phase


def setup_seconds(args: argparse.Namespace) -> list[float]:
    """Time fresh processes from start to the first timed operation
    (imports, input generation and the warm-up), in reference seconds
    by the calibration each probe reports right after."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        line = proc.stdout.readline().strip()
        elapsed = perf_counter() - t0
        calibration, _ = proc.communicate()
        if proc.returncode != 0 or line != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        spent, speed = map(float, calibration.split())
        samples.append((elapsed - spent) * REFERENCE_S / speed)
    return samples


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def layer_metrics(tracer, stats, conn_hits: int, conn_misses: int,
                  overhead: float) -> dict[str, float]:
    spans, counters = tracer.spans, tracer.counters

    def calls(name: str) -> int:
        return spans[name].calls if name in spans else 0

    def total(name: str) -> float:
        return spans[name].total_s if name in spans else 0.0

    def own(name: str) -> float:
        return spans[name].self_s if name in spans else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    lookups = stats.memo_hits + stats.memo_misses
    candidates = counters.get("analysis.campaign.shrink_candidates", 0)
    return {
        "protocols.send_calls": calls("protocols.send"),
        "protocols.send_s": total("protocols.send"),
        "protocols.transition_calls": calls("protocols.transition"),
        "protocols.transition_s": total("protocols.transition"),
        "runtime.sync.run_calls": calls("runtime.sync.run"),
        "runtime.sync.run_self_s": own("runtime.sync.run"),
        "runtime.sync.make_system_s": total("runtime.sync.make_system"),
        "runtime.plan.compile_calls": calls("runtime.plan.compile"),
        "runtime.plan.compile_s": total("runtime.plan.compile"),
        "runtime.faults.deliver_calls": calls("runtime.faults.deliver"),
        "runtime.faults.deliver_s": total("runtime.faults.deliver"),
        "runtime.faults.injected": counters.get("runtime.faults.injected", 0),
        "problems.check_calls": calls("problems.check"),
        "problems.check_s": total("problems.check"),
        "runtime.memo.lookups": lookups,
        "runtime.memo.hit_ratio": ratio(stats.memo_hits, lookups),
        "runtime.memo.entries": stats.memo_entries,
        "analysis.campaign.sample_s": total("analysis.campaign.sample"),
        "analysis.campaign.execute_calls": calls("analysis.campaign.execute"),
        "analysis.campaign.execute_self_s": own("analysis.campaign.execute"),
        "analysis.campaign.attempts_to_break": ratio(
            stats.attempts_to_break, stats.campaigns_broken
        ),
        "analysis.campaign.shrink_s": total("analysis.campaign.shrink"),
        "analysis.campaign.shrink_candidates": candidates,
        "analysis.campaign.shrink_useful_ratio": ratio(stats.shrink_steps, candidates),
        "analysis.adversary_search.build_calls": calls("analysis.adversary_search.build"),
        "analysis.adversary_search.build_s": total("analysis.adversary_search.build"),
        "analysis.parallel.batches": calls("analysis.parallel.map"),
        "analysis.parallel.items": counters.get("analysis.parallel.items", 0),
        "analysis.parallel.map_s": total("analysis.parallel.map"),
        "analysis.runstore.appends": calls("analysis.runstore.append"),
        "analysis.runstore.append_s": total("analysis.runstore.append"),
        "analysis.runstore.syncs": calls("analysis.runstore.sync"),
        "analysis.runstore.sync_s": total("analysis.runstore.sync"),
        "core.refute_calls": calls("core.refute"),
        "core.chain_s": total("core.chain"),
        "core.base_behavior_calls": calls("core.base_behavior"),
        "core.base_behavior_s": total("core.base_behavior"),
        "graphs.coverings.build_s": total("graphs.coverings.build"),
        "graphs.connectivity.calls": calls("graphs.connectivity"),
        "graphs.connectivity.s": total("graphs.connectivity"),
        "graphs.connectivity.hit_ratio": ratio(conn_hits, conn_hits + conn_misses),
        "runtime.timed.run_calls": calls("runtime.timed.run"),
        "runtime.timed.run_s": total("runtime.timed.run"),
        "trace.overhead_ratio": overhead,
    }


def run_untraced(args, workload) -> tuple[dict, int, int, bool, str]:
    setups = setup_seconds(args)
    workload.warmup()
    phase = measure(workload, seconds=args.seconds)
    latencies = phase.latencies()
    metrics = {
        "ops_per_s": phase.items / phase.busy_s,
        "op_p50_ms": percentile(latencies, 0.50),
        "op_p95_ms": percentile(latencies, 0.95),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setups),
    }
    print(f"operations: {len(phase.outcomes)} ({phase.items} items, "
          f"{len(latencies)} latency samples) in {phase.raw_s:.3f} s, "
          f"{phase.busy_s:.3f} reference s")
    print(f"unscaled ops_per_s: {phase.items / phase.raw_s:.6g} 1/s")
    print(f"setup samples: {', '.join(f'{s:.4f}' for s in setups)} s")
    return metrics, phase.items, phase.failed, True, phase.digest(workload.digest_ops)


def run_traced(args, workload) -> tuple[dict, int, int, bool, str]:
    from repro.graphs.connectivity import analytics_stats, clear_analytics

    from tracing import Tracer, install_layers
    from workloads import LayerStats

    workload.warmup()
    count = workload.trace_ops(args.seconds)
    clear_analytics()
    plain = measure(workload, count=count)
    tracer = Tracer()
    missing = install_layers(tracer)
    for target in missing:
        print(f"warning: layer target not found, not traced: {target}", file=sys.stderr)
    clear_analytics()
    workload.stats = LayerStats()
    try:
        traced = measure(workload, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    conn = analytics_stats()
    metrics = layer_metrics(
        tracer, workload.stats, conn["hits"], conn["misses"],
        traced.busy_s / plain.busy_s,
    )
    plain_digest = plain.digest(workload.digest_ops)
    traced_digest = traced.digest(workload.digest_ops)
    same = plain_digest == traced_digest
    if not same:
        print(f"traced digest {traced_digest} differs from untraced "
              f"{plain_digest}", file=sys.stderr)
    print(f"traced set: {count} operations, untraced {plain.busy_s:.3f} s, "
          f"traced {traced.busy_s:.3f} s")
    if workload.name == "eig-survive-par":
        print("note: spans are the parent's view only; spans inside pool "
              "workers stay in the workers")
    return (metrics, plain.items + traced.items, plain.failed + traced.failed,
            same, traced_digest)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        # Calibrate at both ends of the set-up; the first runs count
        # toward the probe's time, so report how long they took.
        first = [kernel_seconds() for _ in range(3)]
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.setup_probe:
            workload.warmup()
            print("ready", flush=True)
            last = [kernel_seconds() for _ in range(3)]
            print(sum(first), statistics.median(first + last))
            return 0
        inputs = json_digest([workload.op(i) for i in range(workload.digest_ops)])
        runner = run_traced if args.trace else run_untraced
        metrics, attempted, failed, consistent, output = runner(args, workload)
    finally:
        workload.close()
        for path in (workdir, workdir.parent):
            try:
                path.rmdir()
            except OSError:
                pass
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    if hasattr(workload, "cores"):
        print(f"cores used: {workload.cores}")
    print(f"inputs digest: {inputs}")
    print(f"output digest: {output}")
    print(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
