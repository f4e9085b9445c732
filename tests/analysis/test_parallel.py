"""Parallel drivers must be invisible: identical results at any jobs.

Every parallel entry point (``run_campaign``, ``degradation_frontier``
and the sweeps) merges worker results deterministically, so ``jobs=N``
output is byte-identical to the serial scan.  These tests pin that
contract, serializing results to sorted JSON where a serializer exists.
"""

import json

import pytest

from repro.analysis.campaign import (
    CampaignConfig,
    degradation_frontier,
    run_campaign,
)
from repro.analysis.parallel import (
    ParallelRunner,
    available_parallelism,
    fork_available,
)
from repro.analysis.sweep import connectivity_sweep, node_bound_sweep
from repro.analysis.witness_io import campaign_to_dict
from repro.graphs.builders import complete_graph
from repro.protocols.eig import eig_devices
from repro.protocols.naive import MajorityVoteDevice


def _naive_factory(graph):
    return {u: MajorityVoteDevice() for u in graph.nodes}


def _eig_factory(graph):
    return dict(eig_devices(graph, 1))


def _as_json(result):
    return json.dumps(campaign_to_dict(result), sort_keys=True)


class TestParallelRunner:
    def test_serial_fallback_preserves_order(self):
        runner = ParallelRunner(1)
        assert not runner.parallel
        assert runner.map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_map_preserves_order(self):
        runner = ParallelRunner(2)
        items = list(range(10))
        assert runner.map(lambda x: x + 1, items) == [x + 1 for x in items]

    def test_empty_and_singleton_inputs(self):
        assert ParallelRunner(4).map(lambda x: x, []) == []
        assert ParallelRunner(4).map(lambda x: -x, [7]) == [-7]

    def test_available_parallelism_positive(self):
        assert available_parallelism() >= 1
        assert isinstance(fork_available(), bool)


class TestCampaignParallelEquivalence:
    def _config(self, factory, attempts, seed, links=2):
        return CampaignConfig(
            graph=complete_graph(4),
            device_factory=factory,
            rounds=3,
            attempts=attempts,
            seed=seed,
            max_link_faults=links,
        )

    def test_breaking_campaign_identical_across_jobs(self):
        config = self._config(_naive_factory, attempts=40, seed=11)
        serial = run_campaign(config, jobs=1)
        assert serial.broken
        for jobs in (2, 4):
            parallel = run_campaign(config, jobs=jobs)
            assert _as_json(serial) == _as_json(parallel)

    def test_surviving_campaign_identical_across_jobs(self):
        # EIG tolerates the sampled link faults at this tiny budget.
        config = self._config(_eig_factory, attempts=6, seed=5, links=1)
        serial = run_campaign(config, jobs=1)
        parallel = run_campaign(config, jobs=2)
        assert _as_json(serial) == _as_json(parallel)

    def test_frontier_identical_across_jobs(self):
        config = self._config(_naive_factory, attempts=12, seed=3)
        serial = degradation_frontier(config)
        parallel = degradation_frontier(config, jobs=2)
        assert serial == parallel


class TestSweepParallelEquivalence:
    def test_node_bound_sweep(self):
        assert node_bound_sweep((1,)) == node_bound_sweep((1,), jobs=2)

    def test_connectivity_sweep(self):
        assert connectivity_sweep() == connectivity_sweep(jobs=2)


class TestAvailableParallelism:
    def test_prefers_scheduling_affinity(self, monkeypatch):
        import os

        # cgroup/affinity-restricted container: the scheduler allows 2
        # cores even though the machine reports many more.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert available_parallelism() == 2

    def test_falls_back_to_cpu_count_without_affinity_api(
        self, monkeypatch
    ):
        import os

        def no_affinity(pid):
            raise AttributeError("sched_getaffinity")

        monkeypatch.setattr(os, "sched_getaffinity", no_affinity)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert available_parallelism() == 3

    def test_empty_affinity_mask_still_positive(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set())
        assert available_parallelism() == 1


def _forced_pool_runner(jobs=2):
    """A runner that uses the fork pool even on a 1-core CI box."""
    import pytest

    if not fork_available():
        pytest.skip("fork start method unavailable")
    runner = ParallelRunner(jobs)
    runner.fallback_reason = None
    return runner


class TestWorkerFaultTolerance:
    def test_worker_only_crash_is_retried_serially(self):
        import os

        from repro.analysis.parallel import ItemError  # noqa: F401

        parent = os.getpid()

        def flaky(x):
            if os.getpid() != parent:
                raise RuntimeError("worker exploded")
            return x * 2

        runner = _forced_pool_runner()
        # Every item fails in its worker; the serial retries in the
        # parent succeed, so the map completes with full results.
        assert runner.map(flaky, [1, 2, 3]) == [2, 4, 6]
        # Long enough for multi-item chunks: each item is retried alone.
        assert runner.map(flaky, range(64)) == [2 * x for x in range(64)]

    def test_deterministic_failure_raises_item_error_with_identity(self):
        from repro.analysis.parallel import ItemError

        def bad(x):
            if x == 7:
                raise ValueError("cannot handle seven")
            return x

        runner = _forced_pool_runner()
        import pytest

        with pytest.raises(ItemError) as excinfo:
            runner.map(bad, [5, 7, 9])
        err = excinfo.value
        assert err.index == 1
        assert err.item == 7
        assert "#1" in str(err) and "7" in str(err)
        assert isinstance(err.__cause__, ValueError)

    def test_retry_keeps_campaign_identical_to_healthy_run(self):
        import os

        parent = os.getpid()

        def worker_hostile_factory(graph):
            # Dies in every forked worker (simulating an OOM-killed
            # child) but works in the parent, so each attempt fails in
            # the pool and succeeds on its serial retry.
            if os.getpid() != parent:
                raise RuntimeError("worker lost")
            return {u: MajorityVoteDevice() for u in graph.nodes}

        def config(factory):
            return CampaignConfig(
                graph=complete_graph(4),
                device_factory=factory,
                rounds=3,
                attempts=40,
                seed=11,
                max_link_faults=2,
            )

        golden = run_campaign(config(_naive_factory))
        crashed = run_campaign(config(worker_hostile_factory), jobs=2)
        assert golden.broken and crashed.broken
        # The configs differ only by factory identity; compare the
        # parts of the serialized result that don't embed it.
        g, c = campaign_to_dict(golden), campaign_to_dict(crashed)
        assert g == c

    def test_killed_worker_is_finished_serially_within_bound(self):
        import multiprocessing
        import os
        import signal
        import time

        from repro import obs

        parent = os.getpid()

        def dies_on_three(x):
            if x == 3 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)  # an OOM-killed child
            return x * 10

        def hung(signum, frame):
            raise TimeoutError("runner hung after a worker was killed")

        runner = _forced_pool_runner()
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        obs.enable()
        try:
            start = time.monotonic()
            results = runner.map(dies_on_three, range(8))
            elapsed = time.monotonic() - start
            counters = obs.get_registry().counters
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            obs.reset()
        assert results == [x * 10 for x in range(8)]
        assert elapsed < 10
        assert counters.get(f"host.events.{obs.WORKER_RETRY}", 0) >= 1
        assert not multiprocessing.active_children()


@pytest.fixture
def forced_pool(monkeypatch):
    """Make every ``ParallelRunner`` in the test use the fork pool,
    even on a 1-core CI box."""
    import repro.analysis.parallel as parallel

    if not fork_available():
        pytest.skip("fork start method unavailable")
    monkeypatch.setattr(parallel, "available_parallelism", lambda: 2)


def _k4_config(factory, attempts, seed, links):
    return CampaignConfig(
        graph=complete_graph(4),
        device_factory=factory,
        rounds=3,
        attempts=attempts,
        seed=seed,
        max_link_faults=links,
    )


#: A campaign that breaks at attempt 2 and one that survives 24
#: attempts (three sync batches at two jobs).
BREAKING = (_naive_factory, 40, 11, 2)
SURVIVING = (_eig_factory, 24, 5, 1)


class TestOnePoolPerCall:
    def test_surviving_campaign_forks_one_pool(self, forced_pool):
        from repro import obs

        obs.enable()
        try:
            result = run_campaign(_k4_config(*SURVIVING), jobs=2)
            counters = obs.get_registry().counters
        finally:
            obs.reset()
        assert not result.broken
        assert counters.get(f"host.events.{obs.WORKER_POOL}") == 1

    def test_no_workers_outlive_a_breaking_campaign(self, forced_pool):
        import multiprocessing

        result = run_campaign(_k4_config(*BREAKING), jobs=2)
        assert result.broken
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize(
        "case", [BREAKING, SURVIVING], ids=["breaking", "surviving"]
    )
    def test_journal_identical_across_jobs(self, forced_pool, tmp_path, case):
        from repro import obs
        from repro.analysis.runstore import Shard

        class CountingShard(Shard):
            syncs = 0

            def sync(self):
                self.syncs += 1
                super().sync()

        shards = {}
        for jobs in (1, 2):
            obs.enable()
            try:
                with CountingShard(tmp_path / f"jobs{jobs}.jsonl") as shard:
                    run_campaign(_k4_config(*case), jobs=jobs, store=shard)
            finally:
                obs.reset()
            shards[jobs] = shard
        serial, pooled = (shards[j].path.read_bytes() for j in (1, 2))
        assert serial and serial == pooled
        # The parallel merge fsyncs every 8 attempts, at the violation
        # and at the end (plus the close), as the batched driver did.
        merged = len(pooled.splitlines())
        assert shards[2].syncs == -(-merged // 8) + 1


class TestChunkedDispatch:
    """Long streams reach the workers in chunks that double up to a
    cap; the parent still merges, retries and reports per item."""

    def test_chunk_plan(self):
        from repro.analysis.parallel import _chunks

        for processes in (1, 2, 4):
            for n in (2, 7, 8 * processes - 1, 8 * processes, 40, 128, 601):
                work = list(range(n))
                chunks = _chunks(work, processes)
                assert [x for chunk in chunks for x in chunk] == work
                sizes = [len(chunk) for chunk in chunks]
                cap = max(1, min(8, n // (4 * processes)))
                expected, size = [], 1
                for _ in sizes[:-1]:
                    expected.append(size)
                    size = min(2 * size, cap)
                assert sizes[:-1] == expected
                assert 1 <= sizes[-1] <= size
                if n < 8 * processes:
                    assert set(sizes) == {1}
        sizes = [len(chunk) for chunk in _chunks(list(range(128)), 2)]
        assert sizes[:5] == [1, 2, 4, 8, 8]

    def test_long_surviving_campaign_identical_across_jobs(
        self, forced_pool, tmp_path, capsys
    ):
        # 128 attempts reach the full chunk size at two and four jobs.
        from repro.cli import main

        args = [
            "--seed", "3", "campaign", "--protocol", "eig",
            "--graph", "complete:4", "--faults", "1", "--links", "0",
            "--attempts", "128",
        ]
        outputs = {}
        for jobs in (1, 2, 4):
            run = tmp_path / f"jobs{jobs}"
            run.mkdir()
            code = main([
                *args, "--jobs", str(jobs),
                "--json", str(run / "out.json"),
                "--trace", str(run / "out.trace"),
                "--checkpoint", str(run / "store"),
            ])
            assert code == 0
            stdout = capsys.readouterr().out.replace(str(run), "RUN")
            (shard,) = (run / "store" / "shards").glob("*.jsonl")
            outputs[jobs] = (
                stdout,
                (run / "out.json").read_bytes(),
                (run / "out.trace").read_bytes(),
                shard.read_bytes(),
            )
        assert outputs[1][0].startswith(
            "protocol survived 128 campaign attempts"
        )
        assert len(outputs[1][3].splitlines()) == 128
        assert outputs[1] == outputs[2] == outputs[4]

    def test_worker_killed_mid_chunk_is_finished_serially(self):
        import multiprocessing
        import os
        import signal

        from repro import obs
        from repro.analysis.parallel import _chunks

        parent = os.getpid()
        chunks = _chunks(list(range(128)), 2)
        full = next(chunk for chunk in chunks if len(chunk) == 8)
        victim = full[3]  # three items of the chunk are already done

        def dies_mid_chunk(x):
            if x == victim and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return x * 10

        def hung(signum, frame):
            raise TimeoutError("runner hung after a worker was killed")

        runner = _forced_pool_runner()
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        obs.enable()
        try:
            results = runner.map(dies_mid_chunk, range(128))
            counters = obs.get_registry().counters
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            obs.reset()
        assert results == [x * 10 for x in range(128)]
        # The lost chunk and everything after it: the pool delivers in
        # order, so nothing past the dead worker's chunk was merged, and
        # the retries are always range(lost, 128).
        retried = counters.get(f"host.events.{obs.WORKER_RETRY}", 0)
        assert retried == 128 - full[0]
        assert not multiprocessing.active_children()


def _alive(pid: int) -> bool:
    """Is ``pid`` a live process?  A zombie (exited, not yet reaped by
    whoever adopted it) counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


#: A forced two-worker pool map whose workers write ``pid item`` as
#: each item starts; each item takes 0.5 s, so by item 7 the second
#: worker holds an eight-item chunk.  Each line goes out in one
#: ``os.write`` on the shared pipe, so the two workers' lines cannot
#: interleave mid-line (writes up to PIPE_BUF bytes are atomic).
_ORPHAN_SCRIPT = """
import os, time
import repro.analysis.parallel as parallel
parallel.available_parallelism = lambda: 2

def slow(x):
    os.write(1, f"{os.getpid()} {x}\\n".encode())
    time.sleep(0.5)
    return x

parallel.ParallelRunner(jobs=2).map(slow, range(64))
"""


class TestOrphanedWorkers:
    def test_workers_exit_when_the_parent_is_killed(self):
        import os
        import signal
        import subprocess
        import sys
        import time

        import repro

        if not fork_available() or not os.path.isdir("/proc/self"):
            pytest.skip("needs the fork start method and /proc")

        def hung(signum, frame):
            raise TimeoutError("orphaned workers kept the pipes open")

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        proc = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            workers = set()
            for line in proc.stdout:  # kill once item 7 has started
                pid, item = map(int, line.split())
                workers.add(pid)
                if item >= 7:
                    break
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 3
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            survivors = [pid for pid in workers if _alive(pid)]
            stderr = proc.stderr.read().decode()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.stdout.close()
            proc.stderr.close()
        assert len(workers) == 2
        assert survivors == []
        assert "Traceback" not in stderr
