"""Closing a pool whose caller stopped early must not kill its workers.

A worker killed while it sends a result leaves the result queue's lock
held, and ``multiprocessing.Pool.terminate`` then waits on that lock
forever — a campaign that found its violation would hang on exit.
Closing a ``ParallelRunner.imap_captured`` stream instead raises the
pool's stop flag, so workers finish the item in hand, skip the rest,
and exit on their own.
"""

import multiprocessing
import signal
import time
from contextlib import closing

import pytest

from repro.analysis.campaign import CampaignConfig, run_campaign
from repro.analysis.parallel import ParallelRunner, fork_available
from repro.graphs import complete_graph
from repro.protocols import MajorityVoteDevice


@pytest.fixture
def forced_pool(monkeypatch):
    """Use the fork pool even on a one-core box."""
    if not fork_available():
        pytest.skip("fork start method unavailable")
    monkeypatch.setattr(
        "repro.analysis.parallel.available_parallelism", lambda: 2
    )


def _record(path):
    def work(item):
        with open(path, "a") as fh:
            fh.write(f"{item}\n")
        time.sleep(0.05)
        return item

    return work


def test_early_stop_skips_queued_items_and_workers_exit_cleanly(
    forced_pool, tmp_path
):
    log = tmp_path / "executed.txt"
    with closing(ParallelRunner(2).imap_captured(_record(log), range(40))) as stream:
        assert next(stream)[0] == 0
        workers = multiprocessing.active_children()
    assert len(workers) == 2
    assert [w.exitcode for w in workers] == [0, 0]
    executed = log.read_text().split()
    assert len(executed) < 40


def test_breaking_campaigns_close_their_pools(forced_pool):
    # Each campaign breaks within a few attempts while workers are
    # still running ahead, so every one closes a busy pool.  A pool
    # that hangs on close fails the test instead of stalling the suite.
    def hung(signum, frame):
        raise TimeoutError("closing a campaign's pool hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        for seed in range(6):
            config = CampaignConfig(
                graph=complete_graph(4),
                device_factory=lambda g: {
                    u: MajorityVoteDevice() for u in g.nodes
                },
                rounds=2,
                max_link_faults=2,
                attempts=25,
                seed=seed,
            )
            serial = run_campaign(config, jobs=1, memoize=False)
            parallel = run_campaign(config, jobs=4, memoize=False)
            assert parallel.attempts == serial.attempts
            assert parallel.shrunk == serial.shrunk
            assert not multiprocessing.active_children()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
