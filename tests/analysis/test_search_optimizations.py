"""The search optimizations must be invisible in results.

The memoized campaign — serially and through the parallel scan — must
produce campaign reports byte-identical to the uncached path, for
breaking and surviving campaigns alike.  The campaign's cache counters
in the live metrics registry, and the serial fallback of
ParallelRunner, are covered here too.
"""

import json
import logging

from repro import obs
from repro.analysis.campaign import (
    CampaignConfig,
    degradation_frontier,
    run_campaign,
)
from repro.analysis.parallel import ParallelRunner
from repro.analysis.witness_io import campaign_to_dict
from repro.graphs import complete_graph, ring
from repro.protocols import MajorityVoteDevice, eig_devices
from repro.runtime.memo import BehaviorCache


def _naive_factory(graph):
    return {u: MajorityVoteDevice() for u in graph.nodes}


def _eig_factory(graph):
    return dict(eig_devices(graph, 1))


def _as_json(result):
    return json.dumps(campaign_to_dict(result), sort_keys=True)


def _config(**overrides):
    defaults = dict(
        graph=complete_graph(4),
        device_factory=_naive_factory,
        rounds=3,
        max_node_faults=0,
        max_link_faults=2,
        attempts=40,
        seed=11,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestOptimizedCampaignEquivalence:
    def _assert_all_equal(self, config, jobs=1):
        plain = _as_json(run_campaign(config, jobs=jobs, memoize=False))
        optimized = run_campaign(config, jobs=jobs, cache=BehaviorCache())
        assert _as_json(optimized) == plain

    def test_breaking_campaign_identical(self):
        self._assert_all_equal(_config())

    def test_surviving_campaign_identical(self):
        self._assert_all_equal(
            _config(
                device_factory=_eig_factory, rounds=2, max_link_faults=1,
                attempts=30, seed=5,
            )
        )

    def test_node_fault_campaign_identical(self):
        # Node faults put strategy devices into the memo key.
        self._assert_all_equal(
            _config(max_node_faults=1, attempts=25, seed=3)
        )

    def test_ring_campaign_identical(self):
        self._assert_all_equal(
            _config(graph=ring(5), rounds=4, attempts=30, seed=9)
        )

    def test_parallel_scan_identical(self):
        self._assert_all_equal(_config(), jobs=2)
        self._assert_all_equal(
            _config(
                device_factory=_eig_factory, rounds=2, max_link_faults=1,
                attempts=30, seed=5,
            ),
            jobs=2,
        )

    def test_frontier_identical_with_optimizations(self):
        config = _config(attempts=15)
        # Each level memoizes in a fresh cache unless one is shared.
        fresh = degradation_frontier(
            config, max_link_faults=2, attempts_per_level=15
        )
        shared = degradation_frontier(
            config,
            max_link_faults=2,
            attempts_per_level=15,
            cache=BehaviorCache(),
        )
        assert fresh == shared


def _host_gauges(fn):
    """Run ``fn`` under fresh telemetry; return the host gauges."""
    obs.enable()
    try:
        fn()
        return obs.get_registry().snapshot(scope="host")["gauges"]
    finally:
        obs.reset()


class TestSearchStats:
    """The campaign folds its cache counters into the live registry
    (what ``--metrics`` prints)."""

    def test_stats_collects_the_machinery(self):
        config = _config(
            device_factory=_eig_factory, rounds=2, max_link_faults=1,
            attempts=30, seed=5,
        )
        gauges = _host_gauges(lambda: run_campaign(config))
        assert "host.cache.hits{cache=behavior}" in gauges

    def test_stats_empty_without_optimizations(self):
        gauges = _host_gauges(
            lambda: run_campaign(_config(attempts=5), memoize=False)
        )
        assert not any(k.startswith("host.cache.") for k in gauges)


class TestParallelRunnerFallback:
    def test_jobs_one_reports_reason(self):
        runner = ParallelRunner(1)
        assert not runner.parallel
        assert "jobs=1" in runner.fallback_reason

    def test_single_core_falls_back(self, monkeypatch, caplog):
        monkeypatch.setattr(
            "repro.analysis.parallel.available_parallelism", lambda: 1
        )
        with caplog.at_level(logging.INFO, logger="repro.analysis.parallel"):
            runner = ParallelRunner(4)
        assert not runner.parallel
        assert "1 CPU core" in runner.fallback_reason
        assert any(
            "falling back to serial" in r.message for r in caplog.records
        )

    def test_multi_core_stays_parallel(self, monkeypatch):
        monkeypatch.setattr(
            "repro.analysis.parallel.available_parallelism", lambda: 8
        )
        monkeypatch.setattr(
            "repro.analysis.parallel.fork_available", lambda: True
        )
        runner = ParallelRunner(4)
        assert runner.parallel
        assert runner.fallback_reason is None

    def test_fallback_map_preserves_order(self, monkeypatch):
        monkeypatch.setattr(
            "repro.analysis.parallel.available_parallelism", lambda: 1
        )
        runner = ParallelRunner(8)
        assert runner.map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

    def test_one_core_fallback_campaign_runs_cached(self, monkeypatch):
        # On one core the runner falls back to in-process execution,
        # which must use the campaign's memo cache like jobs=1 does.
        monkeypatch.setattr(
            "repro.analysis.parallel.available_parallelism", lambda: 1
        )
        config = _config(
            device_factory=_eig_factory, rounds=2, max_link_faults=1,
            attempts=40, seed=5, link_kinds=("drop",),
        )
        serial = run_campaign(config, jobs=1)
        cache = BehaviorCache()
        fallback = run_campaign(config, jobs=2, cache=cache)
        assert not fallback.broken
        assert _as_json(fallback) == _as_json(serial)
        assert cache.hits > 0
