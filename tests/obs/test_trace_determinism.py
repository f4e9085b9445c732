"""The tentpole guarantee: traces and metrics are byte-identical
across worker counts — and across every optimization layer, since the
run-scope stream is a pure function of the workload."""

import pytest

from repro import obs
from repro.analysis.campaign import CampaignConfig, run_campaign
from repro.analysis.sweep import node_bound_sweep
from repro.graphs import complete_graph
from repro.protocols import MajorityVoteDevice
from repro.runtime.memo import BehaviorCache


def _config(**overrides):
    defaults = dict(
        graph=complete_graph(4),
        device_factory=lambda g: {u: MajorityVoteDevice() for u in g.nodes},
        rounds=2,
        max_node_faults=0,
        max_link_faults=2,
        attempts=25,
        seed=0,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def _traced(fn):
    """Run ``fn`` under fresh telemetry; return (trace lines, metrics)."""
    obs.enable()
    try:
        fn()
        lines = list(obs.trace_lines())
        metrics = dict(obs.get_registry().run_counters())
    finally:
        obs.reset()
    return lines, metrics


class TestCampaignDeterminism:
    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"memoize": False},
        ],
        ids=["plain", "unmemoized"],
    )
    def test_jobs_do_not_change_trace_or_metrics(self, options):
        def build(jobs):
            return lambda: run_campaign(_config(), jobs=jobs, **options)

        serial_lines, serial_metrics = _traced(build(1))
        par_lines, par_metrics = _traced(build(4))
        assert par_lines == serial_lines
        assert par_metrics == serial_metrics

    def test_trace_independent_of_optimizations(self):
        plain, _ = _traced(lambda: run_campaign(_config(), memoize=False))
        cached, _ = _traced(
            lambda: run_campaign(_config(), cache=BehaviorCache())
        )
        assert cached == plain

    def test_cache_warmth_does_not_change_trace(self):
        cache = BehaviorCache()
        cold, _ = _traced(lambda: run_campaign(_config(), cache=cache))
        assert cache.hits or cache.misses
        warm, _ = _traced(lambda: run_campaign(_config(), cache=cache))
        assert warm == cold


class TestAttackAndSweepDeterminism:
    def test_sweep_jobs(self):
        serial_lines, serial_metrics = _traced(
            lambda: node_bound_sweep((1,), jobs=1)
        )
        par_lines, par_metrics = _traced(
            lambda: node_bound_sweep((1,), jobs=4)
        )
        assert par_lines == serial_lines
        assert par_metrics == serial_metrics
