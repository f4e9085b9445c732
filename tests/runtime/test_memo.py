"""Tests for content-addressed behavior memoization.

Caching is only sound because execution is deterministic; these tests
pin both halves — the cache mechanics (bounded LRU, counters) and the
equivalence contract (cached results equal fresh executions, through
the campaign engine's shrink/replay paths).
"""

import gc
import math
import os
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.analysis.campaign import (
    CampaignConfig,
    execute_attempt,
    run_campaign,
)
from repro.graphs.builders import complete_graph
from repro.problems.spec import SpecVerdict
from repro.protocols import eig_devices
from repro.protocols.naive import MajorityVoteDevice
from repro.runtime.faults import FaultPlan, InjectionTrace, LinkFault, Partition
from repro.runtime.memo import (
    BehaviorCache,
    fingerprint,
    graph_fingerprint,
    plan_fingerprint,
)
from repro.runtime.sync.behavior import EdgeColumns, NodeBehavior, SyncBehavior


def _factory(graph):
    return {u: MajorityVoteDevice() for u in graph.nodes}


def _plan(graph, seed=17):
    nodes = list(graph.nodes)
    return FaultPlan(
        link_faults=(
            LinkFault(edge=(nodes[0], nodes[1]), kind="drop", start=0, end=2),
        ),
        seed=seed,
    )


class TestBehaviorCache:
    def test_miss_then_hit(self):
        cache = BehaviorCache(maxsize=4)
        assert cache.get("k") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.stats() == {
            "hits": 1, "misses": 1, "size": 1, "maxsize": 4,
        }

    def test_lru_eviction_order(self):
        cache = BehaviorCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_rejects_none_values(self):
        with pytest.raises(ValueError):
            BehaviorCache().put("k", None)

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            BehaviorCache(maxsize=0)

    def test_clear_resets_counters(self):
        cache = BehaviorCache()
        cache.put("k", 1)
        cache.get("k")
        cache.get("absent")
        cache.clear()
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 0
        assert len(cache) == 0

    def test_describe_mentions_hit_rate(self):
        cache = BehaviorCache()
        cache.put("k", 1)
        cache.get("k")
        assert "hit rate" in cache.describe()


class TestFingerprints:
    def test_fingerprint_is_content_addressed(self):
        assert fingerprint("a", 1) == fingerprint("a", 1)
        assert fingerprint("a", 1) != fingerprint("a", 2)

    def test_plan_fingerprint_equal_for_equal_plans(self):
        g = complete_graph(4)
        assert plan_fingerprint(_plan(g)) == plan_fingerprint(_plan(g))
        assert plan_fingerprint(_plan(g)) != plan_fingerprint(
            _plan(g, seed=99)
        )
        assert plan_fingerprint(None) == "fault-free"

    def test_plan_fingerprint_covers_every_field(self):
        base_fault = LinkFault(
            edge=("n0", "n1"), kind="omit", start=1, end=4,
            delay=2.0, burst=1, period=3, probability=0.5,
        )
        cut = Partition(
            edges=frozenset({("n2", "n3"), ("n3", "n2")}), start=0, end=2
        )
        base = FaultPlan(
            link_faults=(base_fault,), partitions=(cut,), seed=5,
            corrupt_pool=(0, 1),
        )
        variants = [
            replace(base, link_faults=(replace(base_fault, **change),))
            for change in (
                {"edge": ("n1", "n0")},
                {"kind": "drop"},
                {"start": 2},
                {"end": math.inf},
                {"delay": 3.0},
                {"burst": 2},
                {"period": 4},
                {"probability": 1.0},
            )
        ] + [
            replace(base, partitions=(replace(cut, **change),))
            for change in (
                {"edges": frozenset({("n2", "n3")})},
                {"start": 1},
                {"end": 3},
            )
        ] + [
            replace(base, seed=6),
            replace(base, link_faults=()),
            replace(base, partitions=()),
        ] + [
            replace(base, corrupt_pool=pool)
            for pool in ((1,), (1.0,), (True,), ("1",))
        ]
        keys = [plan_fingerprint(p) for p in [base] + variants]
        assert len(set(keys)) == len(keys)

    def test_plan_fingerprint_ignores_partition_build_order(self):
        edges = [(f"n{i}", f"n{j}") for i in range(4) for j in range(4, 8)]
        forward = FaultPlan(partitions=(Partition(frozenset(edges), 0, 3),))
        backward = FaultPlan(
            partitions=(Partition(frozenset(reversed(edges)), 0, 3),)
        )
        assert forward == backward
        assert plan_fingerprint(forward) == plan_fingerprint(backward)

    def test_plan_fingerprint_is_hash_seed_independent(self):
        script = (
            "from repro.runtime.faults import"
            " FaultPlan, LinkFault, Partition\n"
            "from repro.runtime.memo import plan_fingerprint\n"
            "edges = frozenset((f'n{i}', f'n{j}') for i in range(4)"
            " for j in range(4, 8))\n"
            "plan = FaultPlan(link_faults=(LinkFault(('n0', 'n4'), 'drop'),),"
            " partitions=(Partition(edges, 1, 3),), seed=9)\n"
            "print(plan_fingerprint(plan))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        keys = set()
        for hash_seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr
            keys.add(done.stdout.strip())
        assert len(keys) == 1

    def test_graph_fingerprint_distinguishes_shapes(self):
        assert graph_fingerprint(complete_graph(4)) == graph_fingerprint(
            complete_graph(4)
        )
        assert graph_fingerprint(complete_graph(4)) != graph_fingerprint(
            complete_graph(5)
        )


class TestCampaignMemoization:
    def _config(self, attempts=30, seed=11):
        return CampaignConfig(
            graph=complete_graph(4),
            device_factory=_factory,
            rounds=3,
            attempts=attempts,
            seed=seed,
            max_link_faults=2,
        )

    def test_execute_attempt_cached_equals_uncached(self):
        config = self._config()
        plan = _plan(config.graph)
        inputs = {u: i % 2 for i, u in enumerate(config.graph.nodes)}
        cache = BehaviorCache()
        uncached = execute_attempt(config, inputs, (), plan)
        first = execute_attempt(config, inputs, (), plan, cache)
        second = execute_attempt(config, inputs, (), plan, cache)
        verdict, trace = uncached
        assert not verdict.ok
        assert len(trace) > 0
        assert first == uncached
        assert second == first
        assert cache.stats()["hits"] == 1

    def test_cache_entries_hold_no_behavior(self):
        # An entry keeps what its callers read, the verdict and the
        # injection trace; no object of the run's behavior survives in
        # it.  One cache serves a surviving EIG campaign and a breaking
        # naive one (which shrinks and replays through the memo).
        eig = CampaignConfig(
            graph=complete_graph(7),
            device_factory=lambda graph: dict(eig_devices(graph, 2)),
            rounds=3,
            max_node_faults=2,
            max_link_faults=0,
            attempts=60,
            seed=3,
        )
        cache = BehaviorCache()
        assert not run_campaign(eig, cache=cache).broken
        assert run_campaign(self._config(), cache=cache).broken
        assert cache.stats()["hits"] > 0
        entries = list(cache._data.values())
        assert len(entries) == len(cache) > 60
        for (verdict, trace), payload in entries:
            assert isinstance(verdict, SpecVerdict)
            assert isinstance(trace, InjectionTrace)
            assert isinstance(payload, tuple)
        # Walk the data the entries reference; classes, modules and
        # code lead out of it into the whole interpreter.
        opaque = (type, types.ModuleType, types.FunctionType, types.CodeType)
        seen = set()
        stack = list(entries)
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, opaque):
                continue
            seen.add(id(obj))
            assert not isinstance(
                obj, (SyncBehavior, NodeBehavior, EdgeColumns)
            ), type(obj)
            stack.extend(gc.get_referents(obj))
        assert len(seen) > len(entries)

    def test_run_campaign_memoize_on_off_identical(self):
        config = self._config()
        with_memo = run_campaign(config, memoize=True)
        without = run_campaign(config, memoize=False)
        assert with_memo == without
        # Repeated passes over one shared cache read warm entries.
        cache = BehaviorCache()
        for _ in range(4):
            assert run_campaign(config, cache=cache) == without
        assert cache.stats()["hits"] > 0

    def test_shrink_and_replay_hit_the_cache(self):
        # MajorityVote breaks under link faults; the shrinker's
        # re-executions overlap, so a campaign that found and shrunk a
        # counterexample must have cache hits.
        config = self._config()
        cache = BehaviorCache()
        result = run_campaign(config, cache=cache)
        assert result.broken
        assert cache.stats()["hits"] > 0
        # The shrunk counterexample replays to the same verdict.
        from repro.analysis.campaign import replay_counterexample

        _, verdict, trace = replay_counterexample(config, result.shrunk)
        assert not verdict.ok
        assert trace == result.injection_trace
