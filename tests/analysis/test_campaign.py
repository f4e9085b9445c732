"""Campaign engine: finds violations under combined budgets, shrinks
them to minimal plans, replays deterministically, and sweeps the
graceful-degradation frontier."""

import hashlib
import json

import pytest

from repro.analysis.campaign import (
    CampaignConfig,
    Counterexample,
    _sample_attempt,
    counterexample_from_dict,
    counterexample_to_dict,
    degradation_frontier,
    execute_attempt,
    replay_counterexample,
    run_campaign,
    sample_fault_plan,
    shrink_counterexample,
)
from repro.analysis.witness_io import campaign_to_dict, save_campaign
from repro.graphs import complete_graph
from repro.protocols import MajorityVoteDevice, eig_devices
from repro.runtime.sync import make_system, run


def naive_config(**overrides):
    defaults = dict(
        graph=complete_graph(4),
        device_factory=lambda g: {u: MajorityVoteDevice() for u in g.nodes},
        rounds=2,
        max_node_faults=0,
        max_link_faults=2,
        attempts=60,
        seed=0,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def eig_config(**overrides):
    defaults = dict(
        graph=complete_graph(4),
        device_factory=lambda g: eig_devices(g, 1),
        rounds=2,
        max_node_faults=1,
        max_link_faults=0,
        attempts=30,
        seed=0,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestCampaign:
    def test_naive_breaks_and_shrinks_to_minimal_plan(self):
        result = run_campaign(naive_config())
        assert result.broken
        shrunk = result.shrunk
        assert shrunk is not None
        assert shrunk.cost <= result.found.cost
        assert not shrunk.verdict.ok
        # 1-minimality: removing any remaining atom heals the run.
        config = naive_config()
        for i in range(shrunk.plan.size):
            verdict, _ = execute_attempt(
                config,
                shrunk.inputs,
                shrunk.node_faults,
                shrunk.plan.without_atoms([i]),
            )
            assert verdict.ok

    def test_replay_is_deterministic(self):
        config = naive_config()
        result = run_campaign(config)
        assert result.broken
        b1, v1, t1 = replay_counterexample(config, result.shrunk)
        b2, v2, t2 = replay_counterexample(config, result.shrunk)
        assert t1 == t2 == result.injection_trace
        assert v1.describe() == v2.describe()
        assert dict(b1.edge_behaviors) == dict(b2.edge_behaviors)

    def test_same_seed_same_campaign(self):
        r1 = run_campaign(naive_config())
        r2 = run_campaign(naive_config())
        assert r1.shrunk == r2.shrunk
        assert r1.attempts == r2.attempts
        assert r1.injection_trace == r2.injection_trace

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            dict(
                graph=complete_graph(7),
                device_factory=lambda g: eig_devices(g, 2),
                rounds=3,
                max_node_faults=2,
                attempts=25,
            ),
        ],
        ids=["k4-f1", "k7-f2"],
    )
    def test_eig_survives_within_its_fault_budget(self, overrides):
        result = run_campaign(eig_config(**overrides))
        assert not result.broken, result.describe()

    def test_node_faults_alone_break_naive(self):
        config = naive_config(max_node_faults=1, max_link_faults=0)
        result = run_campaign(config)
        assert result.broken
        # With no link budget the shrunk plan must be node-only.
        assert result.shrunk.plan.is_trivial()
        assert len(result.shrunk.node_faults) == 1

    def test_shrink_removes_redundant_atoms(self):
        config = naive_config(max_link_faults=4, attempts=40)
        result = run_campaign(config)
        assert result.broken
        shrunk, steps = shrink_counterexample(config, result.found)
        assert steps == result.shrink_steps
        assert shrunk == result.shrunk
        assert not shrunk.verdict.ok


class TestFaultFreeEquivalence:
    def test_campaign_machinery_never_perturbs_clean_runs(self):
        """Acceptance check: a fault-free execution through the campaign
        entry points is byte-identical to the plain executor."""
        config = naive_config()
        graph = config.graph
        inputs = {u: 1 for u in graph.nodes}
        plain = run(
            make_system(graph, dict(config.device_factory(graph)), inputs),
            config.rounds,
        )
        from repro.runtime.faults import FaultPlan

        verdict, trace = execute_attempt(config, inputs, (), FaultPlan())
        assert verdict.ok
        assert len(trace) == 0
        clean = Counterexample(
            inputs=inputs,
            node_faults=(),
            plan=FaultPlan(),
            verdict=verdict,
            attempt=0,
        )
        behavior, replayed, replayed_trace = replay_counterexample(
            config, clean
        )
        assert replayed == verdict
        assert replayed_trace == trace
        assert dict(behavior.node_behaviors) == dict(plain.node_behaviors)
        assert dict(behavior.edge_behaviors) == dict(plain.edge_behaviors)


class TestSampling:
    def test_sampled_plans_respect_budget(self):
        import random

        graph = complete_graph(5)
        for attempt in range(30):
            rng = random.Random(attempt)
            plan = sample_fault_plan(graph, 3, 4, rng)
            assert len(plan.faulty_edges()) <= 4

    def test_zero_budget_samples_trivial_plan(self):
        import random

        plan = sample_fault_plan(complete_graph(4), 3, 0, random.Random(1))
        assert plan.is_trivial()

    def test_sampled_attempts_are_pinned(self):
        """200 attempts at K8 with every link kind, in the benchmark's
        shape (6 links, where no partition fits: cutting one node off
        takes 14 edges) and with 16 links (where some do).  The digest
        was recorded before the sample orders were cached per graph;
        any change to a draw changes it."""
        draws = []
        for links in (6, 16):
            config = naive_config(
                graph=complete_graph(8),
                rounds=5,
                max_node_faults=2,
                max_link_faults=links,
                attempts=200,
                seed=28,
            )
            for attempt in range(1, 201):
                node_faults, plan, inputs = _sample_attempt(config, attempt)
                draws.append({
                    "node_faults": [
                        [nf.node, nf.kind, nf.key] for nf in node_faults
                    ],
                    "plan": plan.to_dict(),
                    "inputs": list(inputs.items()),
                })
        kinds = {
            f["kind"] for d in draws for f in d["plan"]["link_faults"]
        }
        assert kinds == {"drop", "corrupt", "delay", "omit"}
        assert sum(len(d["plan"]["partitions"]) for d in draws) == 5
        digest = hashlib.sha256(
            json.dumps(draws, sort_keys=True).encode()
        ).hexdigest()
        assert digest == (
            "1227c539a95bb8b76d95ae55c17b036fa24a3ea8eac64c18d63e688817c76a55"
        )


class TestConfigValidation:
    def test_link_faults_need_rounds(self):
        with pytest.raises(ValueError, match="2 needs rounds > 0"):
            naive_config(rounds=0, max_link_faults=2)
        naive_config(rounds=0, max_link_faults=0, max_node_faults=1)

    def test_cli_rejects_link_faults_without_rounds(self, capsys, tmp_path):
        from repro.cli import main

        store = tmp_path / "store"
        argv = [
            "--seed", "3", "campaign", "--protocol", "naive",
            "--graph", "complete:4", "--links", "2", "--rounds", "0",
        ]
        for extra in ([], ["--frontier"], ["--checkpoint", str(store)]):
            assert main(argv + extra) == 2, extra
            err = capsys.readouterr().err
            assert "error: max_link_faults 2 needs rounds > 0" in err, extra
            assert "Traceback" not in err
        assert not store.exists()

    def test_link_kinds_must_be_known_and_non_empty(self):
        with pytest.raises(ValueError, match="at least one kind"):
            naive_config(link_kinds=())
        for kinds in (("drop", "bogus"), ("",)):
            with pytest.raises(ValueError, match="unknown link-fault kind"):
                naive_config(link_kinds=kinds)
        assert naive_config(link_kinds=("partition",)).link_kinds == (
            "partition",
        )

    def test_cli_rejects_bad_kinds_before_the_store(self, capsys, tmp_path):
        from repro.cli import main

        store = tmp_path / "store"
        argv = [
            "campaign", "--graph", "complete:4", "--links", "2",
            "--checkpoint", str(store),
        ]
        for kinds, message in (
            ("drop,bogus", "unknown link-fault kind 'bogus'"),
            ("", "unknown link-fault kind ''"),
        ):
            for extra in ([], ["--frontier"]):
                assert main(argv + ["--kinds", kinds] + extra) == 2, kinds
                err = capsys.readouterr().err
                assert f"error: {message}" in err, kinds
                assert "Traceback" not in err
                assert not (store / "meta.json").exists()
        assert not store.exists()


class TestFrontier:
    def test_frontier_orders_clauses_by_budget(self):
        config = naive_config(attempts=40, max_link_faults=2)
        frontier = degradation_frontier(config)
        assert len(frontier.rows) == 3
        # Budget zero with f=0 cannot break anything.
        assert frontier.rows[0].broken_conditions == ()
        # Naive majority loses agreement within the sweep.
        assert frontier.first_break["agreement"] is not None
        assert "agreement" in frontier.describe()


class TestPersistence:
    def test_counterexample_roundtrip(self):
        config = naive_config()
        result = run_campaign(config)
        assert result.broken
        data = counterexample_to_dict(result.shrunk)
        rebuilt = counterexample_from_dict(
            json.loads(json.dumps(data)), config.graph
        )
        assert rebuilt.plan == result.shrunk.plan
        assert rebuilt.node_faults == result.shrunk.node_faults
        assert rebuilt.inputs == dict(result.shrunk.inputs)
        _, verdict, trace = replay_counterexample(config, rebuilt)
        assert verdict.describe() == result.shrunk.verdict.describe()
        assert trace == result.injection_trace

    def test_save_campaign_writes_replayable_json(self, tmp_path):
        config = naive_config()
        result = run_campaign(config)
        path = save_campaign(result, tmp_path / "campaign.json")
        data = json.loads(path.read_text())
        assert data["broken"] is True
        assert data["shrunk"]["plan"]
        rebuilt = counterexample_from_dict(data["shrunk"], config.graph)
        _, verdict, _ = replay_counterexample(config, rebuilt)
        assert not verdict.ok

    def test_surviving_campaign_serializes_cleanly(self):
        result = run_campaign(eig_config())
        data = campaign_to_dict(result)
        assert data["broken"] is False
        assert data["found"] is None


class TestCrashReporting:
    def test_crashing_device_reported_as_execution_violation(self):
        class Fragile(MajorityVoteDevice):
            def transition(self, ctx, state, round_index, inbox):
                for value in inbox.values():
                    if value == "poison":
                        raise RuntimeError("device choked")
                return super().transition(ctx, state, round_index, inbox)

        from repro.runtime.faults import FaultPlan, LinkFault

        graph = complete_graph(3)
        config = CampaignConfig(
            graph=graph,
            device_factory=lambda g: {u: Fragile() for u in g.nodes},
            rounds=2,
        )
        plan = FaultPlan(
            link_faults=(LinkFault(("n0", "n1"), "corrupt"),),
            corrupt_pool=("poison",),
        )
        inputs = {u: 1 for u in graph.nodes}
        verdict, _ = execute_attempt(config, inputs, (), plan)
        assert not verdict.ok
        assert verdict.violations[0].condition == "execution"
