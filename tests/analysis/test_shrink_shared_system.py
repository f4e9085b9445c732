"""The shrinker runs its atom-deletion candidates on one shared system.

Candidates that differ only in their fault plan share one built and
compiled system, each with a fresh injector.  Sharing must be
invisible: the shrunk witness, the step count and the injection trace
equal those of a shrinker whose every candidate builds its own system,
with and without a behavior cache, and the witness stays 1-minimal
under the interpretive reference executor.
"""

import random

import pytest

from repro.analysis import campaign
from repro.analysis.adversary_search import build_adversary
from repro.analysis.campaign import (
    CampaignConfig,
    counterexample_to_dict,
    run_campaign,
)
from repro.graphs.builders import complete_graph
from repro.protocols.naive import MajorityVoteDevice
from repro.runtime.faults import SyncFaultInjector
from repro.runtime.memo import BehaviorCache
from repro.runtime.sync import make_system
from repro.testing import reference_sync_run


def _majority(graph):
    return {u: MajorityVoteDevice() for u in graph.nodes}


def _config(n, seed):
    return CampaignConfig(
        graph=complete_graph(n),
        device_factory=_majority,
        rounds=5,
        max_node_faults=2,
        max_link_faults=6,
        attempts=200,
        seed=seed,
    )


def _fresh_system_per_candidate(monkeypatch, calls):
    """Make every candidate build its own system."""
    shared_aware = campaign.execute_attempt

    def execute_attempt(*args, system=None, **kwargs):
        calls.append(system)
        return shared_aware(*args, **kwargs)

    monkeypatch.setattr(campaign, "execute_attempt", execute_attempt)


def _result_key(result):
    return (
        result.attempts,
        result.shrink_steps,
        counterexample_to_dict(result.found),
        counterexample_to_dict(result.shrunk),
        result.injection_trace,
    )


def _reference_ok(config, inputs, node_faults, plan):
    graph = config.graph
    devices = dict(config.device_factory(graph))
    for nf in node_faults:
        devices[nf.node] = build_adversary(
            nf.kind, nf.node, devices[nf.node], graph, config.rounds,
            random.Random(nf.key), config.value_pool,
        )
    faulty = {nf.node for nf in node_faults}
    correct = [u for u in graph.nodes if u not in faulty]
    try:
        behavior = reference_sync_run(
            make_system(graph, devices, dict(inputs)),
            config.rounds,
            SyncFaultInjector(plan),
        )
    except Exception:
        return False
    return config.spec.check(inputs, behavior.decisions(), correct).ok


# Seeds whose shrink deletes both fault atoms and faulty nodes, so the
# shared system is also rebuilt mid-shrink.
CASES = [(5, 2), (5, 4), (5, 5), (8, 1), (8, 4), (8, 5)]


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
@pytest.mark.parametrize("n,seed", CASES)
def test_shared_system_shrinks_like_fresh_systems(monkeypatch, n, seed, cached):
    def campaign_once():
        cache = BehaviorCache() if cached else None
        return run_campaign(_config(n, seed), cache=cache)

    shared = campaign_once()
    assert shared.broken and shared.shrink_steps > 0

    calls = []
    _fresh_system_per_candidate(monkeypatch, calls)
    fresh = campaign_once()
    # The patched entry point saw the shrinker's shared systems.
    assert any(system is not None for system in calls)
    assert _result_key(shared) == _result_key(fresh)


@pytest.mark.parametrize("n,seed", CASES)
def test_shrunk_witness_is_one_minimal_under_reference(n, seed):
    config = _config(n, seed)
    result = run_campaign(config, cache=BehaviorCache())
    shrunk = result.shrunk
    assert not _reference_ok(
        config, shrunk.inputs, shrunk.node_faults, shrunk.plan
    )
    for i in range(shrunk.plan.size):
        assert _reference_ok(
            config, shrunk.inputs, shrunk.node_faults,
            shrunk.plan.without_atoms([i]),
        )
    for i in range(len(shrunk.node_faults)):
        fewer = shrunk.node_faults[:i] + shrunk.node_faults[i + 1 :]
        assert _reference_ok(config, shrunk.inputs, fewer, shrunk.plan)
