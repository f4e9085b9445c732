"""Witness certificates for the engines, checked from outside.

Every engine re-verifies its own Locality identification, but with
engine code.  This file checks only what the paper says a constructed
behavior of ``G`` *is*.  Timed: every ``TimedConstructedBehavior`` of
the Theorem 2 and Theorem 4 witnesses (node and connectivity bounds)
and every scaled scenario of the Theorem 8 family (Theorem 8's node
and connectivity bounds, Corollaries 12–15), reconstructed as a real
run (Lemma 9).  Sync: every ``ConstructedBehavior`` of the Theorem 1,
5 and 6 witnesses and of the footnote-3 general Theorem 6 engine.

* (a) at most ``f`` faulty nodes, and correct ∪ faulty = V(G);
* (b) every correct node runs the caller's own device (factory), with
  the input the behavior records;
* (c) every faulty node runs a replay device (the Fault axiom: a faulty
  node may send anything, here exactly what it recorded);
* (d) re-executing the system reproduces the recorded behavior (sync
  systems through the interpretive reference executor);
* (e) the problem's own specification, evaluated on the reconstructed
  behavior, finds exactly the violations the engine reports (clock
  synchronization: ``ClockSyncSpec.check_at`` at the scaled instant);
* (f) each chain link's node behaves identically in the two behaviors
  it joins (sync chains).

A mutant engine that installs a constant device at one correct node
(and skips its own Locality check, so it gets that far) must fail (b),
in either model.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import replace

import pytest

import repro.core.clock_sync as clock_sync
import repro.core.covering_argument as covering_argument
import repro.core.timed_argument as timed_argument
import repro.core.timed_connectivity as timed_connectivity
from repro.core import (
    ConstructedBehavior,
    SynchronizationSetting,
    corollary_12_linear_envelope,
    corollary_13_diverging_linear,
    corollary_14_offset_clocks,
    corollary_15_logarithmic,
    refute_clock_sync,
    refute_clock_sync_connectivity,
    refute_connectivity,
    refute_epsilon_delta,
    refute_epsilon_delta_connectivity,
    refute_epsilon_delta_general,
    refute_firing_squad,
    refute_firing_squad_connectivity,
    refute_node_bound,
    refute_simple_connectivity,
    refute_simple_node_bound,
    refute_weak_agreement,
    refute_weak_agreement_connectivity,
)
from repro.core.corollaries import Log2Envelope
from repro.core.timed_argument import TimedConstructedBehavior
from repro.graphs import circulant, complete_graph, diamond, ring, triangle
from repro.protocols import (
    ExchangeOnceWeakDevice,
    LowerEnvelopeClockDevice,
    MajorityVoteDevice,
    MedianDevice,
    MidpointDevice,
    RelayFireDevice,
)
from repro.runtime.sync.adversary import ReplayDevice
from repro.runtime.sync.collapse import GroupDevice, PortRenamedDevice
from repro.runtime.sync.device import SyncDevice
from repro.runtime.timed import LinearClock
from repro.runtime.timed.adversary import TimedReplayDevice
from repro.runtime.timed.clocks import drift_map
from repro.runtime.timed.device import TimedDevice
from repro.runtime.timed.executor import run_timed
from repro.testing import reference_sync_run

LOWER = LinearClock(1.0, 0.0)
SETTING = SynchronizationSetting(
    p=LinearClock(1.0, 0.0),
    q=LinearClock(1.2, 0.0),
    lower=LOWER,
    upper=LinearClock(1.0, 2.0),
    alpha=0.1,
    t_prime=1.0,
)


def _factories(graph, make):
    return {u: make for u in graph.nodes}


def _weak():
    return ExchangeOnceWeakDevice(decide_at=2.0)


def _clock():
    return LowerEnvelopeClockDevice(LOWER)


def _log_clock():
    return LowerEnvelopeClockDevice(Log2Envelope(shift=1.0))


def certify(c: TimedConstructedBehavior, graph, max_faults, factories) -> None:
    """Assert (a)–(d) for one constructed behavior."""
    nodes = frozenset(graph.nodes)
    assert len(c.faulty_nodes) <= max_faults, f"(a) {c.label}: too many faulty"
    assert not c.correct_nodes & c.faulty_nodes, f"(a) {c.label}: overlap"
    assert c.correct_nodes | c.faulty_nodes == nodes, f"(a) {c.label}: not V(G)"
    assert c.system.graph is graph, f"(a) {c.label}: not a system of G"
    for u in c.correct_nodes:
        assignment = c.system.assignments[u]
        assert assignment.factory is factories[u], (
            f"(b) {c.label}: correct node {u!r} does not run the caller's device"
        )
        assert assignment.input == c.inputs[u], (
            f"(b) {c.label}: correct node {u!r} has the wrong input"
        )
    for w in c.faulty_nodes:
        device = c.system.assignments[w].factory()
        assert isinstance(device, TimedReplayDevice), (
            f"(c) {c.label}: faulty node {w!r} runs {type(device).__name__}"
        )
    assert run_timed(c.system, c.behavior.horizon) == c.behavior, (
        f"(d) {c.label}: re-execution differs from the recorded behavior"
    )


def _constructed(witness) -> list[TimedConstructedBehavior]:
    found = [
        c.constructed
        for c in witness.checked
        if isinstance(c.constructed, TimedConstructedBehavior)
    ]
    assert found, "the witness holds no constructed behavior"
    return found


WEAK_AND_FIRING = [
    (
        "thm2-nodes",
        triangle,
        lambda g, fac: refute_weak_agreement(fac, 1.0, 3.0),
        _weak,
    ),
    (
        "thm2-connectivity",
        diamond,
        lambda g, fac: refute_weak_agreement_connectivity(g, fac, 1, 1.0, 3.0),
        _weak,
    ),
    (
        "thm2-connectivity-ring6",
        lambda: ring(6),
        lambda g, fac: refute_weak_agreement_connectivity(g, fac, 1, 1.0, 3.0),
        _weak,
    ),
    (
        "thm4-nodes",
        triangle,
        lambda g, fac: refute_firing_squad(fac, 1.0, 3.0),
        lambda: RelayFireDevice(fire_at=2.5),
    ),
    (
        "thm4-connectivity",
        diamond,
        lambda g, fac: refute_firing_squad_connectivity(g, fac, 1, 1.0, 4.0),
        lambda: RelayFireDevice(fire_at=3.5),
    ),
]


@pytest.mark.parametrize(
    "build, engine, make",
    [case[1:] for case in WEAK_AND_FIRING],
    ids=[case[0] for case in WEAK_AND_FIRING],
)
def test_weak_agreement_and_firing_squad_witnesses(build, engine, make):
    graph = build()
    factories = _factories(graph, make)
    witness = engine(graph, factories)
    assert witness.found
    for c in _constructed(witness):
        certify(c, witness.graph, witness.max_faults, factories)


def _recording(monkeypatch, module):
    """Record every behavior ``module`` builds through
    ``build_base_behavior_timed``."""
    built: list[TimedConstructedBehavior] = []
    original = module.build_base_behavior_timed

    def recorded(*args, **kwargs):
        c = original(*args, **kwargs)
        built.append(c)
        return c

    monkeypatch.setattr(module, "build_base_behavior_timed", recorded)
    return built


def test_clock_sync_scaled_reconstructions(monkeypatch):
    built = _recording(monkeypatch, clock_sync)
    graph = triangle()
    factories = _factories(graph, _clock)
    witness = refute_clock_sync(factories, SETTING, base=graph)
    assert witness.found
    checks = witness.extra["scaling_checks"]
    assert [check["index"] for check in checks] == [0, 1]
    assert len(built) == len(checks)
    for c, check in zip(built, checks):
        assert sorted(map(str, c.correct_nodes)) == check["correct"]
        certify(c, graph, witness.max_faults, factories)


def _every_scaled_scenario(monkeypatch):
    """Make both Theorem 8 engines execute Lemma 9 for every scaled
    scenario, and record each reconstruction as the arguments of
    ``_verify_scaled_scenario``, its result and the behavior it built."""
    built = _recording(monkeypatch, clock_sync)
    runs = []
    argument = clock_sync._clock_argument
    verify = clock_sync._verify_scaled_scenario

    def every(*args, **kwargs):
        call = inspect.signature(argument).bind(*args, **kwargs)
        call.arguments["verify_indices"] = range(sys.maxsize)
        return argument(*call.args, **call.kwargs)

    def recorded(*args, **kwargs):
        check = verify(*args, **kwargs)
        call = inspect.signature(verify).bind(*args, **kwargs)
        runs.append((call.arguments, check, built[-1]))
        return check

    for module in (clock_sync, timed_connectivity):
        monkeypatch.setattr(module, "_clock_argument", every)
    monkeypatch.setattr(clock_sync, "_verify_scaled_scenario", recorded)
    return runs


def _pairs(verdict) -> set:
    return {(v.condition, frozenset(v.nodes)) for v in verdict.violations}


CLOCK_FAMILY = [
    ("thm8-nodes", triangle, _clock, 26,
     lambda g, fac: refute_clock_sync(fac, SETTING, base=g)),
    ("thm8-connectivity", diamond, _clock, 52,
     lambda g, fac: refute_clock_sync_connectivity(g, fac, 1, SETTING)),
    ("cor12", triangle, _clock, 29,
     lambda g, fac: corollary_12_linear_envelope(fac).witness),
    ("cor13", triangle, _clock, 44,
     lambda g, fac: corollary_13_diverging_linear(fac).witness),
    ("cor14", triangle, _clock, 44,
     lambda g, fac: corollary_14_offset_clocks(fac).witness),
    ("cor15", triangle, _log_clock, 32,
     lambda g, fac: corollary_15_logarithmic(fac).witness),
]


@pytest.mark.parametrize(
    "build, make, scenarios, engine",
    [case[1:] for case in CLOCK_FAMILY],
    ids=[case[0] for case in CLOCK_FAMILY],
)
def test_every_scaled_scenario_reconstructs(
    monkeypatch, build, make, scenarios, engine
):
    """Lemma 9 for every scaled scenario of the witness, including the
    offset clocks of Corollary 14 (whose scaled runs start before time
    0) and the connectivity bound's cyclic cover: each reconstruction
    reproduces the cover's readings, passes (a)–(d), and the spec,
    evaluated on it at the scaled instant ``h⁻ⁱ(t'')``, finds exactly
    the engine's violations (e)."""
    runs = _every_scaled_scenario(monkeypatch)
    graph = build()
    factories = _factories(graph, make)
    witness = engine(graph, factories)
    assert witness.found
    verdicts = {c.constructed.label: c.verdict for c in witness.checked}
    assert [args["scenario"][0] for args, _, _ in runs] == list(verdicts)
    assert len(runs) == scenarios
    t_double_prime = witness.extra["t_double_prime"]
    violated = 0
    for args, check, c in runs:
        label, _nodes, i = args["scenario"]
        assert check["all_match"], label
        assert sorted(map(str, c.correct_nodes)) == check["correct"], label
        certify(c, witness.graph, witness.max_faults, factories)
        # (e): the reconstruction runs from the scaled run's start
        # s₀ = h⁻ⁱ(0), so scaled time s is its time s - s₀.
        setting = args["setting"]
        h = drift_map(setting.p, setting.q)
        start = h.iterate(-i)(0.0)
        s = h.iterate(-i)(t_double_prime)
        logical = {
            u: (lambda t, node=c.behavior.node(u): node.logical_value(t - start))
            for u in c.correct_nodes
        }
        # The engine's slack, scaled by what the check compares: the
        # envelope bounds l(q(s)), l(p(s)), u(q(s)) and the readings.
        tolerance = clock_sync._TOLERANCE * max(
            1.0,
            abs(setting.lower(setting.q(s))),
            abs(setting.lower(setting.p(s))),
            abs(setting.upper(setting.q(s))),
            *(abs(clock(s)) for clock in logical.values()),
        )
        oracle = setting.check_at(
            logical, sorted(c.correct_nodes, key=str), s, tolerance
        )
        assert _pairs(oracle) == _pairs(verdicts[label]), label
        violated += not oracle.ok
    assert violated


def test_corollary_15_flags_every_scaled_scenario():
    """With ``l = log₂`` the logical clocks read about 33 at ``t''``
    while the hardware clocks read about 8.6e9; every scaled scenario
    misses its agreement bound by α, and a slack scaled by the hardware
    readings (about 1,700) would hide 14 of the 32."""
    graph = triangle()
    witness = corollary_15_logarithmic(_factories(graph, _log_clock)).witness
    assert len(witness.checked) == 32
    assert not any(c.verdict.ok for c in witness.checked)


class _Constant(TimedDevice):
    """Decides 0 at once, whatever it hears."""

    def on_start(self, ctx, api):
        api.decide(0)


def test_constant_device_mutant_fails_b(monkeypatch):
    """A mutant engine: the first correct node of every constructed
    behavior runs a constant device, and the engine's own Locality
    check is switched off so the witness comes back."""
    real_system = timed_argument.TimedSystem

    def mutant_system(graph, assignments, *args):
        first = next(iter(assignments))  # correct nodes are assigned first
        assignments = dict(assignments)
        assignments[first] = replace(assignments[first], factory=_Constant)
        return real_system(graph, assignments, *args)

    monkeypatch.setattr(timed_argument, "TimedSystem", mutant_system)
    monkeypatch.setattr(
        timed_argument, "_verify_timed_locality", lambda *args: None
    )
    graph = triangle()
    factories = _factories(graph, _weak)
    witness = refute_weak_agreement(
        factories, 1.0, 3.0, base=graph, require_violation=False
    )
    monkeypatch.undo()
    for c in _constructed(witness):
        with pytest.raises(AssertionError, match=r"^\(b\)"):
            certify(c, graph, witness.max_faults, factories)


# ---------------------------------------------------------------------------
# The synchronous engines
# ---------------------------------------------------------------------------


def certify_sync(
    c: ConstructedBehavior, graph, max_faults, devices=None
) -> None:
    """Assert (a)–(d) for one synchronous constructed behavior.

    ``devices=None`` is the footnote-3 reduction: the correct nodes run
    collapsed group devices built by the engine, so (b) checks their
    kind rather than their identity.
    """
    nodes = frozenset(graph.nodes)
    assert len(c.faulty_nodes) <= max_faults, f"(a) {c.label}: too many faulty"
    assert not c.correct_nodes & c.faulty_nodes, f"(a) {c.label}: overlap"
    assert c.correct_nodes | c.faulty_nodes == nodes, f"(a) {c.label}: not V(G)"
    assert c.system.graph is graph, f"(a) {c.label}: not a system of G"
    for u in c.correct_nodes:
        device = c.system.device(u)
        if devices is None:
            assert isinstance(device, PortRenamedDevice) and isinstance(
                device.inner, GroupDevice
            ), f"(b) {c.label}: correct node {u!r} does not run its group"
        else:
            assert device is devices[u], (
                f"(b) {c.label}: correct node {u!r} does not run the "
                "caller's device"
            )
        assert c.system.input(u) == c.inputs[u], (
            f"(b) {c.label}: correct node {u!r} has the wrong input"
        )
    for w in c.faulty_nodes:
        device = c.system.device(w)
        assert isinstance(device, ReplayDevice), (
            f"(c) {c.label}: faulty node {w!r} runs {type(device).__name__}"
        )
    recorded = c.behavior
    assert reference_sync_run(c.system, recorded.rounds) == recorded, (
        f"(d) {c.label}: re-execution differs from the recorded behavior"
    )


def certify_links(witness) -> None:
    """Assert (f): every chain link joins two behaviors in which its node
    behaves identically."""
    by_label = {c.label: c.constructed for c in witness.checked}
    for link in witness.links:
        first, second = by_label[link.first], by_label[link.second]
        assert link.node in first.correct_nodes & second.correct_nodes, (
            f"(f) {link.first}~{link.second}: {link.node!r} not correct in both"
        )
        assert (
            first.behavior.node(link.node) == second.behavior.node(link.node)
        ), f"(f) {link.first}~{link.second}: {link.node!r} behaves differently"


def _sync_constructed(witness) -> list[ConstructedBehavior]:
    found = [c.constructed for c in witness.checked]
    assert found and all(isinstance(c, ConstructedBehavior) for c in found)
    return found


def _each(graph, make):
    return {u: make() for u in graph.nodes}


def _median(g):
    return _each(g, MedianDevice)


SYNC = [
    ("thm1-nodes-triangle", triangle, 1, MajorityVoteDevice,
     lambda g, d, f: refute_node_bound(g, d, f, 3)),
    ("thm1-nodes-K4-f2", lambda: complete_graph(4), 2, MajorityVoteDevice,
     lambda g, d, f: refute_node_bound(g, d, f, 3)),
    ("thm1-connectivity-diamond", diamond, 1, MajorityVoteDevice,
     lambda g, d, f: refute_connectivity(g, d, f, 4)),
    ("thm1-connectivity-C8-f2", lambda: circulant(8, (1, 2)), 2,
     MajorityVoteDevice, lambda g, d, f: refute_connectivity(g, d, f, 4)),
    ("thm5-nodes-triangle", triangle, 1, MidpointDevice,
     lambda g, d, f: refute_simple_node_bound(g, d, f, 3)),
    ("thm5-nodes-K4-f2", lambda: complete_graph(4), 2, MidpointDevice,
     lambda g, d, f: refute_simple_node_bound(g, d, f, 3)),
    ("thm5-connectivity-diamond", diamond, 1, MidpointDevice,
     lambda g, d, f: refute_simple_connectivity(g, d, f, 4)),
    ("thm5-connectivity-C8-f2", lambda: circulant(8, (1, 2)), 2,
     MidpointDevice, lambda g, d, f: refute_simple_connectivity(g, d, f, 4)),
    ("thm6-nodes-triangle", triangle, 1, MedianDevice,
     lambda g, d, f: refute_epsilon_delta(d, 0.25, 1.0, 1.0, 3, base=g)),
    ("thm6-connectivity-diamond", diamond, 1, MedianDevice,
     lambda g, d, f: refute_epsilon_delta_connectivity(
         g, d, f, 0.25, 1.0, 1.0, 3)),
]
# Every other graph perfbench's `engines` workload refutes: the node
# bound on K5..K12 at f = ceil(n/3) (K3 and K4 are above) and the
# connectivity bound on its circulants (C8{1,2} is above).
SYNC += [
    (f"thm1-nodes-K{n}-f{-(-n // 3)}", lambda n=n: complete_graph(n),
     -(-n // 3), MajorityVoteDevice,
     lambda g, d, f: refute_node_bound(g, d, f, 3))
    for n in range(5, 13)
]
SYNC += [
    (f"thm1-connectivity-C{n}{{{','.join(map(str, offsets))}}}-f{f}",
     lambda n=n, offsets=offsets: circulant(n, offsets), f,
     MajorityVoteDevice, lambda g, d, f: refute_connectivity(g, d, f, 4))
    for n, offsets, f in ((8, (1,), 1), (10, (1, 2), 2), (12, (1, 2, 3), 3))
]


@pytest.mark.parametrize(
    "build, max_faults, make, engine",
    [case[1:] for case in SYNC],
    ids=[case[0] for case in SYNC],
)
def test_sync_witnesses(build, max_faults, make, engine):
    graph = build()
    devices = _each(graph, make)
    witness = engine(graph, devices, max_faults)
    assert witness.found
    for c in _sync_constructed(witness):
        certify_sync(c, witness.graph, witness.max_faults, devices)
    certify_links(witness)


def test_general_epsilon_delta_witness():
    """The footnote-3 engine on K6, f = 2: each behavior is one of the
    collapsed supernode triangle, one class (at most f members) faulty."""
    graph = complete_graph(6)
    witness = refute_epsilon_delta_general(
        graph, _median(graph), 2, 0.25, 1.0, 1.0, 3
    )
    assert witness.found
    constructed = _sync_constructed(witness)
    base = constructed[0].system.graph
    assert sorted(base.nodes) == ["a", "b", "c"]
    for c in constructed:
        certify_sync(c, base, 1)
    certify_links(witness)


class _ConstantSync(SyncDevice):
    """Sends nothing and decides 0 at once, whatever it hears."""

    def init_state(self, ctx):
        return 0

    def send(self, ctx, state, round_index):
        return {}

    def transition(self, ctx, state, round_index, inbox):
        return state

    def choose(self, ctx, state):
        return 0


def test_sync_constant_device_mutant_fails_b(monkeypatch):
    """The sync mirror of the timed mutant: the first correct node of
    every constructed behavior runs a constant device, and the engine's
    own Locality check is switched off."""
    real_system = covering_argument.SyncSystem

    def mutant_system(graph, assignments):
        first = next(iter(assignments))  # correct nodes are assigned first
        assignments = dict(assignments)
        assignments[first] = replace(
            assignments[first], device=_ConstantSync()
        )
        return real_system(graph, assignments)

    monkeypatch.setattr(covering_argument, "SyncSystem", mutant_system)
    monkeypatch.setattr(
        covering_argument, "_verify_locality", lambda *args: None
    )
    graph = triangle()
    devices = _each(graph, MajorityVoteDevice)
    witness = refute_node_bound(graph, devices, 1, 3, require_violation=False)
    monkeypatch.undo()
    for c in _sync_constructed(witness):
        with pytest.raises(AssertionError, match=r"^\(b\)"):
            certify_sync(c, graph, witness.max_faults, devices)
