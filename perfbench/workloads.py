"""The benchmark's workloads: seeded inputs, one timed operation, a check.

Each workload turns ``--seed`` into a deterministic stream of operation
inputs (``op(i)``), builds the call for one input outside the timed
region (``prepare``), and after the call checks the output and reduces
it to canonical JSON (``finish``), again untimed.  The program sees only
the generated inputs, never the seed.

The campaign workloads run :func:`repro.analysis.campaign.run_campaign`
the way ``repro campaign`` does: a fresh graph and a fresh
``BehaviorCache`` per campaign.  The engine workload calls the Theorem
1–8 engines directly.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import core
from repro.analysis.adversary_search import STRATEGIES, build_adversary
from repro.analysis.campaign import (
    CampaignConfig,
    NodeFault,
    campaign_store_key,
    counterexample_to_dict,
    run_campaign,
    sample_fault_plan,
)
from repro.analysis.parallel import ParallelRunner
from repro.analysis.runstore import RunStore
from repro.core import SynchronizationSetting
from repro.core.corollaries import Log2Envelope
from repro.graphs import circulant, complete_graph, diamond, triangle
from repro.graphs.graph import CommunicationGraph
from repro.protocols import (
    ExchangeOnceWeakDevice,
    LowerEnvelopeClockDevice,
    MajorityVoteDevice,
    MedianDevice,
    MidpointDevice,
    RelayFireDevice,
)
from repro.protocols.eig import eig_devices
from repro.runtime.faults import SyncFaultInjector
from repro.runtime.memo import BehaviorCache
from repro.runtime.sync.system import make_system
from repro.runtime.timed import LinearClock
from repro.testing import reference_sync_run

from clock import Clock


def derive(seed: int, *parts: Any) -> int:
    """A 31-bit seed for one input, from the workload seed and a tag."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


@dataclass
class Outcome:
    """What one operation produced, after its check."""

    items: int  # attempts, witnesses or refutations attempted
    #: ``(start, end, items)`` intervals on the workload's clock; each
    #: item's latency is its interval's time divided by its item count.
    spans: list[tuple[float, float, int]]
    result: Any  # canonical JSON, folded into the output digest
    failed: int = 0  # items whose output failed the check
    errors: list[str] = field(default_factory=list)


@dataclass
class LayerStats:
    """Counts the benchmark reads from objects it owns (no tracing)."""

    memo_hits: int = 0
    memo_misses: int = 0
    memo_entries: int = 0  # largest cache seen at the end of a campaign
    campaigns_broken: int = 0
    attempts_to_break: int = 0  # summed over broken campaigns
    shrink_steps: int = 0  # deletions the shrinker kept

    def absorb_cache(self, cache: BehaviorCache) -> None:
        stats = cache.stats()
        self.memo_hits += stats["hits"]
        self.memo_misses += stats["misses"]
        self.memo_entries = max(self.memo_entries, stats["size"])


class Workload:
    name = ""
    #: Leading operations whose results make up the output digest.
    digest_ops = 1
    #: Operations per second of ``--seconds`` in the traced run's fixed set.
    trace_ops_per_s = 1.0
    #: Untimed warm-up operations, indexed below zero.
    warmup_ops = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.stats = LayerStats()
        self.clock = Clock()

    def op(self, index: int) -> Any:
        """The JSON-able input of operation ``index``; ``-1`` is the
        untimed warm-up, outside the timed set."""
        raise NotImplementedError

    def prepare(self, index: int) -> Callable[[], Any]:
        raise NotImplementedError

    def finish(self, index: int, raw: Any, start: float, end: float) -> Outcome:
        raise NotImplementedError

    def failure(self, error: str, start: float, end: float) -> Outcome:
        """The outcome of an operation that raised."""
        return Outcome(1, [(start, end, 1)], {"error": error}, 1, [error])

    def trace_ops(self, seconds: float) -> int:
        return max(self.digest_ops, math.ceil(seconds * self.trace_ops_per_s))

    def warmup(self) -> None:
        for index in range(-self.warmup_ops, 0):
            call = self.prepare(index)
            start = self.clock.now()
            raw = call()
            outcome = self.finish(index, raw, start, self.clock.now())
            if outcome.failed:
                raise RuntimeError(f"warm-up operation failed: {outcome.errors}")
        self.stats = LayerStats()

    def close(self) -> None:
        """Release what the workload holds on disk."""


# -- campaigns -------------------------------------------------------------

#: Attempts per latency sample: the parallel driver's merge unit at two jobs.
BLOCK = 8


class JournalClock:
    """A run-store shard stand-in that timestamps each journal append.

    ``run_campaign`` journals every attempt through its ``store``; this
    recorder keeps the verdicts and the time each landed, forwarding to
    a real shard when given one.  After every :data:`BLOCK` appends it
    calibrates the clock, so each block of attempts is bracketed by
    calibrations (their time is excluded from the clock).
    """

    def __init__(self, clock: Clock, shard: Any = None) -> None:
        self.clock = clock
        self.shard = shard
        self.records: dict[str, dict] = {}
        self.times: list[float] = []

    def get(self, item_key: str) -> dict | None:
        return None if self.shard is None else self.shard.get(item_key)

    def append(self, item_key: str, value: dict) -> None:
        if self.shard is not None:
            self.shard.append(item_key, value)
        self.records[item_key] = value
        self.times.append(self.clock.now())
        if len(self.times) % BLOCK == 0:
            self.clock.calibrate()

    def sync(self) -> None:
        if self.shard is not None:
            self.shard.sync()

    def spans(self, start: float) -> list[tuple[float, float, int]]:
        """One ``(start, end, attempts)`` interval per block of appends."""
        out = []
        previous = start
        for first in range(0, len(self.times), BLOCK):
            block = self.times[first : first + BLOCK]
            out.append((previous, block[-1], len(block)))
            previous = block[-1]
        return out


def sample_attempt(config: CampaignConfig, attempt: int):
    """Regenerate attempt ``attempt`` of a campaign from its seed.

    Mirrors the campaign's documented draw order (node faults, then the
    fault plan, then inputs, from one rng seeded ``"seed:attempt"``) so
    the check re-executes exactly the scenario the campaign ran.
    """
    rng = random.Random(f"{config.seed}:{attempt}")
    count = rng.randrange(config.max_node_faults + 1)
    nodes = rng.sample(sorted(config.graph.nodes, key=repr), count)
    node_faults = tuple(
        NodeFault(node, rng.choice(STRATEGIES), f"{config.seed}:{attempt}:{node}")
        for node in nodes
    )
    plan = sample_fault_plan(
        config.graph,
        config.rounds,
        config.max_link_faults,
        rng,
        kinds=config.link_kinds,
        seed=config.seed,
        value_pool=config.value_pool,
    )
    inputs = {
        u: rng.choice(config.value_pool)
        for u in sorted(config.graph.nodes, key=repr)
    }
    return node_faults, plan, inputs


def reference_verdict(config: CampaignConfig, inputs, node_faults, plan):
    """Run one configuration through the interpretive reference
    executor (not the compiled one the campaign uses) and check it."""
    graph = config.graph
    devices = dict(config.device_factory(graph))
    for nf in node_faults:
        devices[nf.node] = build_adversary(
            nf.kind,
            nf.node,
            devices[nf.node],
            graph,
            config.rounds,
            random.Random(nf.key),
            config.value_pool,
        )
    faulty = {nf.node for nf in node_faults}
    correct = [u for u in graph.nodes if u not in faulty]
    injector = SyncFaultInjector(plan)
    try:
        behavior = reference_sync_run(
            make_system(graph, devices, dict(inputs)), config.rounds, injector
        )
    except Exception:  # the campaign reports a crashing device as a violation
        return False, injector.trace
    verdict = config.spec.check(inputs, behavior.decisions(), correct)
    return verdict.ok, injector.trace


def eig_factory(graph: CommunicationGraph):
    return eig_devices(graph, 2)


class EigSurvive(Workload):
    """``repro campaign --protocol eig --graph complete:7 --faults 2
    --links 0 --attempts 600``, serial.  One operation is one attempt;
    the closed loop runs whole campaigns back to back, campaign ``i``
    seeded by ``op(i)`` (the workload seed itself for the first)."""

    name = "eig-survive"
    attempts = 600
    warmup_attempts = 16  # the warm-up is a short campaign: two pool batches
    checked_attempts = 6  # re-executed per campaign by the reference executor
    digest_ops = 1
    trace_ops_per_s = 0.1
    device_factory = staticmethod(eig_factory)

    def op(self, index: int) -> int:
        return self.seed if index == 0 else derive(self.seed, "campaign", index)

    def config(self, index: int) -> CampaignConfig:
        return CampaignConfig(
            graph=complete_graph(7),
            device_factory=self.device_factory,
            rounds=3,
            max_node_faults=2,
            max_link_faults=0,
            attempts=self.attempts if index >= 0 else self.warmup_attempts,
            seed=self.op(index),
        )

    def prepare(self, index: int) -> Callable[[], Any]:
        def call():
            config = self.config(index)
            cache = BehaviorCache()
            journal = JournalClock(self.clock)
            start = self.clock.now()
            result = run_campaign(config, cache=cache, store=journal)
            return config, cache, journal, start, result

        return call

    def failure(self, error: str, start: float, end: float) -> Outcome:
        return Outcome(
            self.attempts, [(start, end, self.attempts)], {"error": error},
            self.attempts, [error],
        )

    def finish(self, index: int, raw: Any, start: float, end: float) -> Outcome:
        config, cache, journal, campaign_start, result = raw
        self.stats.absorb_cache(cache)
        errors: list[str] = []
        oks = {
            int(key.split(":")[1]): bool(value["ok"])
            for key, value in journal.records.items()
        }
        bad = {a for a, ok in oks.items() if not ok}
        if result.broken or result.attempts != config.attempts:
            errors.append(f"campaign {config.seed} did not survive: {result.describe()}")
        if set(oks) != set(range(1, len(oks) + 1)):
            errors.append(f"campaign {config.seed}: journal is missing attempts")
        rng = random.Random(derive(config.seed, "check"))
        for attempt in sorted(rng.sample(sorted(oks), min(self.checked_attempts, len(oks)))):
            node_faults, plan, inputs = sample_attempt(config, attempt)
            ok, _ = reference_verdict(config, inputs, node_faults, plan)
            if ok != oks[attempt]:
                bad.add(attempt)
                errors.append(
                    f"campaign {config.seed} attempt {attempt}: reference "
                    f"verdict ok={ok}, campaign ok={oks[attempt]}"
                )
        failed = len(bad) or (1 if errors else 0)
        return Outcome(
            items=len(oks),
            spans=journal.spans(campaign_start),
            result={
                "seed": config.seed,
                "attempts": result.attempts,
                "verdict": result.describe(),
            },
            failed=failed,
            errors=errors,
        )


class EigSurvivePar(EigSurvive):
    """The same campaigns with ``--jobs 2 --checkpoint DIR``: attempts
    run through ``analysis.parallel`` and are journaled by
    ``analysis.runstore``.  Each campaign journals into a fresh
    checkpoint directory, which :meth:`close` deletes."""

    name = "eig-survive-par"
    jobs = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        runner = ParallelRunner(self.jobs)
        if not runner.parallel:
            raise RuntimeError(
                f"{self.name} needs {self.jobs} usable cores, but the "
                f"parallel driver would run serially: {runner.fallback_reason}"
            )
        self.cores = sorted(os.sched_getaffinity(0))[: self.jobs]
        self.checkpoint = workdir / "checkpoint"

    def prepare(self, index: int) -> Callable[[], Any]:
        # A fresh directory per campaign: a journal left by an earlier
        # run of the same campaign would be resumed, not re-executed.
        shutil.rmtree(self.checkpoint, ignore_errors=True)

        def call():
            config = self.config(index)
            store = RunStore(self.checkpoint)
            store.write_meta("campaign", config.seed, {"jobs": self.jobs})
            shard = store.shard(campaign_store_key(config))
            cache = BehaviorCache()
            journal = JournalClock(self.clock, shard)
            try:
                start = self.clock.now()
                result = run_campaign(
                    config, jobs=self.jobs, cache=cache, store=journal
                )
            finally:
                shard.close()
            return config, cache, journal, start, result

        return call

    def close(self) -> None:
        shutil.rmtree(self.checkpoint, ignore_errors=True)


def majority_factory(graph: CommunicationGraph):
    return {u: MajorityVoteDevice() for u in graph.nodes}


class NaiveShrink(Workload):
    """``repro campaign --protocol naive --graph complete:8 --faults 2
    --links 6 --rounds 5``, one campaign per derived seed.  One
    operation is one campaign from the call to a shrunk, replayed
    counterexample."""

    name = "naive-shrink"
    attempts = 200  # budget; every seed tried breaks well within it
    digest_ops = 20
    trace_ops_per_s = 25.0
    device_factory = staticmethod(majority_factory)

    def op(self, index: int) -> int:
        return derive(self.seed, "campaign", index)

    def config(self, index: int) -> CampaignConfig:
        return CampaignConfig(
            graph=complete_graph(8),
            device_factory=self.device_factory,
            rounds=5,
            max_node_faults=2,
            max_link_faults=6,
            attempts=self.attempts,
            seed=self.op(index),
        )

    def prepare(self, index: int) -> Callable[[], Any]:
        def call():
            config = self.config(index)
            cache = BehaviorCache()
            return config, cache, run_campaign(config, cache=cache)

        return call

    def finish(self, index: int, raw: Any, start: float, end: float) -> Outcome:
        config, cache, result = raw
        self.stats.absorb_cache(cache)
        errors = check_witness(config, result)
        if result.broken:
            self.stats.campaigns_broken += 1
            self.stats.attempts_to_break += result.attempts
            self.stats.shrink_steps += result.shrink_steps
        canonical = {"seed": config.seed, "attempts": result.attempts}
        if result.broken:
            canonical.update(
                steps=result.shrink_steps,
                found=counterexample_to_dict(result.found),
                shrunk=counterexample_to_dict(result.shrunk),
                trace=result.injection_trace.to_jsonable(),
            )
        return Outcome(1, [(start, end, 1)], canonical, 1 if errors else 0, errors)


def check_witness(config: CampaignConfig, result) -> list[str]:
    """The shrunk counterexample must still violate the spec under the
    reference executor, with the campaign's injection trace, and be
    1-minimal: dropping any single fault atom or faulty node passes."""
    if not result.broken:
        return [f"campaign {config.seed} found no violation"]
    shrunk = result.shrunk
    errors = []
    ok, trace = reference_verdict(config, shrunk.inputs, shrunk.node_faults, shrunk.plan)
    if ok:
        errors.append(f"campaign {config.seed}: shrunk witness passes on replay")
    if trace != result.injection_trace:
        errors.append(f"campaign {config.seed}: replayed injection trace differs")
    for i in range(shrunk.plan.size):
        ok, _ = reference_verdict(
            config, shrunk.inputs, shrunk.node_faults, shrunk.plan.without_atoms([i])
        )
        if not ok:
            errors.append(f"campaign {config.seed}: atom {i} is not needed")
    for i in range(len(shrunk.node_faults)):
        rest = shrunk.node_faults[:i] + shrunk.node_faults[i + 1 :]
        ok, _ = reference_verdict(config, shrunk.inputs, rest, shrunk.plan)
        if not ok:
            errors.append(f"campaign {config.seed}: faulty node {i} is not needed")
    return errors


# -- engines ---------------------------------------------------------------


_LOWER = LinearClock(1.0, 0.0)
_SETTING = SynchronizationSetting(
    p=LinearClock(1.0, 0.0),
    q=LinearClock(1.2, 0.0),
    lower=_LOWER,
    upper=LinearClock(1.0, 2.0),
    alpha=0.1,
    t_prime=1.0,
)


def _each(graph: CommunicationGraph, make: Callable[[], Any]) -> dict:
    return {u: make() for u in graph.nodes}


def _factories(graph: CommunicationGraph, make: Callable[[], Any]) -> dict:
    return {u: make for u in graph.nodes}


def _weak():
    return ExchangeOnceWeakDevice(decide_at=2.0)


def _fire(at: float):
    return lambda: RelayFireDevice(fire_at=at)


def _clock():
    return LowerEnvelopeClockDevice(_LOWER)


def _log_clock():
    return LowerEnvelopeClockDevice(Log2Envelope(shift=1.0))


#: ``(name, base graph builder, engine call on the relabelled graph)``.
#: The report's sixteen results, then Theorem 1 across graph sizes.  The
#: corollaries take no graph: they build their own fixed triangle.
ENGINES: list[tuple[str, Callable[[], CommunicationGraph] | None, Callable]] = [
    ("thm1-nodes", triangle,
     lambda g: core.refute_node_bound(g, _each(g, MajorityVoteDevice), 1, 3)),
    ("thm1-connectivity", diamond,
     lambda g: core.refute_connectivity(g, _each(g, MajorityVoteDevice), 1, 4)),
    ("thm2-nodes", triangle,
     lambda g: core.refute_weak_agreement(_factories(g, _weak), 1.0, 3.0, base=g)),
    ("thm2-connectivity", diamond,
     lambda g: core.refute_weak_agreement_connectivity(g, _factories(g, _weak), 1, 1.0, 3.0)),
    ("thm4-nodes", triangle,
     lambda g: core.refute_firing_squad(_factories(g, _fire(2.5)), 1.0, 3.0, base=g)),
    ("thm4-connectivity", diamond,
     lambda g: core.refute_firing_squad_connectivity(g, _factories(g, _fire(3.5)), 1, 1.0, 4.0)),
    ("thm5-nodes", triangle,
     lambda g: core.refute_simple_node_bound(g, _each(g, MidpointDevice), 1, 3)),
    ("thm5-connectivity", diamond,
     lambda g: core.refute_simple_connectivity(g, _each(g, MidpointDevice), 1, 4)),
    ("thm6-nodes", triangle,
     lambda g: core.refute_epsilon_delta(_each(g, MedianDevice), 0.25, 1.0, 1.0, 3, base=g)),
    ("thm6-connectivity", diamond,
     lambda g: core.refute_epsilon_delta_connectivity(
         g, _each(g, MedianDevice), 1, 0.25, 1.0, 1.0, 3)),
    ("thm8-nodes", triangle,
     lambda g: core.refute_clock_sync(_factories(g, _clock), _SETTING, base=g)),
    ("thm8-connectivity", diamond,
     lambda g: core.refute_clock_sync_connectivity(g, _factories(g, _clock), 1, _SETTING)),
    ("cor12", None,
     lambda g: core.corollary_12_linear_envelope(_factories(triangle(), _clock)).witness),
    ("cor13", None,
     lambda g: core.corollary_13_diverging_linear(_factories(triangle(), _clock)).witness),
    ("cor14", None,
     lambda g: core.corollary_14_offset_clocks(_factories(triangle(), _clock)).witness),
    ("cor15", None,
     lambda g: core.corollary_15_logarithmic(_factories(triangle(), _log_clock)).witness),
]
for _n in range(3, 13):
    ENGINES.append((
        f"node-bound-K{_n}",
        lambda n=_n: complete_graph(n),
        lambda g: core.refute_node_bound(
            g, _each(g, MajorityVoteDevice), math.ceil(len(g) / 3), 3
        ),
    ))
for _n, _offsets, _f in ((8, (1,), 1), (8, (1, 2), 2), (10, (1, 2), 2), (12, (1, 2, 3), 3)):
    ENGINES.append((
        f"connectivity-C{_n}{{{','.join(map(str, _offsets))}}}",
        lambda n=_n, o=_offsets: circulant(n, o),
        lambda g, f=_f: core.refute_connectivity(g, _each(g, MajorityVoteDevice), f, 4),
    ))


def relabel(graph: CommunicationGraph, label_seed: int) -> CommunicationGraph:
    """``graph`` with seeded fresh node names, so content-keyed caches
    see new content on every operation, as separate invocations would."""
    rng = random.Random(label_seed)
    names = [f"v{k}" for k in rng.sample(range(10**6), len(graph))]
    return graph.relabel(dict(zip(graph.nodes, names)))


class Engines(Workload):
    """Every engine once per pass, in a fixed order; one operation is
    one refutation.  The warm-up is one pass, so every engine's lazy
    imports are done before timing."""

    name = "engines"
    digest_ops = len(ENGINES)
    warmup_ops = len(ENGINES)
    trace_ops_per_s = float(len(ENGINES))

    def op(self, index: int) -> list:
        name = ENGINES[index % len(ENGINES)][0]
        return [name, derive(self.seed, "labels", index)]

    def prepare(self, index: int) -> Callable[[], Any]:
        name, label_seed = self.op(index)
        _, build, engine = ENGINES[index % len(ENGINES)]
        graph = relabel(build(), label_seed) if build is not None else None
        return lambda: (name, engine(graph))

    def finish(self, index: int, raw: Any, start: float, end: float) -> Outcome:
        name, witness = raw
        errors = []
        try:
            witness.require_found()
        except RuntimeError as exc:
            errors.append(f"{name}: {exc}")
        canonical = {
            "engine": name,
            "problem": witness.problem,
            "bound": witness.bound,
            "graph": sorted(map(str, witness.graph.nodes)),
            "max_faults": witness.max_faults,
            "checked": [
                [
                    c.label,
                    sorted(map(str, c.constructed.correct_nodes)),
                    c.verdict.ok,
                    sorted({v.condition for v in c.verdict.violations}),
                ]
                for c in witness.checked
            ],
        }
        return Outcome(1, [(start, end, 1)], canonical, 1 if errors else 0, errors)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (EigSurvive, EigSurvivePar, NaiveShrink, Engines)
}
