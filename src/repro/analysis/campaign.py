"""Deterministic adversary campaigns with counterexample shrinking.

A *campaign* stresses a protocol under a **combined** fault budget: up
to ``f`` faulty nodes (the existing Byzantine strategy devices) plus up
to ``k`` faulty links (a sampled :class:`~repro.runtime.faults.
FaultPlan`).  Each attempt is deterministic given ``(seed, attempt)``;
on a specification violation the failing configuration is shrunk
delta-debugging-style — greedily deleting fault atoms and faulty nodes
while the violation persists — down to a minimal counterexample that
replays exactly (same seed ⇒ identical injection trace).

The second half is *graceful-degradation* reporting: sweep the link
budget upward and record, per spec clause (agreement / validity /
termination), the first budget at which it breaks.  Together these grow
the repo from "the theorems' constructions" toward "as many failure
scenarios as you can imagine", with every run replayable.

Performance (PR 2): every attempt is deterministic given its content,
so :func:`execute_attempt` memoizes through a content-addressed
:class:`~repro.runtime.memo.BehaviorCache` — the shrinker's and
replayer's re-executions of identical ``(inputs, node faults, plan)``
configurations become cache hits — and :func:`run_campaign` /
:func:`degradation_frontier` accept ``jobs=N`` to fan attempts /
budget levels across a process pool with serial-identical results
(attempts are merged in index order; the first violating index wins,
exactly as in the serial scan).

Performance (PR 3): two further equivalence-gated reductions.
``orbit_dedup=True`` canonicalizes each sampled scenario under the
graph's automorphism group (:mod:`repro.graphs.automorphisms`) and
executes one representative per orbit, reusing only the spec's ok-bit
for the rest — the violating attempt itself is always re-executed for
shrinking, so results stay byte-identical.  (Requires a node-symmetric
device factory: every node gets behaviorally identical, label-
equivariant devices, as with the bundled majority/EIG factories.)
``incremental=True`` routes executions through a prefix-sharing
:class:`~repro.runtime.incremental.ExecutionTrie`, replaying shared
round prefixes — the shrinker's one-atom-deleted candidates being the
best case — from snapshots instead of re-running them.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any

from .. import obs
from ..graphs.automorphisms import OrbitIndex
from ..graphs.graph import CommunicationGraph, DirectedEdge, NodeId
from ..problems.byzantine import ByzantineAgreementSpec
from ..problems.spec import SpecVerdict, Violation
from ..runtime.faults import (
    FaultPlan,
    InjectionTrace,
    LinkFault,
    Partition,
    SyncFaultInjector,
    partition_between,
)
from ..runtime.incremental import ExecutionTrie, IncrementalContext
from ..runtime.memo import (
    BehaviorCache,
    fingerprint,
    graph_fingerprint,
    json_fingerprint,
    plan_fingerprint,
)
from ..runtime.plan import compile_sync_plan
from ..runtime.sync.behavior import SyncBehavior
from ..runtime.sync.device import SyncDevice
from ..runtime.sync.executor import run
from ..runtime.sync.system import make_system
from .adversary_search import STRATEGIES, build_adversary
from .parallel import ParallelRunner
from .runstore import (
    Shard,
    decode_payload,
    encode_payload,
    journaled_map,
    reusable,
    run_scope_payload,
)

DeviceFactory = Callable[[CommunicationGraph], Mapping[NodeId, SyncDevice]]

#: Link-fault kinds sampled by default.  All four primitives plus
#: partitions; corruption draws replacements from the value pool, which
#: well-formed protocols (e.g. EIG) must already tolerate from
#: Byzantine senders.
DEFAULT_LINK_KINDS = ("drop", "corrupt", "delay", "omit", "partition")

SPEC_CONDITIONS = ("agreement", "validity", "termination")


@dataclass(frozen=True)
class NodeFault:
    """One faulty node in a campaign attempt.  ``key`` seeds the
    strategy's private randomness, so the device can be rebuilt
    bit-identically during shrinking and replay."""

    node: NodeId
    kind: str
    key: str

    def describe(self) -> str:
        return f"{self.node}={self.kind}"


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs to run — and to be re-run."""

    graph: CommunicationGraph
    device_factory: DeviceFactory
    rounds: int
    max_node_faults: int = 0
    max_link_faults: int = 1
    attempts: int = 100
    seed: int = 0
    value_pool: tuple[Any, ...] = (0, 1)
    link_kinds: tuple[str, ...] = DEFAULT_LINK_KINDS
    spec: ByzantineAgreementSpec = field(default_factory=ByzantineAgreementSpec)

    def __post_init__(self) -> None:
        for name in ("max_node_faults", "max_link_faults", "attempts"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class Counterexample:
    """One failing configuration: inputs, faulty nodes, fault plan."""

    inputs: Mapping[NodeId, Any]
    node_faults: tuple[NodeFault, ...]
    plan: FaultPlan
    verdict: SpecVerdict
    attempt: int

    @property
    def cost(self) -> tuple[int, int]:
        """(faulty nodes, fault-plan atoms) — the shrinker minimizes
        this lexicographically by deletion."""
        return (len(self.node_faults), self.plan.size)

    def describe(self) -> str:
        nodes = (
            ", ".join(nf.describe() for nf in self.node_faults) or "none"
        )
        return (
            f"attempt {self.attempt}: faulty nodes [{nodes}]; "
            f"links: {self.plan.describe()}; "
            f"inputs {dict(self.inputs)}; {self.verdict.describe()}"
        )


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of a campaign: the first violation found (if any), its
    shrunk form, and the shrunk replay's injection trace."""

    config: CampaignConfig
    attempts: int
    found: Counterexample | None
    shrunk: Counterexample | None
    shrink_steps: int = 0
    injection_trace: InjectionTrace | None = None

    @property
    def broken(self) -> bool:
        return self.found is not None

    def describe(self) -> str:
        if not self.broken:
            return (
                f"protocol survived {self.attempts} campaign attempts "
                f"(budget: {self.config.max_node_faults} nodes + "
                f"{self.config.max_link_faults} links)"
            )
        assert self.found is not None and self.shrunk is not None
        return (
            f"broken: {self.found.describe()}\n"
            f"shrunk ({self.shrink_steps} deletions): "
            f"{self.shrunk.describe()}"
        )


# -- deterministic sampling ------------------------------------------------


def _sample_link_fault(
    edge: DirectedEdge,
    kind: str,
    rounds: int,
    rng: random.Random,
) -> LinkFault:
    start = rng.randrange(rounds)
    end = rng.randrange(start + 1, rounds + 1)
    if kind == "delay":
        return LinkFault(
            edge, "delay", start, end, delay=rng.randrange(1, rounds + 1)
        )
    if kind == "omit":
        period = rng.randrange(2, max(3, rounds + 1))
        burst = rng.randrange(1, period)
        return LinkFault(edge, "omit", start, end, burst=burst, period=period)
    return LinkFault(edge, kind, start, end)


def sample_fault_plan(
    graph: CommunicationGraph,
    rounds: int,
    max_link_faults: int,
    rng: random.Random,
    kinds: Sequence[str] = DEFAULT_LINK_KINDS,
    seed: int = 0,
    value_pool: tuple[Any, ...] = (0, 1),
) -> FaultPlan:
    """Sample a fault plan touching at most ``max_link_faults`` links.

    A sampled partition spends its whole edge-cut against the link
    budget, so plans containing one are only drawn when the budget
    affords the cut.
    """
    edges = sorted(graph.edges, key=repr)
    budget = rng.randrange(max_link_faults + 1) if edges else 0
    link_faults: list[LinkFault] = []
    partitions: list[Partition] = []
    used: set[DirectedEdge] = set()
    for _ in range(8 * budget + 8):  # bounded draws: partitions may not fit
        if len(used) >= budget:
            break
        kind = rng.choice(tuple(kinds))
        if kind == "partition":
            side = rng.sample(
                sorted(graph.nodes, key=repr),
                rng.randrange(1, len(graph.nodes)),
            )
            start = rng.randrange(rounds)
            end = rng.randrange(start + 1, rounds + 1)
            cut = partition_between(graph, side, start, end)
            if not cut.edges or len(used | cut.edges) > budget:
                continue
            partitions.append(cut)
            used |= cut.edges
        else:
            candidates = [e for e in edges if e not in used]
            if not candidates:
                break
            edge = rng.choice(candidates)
            link_faults.append(_sample_link_fault(edge, kind, rounds, rng))
            used.add(edge)
    return FaultPlan(
        link_faults=tuple(link_faults),
        partitions=tuple(partitions),
        seed=seed,
        corrupt_pool=value_pool,
    )


def _sample_node_faults(
    config: CampaignConfig, attempt: int, rng: random.Random
) -> tuple[NodeFault, ...]:
    count = rng.randrange(config.max_node_faults + 1)
    nodes = rng.sample(sorted(config.graph.nodes, key=repr), count)
    return tuple(
        NodeFault(
            node=node,
            kind=rng.choice(STRATEGIES),
            key=f"{config.seed}:{attempt}:{node}",
        )
        for node in nodes
    )


# -- execution -------------------------------------------------------------


def _config_token(config: CampaignConfig) -> str:
    """Canonical fingerprint of the parts of a config that determine an
    attempt's outcome (graph shape, rounds, value pool, spec, and the
    device factory's source location).  Memoized on the config object.

    Two *distinct* factories defined on the same source line would
    collide, so sharing one :class:`BehaviorCache` across configs is
    only safe when their factories live at different definition sites;
    the default per-campaign cache is always safe.
    """
    token = config.__dict__.get("_memo_token")
    if token is None:
        factory = config.device_factory
        code = getattr(factory, "__code__", None)
        token = fingerprint(
            graph_fingerprint(config.graph),
            config.rounds,
            repr(config.value_pool),
            repr(config.spec),
            getattr(factory, "__module__", ""),
            getattr(factory, "__qualname__", repr(factory)),
            code.co_filename if code is not None else "",
            code.co_firstlineno if code is not None else -1,
        )
        config.__dict__["_memo_token"] = token
    return token


def campaign_store_key(config: CampaignConfig) -> str:
    """Content fingerprint naming a campaign's run-store shard.

    Covers everything that determines the attempt stream — graph shape,
    device factory, rounds, both fault budgets, attempt count, seed and
    link kinds — so a shared store directory hands each distinct
    campaign its own journal, and re-running the same campaign (even
    from a different process or ``--jobs`` value) finds its old one.
    """
    return json_fingerprint(
        {
            "kind": "campaign",
            "config": _config_token(config),
            "node_faults": config.max_node_faults,
            "link_faults": config.max_link_faults,
            "attempts": config.attempts,
            "seed": config.seed,
            "link_kinds": list(config.link_kinds),
        }
    )


def frontier_store_key(
    config: CampaignConfig,
    max_link_faults: int | None = None,
    attempts_per_level: int | None = None,
) -> str:
    """Content fingerprint naming a degradation-frontier shard.

    Applies the same defaulting as :func:`degradation_frontier`, so the
    key depends on the *effective* sweep bounds.
    """
    max_links = (
        config.max_link_faults if max_link_faults is None else max_link_faults
    )
    attempts = (
        config.attempts if attempts_per_level is None else attempts_per_level
    )
    return json_fingerprint(
        {
            "kind": "frontier",
            "config": _config_token(config),
            "node_faults": config.max_node_faults,
            "max_links": max_links,
            "attempts_per_level": attempts,
            "seed": config.seed,
            "link_kinds": list(config.link_kinds),
        }
    )


def _attempt_key(
    config: CampaignConfig,
    inputs: Mapping[NodeId, Any],
    node_faults: Sequence[NodeFault],
    plan: FaultPlan,
) -> str:
    """Content-addressed key of one fully specified attempt."""
    return fingerprint(
        _config_token(config),
        tuple(sorted((str(u), repr(v)) for u, v in inputs.items())),
        tuple((str(nf.node), nf.kind, nf.key) for nf in node_faults),
        plan_fingerprint(plan),
    )


def _context_key(
    config: CampaignConfig,
    inputs: Mapping[NodeId, Any],
    node_faults: Sequence[NodeFault],
) -> str:
    """Content key of an *execution context* — everything but the fault
    plan.  Attempts sharing a context run on one compiled system (and
    one execution trie); plans are what vary underneath it."""
    return fingerprint(
        _config_token(config),
        tuple(sorted((str(u), repr(v)) for u, v in inputs.items())),
        tuple((str(nf.node), nf.kind, nf.key) for nf in node_faults),
    )


def _build_system(
    config: CampaignConfig,
    inputs: Mapping[NodeId, Any],
    node_faults: Sequence[NodeFault],
):
    """The synchronous system for one attempt: factory devices with the
    faulty nodes' devices swapped for rebuilt-bit-identical adversaries."""
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
    return make_system(graph, devices, dict(inputs))


def execute_attempt(
    config: CampaignConfig,
    inputs: Mapping[NodeId, Any],
    node_faults: Sequence[NodeFault],
    plan: FaultPlan,
    cache: BehaviorCache | None = None,
    incremental: IncrementalContext | None = None,
) -> tuple[SyncBehavior, SpecVerdict, InjectionTrace]:
    """Run one fully specified configuration and check the spec.

    This is the single entry point used by search, shrinking, replay
    and the frontier sweep, so all four see byte-identical executions.
    A device that crashes on injected garbage is itself a robustness
    finding and is reported as an ``execution`` violation rather than
    as a campaign error.

    With a ``cache``, the attempt is keyed by its *content* — inputs,
    node faults, fault plan, and the config's fingerprint — and a
    repeat execution (the shrinker and replayer produce many) returns
    the cached ``(behavior, verdict, trace)`` without re-running.
    Determinism makes this sound: equal content ⇒ equal results.

    With an ``incremental`` context, cache misses execute through the
    context's :class:`~repro.runtime.incremental.ExecutionTrie` for
    this attempt's (config, inputs, node faults): rounds on which this
    plan acts like an earlier plan are replayed from snapshots, and
    only the divergent suffix actually runs.  The behavior, verdict
    and trace are byte-identical to the plain path (golden-tested).
    """
    if cache is not None:
        key = _attempt_key(config, inputs, node_faults, plan)
        if obs.is_enabled():
            # Telemetry-transparent caching: traced entries carry the
            # run-scope events of the original execution, replayed on
            # every hit, so the trace never depends on cache warmth.
            # The hit/miss facts are host-scope.
            okey = key + ":obs"
            entry = cache.get(okey)
            if entry is not None:
                result, payload = entry
                obs.emit(obs.CACHE_HIT, cache="attempt", op="execute")
                obs.replay(payload)
                return result
            obs.emit(obs.CACHE_MISS, cache="attempt", op="execute")
            with obs.capture() as capsule:
                result = _execute_attempt_uncached(
                    config, inputs, node_faults, plan, incremental
                )
            obs.replay(capsule.payload())
            cache.put(okey, (result, capsule.run_payload()))
            return result
        hit = cache.get(key)
        if hit is not None:
            return hit
        result = _execute_attempt_uncached(
            config, inputs, node_faults, plan, incremental
        )
        cache.put(key, result)
        return result
    return _execute_attempt_uncached(
        config, inputs, node_faults, plan, incremental
    )


def _execute_attempt_uncached(
    config: CampaignConfig,
    inputs: Mapping[NodeId, Any],
    node_faults: Sequence[NodeFault],
    plan: FaultPlan,
    incremental: IncrementalContext | None = None,
) -> tuple[SyncBehavior, SpecVerdict, InjectionTrace]:
    graph = config.graph
    faulty_nodes = {nf.node for nf in node_faults}
    correct = [u for u in graph.nodes if u not in faulty_nodes]

    if incremental is not None:
        ctx_key = _context_key(config, inputs, node_faults)
        trie = incremental.get(ctx_key)
        if trie is None:
            system = _build_system(config, inputs, node_faults)
            trie = ExecutionTrie(compile_sync_plan(system))
            incremental.put(ctx_key, trie)
        staged = trie.prepare(plan, config.rounds)
        try:
            behavior = staged.execute()
        except Exception as exc:  # devices choking on injected garbage
            verdict = _execution_violation(exc, correct)
            empty = SyncBehavior(graph=graph, rounds=0)
            result = (empty, verdict, staged.trace)
        else:
            verdict = config.spec.check(inputs, behavior.decisions(), correct)
            result = (behavior, verdict, staged.trace)
        return result

    injector = SyncFaultInjector(plan)
    system = _build_system(config, inputs, node_faults)
    try:
        behavior = run(system, config.rounds, injector)
    except Exception as exc:  # devices choking on injected garbage
        verdict = _execution_violation(exc, correct)
        empty = SyncBehavior(graph=graph, rounds=0)
        result = (empty, verdict, injector.trace)
    else:
        verdict = config.spec.check(inputs, behavior.decisions(), correct)
        result = (behavior, verdict, injector.trace)
    return result


def _execution_violation(exc: Exception, correct: Sequence[NodeId]) -> SpecVerdict:
    return SpecVerdict(
        (
            Violation(
                "execution",
                f"run crashed under injected faults: {exc}",
                tuple(correct),
            ),
        )
    )


def replay_counterexample(
    config: CampaignConfig,
    counterexample: Counterexample,
    cache: BehaviorCache | None = None,
    incremental: IncrementalContext | None = None,
) -> tuple[SyncBehavior, SpecVerdict, InjectionTrace]:
    """Re-run a counterexample exactly; deterministic by construction."""
    return execute_attempt(
        config,
        counterexample.inputs,
        counterexample.node_faults,
        counterexample.plan,
        cache,
        incremental,
    )


# -- shrinking -------------------------------------------------------------


def shrink_counterexample(
    config: CampaignConfig,
    found: Counterexample,
    cache: BehaviorCache | None = None,
    incremental: IncrementalContext | None = None,
) -> tuple[Counterexample, int]:
    """Greedy delta debugging: repeatedly delete one fault atom or one
    faulty node while the spec still breaks; stop at a local minimum.

    Returns the minimal counterexample and the number of successful
    deletions.  The result is *1-minimal*: removing any single
    remaining fault makes the violation disappear.  A ``cache`` makes
    the re-executed overlap between shrink iterations (and the final
    replay) free; an ``incremental`` context makes even the *novel*
    candidates cheap — deleting one atom leaves every round before the
    atom's window byte-identical, so those rounds replay from the
    execution trie's snapshots.
    """
    shrink_t0 = perf_counter()
    current = found
    steps = 0
    progress = True
    while progress:
        progress = False
        for i in range(current.plan.size):
            candidate_plan = current.plan.without_atoms([i])
            _, verdict, _ = execute_attempt(
                config, current.inputs, current.node_faults, candidate_plan,
                cache, incremental,
            )
            if not verdict.ok:
                current = Counterexample(
                    inputs=current.inputs,
                    node_faults=current.node_faults,
                    plan=candidate_plan,
                    verdict=verdict,
                    attempt=current.attempt,
                )
                steps += 1
                progress = True
                obs.emit(
                    obs.SHRINK_STEP,
                    attempt=current.attempt,
                    deleted="atom",
                    atoms=current.plan.size,
                    nodes=len(current.node_faults),
                )
                break
        if progress:
            continue
        for i in range(len(current.node_faults)):
            candidate_nodes = (
                current.node_faults[:i] + current.node_faults[i + 1 :]
            )
            _, verdict, _ = execute_attempt(
                config, current.inputs, candidate_nodes, current.plan, cache,
                incremental,
            )
            if not verdict.ok:
                current = Counterexample(
                    inputs=current.inputs,
                    node_faults=candidate_nodes,
                    plan=current.plan,
                    verdict=verdict,
                    attempt=current.attempt,
                )
                steps += 1
                progress = True
                obs.emit(
                    obs.SHRINK_STEP,
                    attempt=current.attempt,
                    deleted="node",
                    atoms=current.plan.size,
                    nodes=len(current.node_faults),
                )
                break
    obs.observe_span("campaign.shrink", perf_counter() - shrink_t0)
    return (current, steps)


# -- the campaign ----------------------------------------------------------


@dataclass
class SearchStats:
    """Out-parameter collecting the optimization machinery a campaign
    actually used, so callers (``repro campaign --cache-stats``) can
    print hit/miss counters afterwards.  Deliberately **not** part of
    :class:`CampaignResult`: results stay byte-identical with and
    without the optimizations, counters don't.
    """

    cache: BehaviorCache | None = None
    orbit_index: OrbitIndex | None = None
    incremental: IncrementalContext | None = None

    def describe(self) -> str:
        """Render the ``--cache-stats`` block.

        Since the observability subsystem landed, the counters are
        folded into a :class:`~repro.obs.MetricsRegistry` (the live
        one when telemetry is on, a throwaway otherwise) and rendered
        from its gauges — same strings as before, one source of truth.
        """
        from ..obs import MetricsRegistry, describe_search_stats, get_registry

        registry = get_registry()
        if registry is None:
            registry = MetricsRegistry()
        return describe_search_stats(registry, self)


def _sample_attempt(
    config: CampaignConfig, attempt: int
) -> tuple[tuple[NodeFault, ...], FaultPlan, dict[NodeId, Any]]:
    """The deterministic sample for one attempt index.

    One private rng stream per attempt (seeded by ``(seed, attempt)``),
    so any attempt can be regenerated in isolation — the property the
    parallel driver and the replayer both rely on.  Draw order (node
    faults, then plan, then inputs) is part of the format and must not
    change.
    """
    rng = random.Random(f"{config.seed}:{attempt}")
    node_faults = _sample_node_faults(config, attempt, rng)
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
    return (node_faults, plan, inputs)


def _finish_campaign(
    config: CampaignConfig,
    attempt: int,
    cache: BehaviorCache | None,
    incremental: IncrementalContext | None = None,
) -> CampaignResult:
    """Shrink and replay the violation at ``attempt`` (known to break).

    Always re-executes the real attempt — even when orbit dedup only
    reused a verdict bit for it — so the found/shrunk counterexamples
    and the trace come from an actual run of *this* configuration.
    """
    node_faults, plan, inputs = _sample_attempt(config, attempt)
    _, verdict, _ = execute_attempt(
        config, inputs, node_faults, plan, cache, incremental
    )
    found = Counterexample(
        inputs=inputs,
        node_faults=node_faults,
        plan=plan,
        verdict=verdict,
        attempt=attempt,
    )
    shrunk, steps = shrink_counterexample(config, found, cache, incremental)
    _, _, trace = replay_counterexample(config, shrunk, cache, incremental)
    return CampaignResult(
        config=config,
        attempts=attempt,
        found=found,
        shrunk=shrunk,
        shrink_steps=steps,
        injection_trace=trace,
    )


def run_campaign(
    config: CampaignConfig,
    jobs: int = 1,
    cache: BehaviorCache | None = None,
    memoize: bool = True,
    orbit_dedup: bool = False,
    incremental: "IncrementalContext | bool | None" = None,
    stats: SearchStats | None = None,
    store: Shard | None = None,
) -> CampaignResult:
    """Sample attempts under the combined budget until a spec violation
    appears (then shrink it) or the attempt budget is exhausted.

    ``jobs > 1`` streams attempt evaluation through one process pool;
    the smallest violating attempt index wins, so the result
    (including the shrunk counterexample and its trace) is identical
    to the serial scan.  ``cache`` (created fresh when ``memoize`` and
    not supplied) memoizes every execution by content — pass your own
    :class:`~repro.runtime.memo.BehaviorCache` to read hit/miss
    statistics afterwards, or ``memoize=False`` to measure uncached
    cost.

    ``orbit_dedup=True`` executes one representative scenario per
    automorphism orbit and maps the spec's ok-bit back to the orbit's
    other members (sound for node-symmetric device factories; see the
    module docstring).  ``incremental`` (``True`` for a fresh context,
    or a shared :class:`~repro.runtime.incremental.IncrementalContext`)
    replays shared round prefixes from snapshots.  Neither changes the
    result.  Pass a :class:`SearchStats` as ``stats`` to receive the
    cache/orbit/trie objects for counter inspection afterwards.

    ``store`` (a :class:`~repro.analysis.runstore.Shard`, usually
    obtained via :func:`campaign_store_key`) journals every completed
    attempt's verdict — plus its run-scope events when telemetry is on
    — and skips attempts already journaled by an earlier, interrupted
    process.  Resumed runs replay the journaled events, so results,
    witnesses, traces and ``run.*`` metrics are byte-identical to an
    uninterrupted run (checkpoint reuse facts are host-scope only).
    """
    if cache is None and memoize:
        cache = BehaviorCache()
    if isinstance(incremental, bool):
        incremental = IncrementalContext() if incremental else None
    orbit_index = OrbitIndex(config.graph) if orbit_dedup else None
    if stats is not None:
        stats.cache = cache
        stats.orbit_index = orbit_index
        stats.incremental = incremental
    if jobs > 1:
        return _run_campaign_parallel(
            config, jobs, cache, orbit_index, incremental, store
        )
    orbit_ok: dict[str, bool] = {}
    obs_on = obs.is_enabled()

    def attempt_body(attempt: int) -> bool:
        """One attempt's deterministic work, emitting its run events."""
        node_faults, plan, inputs = _sample_attempt(config, attempt)
        if orbit_index is not None:
            key = orbit_index.canonical_key(
                inputs, node_faults, plan, config.value_pool
            )
            if orbit_index.record(key):
                obs.emit(obs.ORBIT_REUSE, attempt=attempt)
                return orbit_ok[key]
            _, verdict, _ = execute_attempt(
                config, inputs, node_faults, plan, cache, incremental
            )
            orbit_ok[key] = verdict.ok
            return verdict.ok
        _, verdict, _ = execute_attempt(
            config, inputs, node_faults, plan, cache, incremental
        )
        return verdict.ok

    for attempt in range(1, config.attempts + 1):
        item_key = f"attempt:{attempt}"
        record = store.get(item_key) if store is not None else None
        if obs_on:
            attempt_t0 = perf_counter()
            obs.emit(obs.ATTEMPT_START, attempt=attempt)
        if reusable(record):
            # Journaled by an earlier process: replay its recorded
            # run-scope events instead of re-executing, and rebuild the
            # orbit bookkeeping so later *fresh* attempts dedup exactly
            # as the uninterrupted run would have.
            ok = _replay_record(item_key, record)
            if orbit_index is not None:
                node_faults, plan, inputs = _sample_attempt(config, attempt)
                key = orbit_index.canonical_key(
                    inputs, node_faults, plan, config.value_pool
                )
                orbit_index.record(key)
                orbit_ok[key] = ok
        elif store is not None and obs_on:
            with obs.capture() as capsule:
                ok = attempt_body(attempt)
            payload = capsule.payload()
            obs.replay(payload)
            store.append(
                item_key,
                {
                    "ok": ok,
                    "obs": encode_payload(run_scope_payload(payload)),
                },
            )
        else:
            ok = attempt_body(attempt)
            if store is not None:
                store.append(item_key, {"ok": ok})
        if obs_on:
            obs.emit(obs.ATTEMPT_END, attempt=attempt, ok=ok)
            obs.observe_span("campaign.attempt", perf_counter() - attempt_t0)
        if not ok:
            if store is not None:
                store.sync()
            return _finish_campaign(config, attempt, cache, incremental)
    if store is not None:
        store.sync()
    return CampaignResult(
        config=config, attempts=config.attempts, found=None, shrunk=None
    )


def _run_campaign_parallel(
    config: CampaignConfig,
    jobs: int,
    cache: BehaviorCache | None,
    orbit_index: OrbitIndex | None = None,
    incremental: IncrementalContext | None = None,
    store: Shard | None = None,
) -> CampaignResult:
    """Parallel attempt scan on one fork pool per campaign.  Workers
    return only ``(attempt, spec ok)`` — small, picklable, and free of
    the config's (unpicklable) device factory, which the forked
    children inherit by memory instead.  Shrinking stays in the parent,
    warmed by the parent-side cache.

    Without orbit dedup every unjournaled attempt streams through the
    pool in index order; the parent merges as results arrive and stops
    at the first violation, like the serial scan, terminating workers
    that ran ahead.  With orbit dedup, sampling and canonicalization
    happen in the parent, batch by batch: only one representative per
    unseen orbit is dispatched (to the same pool), and the ok-bits map
    back to every member in index order — so the first violating index
    is the same one the serial scan finds.

    A ``store`` shard filters journaled attempts out of the dispatch
    and journals fresh attempts as they merge (in index order, stopping
    at the first violation — exactly the set the serial scan would
    journal), with an fsync every ``max(4 * jobs, 8)`` attempts, at the
    violation and at the end.  The journal key is the attempt index, so
    a run checkpointed at one ``--jobs`` value resumes correctly at any
    other.
    """

    def probe(attempt: int) -> tuple[int, bool]:
        node_faults, plan, inputs = _sample_attempt(config, attempt)
        _, verdict, _ = execute_attempt(config, inputs, node_faults, plan)
        return (attempt, verdict.ok)

    def journal(item_key: str, ok: bool, payload: tuple) -> None:
        if store is None:
            return
        value: dict[str, Any] = {"ok": ok}
        if obs.is_enabled():
            value["obs"] = encode_payload(run_scope_payload(payload))
        store.append(item_key, value)

    runner = ParallelRunner(jobs)
    batch = max(4 * runner.jobs, 8)
    attempts = range(1, config.attempts + 1)
    records: dict[int, dict] = {}
    if store is not None:
        for attempt in attempts:
            rec = store.get(f"attempt:{attempt}")
            if reusable(rec):
                records[attempt] = rec  # type: ignore[assignment]
    first_bad: int | None = None
    with runner.pool(probe) as pool:
        if orbit_index is None:
            # Workers capture each attempt's telemetry; the parent
            # replays the payloads in index order and brackets them
            # with the attempt events.  Results past the first
            # violation are never consumed, so their events are
            # discarded with the pool.
            fresh = pool.imap_captured(a for a in attempts if a not in records)
            for attempt in attempts:
                item_key = f"attempt:{attempt}"
                obs.emit(obs.ATTEMPT_START, attempt=attempt)
                if attempt in records:
                    ok = _replay_record(item_key, records[attempt])
                else:
                    (_, ok), payload = next(fresh)
                    obs.replay(payload)
                    journal(item_key, ok, payload)
                obs.emit(obs.ATTEMPT_END, attempt=attempt, ok=ok)
                if store is not None and (
                    not ok or attempt % batch == 0 or attempt == config.attempts
                ):
                    store.sync()
                if not ok:
                    first_bad = attempt
                    break
        else:
            orbit_ok: dict[str, bool] = {}
            for lo in range(1, config.attempts + 1, batch):
                indices = range(lo, min(lo + batch, config.attempts + 1))
                keys: dict[int, str] = {}
                representatives: list[int] = []
                dispatched: set[str] = set()
                for attempt in indices:
                    node_faults, plan, inputs = _sample_attempt(config, attempt)
                    key = orbit_index.canonical_key(
                        inputs, node_faults, plan, config.value_pool
                    )
                    keys[attempt] = key
                    if attempt in records:
                        # A journaled attempt's verdict seeds its orbit, so
                        # fresh members of the same orbit are not
                        # re-dispatched — matching the uninterrupted run.
                        orbit_ok.setdefault(key, bool(records[attempt]["ok"]))
                        continue
                    if key not in orbit_ok and key not in dispatched:
                        representatives.append(attempt)
                        dispatched.add(key)
                rep_payloads: dict[int, tuple] = {}
                for (attempt, ok), payload in pool.imap_captured(representatives):
                    orbit_ok[keys[attempt]] = ok
                    rep_payloads[attempt] = payload
                for attempt in indices:
                    item_key = f"attempt:{attempt}"
                    obs.emit(obs.ATTEMPT_START, attempt=attempt)
                    if attempt in records:
                        ok = _replay_record(item_key, records[attempt])
                        orbit_index.record(keys[attempt])
                    elif store is not None and obs.is_enabled():
                        # Capture the merge body so the journal records the
                        # same run events a serial execution of this attempt
                        # emits (the representative's payload, or the orbit
                        # reuse event).
                        with obs.capture() as capsule:
                            orbit_index.record(keys[attempt])
                            if attempt in rep_payloads:
                                obs.replay(rep_payloads[attempt])
                            else:
                                obs.emit(obs.ORBIT_REUSE, attempt=attempt)
                        payload = capsule.payload()
                        obs.replay(payload)
                        ok = orbit_ok[keys[attempt]]
                        journal(item_key, ok, payload)
                    else:
                        orbit_index.record(keys[attempt])
                        if attempt in rep_payloads:
                            obs.replay(rep_payloads[attempt])
                        else:
                            obs.emit(obs.ORBIT_REUSE, attempt=attempt)
                        ok = orbit_ok[keys[attempt]]
                        journal(item_key, ok, ())
                    obs.emit(obs.ATTEMPT_END, attempt=attempt, ok=ok)
                    if not ok:
                        first_bad = attempt
                        break
                if store is not None:
                    store.sync()
                if first_bad is not None:
                    break
    if first_bad is None:
        return CampaignResult(
            config=config, attempts=config.attempts, found=None, shrunk=None
        )
    return _finish_campaign(config, first_bad, cache, incremental)


def _replay_record(item_key: str, record: dict) -> bool:
    """Replay a journaled attempt's recorded run events; its verdict."""
    obs.emit(obs.CHECKPOINT_REUSE, item=item_key)
    obs.replay(decode_payload(record.get("obs", ())))
    return bool(record["ok"])


# -- graceful degradation --------------------------------------------------


@dataclass(frozen=True)
class FrontierRow:
    """One budget level of a degradation sweep."""

    link_budget: int
    attempts: int
    broken_conditions: tuple[str, ...]
    example: Counterexample | None

    def as_tuple(self) -> tuple:
        return (
            self.link_budget,
            self.attempts,
            ", ".join(self.broken_conditions) or "-",
        )


FRONTIER_HEADERS = ("links", "attempts", "first-broken conditions")


@dataclass(frozen=True)
class DegradationFrontier:
    """Where each spec clause first breaks as the link budget grows."""

    rows: tuple[FrontierRow, ...]
    first_break: Mapping[str, int | None]

    def describe(self) -> str:
        lines = []
        for condition in sorted(self.first_break):
            budget = self.first_break[condition]
            if budget is None:
                lines.append(f"{condition}: never broken within the sweep")
            else:
                lines.append(f"{condition}: first broken at {budget} links")
        return "\n".join(lines)


def degradation_frontier(
    config: CampaignConfig,
    max_link_faults: int | None = None,
    attempts_per_level: int | None = None,
    jobs: int = 1,
    cache: BehaviorCache | None = None,
    orbit_dedup: bool = False,
    incremental: "IncrementalContext | bool | None" = None,
    store: Shard | None = None,
) -> DegradationFrontier:
    """Sweep the link budget 0..max and report, per spec clause, the
    smallest budget at which a campaign finds a violation of it.

    Budget levels are independent campaigns, so ``jobs > 1`` evaluates
    them across a process pool; rows come back in budget order and the
    ``first_break`` fold runs over them exactly as the serial loop
    did, so the frontier is identical either way.  ``orbit_dedup`` and
    ``incremental`` are forwarded to every level's campaign (results
    unchanged; see :func:`run_campaign`).

    A ``store`` shard (see :func:`frontier_store_key`) journals each
    completed budget level — row, shrunk example, and run-scope events
    — so an interrupted sweep resumes from the first unfinished level
    with byte-identical output.
    """
    max_links = (
        config.max_link_faults if max_link_faults is None else max_link_faults
    )
    attempts = (
        config.attempts if attempts_per_level is None else attempts_per_level
    )

    def level_row(budget: int) -> FrontierRow:
        probe_t0 = perf_counter()
        level = CampaignConfig(
            graph=config.graph,
            device_factory=config.device_factory,
            rounds=config.rounds,
            max_node_faults=config.max_node_faults,
            max_link_faults=budget,
            attempts=attempts,
            seed=config.seed,
            value_pool=config.value_pool,
            link_kinds=config.link_kinds,
            spec=config.spec,
        )
        result = run_campaign(
            level,
            cache=cache,
            orbit_dedup=orbit_dedup,
            incremental=incremental,
        )
        broken: tuple[str, ...] = ()
        if result.broken:
            assert result.shrunk is not None
            broken = tuple(
                dict.fromkeys(
                    v.condition for v in result.shrunk.verdict.violations
                )
            )
        obs.emit(
            obs.FRONTIER_LEVEL,
            budget=budget,
            attempts=attempts,
            broken=", ".join(broken) or "-",
        )
        obs.observe_span("frontier.probe", perf_counter() - probe_t0)
        return FrontierRow(
            link_budget=budget,
            attempts=attempts,
            broken_conditions=broken,
            example=result.shrunk,
        )

    runner = ParallelRunner(jobs)
    rows = journaled_map(
        runner,
        level_row,
        range(max_links + 1),
        store,
        key_fn=lambda budget: f"level:{budget}",
        encode=_frontier_row_to_jsonable,
        decode=lambda data: _frontier_row_from_jsonable(data, config.graph),
    )
    first_break: dict[str, int | None] = dict.fromkeys(SPEC_CONDITIONS)
    for row in rows:
        for condition in row.broken_conditions:
            if first_break.get(condition) is None:
                first_break[condition] = row.link_budget
    return DegradationFrontier(
        rows=tuple(rows), first_break=first_break
    )


# -- persistence (one-command reproduction) --------------------------------


def counterexample_to_dict(ce: Counterexample) -> dict[str, Any]:
    return {
        "attempt": ce.attempt,
        "inputs": [[str(u), v] for u, v in sorted(
            ce.inputs.items(), key=lambda kv: str(kv[0])
        )],
        "node_faults": [
            {"node": str(nf.node), "kind": nf.kind, "key": nf.key}
            for nf in ce.node_faults
        ],
        "plan": ce.plan.to_dict(),
        "verdict": ce.verdict.describe(),
    }


def counterexample_from_dict(
    data: dict[str, Any], graph: CommunicationGraph
) -> Counterexample:
    by_name = {str(u): u for u in graph.nodes}
    inputs = {by_name[name]: value for name, value in data["inputs"]}
    node_faults = tuple(
        NodeFault(
            node=by_name[nf["node"]], kind=nf["kind"], key=nf["key"]
        )
        for nf in data["node_faults"]
    )
    plan = FaultPlan.from_dict(data["plan"], graph)
    return Counterexample(
        inputs=inputs,
        node_faults=node_faults,
        plan=plan,
        verdict=SpecVerdict(),
        attempt=data.get("attempt", 0),
    )


def _frontier_row_to_jsonable(row: FrontierRow) -> dict[str, Any]:
    """A lossless JSON form of one frontier row (for run-store
    journaling) — including the shrunk example's verdict, which
    :func:`counterexample_to_dict` alone keeps only as prose."""
    data: dict[str, Any] = {
        "links": row.link_budget,
        "attempts": row.attempts,
        "broken": list(row.broken_conditions),
        "example": None,
    }
    if row.example is not None:
        example = counterexample_to_dict(row.example)
        example["violations"] = [
            {
                "condition": v.condition,
                "detail": v.detail,
                "nodes": [str(n) for n in v.nodes],
            }
            for v in row.example.verdict.violations
        ]
        data["example"] = example
    return data


def _frontier_row_from_jsonable(
    data: dict[str, Any], graph: CommunicationGraph
) -> FrontierRow:
    """Inverse of :func:`_frontier_row_to_jsonable`."""
    example = None
    if data.get("example") is not None:
        example = counterexample_from_dict(data["example"], graph)
        by_name = {str(u): u for u in graph.nodes}
        verdict = SpecVerdict(
            tuple(
                Violation(
                    v["condition"],
                    v["detail"],
                    tuple(by_name[name] for name in v["nodes"]),
                )
                for v in data["example"].get("violations", ())
            )
        )
        example = replace(example, verdict=verdict)
    return FrontierRow(
        link_budget=data["links"],
        attempts=data["attempts"],
        broken_conditions=tuple(data["broken"]),
        example=example,
    )


def _frontier_to_jsonable(frontier: DegradationFrontier) -> dict[str, Any]:
    return {
        "first_break": dict(frontier.first_break),
        "rows": [
            {
                "links": row.link_budget,
                "attempts": row.attempts,
                "broken": list(row.broken_conditions),
            }
            for row in frontier.rows
        ],
    }


__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "Counterexample",
    "DEFAULT_LINK_KINDS",
    "DegradationFrontier",
    "FRONTIER_HEADERS",
    "FrontierRow",
    "NodeFault",
    "SearchStats",
    "campaign_store_key",
    "counterexample_from_dict",
    "counterexample_to_dict",
    "degradation_frontier",
    "execute_attempt",
    "frontier_store_key",
    "replay_counterexample",
    "run_campaign",
    "sample_fault_plan",
    "shrink_counterexample",
]
