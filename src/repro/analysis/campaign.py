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

Every attempt is deterministic given its content, so
:func:`execute_attempt` memoizes through a content-addressed
:class:`~repro.runtime.memo.BehaviorCache`: the shrinker's and
replayer's re-executions of identical ``(inputs, node faults, plan)``
configurations become cache hits.

:func:`run_campaign` is one pipeline for every ``jobs`` value: sample
each attempt from ``(seed, attempt)``, execute through one
:class:`~repro.analysis.parallel.WorkerPool`, journal, and merge
verdicts in index order, stopping at the first violation.  ``jobs``
only decides whether the pool forks; at ``jobs=1`` (or on a one-core
fallback) the same loop runs in-process, with the memo cache.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any

from .. import obs
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
from ..runtime.memo import (
    BehaviorCache,
    fingerprint,
    graph_fingerprint,
    json_fingerprint,
    plan_fingerprint,
)
from ..runtime.sync.behavior import SyncBehavior
from ..runtime.sync.device import SyncDevice
from ..runtime.sync.executor import run
from ..runtime.sync.system import SyncSystem, make_system
from .adversary_search import STRATEGIES, build_adversary
from .parallel import ParallelRunner, WorkerPool
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
        for name in ("rounds", "max_node_faults", "max_link_faults", "attempts"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.max_node_faults > len(self.graph):
            raise ValueError(
                f"max_node_faults {self.max_node_faults} exceeds the node "
                f"count {len(self.graph)}"
            )


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
    system: SyncSystem | None = None,
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

    ``system``, when given, must be ``_build_system(config, inputs,
    node_faults)`` — already built (and compiled) by a caller that runs
    several plans on the same inputs and node faults, like the
    shrinker.  Devices are pure, so reusing it is exact; it never
    enters the memo key.
    """
    if cache is None:
        return _execute_attempt_uncached(
            config, inputs, node_faults, plan, system
        )
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
                config, inputs, node_faults, plan, system
            )
        obs.replay(capsule.payload())
        cache.put(okey, (result, capsule.run_payload()))
        return result
    hit = cache.get(key)
    if hit is not None:
        return hit
    result = _execute_attempt_uncached(
        config, inputs, node_faults, plan, system
    )
    cache.put(key, result)
    return result


def _execute_attempt_uncached(
    config: CampaignConfig,
    inputs: Mapping[NodeId, Any],
    node_faults: Sequence[NodeFault],
    plan: FaultPlan,
    system: SyncSystem | None = None,
) -> tuple[SyncBehavior, SpecVerdict, InjectionTrace]:
    graph = config.graph
    faulty_nodes = {nf.node for nf in node_faults}
    correct = [u for u in graph.nodes if u not in faulty_nodes]
    injector = SyncFaultInjector(plan)
    if system is None:
        system = _build_system(config, inputs, node_faults)
    try:
        behavior = run(system, config.rounds, injector)
    except Exception as exc:  # devices choking on injected garbage
        verdict = _execution_violation(exc, correct)
        return (SyncBehavior(graph=graph, rounds=0), verdict, injector.trace)
    verdict = config.spec.check(inputs, behavior.decisions(), correct)
    return (behavior, verdict, injector.trace)


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
) -> tuple[SyncBehavior, SpecVerdict, InjectionTrace]:
    """Re-run a counterexample exactly; deterministic by construction."""
    return execute_attempt(
        config,
        counterexample.inputs,
        counterexample.node_faults,
        counterexample.plan,
        cache,
    )


# -- shrinking -------------------------------------------------------------


def shrink_counterexample(
    config: CampaignConfig,
    found: Counterexample,
    cache: BehaviorCache | None = None,
) -> tuple[Counterexample, int]:
    """Greedy delta debugging: repeatedly delete one fault atom or one
    faulty node while the spec still breaks; stop at a local minimum.

    Returns the minimal counterexample and the number of successful
    deletions.  The result is *1-minimal*: removing any single
    remaining fault makes the violation disappear.  A ``cache`` makes
    the re-executed overlap between shrink iterations (and the final
    replay) free.

    Atom-deletion candidates differ from ``current`` only in their
    fault plan, so they share one built and compiled system (rebuilt
    only when a faulty node is deleted), each run with a fresh injector.
    """
    shrink_t0 = perf_counter()
    current = found
    steps = 0
    system = None  # _build_system of current's inputs and node faults
    progress = True
    while progress:
        progress = False
        for i in range(current.plan.size):
            if system is None:
                system = _build_system(
                    config, current.inputs, current.node_faults
                )
            candidate_plan = current.plan.without_atoms([i])
            _, verdict, _ = execute_attempt(
                config, current.inputs, current.node_faults, candidate_plan,
                cache, system=system,
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
                config, current.inputs, candidate_nodes, current.plan, cache
            )
            if not verdict.ok:
                current = Counterexample(
                    inputs=current.inputs,
                    node_faults=candidate_nodes,
                    plan=current.plan,
                    verdict=verdict,
                    attempt=current.attempt,
                )
                system = None
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


def _sample_attempt(
    config: CampaignConfig, attempt: int
) -> tuple[tuple[NodeFault, ...], FaultPlan, dict[NodeId, Any]]:
    """The deterministic sample for one attempt index.

    One private rng stream per attempt (seeded by ``(seed, attempt)``),
    so any attempt can be regenerated in isolation — the property the
    worker pool and the replayer both rely on.  Draw order (node
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
) -> CampaignResult:
    """Shrink and replay the violation at ``attempt`` (known to break).

    Re-executes the attempt in the parent (a forked worker returned
    only its verdict bit), so the found/shrunk counterexamples and the
    trace come from an in-process run of *this* configuration.
    """
    node_faults, plan, inputs = _sample_attempt(config, attempt)
    _, verdict, _ = execute_attempt(config, inputs, node_faults, plan, cache)
    found = Counterexample(
        inputs=inputs,
        node_faults=node_faults,
        plan=plan,
        verdict=verdict,
        attempt=attempt,
    )
    shrunk, steps = shrink_counterexample(config, found, cache)
    _, _, trace = replay_counterexample(config, shrunk, cache)
    return CampaignResult(
        config=config,
        attempts=attempt,
        found=found,
        shrunk=shrunk,
        shrink_steps=steps,
        injection_trace=trace,
    )


#: One attempt ready to merge: ``(attempt, spec ok, telemetry
#: payload, journaled by an earlier process)``.
MergedAttempt = tuple[int, bool, tuple, bool]


def run_campaign(
    config: CampaignConfig,
    jobs: int = 1,
    cache: BehaviorCache | None = None,
    memoize: bool = True,
    store: Shard | None = None,
) -> CampaignResult:
    """Sample attempts under the combined budget until a spec violation
    appears (then shrink it) or the attempt budget is exhausted.

    One pipeline serves every ``jobs`` value: attempts are sampled,
    executed through one :class:`~repro.analysis.parallel.WorkerPool`,
    journaled, and merged in index order; the first violating index
    wins and workers that ran ahead skip their queued attempts.
    ``jobs`` only decides whether the pool forks — at ``jobs=1``, or
    when the runner falls back to serial, attempts execute in-process.
    Workers return only ``(attempt, spec ok)`` plus their captured
    telemetry, which the parent replays in index order, so results,
    witnesses, traces and ``run.*`` metrics are identical for every
    ``jobs``.  Shrinking stays in the parent.

    ``cache`` (created fresh when ``memoize`` and not supplied)
    memoizes every in-process execution by content; forked workers run
    uncached, so they never hold their own copy.  Pass your own
    :class:`~repro.runtime.memo.BehaviorCache` to read hit/miss
    statistics afterwards, or ``memoize=False`` to measure uncached
    cost.  When telemetry is on, the cache's counters are folded into
    the live registry as ``host.cache.*`` gauges.

    ``store`` (a :class:`~repro.analysis.runstore.Shard`, usually
    obtained via :func:`campaign_store_key`) journals every merged
    attempt's verdict — plus its run-scope events when telemetry is on
    — with an fsync every ``max(4 * jobs, 8)`` attempts, at the
    violation and at the end, and skips attempts already journaled by
    an earlier, interrupted process.  Resumed runs replay the journaled
    events, so their output is byte-identical to an uninterrupted run
    (checkpoint reuse facts are host-scope only).  The journal key is
    the attempt index, so a run checkpointed at one ``jobs`` value
    resumes correctly at any other.
    """
    if cache is None and memoize:
        cache = BehaviorCache()
    runner = ParallelRunner(jobs)
    probe_cache = None if runner.parallel else cache

    def probe(attempt: int) -> tuple[int, bool]:
        node_faults, plan, inputs = _sample_attempt(config, attempt)
        _, verdict, _ = execute_attempt(
            config, inputs, node_faults, plan, probe_cache
        )
        return (attempt, verdict.ok)

    batch = max(4 * runner.jobs, 8)
    records: dict[int, dict] = {}
    if store is not None:
        for attempt in range(1, config.attempts + 1):
            record = store.get(f"attempt:{attempt}")
            if reusable(record):
                records[attempt] = record  # type: ignore[assignment]
    obs_on = obs.is_enabled()
    first_bad: int | None = None
    with runner.pool(probe) as pool:
        verdicts = _plain_verdicts(pool, config, records)
        # The span runs merge to merge: in-process it covers the
        # attempt's execution, with a pool the wait for its result.
        attempt_t0 = perf_counter()
        for attempt, ok, payload, journaled in verdicts:
            item_key = f"attempt:{attempt}"
            if obs_on:
                obs.emit(obs.ATTEMPT_START, attempt=attempt)
                if journaled:
                    obs.emit(obs.CHECKPOINT_REUSE, item=item_key)
                obs.replay(payload)
            if store is not None and not journaled:
                value: dict[str, Any] = {"ok": ok}
                if obs_on:
                    value["obs"] = encode_payload(run_scope_payload(payload))
                store.append(item_key, value)
            if obs_on:
                obs.emit(obs.ATTEMPT_END, attempt=attempt, ok=ok)
                merged_t = perf_counter()
                obs.observe_span("campaign.attempt", merged_t - attempt_t0)
                attempt_t0 = merged_t
            if store is not None and (
                not ok or attempt % batch == 0 or attempt == config.attempts
            ):
                store.sync()
            if not ok:
                first_bad = attempt
                break
    if first_bad is None:
        result = CampaignResult(
            config=config, attempts=config.attempts, found=None, shrunk=None
        )
    else:
        result = _finish_campaign(config, first_bad, cache)
    if obs_on and cache is not None:
        obs.absorb_cache_stats(obs.get_registry(), cache.stats())
    return result


def _plain_verdicts(
    pool: WorkerPool, config: CampaignConfig, records: Mapping[int, dict]
) -> Iterator[MergedAttempt]:
    """Every attempt's verdict in index order: journaled attempts from
    their records (with their events), the rest streamed through
    ``pool``."""
    attempts = range(1, config.attempts + 1)
    fresh = pool.imap_captured(a for a in attempts if a not in records)
    for attempt in attempts:
        record = records.get(attempt)
        if record is not None:
            payload = decode_payload(record.get("obs", ()))
            yield (attempt, bool(record["ok"]), payload, True)
        else:
            (_, ok), payload = next(fresh)
            yield (attempt, ok, payload, False)


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
    store: Shard | None = None,
) -> DegradationFrontier:
    """Sweep the link budget 0..max and report, per spec clause, the
    smallest budget at which a campaign finds a violation of it.

    Budget levels are independent campaigns, so ``jobs > 1`` evaluates
    them across a process pool; rows come back in budget order and the
    ``first_break`` fold runs over them exactly as the serial loop
    did, so the frontier is identical either way.

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
        result = run_campaign(level, cache=cache)
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
