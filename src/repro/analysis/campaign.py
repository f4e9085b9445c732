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
:class:`~repro.runtime.memo.BehaviorCache`: the shrinker's and the
final replay's re-executions of identical ``(inputs, node faults,
plan)`` configurations become cache hits.  An entry holds what every
caller reads, the verdict and the injection trace; the run's behavior
is dropped once the spec is checked.  :func:`replay_counterexample` is
the one entry point that hands out a behavior, and it always runs
afresh.

:func:`run_campaign` is one pipeline for every ``jobs`` value: sample
each attempt from ``(seed, attempt)``, execute, journal and merge
verdicts in index order through one
:func:`~repro.analysis.runstore.journaled_imap` stream, stopping at the
first violation.  ``jobs`` only decides whether the stream's pool
forks; at ``jobs=1`` (or on a one-core fallback) the same loop runs
in-process, with the memo cache.  :func:`degradation_frontier` merges
its budget levels through the same stream.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping, Sequence
from contextlib import closing
from dataclasses import dataclass, field, replace
from time import perf_counter
from types import CodeType
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
from .parallel import ParallelRunner
from .runstore import Shard, journaled_imap

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
        if self.rounds == 0 and self.max_link_faults > 0:
            raise ValueError(
                f"max_link_faults {self.max_link_faults} needs rounds > 0: "
                "a link fault's window is drawn from the rounds"
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

_SAMPLE_ORDERS_KEY = "campaign_sample_orders"


def _sample_orders(
    graph: CommunicationGraph,
) -> tuple[tuple[NodeId, ...], tuple[DirectedEdge, ...]]:
    """The graph's nodes and edges sorted by ``repr``: the orders every
    draw reads, part of the sample format.  Sorted once per graph and
    cached in its :meth:`~repro.graphs.graph.CommunicationGraph.
    analytics_cache`."""
    cache = graph.analytics_cache()
    orders = cache.get(_SAMPLE_ORDERS_KEY)
    if orders is None:
        orders = cache[_SAMPLE_ORDERS_KEY] = (
            tuple(sorted(graph.nodes, key=repr)),
            tuple(sorted(graph.edges, key=repr)),
        )
    return orders


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
    nodes, edges = _sample_orders(graph)
    budget = rng.randrange(max_link_faults + 1) if edges else 0
    link_faults: list[LinkFault] = []
    partitions: list[Partition] = []
    used: set[DirectedEdge] = set()
    for _ in range(8 * budget + 8):  # bounded draws: partitions may not fit
        if len(used) >= budget:
            break
        kind = rng.choice(tuple(kinds))
        if kind == "partition":
            side = rng.sample(nodes, rng.randrange(1, len(nodes)))
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
    nodes = rng.sample(_sample_orders(config.graph)[0], count)
    return tuple(
        NodeFault(
            node=node,
            kind=rng.choice(STRATEGIES),
            key=f"{config.seed}:{attempt}:{node}",
        )
        for node in nodes
    )


# -- execution -------------------------------------------------------------


def _const_key(value: Any) -> Any:
    """A code constant or default value in a form that hashes the same
    in every process: nested code objects by their digests, frozensets
    in sorted order (their iteration order is hash-seeded)."""
    if isinstance(value, CodeType):
        return _code_digest(value)
    if isinstance(value, tuple):
        return tuple(map(_const_key, value))
    if isinstance(value, frozenset):
        return sorted(repr(_const_key(v)) for v in value)
    return repr(value)


def _code_digest(code: CodeType) -> str:
    """Fingerprint of what a code object computes: its bytecode, names
    and constants, with nested code objects (lambdas, comprehensions)
    by their own digests.  File names and line numbers are left out, so
    the same source gives the same digest in any checkout and at any
    position in its file.  Bytecode differs between Python minor
    versions, so the digest does too."""
    return fingerprint(
        code.co_code,
        code.co_names,
        code.co_varnames,
        code.co_freevars,
        code.co_cellvars,
        _const_key(code.co_consts),
    )


def _config_token(config: CampaignConfig) -> str:
    """Canonical fingerprint of the parts of a config that determine an
    attempt's outcome (graph shape, rounds, value pool, spec, and the
    device factory's name, code and default argument values).  Memoized
    on the config object.

    The factory's code is hashed as bytecode (see :func:`_code_digest`),
    so a store written under one Python minor version gets other shard
    names under another, and ``repro resume`` there reruns its items.
    The factory's closure values are not covered: two factories
    compiled from the same source but closing over different values
    would collide, so sharing one :class:`BehaviorCache` across configs
    is only safe when their factories differ in code; the default
    per-campaign cache is always safe.
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
            _code_digest(code) if code is not None else "",
            _const_key(getattr(factory, "__defaults__", None)),
            _const_key(tuple(sorted(
                (getattr(factory, "__kwdefaults__", None) or {}).items()
            ))),
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
) -> tuple[SpecVerdict, InjectionTrace]:
    """Run one fully specified configuration, check the spec, and
    return ``(verdict, injection trace)``.

    This is the single entry point used by search, shrinking and the
    frontier sweep, so all three see byte-identical executions.  The
    run's behavior is dropped once the spec has been checked; only
    :func:`replay_counterexample` hands one out.  A device that crashes
    on injected garbage is itself a robustness finding and is reported
    as an ``execution`` violation rather than as a campaign error.

    With a ``cache``, the attempt is keyed by its *content* — inputs,
    node faults, fault plan, and the config's fingerprint — and a
    repeat execution (the shrinker and the final replay produce many)
    returns the cached ``(verdict, trace)`` without re-running.
    Determinism makes this sound: equal content ⇒ equal results.

    ``system``, when given, must be ``_build_system(config, inputs,
    node_faults)`` — already built (and compiled) by a caller that runs
    several plans on the same inputs and node faults, like the
    shrinker.  Devices are pure, so reusing it is exact; it never
    enters the memo key.
    """
    if cache is None:
        _, verdict, trace = _run_attempt(
            config, inputs, node_faults, plan, system
        )
        return (verdict, trace)
    # Telemetry-transparent caching: an entry is ``((verdict, trace),
    # run-scope events of the original execution)``, replayed on every
    # hit, so the trace never depends on cache warmth.  Entries made
    # with telemetry off hold no events, so traced runs key theirs
    # apart.  The hit/miss facts are host-scope (and no-ops with
    # telemetry off).
    key = _attempt_key(config, inputs, node_faults, plan)
    if obs.is_enabled():
        key += ":obs"
    entry = cache.get(key)
    if entry is not None:
        result, payload = entry
        obs.emit(obs.CACHE_HIT, cache="attempt", op="execute")
        obs.replay(payload)
        return result
    obs.emit(obs.CACHE_MISS, cache="attempt", op="execute")
    with obs.capture() as capsule:
        _, verdict, trace = _run_attempt(
            config, inputs, node_faults, plan, system
        )
    result = (verdict, trace)
    payload = capsule.payload()
    obs.replay(payload)
    cache.put(key, (result, obs.run_payload(payload)))
    return result


def _run_attempt(
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
    config: CampaignConfig, counterexample: Counterexample
) -> tuple[SyncBehavior, SpecVerdict, InjectionTrace]:
    """Re-run a counterexample exactly and return ``(behavior, verdict,
    injection trace)``.

    The one entry point that hands out a run's behavior, so it always
    runs afresh: memo entries keep only verdicts and traces.  The
    verdict and trace equal :func:`execute_attempt`'s, by determinism.
    """
    return _run_attempt(
        config,
        counterexample.inputs,
        counterexample.node_faults,
        counterexample.plan,
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
            verdict, _ = execute_attempt(
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
            verdict, _ = execute_attempt(
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
        for u in _sample_orders(config.graph)[0]
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
    trace come from an in-process run of *this* configuration.  The
    final trace is the shrunk attempt's through :func:`execute_attempt`
    with ``cache``: the shrinker's last failing run, so a memo hit
    whenever there is a cache.
    """
    node_faults, plan, inputs = _sample_attempt(config, attempt)
    verdict, _ = execute_attempt(config, inputs, node_faults, plan, cache)
    found = Counterexample(
        inputs=inputs,
        node_faults=node_faults,
        plan=plan,
        verdict=verdict,
        attempt=attempt,
    )
    shrunk, steps = shrink_counterexample(config, found, cache)
    _, trace = execute_attempt(
        config, shrunk.inputs, shrunk.node_faults, shrunk.plan, cache
    )
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
    store: Shard | None = None,
) -> CampaignResult:
    """Sample attempts under the combined budget until a spec violation
    appears (then shrink it) or the attempt budget is exhausted.

    One pipeline serves every ``jobs`` value: attempts are sampled and
    executed through one :func:`~repro.analysis.runstore.journaled_imap`
    stream, journaled, and merged in index order; the first violating
    index wins, and closing the stream makes workers that ran ahead
    skip their queued attempts and exit before shrinking starts.
    ``jobs`` only decides whether the stream's pool forks — at
    ``jobs=1``, or when the runner falls back to serial, attempts
    execute in-process.  Workers return only the spec bit plus their
    captured telemetry, which the parent replays in index order, so
    results, witnesses, traces and ``run.*`` metrics are identical for
    every ``jobs``.  Shrinking stays in the parent.

    ``cache`` (created fresh when ``memoize`` and not supplied)
    memoizes every in-process execution's verdict and injection trace
    by content (never its behavior); forked workers run uncached, so
    they never hold their own copy.  Pass your own
    :class:`~repro.runtime.memo.BehaviorCache` to read hit/miss
    statistics afterwards, or ``memoize=False`` to measure uncached
    cost.  When telemetry is on, the cache's counters are folded into
    the live registry as ``host.cache.*`` gauges.

    ``store`` (a :class:`~repro.analysis.runstore.Shard`, usually
    obtained via :func:`campaign_store_key`) journals every merged
    attempt's verdict — plus its run-scope events when telemetry is on
    — with an fsync every ``max(4 * jobs, 8)`` attempts and when the
    scan stops, and skips attempts already journaled by an earlier,
    interrupted process.  Resumed runs replay the journaled events, so
    their output is byte-identical to an uninterrupted run (checkpoint
    reuse facts are host-scope only).  The journal key is the attempt
    index, so a run checkpointed at one ``jobs`` value resumes
    correctly at any other.
    """
    if cache is None and memoize:
        cache = BehaviorCache()
    runner = ParallelRunner(jobs)
    probe_cache = None if runner.parallel else cache

    def probe(attempt: int) -> bool:
        node_faults, plan, inputs = _sample_attempt(config, attempt)
        verdict, _ = execute_attempt(
            config, inputs, node_faults, plan, probe_cache
        )
        return verdict.ok

    verdicts = journaled_imap(
        runner,
        probe,
        range(1, config.attempts + 1),
        store,
        key_fn=lambda attempt: f"attempt:{attempt}",
        encode=lambda ok: {"ok": ok},
        decode=lambda record: bool(record["ok"]),
    )
    obs_on = obs.is_enabled()
    first_bad: int | None = None
    with closing(verdicts):
        # The span runs merge to merge: in-process it covers the
        # attempt's execution, with a pool the wait for its result.
        attempt_t0 = perf_counter()
        for attempt, (ok, payload, _) in enumerate(verdicts, 1):
            if obs_on:
                obs.emit(obs.ATTEMPT_START, attempt=attempt)
                obs.replay(payload)
                obs.emit(obs.ATTEMPT_END, attempt=attempt, ok=ok)
                merged_t = perf_counter()
                obs.observe_span("campaign.attempt", merged_t - attempt_t0)
                attempt_t0 = merged_t
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
        result = run_campaign(level)
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

    levels = journaled_imap(
        ParallelRunner(jobs),
        level_row,
        range(max_links + 1),
        store,
        key_fn=lambda budget: f"level:{budget}",
        encode=lambda row: {"r": frontier_row_to_dict(row)},
        decode=lambda record: _frontier_row_from_jsonable(
            record["r"], config.graph
        ),
    )
    rows = []
    first_break: dict[str, int | None] = dict.fromkeys(SPEC_CONDITIONS)
    with closing(levels):
        for row, payload, _ in levels:
            obs.replay(payload)
            rows.append(row)
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


def frontier_row_to_dict(row: FrontierRow) -> dict[str, Any]:
    """A lossless JSON form of one frontier row (for run-store
    journaling and ``campaign --frontier --json``) — including the
    shrunk example's verdict, which :func:`counterexample_to_dict`
    alone keeps only as prose."""
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
    """Inverse of :func:`frontier_row_to_dict`."""
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
    "frontier_row_to_dict",
    "frontier_store_key",
    "replay_counterexample",
    "run_campaign",
    "sample_fault_plan",
    "shrink_counterexample",
]
