"""Randomized adversary search: attack a protocol empirically.

The engines *construct* counterexamples on inadequate graphs; on
adequate graphs the theorems are silent, and the natural question is
"can some adversary still break this implementation?".  This harness
searches randomized Byzantine strategies — seeded liars, two-faced
splits, replayed message scripts, crash times — against a protocol
configuration and reports the first specification violation found (or
that the budget survived).

Useful both as a testing tool for new protocols and as an empirical
companion to the bounds: the search breaks every naive device on
adequate graphs quickly, yet exhausts its budget against EIG.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from .. import obs
from ..graphs.graph import CommunicationGraph, NodeId
from ..problems.byzantine import ByzantineAgreementSpec
from ..runtime.memo import BehaviorCache, fingerprint
from ..problems.spec import SpecVerdict
from ..runtime.sync.adversary import (
    CrashDevice,
    RandomLiarDevice,
    ReplayDevice,
    SilentDevice,
    TwoFacedDevice,
)
from ..runtime.sync.device import SyncDevice
from ..runtime.sync.executor import run
from ..runtime.sync.system import make_system


@dataclass(frozen=True)
class Attack:
    """One adversarial configuration: faulty nodes, their strategies,
    and the input assignment."""

    faulty: Mapping[NodeId, str]
    inputs: Mapping[NodeId, Any]
    seed: int


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an adversary search."""

    attempts: int
    broken: bool
    attack: Attack | None
    verdict: SpecVerdict | None

    def describe(self) -> str:
        if not self.broken:
            return f"protocol survived {self.attempts} randomized attacks"
        assert self.attack is not None and self.verdict is not None
        strategies = ", ".join(
            f"{node}={kind}" for node, kind in self.attack.faulty.items()
        )
        return (
            f"broken after {self.attempts} attacks by [{strategies}] with "
            f"inputs {dict(self.attack.inputs)}: {self.verdict.describe()}"
        )


STRATEGIES = ("silent", "liar", "crash", "replay", "two-faced")
_STRATEGIES = STRATEGIES  # backwards-compatible alias


def sample_adversary(
    kind: str,
    node: NodeId,
    honest: SyncDevice,
    graph: CommunicationGraph,
    rounds: int,
    rng: random.Random,
    value_pool: Sequence[Any],
) -> tuple[SyncDevice, tuple]:
    """Build one faulty device of the named strategy ``kind``, drawing
    any randomness from ``rng``, and return it together with the
    canonical tuple of parameters drawn.  The parameter tuple fully
    determines the device's behavior (the honest base device is fixed
    per search), so it can key a behavior memo: two attempts that drew
    the same strategies, parameters and inputs run identically."""
    if kind == "silent":
        return SilentDevice(), ()
    if kind == "liar":
        seed = rng.randrange(2**30)
        return RandomLiarDevice(seed, value_pool), (seed,)
    if kind == "crash":
        crash_round = rng.randrange(rounds + 1)
        return CrashDevice(honest, crash_round=crash_round), (crash_round,)
    if kind == "replay":
        scripts = {
            neighbor: [rng.choice(value_pool) for _ in range(rounds)]
            for neighbor in graph.neighbors(node)
        }
        params = tuple(
            (repr(neighbor), tuple(script))
            for neighbor, script in scripts.items()
        )
        return ReplayDevice(scripts), params
    if kind == "two-faced":
        neighbors = list(graph.neighbors(node))
        rng.shuffle(neighbors)
        half = neighbors[: max(1, len(neighbors) // 2)]
        return TwoFacedDevice(honest, honest, half), tuple(
            repr(u) for u in half
        )
    raise ValueError(kind)


def build_adversary(
    kind: str,
    node: NodeId,
    honest: SyncDevice,
    graph: CommunicationGraph,
    rounds: int,
    rng: random.Random,
    value_pool: Sequence[Any],
) -> SyncDevice:
    """Build one faulty device of the named strategy ``kind``, drawing
    any randomness from ``rng`` (deterministic given the rng state).
    Shared with the campaign engine (:mod:`repro.analysis.campaign`)."""
    device, _ = sample_adversary(
        kind, node, honest, graph, rounds, rng, value_pool
    )
    return device


def _attack_attempt(
    graph: CommunicationGraph,
    device_factory: Callable[[CommunicationGraph], Mapping[NodeId, SyncDevice]],
    max_faults: int,
    rounds: int,
    value_pool: Sequence[Any],
    spec: ByzantineAgreementSpec,
    rng: random.Random,
    cache: BehaviorCache | None = None,
) -> tuple[Mapping[NodeId, str], Mapping[NodeId, Any], Any]:
    """One attack attempt drawn from ``rng``; returns the strategy map,
    the inputs, and the spec verdict.

    ``cache`` memoizes verdicts by attack content — the drawn
    ``(node, strategy, parameters)`` triples plus the inputs.  Small
    strategy spaces (silent / crash / two-faced on small graphs) repeat
    often across attempts, so colliding attempts skip execution; the
    result is unchanged because equal content means an identical run.
    """
    nodes = list(graph.nodes)
    honest = dict(device_factory(graph))
    faulty_nodes = rng.sample(nodes, max_faults)
    strategies: dict[NodeId, str] = {}
    devices = dict(honest)
    drawn: list[tuple[str, str, tuple]] = []
    for node in faulty_nodes:
        kind = rng.choice(STRATEGIES)
        strategies[node] = kind
        devices[node], params = sample_adversary(
            kind, node, honest[node], graph, rounds, rng, value_pool
        )
        drawn.append((repr(node), kind, params))
    inputs = {u: rng.choice(value_pool) for u in nodes}
    key = None
    if cache is not None:
        key = fingerprint(
            "attack", rounds, tuple(sorted(drawn)),
            tuple((repr(u), repr(v)) for u, v in inputs.items()),
        )
        if obs.is_enabled():
            # Telemetry-transparent memoization: a hit replays the
            # run-scope events recorded when the entry was filled, so
            # the trace is independent of cache warmth (hit/miss facts
            # are host-scope).
            okey = key + ":obs"
            entry = cache.get(okey)
            if entry is not None:
                verdict, payload = entry
                obs.emit(obs.CACHE_HIT, cache="attack", op="attempt")
                obs.replay(payload)
                return (strategies, inputs, verdict)
            obs.emit(obs.CACHE_MISS, cache="attack", op="attempt")
            with obs.capture() as capsule:
                behavior = run(make_system(graph, devices, inputs), rounds)
            obs.replay(capsule.payload())
            correct = [u for u in nodes if u not in strategies]
            verdict = spec.check(inputs, behavior.decisions(), correct)
            cache.put(okey, (verdict, capsule.run_payload()))
            return (strategies, inputs, verdict)
        verdict = cache.get(key)
        if verdict is not None:
            return (strategies, inputs, verdict)
    behavior = run(make_system(graph, devices, inputs), rounds)
    correct = [u for u in nodes if u not in strategies]
    verdict = spec.check(inputs, behavior.decisions(), correct)
    if cache is not None and key is not None:
        cache.put(key, verdict)
    return (strategies, inputs, verdict)


def search_agreement_attacks(
    graph: CommunicationGraph,
    device_factory: Callable[[CommunicationGraph], Mapping[NodeId, SyncDevice]],
    max_faults: int,
    rounds: int,
    attempts: int = 200,
    seed: int = 0,
    value_pool: Sequence[Any] = (0, 1),
    spec: ByzantineAgreementSpec | None = None,
    jobs: int | None = None,
    cache: BehaviorCache | None = None,
) -> SearchResult:
    """Randomly attack a Byzantine-agreement protocol.

    ``device_factory(graph)`` builds a fresh honest device assignment;
    each attempt replaces a random ``f``-subset with random strategies
    and random inputs, runs, and checks the spec over correct nodes.

    ``jobs=None`` (the default) keeps the historical sampling format:
    one rng stream threaded through all attempts.  Any integer ``jobs``
    switches to *indexed* sampling — a private stream per attempt,
    seeded by ``(seed, attempt)`` — which is what lets attempts fan
    out across a process pool.  Indexed results are identical for
    every ``jobs`` value (``jobs=1`` runs the same samples serially);
    they just differ from the legacy stream's draws.

    Pass a :class:`~repro.runtime.memo.BehaviorCache` as ``cache`` to
    memoize verdicts by attack content (repeated silent / crash /
    two-faced draws skip execution) and to read hit/miss counters
    afterwards.  The counters only accumulate in-process: a forked
    pool's hits stay in the workers.
    """
    for name, value in (("rounds", rounds), ("attempts", attempts)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
    spec = spec or ByzantineAgreementSpec()
    if jobs is None:
        rng = random.Random(seed)
        for attempt in range(1, attempts + 1):
            obs.emit(obs.ATTEMPT_START, attempt=attempt)
            strategies, inputs, verdict = _attack_attempt(
                graph, device_factory, max_faults, rounds, value_pool, spec,
                rng, cache,
            )
            obs.emit(obs.ATTEMPT_END, attempt=attempt, ok=verdict.ok)
            if not verdict.ok:
                return SearchResult(
                    attempts=attempt,
                    broken=True,
                    attack=Attack(
                        faulty=strategies, inputs=inputs, seed=seed
                    ),
                    verdict=verdict,
                )
        return SearchResult(
            attempts=attempts, broken=False, attack=None, verdict=None
        )

    from .parallel import ParallelRunner

    def probe(attempt: int):
        rng = random.Random(f"{seed}:attack:{attempt}")
        strategies, inputs, verdict = _attack_attempt(
            graph, device_factory, max_faults, rounds, value_pool, spec, rng,
            cache,
        )
        return (attempt, strategies, inputs, verdict)

    # One pool for the whole scan, merged in index order: replay worker
    # telemetry and stop at the first violation, exactly like a serial
    # scan.  Returning closes the pool, discarding attempts that ran
    # ahead.
    with ParallelRunner(jobs).pool(probe) as pool:
        for (attempt, strategies, inputs, verdict), payload in (
            pool.imap_captured(range(1, attempts + 1))
        ):
            obs.emit(obs.ATTEMPT_START, attempt=attempt)
            obs.replay(payload)
            obs.emit(obs.ATTEMPT_END, attempt=attempt, ok=verdict.ok)
            if not verdict.ok:
                return SearchResult(
                    attempts=attempt,
                    broken=True,
                    attack=Attack(
                        faulty=strategies, inputs=inputs, seed=seed
                    ),
                    verdict=verdict,
                )
    return SearchResult(
        attempts=attempts, broken=False, attack=None, verdict=None
    )
