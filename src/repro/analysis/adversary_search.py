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
from .parallel import ParallelRunner


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
    if kind == "silent":
        return SilentDevice()
    if kind == "liar":
        return RandomLiarDevice(rng.randrange(2**30), value_pool)
    if kind == "crash":
        return CrashDevice(honest, crash_round=rng.randrange(rounds + 1))
    if kind == "replay":
        return ReplayDevice({
            neighbor: [rng.choice(value_pool) for _ in range(rounds)]
            for neighbor in graph.neighbors(node)
        })
    if kind == "two-faced":
        neighbors = list(graph.neighbors(node))
        rng.shuffle(neighbors)
        half = neighbors[: max(1, len(neighbors) // 2)]
        return TwoFacedDevice(honest, honest, half)
    raise ValueError(kind)


def _attack_attempt(
    graph: CommunicationGraph,
    device_factory: Callable[[CommunicationGraph], Mapping[NodeId, SyncDevice]],
    max_faults: int,
    rounds: int,
    value_pool: Sequence[Any],
    spec: ByzantineAgreementSpec,
    rng: random.Random,
) -> tuple[Mapping[NodeId, str], Mapping[NodeId, Any], Any]:
    """One attack attempt drawn from ``rng``; returns the strategy map,
    the inputs, and the spec verdict."""
    nodes = list(graph.nodes)
    honest = dict(device_factory(graph))
    faulty_nodes = rng.sample(nodes, max_faults)
    strategies: dict[NodeId, str] = {}
    devices = dict(honest)
    for node in faulty_nodes:
        kind = rng.choice(STRATEGIES)
        strategies[node] = kind
        devices[node] = build_adversary(
            kind, node, honest[node], graph, rounds, rng, value_pool
        )
    inputs = {u: rng.choice(value_pool) for u in nodes}
    behavior = run(make_system(graph, devices, inputs), rounds)
    correct = [u for u in nodes if u not in strategies]
    verdict = spec.check(inputs, behavior.decisions(), correct)
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
    jobs: int = 1,
) -> SearchResult:
    """Randomly attack a Byzantine-agreement protocol.

    ``device_factory(graph)`` builds a fresh honest device assignment;
    each attempt replaces a random ``f``-subset with random strategies
    and random inputs, runs, and checks the spec over correct nodes.

    Each attempt draws from its own stream, seeded by
    ``(seed, attempt)``, so attempts fan out across ``jobs`` worker
    processes and the result is identical for every ``jobs`` value.
    """
    for name, value in (("rounds", rounds), ("attempts", attempts)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
    if not 0 <= max_faults <= len(graph):
        raise ValueError(
            f"max_faults {max_faults} is outside 0..{len(graph)} "
            f"(the node count)"
        )
    spec = spec or ByzantineAgreementSpec()

    def probe(attempt: int):
        rng = random.Random(f"{seed}:attack:{attempt}")
        strategies, inputs, verdict = _attack_attempt(
            graph, device_factory, max_faults, rounds, value_pool, spec, rng
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
