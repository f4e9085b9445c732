"""Byzantine node strategies for the fault campaign.

FLM's Fault axiom lets a faulty node send anything.  The campaign
(:mod:`repro.analysis.campaign`) samples a faulty node's behaviour
from the named ``STRATEGIES`` — silence, seeded lies, crash times,
replayed message scripts, two-faced splits — and builds it here.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from typing import Any

from ..graphs.graph import CommunicationGraph, NodeId
from ..runtime.sync.adversary import (
    CrashDevice,
    RandomLiarDevice,
    ReplayDevice,
    SilentDevice,
    TwoFacedDevice,
)
from ..runtime.sync.device import SyncDevice


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
    any randomness from ``rng`` (deterministic given the rng state)."""
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
