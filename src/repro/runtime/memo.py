"""Bounded, content-addressed memoization of campaign attempts.

Systems here are deterministic by axiom — a (system, rounds,
FaultPlan) triple has exactly **one** behavior and one injection
trace.  That turns re-execution into a pure cache-lookup problem: the
campaign engine's delta-debugging shrinker re-runs hundreds of
overlapping plan subsets, and the campaign's final replay re-runs the
exact shrunk configuration.  This module provides:

* :class:`BehaviorCache` — a bounded LRU mapping canonical fingerprint
  strings to results, with hit/miss counters (``cache.stats()``).
* :func:`fingerprint` / :func:`plan_fingerprint` /
  :func:`graph_fingerprint` — canonical content keys.  Fingerprints
  hash *values* (sorted node/edge names, the fault plan's fields),
  never object identities, so a rebuilt-but-equal configuration hits.

What an entry holds is up to its one user,
:func:`~repro.analysis.campaign.execute_attempt`: ``((verdict,
injection trace), run-scope events)``, which is all any caller reads.
The run's behavior (every node's states, the message rows) is dropped
once the spec is checked, so an entry costs a few small objects, not
a run's worth.

Correctness contract: a cache hit returns the *same objects* a fresh
execution would have produced equal objects to.  That is only sound
because devices are pure and verdicts/traces are treated as immutable
values everywhere in this repo.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

from .faults import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..graphs.graph import CommunicationGraph


class BehaviorCache:
    """A bounded LRU cache from fingerprint strings to results.

    ``get`` returns ``None`` on a miss (cached values are never
    ``None``), moves hits to the MRU end, and counts every lookup;
    ``put`` evicts from the LRU end once ``maxsize`` is exceeded.
    """

    __slots__ = ("_data", "maxsize", "hits", "misses")

    def __init__(self, maxsize: int = 512) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self._data: OrderedDict[str, Any] = OrderedDict()
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Any | None:
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        if value is None:
            raise ValueError("cached values must not be None")
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "maxsize": self.maxsize,
        }

    def describe(self) -> str:
        s = self.stats()
        total = s["hits"] + s["misses"]
        rate = (100.0 * s["hits"] / total) if total else 0.0
        return (
            f"cache: {s['hits']} hits / {s['misses']} misses "
            f"({rate:.0f}% hit rate), {s['size']}/{s['maxsize']} entries"
        )


# -- fingerprints ----------------------------------------------------------


def fingerprint(*parts: Any) -> str:
    """SHA-256 over the ``repr`` of ``parts``.

    Callers are responsible for passing *canonical* parts — strings,
    numbers, and tuples/sorted lists thereof — so that equal content
    yields equal keys regardless of construction order.
    """
    digest = hashlib.sha256(repr(parts).encode("utf-8"))
    return digest.hexdigest()


def json_fingerprint(value: Any) -> str:
    """Fingerprint of any JSON-serialisable value, via its canonical
    (sorted-keys) JSON form.

    The primitive behind the run store's content-addressed shard keys:
    equal values fingerprint identically however they were assembled,
    and the key survives a round-trip through JSON persistence.
    """
    return fingerprint(json.dumps(value, sort_keys=True))


def plan_fingerprint(plan: FaultPlan | None) -> str:
    """Canonical fingerprint of a fault plan (``None`` = fault-free).

    Hashes a tuple of every field of the plan and of its atoms, with
    each partition's edges sorted, so plans that are equal as values
    fingerprint identically however they were assembled (and in every
    process: no part depends on hash order).  Values enter by ``repr``,
    which keeps ``1``, ``1.0`` and ``True`` apart.  It keys the
    in-process memo only; the run store's persistent keys use
    :func:`json_fingerprint`.
    """
    if plan is None:
        return "fault-free"
    return fingerprint(
        plan.seed,
        plan.corrupt_pool,
        tuple(
            (f.edge, f.kind, f.start, f.end, f.delay, f.burst, f.period,
             f.probability)
            for f in plan.link_faults
        ),
        tuple(
            (tuple(sorted(map(repr, p.edges))), p.start, p.end)
            for p in plan.partitions
        ),
    )


def graph_fingerprint(graph: "CommunicationGraph") -> str:
    """Canonical fingerprint of a communication graph's shape."""
    return fingerprint(
        tuple(sorted(map(str, graph.nodes))),
        tuple(sorted(f"{u}->{v}" for (u, v) in graph.edges)),
    )


__all__ = [
    "BehaviorCache",
    "fingerprint",
    "graph_fingerprint",
    "json_fingerprint",
    "plan_fingerprint",
]
