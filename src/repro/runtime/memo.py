"""Bounded, content-addressed behavior memoization.

Systems here are deterministic by axiom — a (system, rounds,
FaultPlan) triple has exactly **one** behavior and one injection
trace.  That turns re-execution into a pure cache-lookup problem: the
campaign engine's delta-debugging shrinker re-runs hundreds of
overlapping plan subsets, a replay re-runs the exact shrunk
configuration, and scenario cut-outs re-run the same system at the
same horizon.  This module provides:

* :class:`BehaviorCache` — a bounded LRU mapping canonical fingerprint
  strings to results, with hit/miss counters (``cache.stats()``).
* :func:`fingerprint` / :func:`plan_fingerprint` /
  :func:`graph_fingerprint` — canonical content keys.  Fingerprints
  hash *values* (sorted node/edge names, the fault plan's JSON form),
  never object identities, so a rebuilt-but-equal configuration hits.

Correctness contract: a cache hit returns the *same objects* a fresh
execution would have produced equal objects to.  That is only sound
because devices are pure and behaviors/traces are treated as immutable
values everywhere in this repo — the executors never mutate a behavior
after returning it.
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

    The shared primitive behind :func:`plan_fingerprint` and the run
    store's content-addressed shard keys: equal values fingerprint
    identically however they were assembled, and the key survives a
    round-trip through JSON persistence.
    """
    return fingerprint(json.dumps(value, sort_keys=True))


def plan_fingerprint(plan: FaultPlan | None) -> str:
    """Canonical fingerprint of a fault plan (``None`` = fault-free).

    Uses the plan's JSON form with sorted keys, so plans that are equal
    as values fingerprint identically however they were assembled.
    """
    if plan is None:
        return "fault-free"
    return json_fingerprint(plan.to_dict())


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
