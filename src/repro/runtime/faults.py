"""Link-level fault injection for the synchronous runtime.

The paper's Fault axiom bottles *node* misbehavior; this module bottles
*channel* misbehavior.  A :class:`FaultPlan` is a declarative list of
per-edge faults — drops, corruption, delivery delays, periodic omission
bursts — plus partitions (an edge set cut over an interval).
Everything is deterministic given the plan (including its ``seed``), so
a system-plus-plan still has exactly one behavior, which keeps every
campaign run replayable.

One injector interprets a plan: :class:`SyncFaultInjector` interposes
on the synchronous executor's per-round message slots of the edges the
plan names (``start``/``end`` are round indices; delays are whole
rounds).  Campaigns are synchronous; the timed executor has no link
faults — its channels are reliable by construction.

Every action the injector takes is appended to an
:class:`InjectionTrace`; two runs of the same system under the same
plan produce identical traces, and the campaign engine
(:mod:`repro.analysis.campaign`) leans on that for counterexample
shrinking and one-command reproduction.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

from ..graphs.graph import CommunicationGraph, DirectedEdge, GraphError, NodeId

FAULT_KINDS = ("drop", "corrupt", "delay", "omit")


@dataclass(frozen=True)
class LinkFault:
    """One fault on one directed edge, active on ``start <= t < end``.

    Kinds
    -----
    ``drop``
        Every message in the window is lost.
    ``corrupt``
        Every message is replaced by a different value drawn
        deterministically from the plan's ``corrupt_pool``.
    ``delay``
        Delivery is postponed by ``delay`` rounds.
    ``omit``
        Periodic omission burst: within the window, the first ``burst``
        of every ``period`` rounds are dropped.

    ``probability < 1`` makes the fault fire on a per-slot seeded coin
    (still deterministic given the plan seed).
    """

    edge: DirectedEdge
    kind: str
    start: float = 0.0
    end: float = math.inf
    delay: float = 1.0
    burst: int = 1
    period: int = 2
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise GraphError(f"unknown link-fault kind {self.kind!r}")
        if self.start < 0 or self.end < self.start:
            raise GraphError("fault window must satisfy 0 <= start <= end")
        if self.kind == "delay" and self.delay <= 0:
            raise GraphError("delay faults need a positive delay")
        if self.kind == "omit" and not (0 < self.burst <= self.period):
            raise GraphError("omit faults need 0 < burst <= period")
        if not (0.0 < self.probability <= 1.0):
            raise GraphError("probability must be in (0, 1]")

    def active_at(self, t: float) -> bool:
        if not (self.start <= t < self.end):
            return False
        if self.kind == "omit":
            return ((t - self.start) % self.period) < self.burst
        return True

    def describe(self) -> str:
        u, v = self.edge
        window = f"[{self.start}, {'inf' if math.isinf(self.end) else self.end})"
        extra = ""
        if self.kind == "delay":
            extra = f" by {self.delay}"
        elif self.kind == "omit":
            extra = f" {self.burst}/{self.period}"
        if self.probability < 1.0:
            extra += f" p={self.probability}"
        return f"{self.kind}{extra} on {u}->{v} over {window}"


@dataclass(frozen=True)
class Partition:
    """An edge set cut over an interval — no message crosses it."""

    edges: frozenset[DirectedEdge]
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise GraphError("partition window must satisfy 0 <= start <= end")

    def active_at(self, edge: DirectedEdge, t: float) -> bool:
        return edge in self.edges and self.start <= t < self.end

    def describe(self) -> str:
        cut = ", ".join(sorted(f"{u}->{v}" for u, v in self.edges))
        window = f"[{self.start}, {'inf' if math.isinf(self.end) else self.end})"
        return f"partition {{{cut}}} over {window}"


def partition_between(
    graph: CommunicationGraph,
    side: Iterable[NodeId],
    start: float = 0.0,
    end: float = math.inf,
) -> Partition:
    """The partition cutting both directions between ``side`` and the
    rest of ``graph`` over ``[start, end)``."""
    inside = set(side)
    cut = frozenset(
        (u, v)
        for (u, v) in graph.edges
        if (u in inside) != (v in inside)
    )
    return Partition(edges=cut, start=start, end=end)


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, deterministic channel-fault schedule.

    The plan is a tuple of :class:`LinkFault` atoms plus a tuple of
    :class:`Partition` atoms; ``seed`` drives corruption values and
    probabilistic coins.  Plans are value objects: equal plans inject
    identically, and the campaign shrinker works by deleting atoms.
    """

    link_faults: tuple[LinkFault, ...] = ()
    partitions: tuple[Partition, ...] = ()
    seed: int = 0
    corrupt_pool: tuple[Any, ...] = (0, 1)

    @property
    def atoms(self) -> tuple[Any, ...]:
        """Shrinkable units: every link fault and every partition."""
        return self.link_faults + self.partitions

    def without_atoms(self, indices: Iterable[int]) -> "FaultPlan":
        """A copy with the atoms at ``indices`` (into :attr:`atoms`)
        removed — the shrinker's one move."""
        doomed = set(indices)
        kept = [a for i, a in enumerate(self.atoms) if i not in doomed]
        return FaultPlan(
            link_faults=tuple(a for a in kept if isinstance(a, LinkFault)),
            partitions=tuple(a for a in kept if isinstance(a, Partition)),
            seed=self.seed,
            corrupt_pool=self.corrupt_pool,
        )

    def faulty_edges(self) -> frozenset[DirectedEdge]:
        edges = {f.edge for f in self.link_faults}
        for p in self.partitions:
            edges |= p.edges
        return frozenset(edges)

    @property
    def size(self) -> int:
        return len(self.atoms)

    def is_trivial(self) -> bool:
        return not self.atoms

    def describe(self) -> str:
        if self.is_trivial():
            return "fault-free plan"
        return "; ".join(a.describe() for a in self.atoms)

    # -- persistence -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "corrupt_pool": list(self.corrupt_pool),
            "link_faults": [
                {
                    "edge": [str(f.edge[0]), str(f.edge[1])],
                    "kind": f.kind,
                    "start": f.start,
                    "end": None if math.isinf(f.end) else f.end,
                    "delay": f.delay,
                    "burst": f.burst,
                    "period": f.period,
                    "probability": f.probability,
                }
                for f in self.link_faults
            ],
            "partitions": [
                {
                    "edges": sorted(
                        [str(u), str(v)] for (u, v) in p.edges
                    ),
                    "start": p.start,
                    "end": None if math.isinf(p.end) else p.end,
                }
                for p in self.partitions
            ],
        }

    @staticmethod
    def from_dict(
        data: dict[str, Any], graph: CommunicationGraph
    ) -> "FaultPlan":
        """Rebuild a plan serialized by :meth:`to_dict`, resolving node
        names against ``graph`` (JSON stringifies node ids)."""
        by_name = {str(u): u for u in graph.nodes}

        def node(name: str) -> NodeId:
            if name not in by_name:
                raise GraphError(f"plan names unknown node {name!r}")
            return by_name[name]

        link_faults = tuple(
            LinkFault(
                edge=(node(f["edge"][0]), node(f["edge"][1])),
                kind=f["kind"],
                start=f["start"],
                end=math.inf if f["end"] is None else f["end"],
                delay=f.get("delay", 1.0),
                burst=f.get("burst", 1),
                period=f.get("period", 2),
                probability=f.get("probability", 1.0),
            )
            for f in data.get("link_faults", ())
        )
        partitions = tuple(
            Partition(
                edges=frozenset(
                    (node(u), node(v)) for u, v in p["edges"]
                ),
                start=p["start"],
                end=math.inf if p["end"] is None else p["end"],
            )
            for p in data.get("partitions", ())
        )
        return FaultPlan(
            link_faults=link_faults,
            partitions=partitions,
            seed=data.get("seed", 0),
            corrupt_pool=tuple(data.get("corrupt_pool", (0, 1))),
        )


@dataclass(frozen=True)
class InjectionRecord:
    """One action the injector took: what, where, when, and to which
    message."""

    time: float
    edge: DirectedEdge
    action: str  # drop | partition | corrupt | delay | deliver-delayed | preempt
    original: Any = None
    delivered: Any = None

    def describe(self) -> str:
        u, v = self.edge
        return (
            f"t={self.time} {u}->{v}: {self.action} "
            f"({self.original!r} -> {self.delivered!r})"
        )


@dataclass
class InjectionTrace:
    """The full record of a run's injected actions, in injection order.

    Structural equality is the module's determinism contract: same
    system + same plan ⇒ ``==`` traces.
    """

    records: list[InjectionRecord] = field(default_factory=list)

    def append(self, record: InjectionRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InjectionTrace):
            return NotImplemented
        return self.records == other.records

    def describe(self) -> str:
        if not self.records:
            return "no injections"
        return "\n".join(r.describe() for r in self.records)

    def to_jsonable(self) -> list[dict[str, Any]]:
        return [
            {
                "time": r.time,
                "edge": [str(r.edge[0]), str(r.edge[1])],
                "action": r.action,
                "original": repr(r.original),
                "delivered": repr(r.delivered),
            }
            for r in self.records
        ]


class SyncFaultInjector:
    """Interposes on the synchronous executor's per-round message slots.

    A plan can only act on the edges it names: link-fault edges and
    partition cuts, exposed as :attr:`faulty_edges`.  The executor calls
    :meth:`deliver` once per round for each of those edges that the
    graph has, in its routing order (node by node, then route by
    route), and passes every other slot through untouched — on those
    edges :meth:`deliver` would return the message unchanged and record
    nothing.  :meth:`deliver` returns what the receiver actually sees
    in the slot.  Semantics, in priority order:

    1. an active partition drops the slot;
    2. link faults on the edge apply in plan order — the first drop /
       omission / delay consumes the message, corruption rewrites it
       and continues;
    3. a delayed message due this round preempts the slot (the stale
       packet wins; the fresh one is recorded as ``preempt``-dropped).

    Delays are whole rounds: a plan with a non-integral sync delay is
    rejected with a :class:`GraphError` at construction.  A message
    delayed past the run's horizon is silently lost (its ``delay``
    record still shows the send).  Delayed messages are only ever
    pending on delay-faulted edges, which is what makes skipping the
    other edges exact.
    """

    def __init__(self, plan: FaultPlan) -> None:
        for fault in plan.link_faults:
            if fault.kind == "delay" and not float(fault.delay).is_integer():
                raise GraphError(
                    f"synchronous delays are whole rounds, got {fault.delay} "
                    f"on {fault.edge[0]}->{fault.edge[1]}"
                )
        self.plan = plan
        self._faults_by_edge: dict[DirectedEdge, list[LinkFault]] = {}
        for fault in plan.link_faults:
            self._faults_by_edge.setdefault(fault.edge, []).append(fault)
        self._pending: dict[DirectedEdge, dict[int, list[Any]]] = {}
        self.trace = InjectionTrace()
        self.faulty_edges: frozenset[DirectedEdge] = plan.faulty_edges()

    def _coin(self, fault: LinkFault, edge: DirectedEdge, t: float) -> bool:
        """Does a probabilistic fault fire on this slot?  Deterministic
        in (plan seed, fault, edge, round)."""
        if fault.probability >= 1.0:
            return True
        rng = random.Random(
            f"{self.plan.seed}:{fault.kind}:{edge!r}:{t}:{fault.start}"
        )
        return rng.random() < fault.probability

    def _corrupted(self, message: Any, edge: DirectedEdge, t: float) -> Any:
        """A deterministic replacement value different from ``message``
        whenever the pool allows one."""
        rng = random.Random(f"{self.plan.seed}:corrupt:{edge!r}:{t}")
        choices = [v for v in self.plan.corrupt_pool if v != message]
        if not choices:
            return ("corrupted", message)
        return rng.choice(choices)

    def deliver(
        self, edge: DirectedEdge, round_index: int, message: Any
    ) -> Any:
        candidate = message
        if candidate is not None:
            if any(
                p.active_at(edge, round_index) for p in self.plan.partitions
            ):
                self.trace.append(
                    InjectionRecord(
                        round_index, edge, "partition", candidate, None
                    )
                )
                candidate = None
            else:
                for fault in self._faults_by_edge.get(edge, ()):
                    if not fault.active_at(round_index):
                        continue
                    if not self._coin(fault, edge, round_index):
                        continue
                    if fault.kind in ("drop", "omit"):
                        self.trace.append(
                            InjectionRecord(
                                round_index, edge, "drop", candidate, None
                            )
                        )
                        candidate = None
                        break
                    if fault.kind == "delay":
                        due = round_index + int(fault.delay)
                        self._pending.setdefault(edge, {}).setdefault(
                            due, []
                        ).append(candidate)
                        self.trace.append(
                            InjectionRecord(
                                round_index, edge, "delay", candidate, due
                            )
                        )
                        candidate = None
                        break
                    if fault.kind == "corrupt":
                        replacement = self._corrupted(
                            candidate, edge, round_index
                        )
                        self.trace.append(
                            InjectionRecord(
                                round_index,
                                edge,
                                "corrupt",
                                candidate,
                                replacement,
                            )
                        )
                        candidate = replacement
        due_now = self._pending.get(edge, {}).pop(round_index, None)
        if due_now:
            delayed = due_now[0]
            for lost in due_now[1:]:
                self.trace.append(
                    InjectionRecord(round_index, edge, "preempt", lost, None)
                )
            if candidate is not None:
                self.trace.append(
                    InjectionRecord(
                        round_index, edge, "preempt", candidate, None
                    )
                )
            self.trace.append(
                InjectionRecord(
                    round_index, edge, "deliver-delayed", delayed, delayed
                )
            )
            return delayed
        return candidate


__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "InjectionRecord",
    "InjectionTrace",
    "LinkFault",
    "Partition",
    "SyncFaultInjector",
    "partition_between",
]
