"""Operational models satisfying the paper's axioms.

:mod:`repro.runtime.sync`
    Synchronous rounds; satisfies the Locality and Fault axioms.
    Hosts Theorems 1, 5, 6 and the round-based protocols.

:mod:`repro.runtime.timed`
    Continuous time with a minimum message delay and hardware clocks;
    additionally satisfies the Bounded-Delay Locality and Scaling
    axioms.  Hosts Theorems 2, 4, 8.

:mod:`repro.runtime.faults`
    Link-level fault injection for the synchronous runtime: declarative
    :class:`~repro.runtime.faults.FaultPlan` schedules (drop, corrupt,
    delay, omission bursts, partitions), the one deterministic
    injector :class:`~repro.runtime.faults.SyncFaultInjector`, and
    replayable injection traces.

:mod:`repro.runtime.plan`
    Compiled execution plans: everything the executors used to
    re-resolve per node per round/event, pre-resolved once per system
    (synchronous routes once per graph for its identity labelling).

:mod:`repro.runtime.memo`
    Bounded, content-addressed behavior memoization (determinism makes
    re-execution a cache lookup), with hit/miss counters.

The synchronous round loop lives in exactly one place,
:func:`repro.runtime.sync.executor.execute_plan`; the interpretive
:func:`repro.testing.reference_sync_run` is its differential oracle.
"""

from .faults import (
    FAULT_KINDS,
    FaultPlan,
    InjectionRecord,
    InjectionTrace,
    LinkFault,
    Partition,
    SyncFaultInjector,
    partition_between,
)
from .memo import (
    BehaviorCache,
    fingerprint,
    graph_fingerprint,
    plan_fingerprint,
)
from .plan import (
    SyncPlan,
    TimedPlan,
    compile_sync_plan,
    compile_timed_plan,
)

__all__ = [
    "FAULT_KINDS",
    "BehaviorCache",
    "FaultPlan",
    "InjectionRecord",
    "InjectionTrace",
    "LinkFault",
    "Partition",
    "SyncFaultInjector",
    "SyncPlan",
    "TimedPlan",
    "compile_sync_plan",
    "compile_timed_plan",
    "fingerprint",
    "graph_fingerprint",
    "partition_between",
    "plan_fingerprint",
]
