#!/usr/bin/env python3
"""Gate the cost of switched-off telemetry and checkpointing.

Four hard gates, each comparing an instrumented path against a bare
version of the same work:

* telemetry — ``run()`` on a compiled plan with telemetry disabled
  (K8 majority, 10 rounds) against ``execute_plan`` on that plan.
* telemetry-faulted — the same on K8 over 5 rounds with six faulted
  links, so the slots that pass through the injector are gated too.
* telemetry-rounds — the same on one node over 500 rounds, where a
  round costs little more than the loop itself.
* checkpoint — ``run_campaign(memoize=False)`` with no run store (a
  surviving EIG campaign on K4, 40 attempts, at most one drop fault)
  against :func:`bare_scan`, a hand-rolled sample-execute-check loop
  with no journal branches.

The round loop emits nothing (a traced ``run()`` derives its round
events from what the run recorded), and both legs of the telemetry
gates run it, so those gates bound what ``run()`` adds around it.
That no telemetry reaches the loop is a structural test in the tier-1
suite (``tests/obs/test_export.py``).

Each gate times ``PAIRS`` back-to-back (bare, measured) pairs,
alternating which leg runs first, and takes the median of the
per-pair measured/bare ratios.  The script exits 1 if any median
exceeds its 1.05 budget or if the two legs of a gate behave
differently.

Usage::

    python scripts/overhead_gates.py
"""

import pathlib
import statistics
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parents[1] / "src")
)

from repro import obs  # noqa: E402
from repro.analysis.campaign import (  # noqa: E402
    CampaignConfig,
    _sample_attempt,
    execute_attempt,
    run_campaign,
)
from repro.graphs.builders import complete_graph  # noqa: E402
from repro.protocols.eig import eig_devices  # noqa: E402
from repro.protocols.naive import MajorityVoteDevice  # noqa: E402
from repro.runtime.faults import (  # noqa: E402
    FaultPlan,
    LinkFault,
    SyncFaultInjector,
)
from repro.runtime.plan import compile_sync_plan  # noqa: E402
from repro.runtime.sync.executor import execute_plan, run  # noqa: E402
from repro.runtime.sync.system import make_system  # noqa: E402

#: Hard ceiling on the disabled-telemetry / bare hot-path ratio.
TELEMETRY_OVERHEAD_BUDGET = 1.05

#: Hard ceiling on the store-disabled / bare-scan-loop ratio.
CHECKPOINT_OVERHEAD_BUDGET = 1.05

#: Timed (bare, measured) pairs per gate.
PAIRS = 101

def median_pair_ratio(bare, measured):
    """Median measured/bare wall-time ratio over ``PAIRS`` pairs.

    Even pairs run the bare leg first and odd pairs the measured leg,
    so neither leg always inherits the other's warm caches.  Returns
    the median and each leg's last result.
    """
    ratios = []
    for i in range(PAIRS):
        legs = (bare, measured) if i % 2 == 0 else (measured, bare)
        times = []
        results = []
        for leg in legs:
            start = time.perf_counter()
            results.append(leg())
            times.append(time.perf_counter() - start)
        if i % 2:
            times.reverse()
            results.reverse()
        ratios.append(times[1] / times[0])
    return statistics.median(ratios), results[0], results[1]


def telemetry_gate(n=8, rounds=10, faults=False):
    """Disabled-telemetry ``run()`` vs ``execute_plan``, on majority
    devices over ``K_n`` for ``rounds`` rounds.

    Without ``faults`` the devices exchange once and then idle, so
    later rounds cost little besides the round loop itself.  With
    ``faults``: flooding for every round under a plan that drops,
    corrupts and delays six links' slots from round 1 on; both legs'
    injection traces must match too.
    """
    graph = complete_graph(n)
    system = make_system(
        graph,
        {u: MajorityVoteDevice(rounds=rounds if faults else 1) for u in graph.nodes},
        {u: i % 2 for i, u in enumerate(graph.nodes)},
    )
    plan = compile_sync_plan(system)
    nodes = graph.nodes
    fault_plan = FaultPlan(
        link_faults=tuple(
            LinkFault(edge=(nodes[i], nodes[i + 1]), kind=kind, start=1)
            for i, kind in enumerate(("drop", "corrupt", "delay") * 2)
        ),
        seed=7,
    ) if faults else None

    def leg(execute):
        def timed():
            injector = SyncFaultInjector(fault_plan) if faults else None
            behavior = execute(injector)
            return behavior, injector.trace if faults else None

        return timed

    obs.reset()  # telemetry must be off for the measured leg
    ratio, bare, disabled = median_pair_ratio(
        leg(lambda injector: execute_plan(plan, rounds, injector)),
        leg(lambda injector: run(system, rounds, injector)),
    )
    return ratio, bare == disabled


def checkpoint_gate():
    """Store-less ``run_campaign`` vs :func:`bare_scan`.

    The campaign survives, so both legs scan every attempt.
    """
    config = CampaignConfig(
        graph=complete_graph(4),
        device_factory=lambda graph: dict(eig_devices(graph, 1)),
        rounds=2,
        max_node_faults=0,
        max_link_faults=1,
        attempts=40,
        seed=5,
        link_kinds=("drop",),
    )

    def bare_scan():
        oks = []
        for attempt in range(1, config.attempts + 1):
            node_faults, plan, inputs = _sample_attempt(config, attempt)
            verdict, _ = execute_attempt(
                config, inputs, node_faults, plan, None
            )
            oks.append(verdict.ok)
            if not verdict.ok:
                break
        return oks

    ratio, oks, result = median_pair_ratio(
        bare_scan, lambda: run_campaign(config, memoize=False)
    )
    same = (
        not result.broken
        and len(oks) == result.attempts == config.attempts
        and all(oks)
    )
    return ratio, same


GATES = (
    ("telemetry", "disabled/bare", TELEMETRY_OVERHEAD_BUDGET, telemetry_gate),
    (
        "telemetry-faulted",
        "disabled/bare",
        TELEMETRY_OVERHEAD_BUDGET,
        lambda: telemetry_gate(rounds=5, faults=True),
    ),
    (
        "telemetry-rounds",
        "disabled/bare",
        TELEMETRY_OVERHEAD_BUDGET,
        lambda: telemetry_gate(n=1, rounds=500),
    ),
    ("checkpoint", "store-less/bare", CHECKPOINT_OVERHEAD_BUDGET, checkpoint_gate),
)


def main():
    failed = []
    for name, label, budget, gate in GATES:
        ratio, same = gate()
        print(
            f"{name}: {label} median {ratio:.3f} over {PAIRS} pairs "
            f"(budget {budget:.2f}), equal behavior: {same}"
        )
        if ratio > budget or not same:
            failed.append(name)
    if failed:
        print(f"GATE FAILURES: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
