#!/usr/bin/env python3
"""Gate the cost of switched-off telemetry and checkpointing.

Three hard gates, each comparing an instrumented path against a bare
copy of the same work:

* telemetry — ``run()`` on a compiled plan with telemetry disabled
  (K8 majority, 10 rounds) against :func:`bare_execute_plan` below, a
  copy of ``execute_plan`` with the telemetry hooks stripped.
* telemetry-faulted — the same on K8 over 5 rounds with six faulted
  links, so the slots that pass through the injector are gated too.
* checkpoint — ``run_campaign(memoize=False)`` with no run store (a
  surviving EIG campaign on K4, 40 attempts, at most one drop fault)
  against :func:`bare_scan`, a hand-rolled sample-execute-check loop
  with no journal branches.

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
from repro.runtime.sync.behavior import (  # noqa: E402
    EdgeBehavior,
    NodeBehavior,
    SyncBehavior,
)
from repro.runtime.sync.executor import ExecutionError, run  # noqa: E402
from repro.runtime.sync.system import make_system  # noqa: E402

#: Hard ceiling on the disabled-telemetry / bare hot-path ratio.
TELEMETRY_OVERHEAD_BUDGET = 1.05

#: Hard ceiling on the store-disabled / bare-scan-loop ratio.
CHECKPOINT_OVERHEAD_BUDGET = 1.05

#: Timed (bare, measured) pairs per gate.
PAIRS = 101


def bare_execute_plan(plan, rounds, injector=None):
    """``execute_plan`` with the telemetry hooks stripped out entirely.

    The instrumented executor's disabled-telemetry cost is supposed to
    be one hoisted boolean check per call plus one flag test per round;
    this copy is the baseline that claim is measured against (the
    telemetry gate bounds the ratio).  Keep it in lockstep with
    :func:`repro.runtime.sync.executor.execute_plan` — the gate also
    asserts equal behaviors.
    """
    if rounds < 0:
        raise ExecutionError("rounds must be non-negative")
    compiled, edges = plan.nodes, plan.edges
    faulty = injector.faulty_edges if injector is not None else ()
    senders = []
    receivers = []
    states = []
    decision = []
    for i, cn in enumerate(compiled):
        r = cn.routes
        faulted = [
            s for s in range(r.out_slots.start, r.out_slots.stop)
            if edges[s] in faulty
        ] if faulty else ()
        senders.append(
            (cn.node, cn.device.send, cn.ctx, r.valid_ports, r.out_labels, faulted)
        )
        receivers.append((
            i, cn.node, cn.device.transition, cn.device.choose, cn.ctx,
            r.in_labels, r.in_slots,
        ))
        states.append(cn.device.init_state(cn.ctx))
        decision.append(cn.device.choose(cn.ctx, states[-1]))
    decided_at = [None if d is None else 0 for d in decision]

    rows = []
    state_rows = [states]
    for round_index in range(rounds):
        row = []
        for (node, send, ctx, valid, labels, faulted), state in zip(
            senders, states
        ):
            out = send(ctx, state, round_index)
            if type(out) is not dict or not valid.issuperset(out):
                for label in out:
                    if label not in valid:
                        raise ExecutionError(
                            f"device at {node!r} sent on unknown port {label!r}"
                        )
            if labels:
                row += map(out.get, labels)
            for s in faulted:
                row[s] = injector.deliver(edges[s], round_index, row[s])
        rows.append(row)

        slot = row.__getitem__
        moved = []
        for (i, node, transition, choose, ctx, labels, slots), state in zip(
            receivers, states
        ):
            state = transition(
                ctx, state, round_index, dict(zip(labels, map(slot, slots)))
            )
            moved.append(state)
            value = choose(ctx, state)
            if value is None:
                continue
            if decision[i] is None:
                decision[i], decided_at[i] = value, round_index + 1
            elif decision[i] != value:
                raise ExecutionError(
                    f"device at {node!r} changed its decision from "
                    f"{decision[i]!r} to {value!r} at round {round_index + 1}"
                )
        states = moved
        state_rows.append(states)

    traces = map(NodeBehavior, zip(*state_rows), decision, decided_at)
    columns = zip(*rows) if rows else [()] * len(edges)
    return SyncBehavior(
        graph=plan.graph,
        rounds=rounds,
        node_behaviors=dict(zip((cn.node for cn in compiled), traces)),
        edge_behaviors=dict(zip(edges, map(EdgeBehavior, columns))),
    )


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


def telemetry_gate(faults=False):
    """Disabled-telemetry ``run()`` vs :func:`bare_execute_plan`.

    Without ``faults``: K8 majority over 10 rounds.  With ``faults``:
    K8 flooding for 5 rounds under a plan that drops, corrupts and
    delays six links' slots from round 1 on; both legs' injection
    traces must match too.
    """
    n, rounds = 8, (5 if faults else 10)
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
    )

    def leg(execute):
        def timed():
            injector = SyncFaultInjector(fault_plan) if faults else None
            behavior = execute(injector)
            return behavior, injector.trace if faults else None

        return timed

    obs.reset()  # telemetry must be off for the measured leg
    ratio, bare, disabled = median_pair_ratio(
        leg(lambda injector: bare_execute_plan(plan, rounds, injector)),
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
            _, verdict, _ = execute_attempt(
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
        lambda: telemetry_gate(faults=True),
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
