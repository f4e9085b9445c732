#!/usr/bin/env python3
"""Gate the cost of switched-off telemetry and checkpointing.

Two hard gates, each comparing an instrumented path against a bare
copy of the same work:

* telemetry — ``run()`` on a compiled plan with telemetry disabled
  (K8 majority, 10 rounds) against :func:`bare_execute_plan` below, a
  copy of ``execute_plan`` with the telemetry hooks stripped.
* checkpoint — ``run_campaign(memoize=False)`` with no run store (a
  surviving EIG campaign on K4, 40 attempts, at most one drop fault)
  against :func:`bare_scan`, a hand-rolled sample-execute-check loop
  with no journal branches.

Each gate times ``PAIRS`` back-to-back (bare, measured) pairs,
alternating which leg runs first, and takes the median of the
per-pair measured/bare ratios.  The script exits 1 if either median
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
from repro.runtime.plan import compile_sync_plan  # noqa: E402
from repro.runtime.sync.behavior import (  # noqa: E402
    EdgeBehavior,
    NodeBehavior,
    SyncBehavior,
)
from repro.runtime.sync.executor import (  # noqa: E402
    ExecutionError,
    _NodeRun,
    run,
)
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
    compiled = plan.nodes
    runs = []
    for cn in compiled:
        state = cn.device.init_state(cn.ctx)
        node_run = _NodeRun(states=[state])
        runs.append(node_run)
        node_run.observe_choice(cn.device, cn.ctx, 0, cn.node)

    edge_messages = {edge: [] for edge in plan.edges}
    faulty = injector.faulty_edges if injector is not None else frozenset()
    routed = []
    for cn, node_run in zip(compiled, runs):
        plain = []
        faulted = []
        for edge, label in cn.out_routes:
            route = (edge, label, edge_messages[edge])
            (faulted if edge in faulty else plain).append(route)
        routed.append((cn, node_run, tuple(plain), tuple(faulted)))

    for round_index in range(rounds):
        outboxes = {}
        for cn, node_run, plain, faulted in routed:
            out = cn.device.send(cn.ctx, node_run.states[-1], round_index)
            valid_ports = cn.valid_ports
            for label in out:
                if label not in valid_ports:
                    raise ExecutionError(
                        f"device at {cn.node!r} sent on unknown port {label!r}"
                    )
            for edge, label, sent in plain:
                message = out.get(label)
                outboxes[edge] = message
                sent.append(message)
            for edge, label, sent in faulted:
                message = injector.deliver(edge, round_index, out.get(label))
                outboxes[edge] = message
                sent.append(message)

        for cn, node_run in zip(compiled, runs):
            inbox = {
                label: outboxes[edge] for label, edge in cn.in_routes
            }
            state = cn.device.transition(
                cn.ctx, node_run.states[-1], round_index, inbox
            )
            node_run.states.append(state)
            node_run.observe_choice(cn.device, cn.ctx, round_index + 1, cn.node)

    node_behaviors = {
        cn.node: NodeBehavior(
            states=tuple(r.states),
            decision=r.decision,
            decided_at=r.decided_at,
        )
        for cn, r in zip(compiled, runs)
    }
    edge_behaviors = {
        edge: EdgeBehavior(tuple(msgs)) for edge, msgs in edge_messages.items()
    }
    return SyncBehavior(
        graph=plan.graph,
        rounds=rounds,
        node_behaviors=node_behaviors,
        edge_behaviors=edge_behaviors,
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


def telemetry_gate():
    """Disabled-telemetry ``run()`` vs :func:`bare_execute_plan`."""
    n, rounds = 8, 10
    graph = complete_graph(n)
    system = make_system(
        graph,
        {u: MajorityVoteDevice() for u in graph.nodes},
        {u: i % 2 for i, u in enumerate(graph.nodes)},
    )
    plan = compile_sync_plan(system)
    obs.reset()  # telemetry must be off for the measured leg
    ratio, bare, disabled = median_pair_ratio(
        lambda: bare_execute_plan(plan, rounds),
        lambda: run(system, rounds),
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
