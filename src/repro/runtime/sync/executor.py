"""The synchronous executor.

Runs a :class:`~repro.runtime.sync.system.SyncSystem` for a fixed
number of rounds and records the full system behavior.  The executor
is the operational guarantee behind the paper's axioms:

* **Locality** holds because a node's next state is computed from its
  device, its input, its port labels and the messages on its inedges —
  nothing else is ever passed in.
* **Determinism** (one behavior per system) holds because devices are
  required to be pure; :func:`check_determinism` re-runs a system and
  compares traces.

The executor runs **compiled plans** (:mod:`repro.runtime.plan`):
:func:`run` compiles the system once and :func:`execute_plan` is the
tight loop over its flat tables.  Each round's messages live in one
list, the round's *row*, with one slot per directed edge: a node's send
fills its contiguous slot range and its inbox reads its in-edges'
slots.  Behaviors are byte-identical to the interpretive loop kept as
:func:`repro.testing.reference_sync_run` and differentially tested.
With an injector, the slots on the edges its plan names
(:attr:`~repro.runtime.faults.SyncFaultInjector.faulty_edges`) pass
through :meth:`~repro.runtime.faults.SyncFaultInjector.deliver` right
after their sender's send, in the reference's node-then-route order;
every other slot is delivered as sent, which is exactly what
``deliver`` would have done there.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from ... import obs
from ..faults import SyncFaultInjector
from ..plan import SyncPlan, compile_sync_plan
from .behavior import EdgeBehavior, NodeBehavior, SyncBehavior
from .system import SyncSystem


class ExecutionError(RuntimeError):
    """Raised when a device misbehaves structurally (bad port label,
    changed decision, ...)."""


def execute_plan(
    plan: SyncPlan,
    rounds: int,
    injector: SyncFaultInjector | None = None,
) -> SyncBehavior:
    """Execute a compiled plan for ``rounds`` rounds.

    This is the hot path: each round is two flat passes over the
    compiled nodes, one filling the round's message row and one reading
    every inbox from it, and the edge behaviors are the rows' columns.
    Executing the same plan twice yields equal behaviors (plans carry
    no per-run state).  Only the slots whose edge the injector's plan
    names reach ``injector.deliver``, so a fault-free run (or an edge
    no fault touches) pays nothing per slot.
    """
    if rounds < 0:
        raise ExecutionError("rounds must be non-negative")
    compiled, edges = plan.nodes, plan.edges
    faulty = injector.faulty_edges if injector is not None else ()
    senders = []
    receivers = []
    states = []
    decision: list[Any] = []
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

    # Telemetry is hoisted to one boolean per call; when off, the only
    # per-round cost below is this flag check.
    obs_on = obs.is_enabled()
    if obs_on:
        # Delivery events keep the sorted-edge order traces always had.
        delivery_order = sorted(range(len(edges)), key=lambda s: repr(edges[s]))

    rows = []
    state_rows = [states]
    for round_index in range(rounds):
        if obs_on:
            round_t0 = perf_counter()
            obs.emit(obs.ROUND_START, round=round_index)
            trace_mark = (
                len(injector.trace.records) if injector is not None else 0
            )

        # Phase 1: every node fills its slots of this round's row.  A
        # node's slots follow its predecessors', so appending in node
        # order fills each range.
        row: list[Any] = []
        for (node, send, ctx, valid, labels, faulted), state in zip(
            senders, states
        ):
            out = send(ctx, state, round_index)
            # A dict's keys are checked in one C call; anything else
            # (None, a list, ...) fails here exactly as the reference does.
            if type(out) is not dict or not valid.issuperset(out):
                for label in out:
                    if label not in valid:
                        raise ExecutionError(
                            f"device at {node!r} sent on unknown port {label!r}"
                        )
            if labels:  # a node without out-edges never reads `out`
                row += map(out.get, labels)
            for s in faulted:
                row[s] = injector.deliver(edges[s], round_index, row[s])
        rows.append(row)

        if obs_on:
            for s in delivery_order:
                obs.emit(
                    obs.MESSAGE_DELIVERY,
                    round=round_index,
                    src=str(edges[s][0]),
                    dst=str(edges[s][1]),
                    empty=row[s] is None,
                )
            injected = 0
            if injector is not None:
                fresh = injector.trace.records[trace_mark:]
                injected = len(fresh)
                for rec in sorted(
                    fresh, key=lambda r: (repr(r.edge), r.action, r.time)
                ):
                    obs.emit(
                        obs.FAULT_INJECTION,
                        round=round_index,
                        src=str(rec.edge[0]),
                        dst=str(rec.edge[1]),
                        action=rec.action,
                        time=rec.time,
                    )

        # Phase 2: every node consumes its inbox and moves.
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

        if obs_on:
            obs.emit(
                obs.ROUND_END,
                round=round_index,
                messages=len(edges),
                injected=injected,
            )
            obs.observe_span("executor.round", perf_counter() - round_t0)

    traces = map(NodeBehavior, zip(*state_rows), decision, decided_at)
    columns = zip(*rows) if rows else [()] * len(edges)
    return SyncBehavior(
        graph=plan.graph,
        rounds=rounds,
        node_behaviors=dict(zip((cn.node for cn in compiled), traces)),
        edge_behaviors=dict(zip(edges, map(EdgeBehavior, columns))),
    )


def run(
    system: SyncSystem,
    rounds: int,
    injector: SyncFaultInjector | None = None,
) -> SyncBehavior:
    """Execute ``system`` for ``rounds`` rounds; return its behavior.

    Compiles the system to a :class:`~repro.runtime.plan.SyncPlan`
    (memoized on the system object, so repeated runs compile once) and
    executes it.  With an ``injector`` (see :mod:`repro.runtime.faults`)
    the message slots of the edges its plan names pass through the
    injector between the send and receive phases (the rest cannot be
    touched by the plan and are delivered as sent); edge behaviors then
    record what the channel *delivered*, and the injector's trace
    records what it did.
    Without one, the code path is the classic reliable-channel
    executor, byte-for-byte.
    """
    return execute_plan(compile_sync_plan(system), rounds, injector)


def check_determinism(system: SyncSystem, rounds: int) -> bool:
    """Run the system twice — through one shared compiled plan — and
    compare traces.

    A ``True`` result is necessary (not sufficient) evidence that the
    devices are pure, i.e. that the system has the single behavior the
    paper's model demands.  Because both runs execute the *same*
    :class:`~repro.runtime.plan.SyncPlan`, this doubles as the plan
    layer's self-check: a plan that accumulated per-run state (or a
    compilation step that consulted mutable device state) would make
    the two executions diverge here.
    """
    plan = compile_sync_plan(system)
    first = execute_plan(plan, rounds)
    second = execute_plan(plan, rounds)
    return (
        dict(first.node_behaviors) == dict(second.node_behaviors)
        and dict(first.edge_behaviors) == dict(second.edge_behaviors)
    )
