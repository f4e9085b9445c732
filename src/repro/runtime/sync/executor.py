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

Since PR 2 the executor runs **compiled plans**
(:mod:`repro.runtime.plan`): :func:`run` compiles the system once —
device objects, contexts, valid-port sets, ``(edge, port)`` routing
tables, inbox templates — and :func:`execute_plan` is the tight loop
over those flat structures.  The observable behavior is byte-identical
to the pre-plan interpretive loop (kept as
:func:`repro.testing.reference_sync_run` and differentially tested);
with an injector, each round's slots on the edges its plan names
(:attr:`~repro.runtime.faults.SyncFaultInjector.faulty_edges`) pass
through :meth:`~repro.runtime.faults.SyncFaultInjector.deliver` between
the send and receive phases, in the same node-then-route order as
before; every other slot is delivered as sent, which is exactly what
``deliver`` would have done there.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any

from ... import obs
from ...graphs.graph import DirectedEdge, NodeId
from ..faults import SyncFaultInjector
from ..plan import SyncPlan, compile_sync_plan
from .behavior import EdgeBehavior, NodeBehavior, SyncBehavior
from .device import NodeContext, SyncDevice
from .system import SyncSystem


class ExecutionError(RuntimeError):
    """Raised when a device misbehaves structurally (bad port label,
    changed decision, ...)."""


@dataclass
class _NodeRun:
    states: list[Any]
    decision: Any | None = None
    decided_at: int | None = None

    def observe_choice(
        self, device: SyncDevice, ctx: NodeContext, round_index: int, node: NodeId
    ) -> None:
        value = device.choose(ctx, self.states[-1])
        if value is None:
            return
        if self.decision is None:
            self.decision = value
            self.decided_at = round_index
        elif self.decision != value:
            raise ExecutionError(
                f"device at {node!r} changed its decision from "
                f"{self.decision!r} to {value!r} at round {round_index}"
            )


def execute_plan(
    plan: SyncPlan,
    rounds: int,
    injector: SyncFaultInjector | None = None,
) -> SyncBehavior:
    """Execute a compiled plan for ``rounds`` rounds.

    This is the hot path: everything per-node and per-edge was resolved
    at compile time, so each round is two flat passes over the compiled
    node tuple.  Executing the same plan twice yields equal behaviors
    (plans carry no per-run state).

    Each node's out-routes are split once per run into plain routes and
    the routes whose edge the injector's plan names; only the latter
    reach ``injector.deliver``, so a fault-free run (or an edge no fault
    touches) pays nothing per slot.
    """
    if rounds < 0:
        raise ExecutionError("rounds must be non-negative")
    compiled = plan.nodes
    runs: list[_NodeRun] = []
    for cn in compiled:
        state = cn.device.init_state(cn.ctx)
        node_run = _NodeRun(states=[state])
        runs.append(node_run)
        node_run.observe_choice(cn.device, cn.ctx, 0, cn.node)

    edge_messages: dict[DirectedEdge, list[Any]] = {
        edge: [] for edge in plan.edges
    }
    faulty = injector.faulty_edges if injector is not None else frozenset()
    routed = []
    for cn, node_run in zip(compiled, runs):
        plain = []
        faulted = []
        for edge, label in cn.out_routes:
            route = (edge, label, edge_messages[edge])
            (faulted if edge in faulty else plain).append(route)
        routed.append((cn, node_run, tuple(plain), tuple(faulted)))

    # Telemetry is hoisted to one boolean per call; when off, the only
    # per-round cost below is this flag check (the per-edge loops are
    # untouched).
    obs_on = obs.is_enabled()

    for round_index in range(rounds):
        if obs_on:
            round_t0 = perf_counter()
            obs.emit(obs.ROUND_START, round=round_index)
            trace_mark = (
                len(injector.trace.records) if injector is not None else 0
            )

        # Phase 1: every node emits this round's messages.
        outboxes: dict[DirectedEdge, Any] = {}
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

        if obs_on:
            # Delivery/injection events are emitted in sorted-edge
            # order, not routing order: compiled routing follows
            # frozenset iteration, which is hash-dependent and so not
            # stable across interpreter processes.
            for edge in sorted(outboxes, key=repr):
                obs.emit(
                    obs.MESSAGE_DELIVERY,
                    round=round_index,
                    src=str(edge[0]),
                    dst=str(edge[1]),
                    empty=outboxes[edge] is None,
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
        for cn, node_run in zip(compiled, runs):
            inbox = {
                label: outboxes[edge] for label, edge in cn.in_routes
            }
            state = cn.device.transition(
                cn.ctx, node_run.states[-1], round_index, inbox
            )
            node_run.states.append(state)
            node_run.observe_choice(cn.device, cn.ctx, round_index + 1, cn.node)

        if obs_on:
            obs.emit(
                obs.ROUND_END,
                round=round_index,
                messages=len(outboxes),
                injected=injected,
            )
            obs.observe_span("executor.round", perf_counter() - round_t0)

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
