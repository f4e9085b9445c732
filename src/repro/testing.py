"""Test-support toolkit: ready-made candidate device families.

Downstream users who implement a consensus device and want to know
"does the engine really refute *mine*?" — or who want to fuzz their
own protocols the way this library's property suite does — can build
candidates from these factories.  With hypothesis installed,
:func:`agreement_device_families` and :func:`averaging_device_families`
are search strategies over whole families of deterministic devices,
suitable for ``@given``.

Everything here returns pure devices (safe to install at several
covering nodes at once).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from .runtime.sync.device import FunctionDevice, SyncDevice
from .runtime.sync.executor import ExecutionError


def constant_device(value: Any) -> SyncDevice:
    """Decides ``value`` immediately, says nothing.  Satisfies
    agreement; Theorem 1's engine breaks it on validity."""
    return FunctionDevice(
        init=lambda ctx: value,
        send=lambda ctx, state, r: {},
        transition=lambda ctx, state, r, inbox: state,
        choose=lambda ctx, state: state,
    )


def echo_device() -> SyncDevice:
    """Decides its own input.  Satisfies validity; the engine breaks
    it on agreement."""
    return FunctionDevice(
        init=lambda ctx: ctx.input,
        send=lambda ctx, state, r: {},
        transition=lambda ctx, state, r, inbox: state,
        choose=lambda ctx, state: state,
    )


def gossip_rule_device(
    rounds: int,
    rule: Callable[[Any, tuple[Any, ...]], Any],
) -> SyncDevice:
    """Gossips the input for ``rounds`` rounds, then decides
    ``rule(own_input, received_values)``.

    ``rule`` must be deterministic.  ``received_values`` is the tuple
    of every non-``None`` payload heard, in a canonical order.
    """
    if rounds < 1:
        raise ValueError("need at least one gossip round")

    def init(ctx):
        return ((), None)

    def send(ctx, state, r):
        if r >= rounds:
            return {}
        return {p: ctx.input for p in ctx.ports}

    def transition(ctx, state, r, inbox):
        seen, decided = state
        if r < rounds:
            seen = seen + tuple(
                v
                for _, v in sorted(
                    inbox.items(), key=lambda kv: str(kv[0])
                )
                if v is not None
            )
        if r == rounds - 1 and decided is None:
            decided = rule(ctx.input, seen)
        return (seen, decided)

    def choose(ctx, state):
        return state[1]

    return FunctionDevice(init, send, transition, choose)


def majority_rule(default: Any = 0) -> Callable:
    def rule(own, seen):
        values = (own, *seen)
        tally: dict[Any, int] = {}
        for v in values:
            tally[v] = tally.get(v, 0) + 1
        best = max(tally.values())
        winners = sorted(
            (v for v, c in tally.items() if c == best), key=repr
        )
        return winners[0] if len(winners) == 1 else default

    return rule


def affine_blend_rule(w_min: float, w_max: float) -> Callable:
    """Real-valued rule: a convex blend of min, max, and own input."""
    if w_min < 0 or w_max < 0 or w_min + w_max > 1:
        raise ValueError("weights must be non-negative and sum to <= 1")
    w_own = 1.0 - w_min - w_max

    def rule(own, seen):
        pool = [float(own), *(float(v) for v in seen)]
        return w_min * min(pool) + w_max * max(pool) + w_own * float(own)

    return rule


# -- hypothesis strategies (optional dependency) -------------------------

# Imported on first use, not with this module: importers that only need
# the device factories or :func:`reference_sync_run` skip its import cost.


def _require_hypothesis():
    """The ``hypothesis.strategies`` module, or a clear ImportError."""
    try:
        from hypothesis import strategies
    except ImportError:  # pragma: no cover
        raise ImportError(
            "hypothesis is required for the strategy helpers; "
            "pip install hypothesis"
        ) from None
    return strategies


def agreement_device_families():
    """Hypothesis strategy over Boolean agreement-device families.

    Draws (device, rounds); feed the device to every node and the
    rounds+1 horizon to an engine — Theorem 1 guarantees a witness.
    """
    _st = _require_hypothesis()

    def build(draw_tuple):
        rounds, rule_name, seed = draw_tuple
        if rule_name == "majority":
            rule = majority_rule()
        elif rule_name == "min":
            rule = lambda own, seen: min((own, *seen))  # noqa: E731
        elif rule_name == "max":
            rule = lambda own, seen: max((own, *seen))  # noqa: E731
        elif rule_name == "own":
            rule = lambda own, seen: own  # noqa: E731
        else:  # seeded hash rule

            def rule(own, seen, _seed=seed):
                import hashlib

                digest = hashlib.sha256(
                    f"{_seed}:{own}:{seen}".encode()
                ).digest()
                return digest[0] % 2

        return gossip_rule_device(rounds, rule), rounds

    return _st.tuples(
        _st.integers(1, 3),
        _st.sampled_from(["majority", "min", "max", "own", "hash"]),
        _st.integers(0, 2**16),
    ).map(build)


def averaging_device_families():
    """Hypothesis strategy over real-valued one-exchange devices
    (affine blends of min/max/own) — Theorem 5/6 candidates."""
    _st = _require_hypothesis()

    def build(weights):
        w_min, frac = weights
        w_max = (1.0 - w_min) * frac
        return gossip_rule_device(1, affine_blend_rule(w_min, w_max))

    return _st.tuples(
        _st.floats(0.0, 1.0), _st.floats(0.0, 1.0)
    ).map(build)


# -- differential oracle for the compiled executor -------------------------


@dataclass
class _NodeRun:
    states: list[Any]
    decision: Any | None = None
    decided_at: int | None = None

    def observe_choice(self, device, ctx, round_index, node) -> None:
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


def reference_sync_run(system, rounds, injector=None):
    """The pre-compilation interpretive executor, kept verbatim as a
    differential-testing oracle.

    Re-resolves devices, contexts and port labels through the system on
    every round, exactly as ``repro.runtime.sync.executor.run`` did
    before execution plans existed.  The golden-equivalence tests
    assert that :func:`repro.runtime.sync.executor.run` (the plan-based
    hot path) produces behaviors — and injection traces — equal to this
    function's, for the same system, rounds and fault plan.
    """
    from .runtime.sync.behavior import EdgeBehavior, NodeBehavior, SyncBehavior

    if rounds < 0:
        raise ExecutionError("rounds must be non-negative")
    graph = system.graph
    contexts = {u: system.context(u) for u in graph.nodes}
    runs = {}
    for u in graph.nodes:
        device = system.device(u)
        state = device.init_state(contexts[u])
        node_run = _NodeRun(states=[state])
        runs[u] = node_run
        node_run.observe_choice(device, contexts[u], 0, u)

    edge_messages = {edge: [] for edge in graph.edges}

    for round_index in range(rounds):
        outboxes = {}
        for u in graph.nodes:
            device = system.device(u)
            ctx = contexts[u]
            out = device.send(ctx, runs[u].states[-1], round_index)
            valid_ports = set(ctx.ports)
            for label in out:
                if label not in valid_ports:
                    raise ExecutionError(
                        f"device at {u!r} sent on unknown port {label!r}"
                    )
            for neighbor in graph.neighbors(u):
                label = system.port(u, neighbor)
                message = out.get(label)
                if injector is not None:
                    message = injector.deliver(
                        (u, neighbor), round_index, message
                    )
                outboxes[(u, neighbor)] = message
                edge_messages[(u, neighbor)].append(message)

        for u in graph.nodes:
            device = system.device(u)
            ctx = contexts[u]
            inbox = {
                system.port(u, neighbor): outboxes[(neighbor, u)]
                for neighbor in graph.in_neighbors(u)
            }
            state = device.transition(
                ctx, runs[u].states[-1], round_index, inbox
            )
            runs[u].states.append(state)
            runs[u].observe_choice(device, ctx, round_index + 1, u)

    node_behaviors = {
        u: NodeBehavior(
            states=tuple(r.states),
            decision=r.decision,
            decided_at=r.decided_at,
        )
        for u, r in runs.items()
    }
    edge_behaviors = {
        edge: EdgeBehavior(tuple(msgs)) for edge, msgs in edge_messages.items()
    }
    return SyncBehavior(
        graph=graph,
        rounds=rounds,
        node_behaviors=node_behaviors,
        edge_behaviors=edge_behaviors,
    )

