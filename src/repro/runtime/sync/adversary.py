"""Faulty devices for the synchronous model.

The star of this module is :class:`ReplayDevice`, the operational form
of the paper's **Fault axiom**: given recorded edge behaviors
``E_1 .. E_d`` (each the behavior of the i-th outedge of a node running
``A`` in *some* system behavior), there is a device ``F_A(E_1..E_d)``
whose outedges exhibit exactly those behaviors.  A replay device simply
plays back a prerecorded message sequence on each port, ignoring
everything it hears — the ultimate masquerade.

The remaining devices are garden-variety Byzantine adversaries used to
stress the positive protocols: crash, silence, random lies, and
two-faced equivocation.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from typing import Any

from .behavior import EdgeBehavior
from .device import Message, NodeContext, PortLabel, State, SyncDevice


class ReplayDevice(SyncDevice):
    """The Fault-axiom device ``F_A(E_1, ..., E_d)``.

    Parameters
    ----------
    per_port:
        For each port label, the message sequence to play back (an
        :class:`EdgeBehavior` or plain sequence).  Ports not listed send
        nothing.  Beyond the end of a recorded sequence the device sends
        ``None``.
    """

    def __init__(
        self, per_port: Mapping[PortLabel, EdgeBehavior | Sequence[Message]]
    ) -> None:
        self._scripts: dict[PortLabel, tuple[Message, ...]] = {}
        for label, script in per_port.items():
            if isinstance(script, EdgeBehavior):
                self._scripts[label] = script.messages
            else:
                self._scripts[label] = tuple(script)

    def init_state(self, ctx: NodeContext) -> State:
        return ("replay",)

    def send(
        self, ctx: NodeContext, state: State, round_index: int
    ) -> dict[PortLabel, Message]:
        out = {}
        for label in ctx.ports:
            script = self._scripts.get(label, ())
            if round_index < len(script):
                out[label] = script[round_index]
        return out

    def transition(self, ctx, state, round_index, inbox) -> State:
        return state

    def scripted_rounds(self) -> int:
        """Longest scripted port; useful for choosing run horizons."""
        return max((len(s) for s in self._scripts.values()), default=0)


class CrashDevice(SyncDevice):
    """Runs an underlying device faithfully, then crashes: after
    ``crash_round`` it sends nothing, forever."""

    def __init__(self, inner: SyncDevice, crash_round: int) -> None:
        self._inner = inner
        self._crash_round = crash_round

    def init_state(self, ctx: NodeContext) -> State:
        return self._inner.init_state(ctx)

    def send(self, ctx, state, round_index) -> Mapping[PortLabel, Message]:
        if round_index >= self._crash_round:
            return {}
        return self._inner.send(ctx, state, round_index)

    def transition(self, ctx, state, round_index, inbox) -> State:
        if round_index >= self._crash_round:
            return state
        return self._inner.transition(ctx, state, round_index, inbox)


class SilentDevice(SyncDevice):
    """Sends nothing, ever."""

    def init_state(self, ctx: NodeContext) -> State:
        return ("silent",)

    def send(self, ctx, state, round_index) -> dict[PortLabel, Message]:
        return {}

    def transition(self, ctx, state, round_index, inbox) -> State:
        return state


class RandomLiarDevice(SyncDevice):
    """Sends pseudo-random values drawn from a pool, independently per
    port and round.  Deterministic given the seed (so systems containing
    it still have a single behavior).

    Each port's value is drawn from its own rng, seeded by ``(seed,
    round, port)``.  The draws for one ``(round, ports)`` pair are made
    on its first send and kept in a table on the instance, so a system
    run many times (the campaign shrinker's) draws once.  The table
    holds only what the seed determines, so it never changes a send.
    """

    def __init__(self, seed: int, value_pool: Sequence[Any] = (0, 1)) -> None:
        self._seed = seed
        self._pool = tuple(value_pool)
        self._sends: dict[tuple[int, tuple], dict[PortLabel, Message]] = {}

    def init_state(self, ctx: NodeContext) -> State:
        return ("liar", self._seed)

    def send(self, ctx, state, round_index) -> dict[PortLabel, Message]:
        key = (round_index, ctx.ports)
        out = self._sends.get(key)
        if out is None:
            out = self._sends[key] = {
                label: random.Random(
                    f"{self._seed}:{round_index}:{label!r}"
                ).choice(self._pool)
                for label in ctx.ports
            }
        return dict(out)

    def transition(self, ctx, state, round_index, inbox) -> State:
        return state


class TwoFacedDevice(SyncDevice):
    """Equivocator: runs one honest device toward one subset of ports
    and another honest device toward the rest.

    This is the classic "traitorous general" that tells half the army
    attack and the other half retreat; it is the qualitative behavior
    the Fault axiom bottles and the covering constructions exploit.
    """

    def __init__(
        self,
        face_one: SyncDevice,
        face_two: SyncDevice,
        ports_for_one: Sequence[PortLabel],
    ) -> None:
        self._one = face_one
        self._two = face_two
        self._ports_one = frozenset(ports_for_one)

    def _split(self, ctx: NodeContext) -> tuple[NodeContext, NodeContext]:
        ports_one = tuple(p for p in ctx.ports if p in self._ports_one)
        ports_two = tuple(p for p in ctx.ports if p not in self._ports_one)
        return (
            NodeContext(ports=ports_one, input=ctx.input),
            NodeContext(ports=ports_two, input=ctx.input),
        )

    def init_state(self, ctx: NodeContext) -> State:
        ctx1, ctx2 = self._split(ctx)
        return (self._one.init_state(ctx1), self._two.init_state(ctx2))

    def send(self, ctx, state, round_index) -> dict[PortLabel, Message]:
        ctx1, ctx2 = self._split(ctx)
        out: dict[PortLabel, Message] = {}
        out.update(self._one.send(ctx1, state[0], round_index))
        out.update(self._two.send(ctx2, state[1], round_index))
        return out

    def transition(self, ctx, state, round_index, inbox) -> State:
        ctx1, ctx2 = self._split(ctx)
        inbox1 = {p: m for p, m in inbox.items() if p in self._ports_one}
        inbox2 = {p: m for p, m in inbox.items() if p not in self._ports_one}
        return (
            self._one.transition(ctx1, state[0], round_index, inbox1),
            self._two.transition(ctx2, state[1], round_index, inbox2),
        )


class DelayedEchoDevice(SyncDevice):
    """Echoes back whatever it heard last round on each port — a
    "confused but consistent" fault used in protocol stress tests."""

    def init_state(self, ctx: NodeContext) -> State:
        return {label: None for label in ctx.ports}

    def send(self, ctx, state, round_index) -> dict[PortLabel, Message]:
        return {label: state[label] for label in ctx.ports}

    def transition(self, ctx, state, round_index, inbox) -> State:
        return dict(inbox)
