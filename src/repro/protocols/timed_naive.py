"""Candidate devices for the timed problems — refutation targets for
Theorems 2, 4 and 8, and building blocks for the positive protocols.

All of them are honest, deterministic, and perfectly reasonable; on
adequate graphs (or with weaker fault models) variants of these ideas
work.  The engines show they cannot work on inadequate graphs.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from typing import Any

from ..runtime.timed.device import DeviceApi, Message, PortLabel, TimedContext, TimedDevice


class ExchangeOnceWeakDevice(TimedDevice):
    """Weak-agreement attempt: broadcast the input at time 0; at clock
    time ``decide_at`` decide the input if every neighbor reported the
    same value, else a default.

    ``decide_at`` must exceed the message delay so reports arrive.
    """

    def __init__(self, decide_at: float, default: int = 0) -> None:
        self.decide_at = decide_at
        self.default = default
        self._reports: dict[PortLabel, Any] = {}

    def on_start(self, ctx: TimedContext, api: DeviceApi) -> None:
        for port in ctx.ports:
            api.send(port, ("value", ctx.input))
        api.set_timer("decide", self.decide_at)

    def on_message(
        self, ctx: TimedContext, api: DeviceApi, port: PortLabel, message: Message
    ) -> None:
        kind, value = message
        if kind == "value" and port not in self._reports:
            self._reports[port] = value

    def on_timer(self, ctx: TimedContext, api: DeviceApi, name: Hashable) -> None:
        if name != "decide":
            return
        unanimous = all(
            self._reports.get(port) == ctx.input for port in ctx.ports
        ) and len(self._reports) == len(ctx.ports)
        api.decide(ctx.input if unanimous else self.default)


class AlarmWeakDevice(TimedDevice):
    """A two-phase weak-agreement attempt: broadcast the input; if any
    disagreement or silence is observed by ``alarm_at``, broadcast an
    alarm; decide at ``decide_at``: the input if no alarm was seen or
    raised, else the default.

    This is the natural fix to :class:`ExchangeOnceWeakDevice` — tell
    everyone you saw trouble before anyone commits.  With a positive
    minimum delay it still cannot work on inadequate graphs, which is
    exactly Theorem 2's point (and why the paper's footnote-4 protocol
    needs delays *not* bounded away from zero).
    """

    def __init__(
        self, alarm_at: float, decide_at: float, default: int = 0
    ) -> None:
        if decide_at <= alarm_at:
            raise ValueError("decide_at must come after alarm_at")
        self.alarm_at = alarm_at
        self.decide_at = decide_at
        self.default = default
        self._reports: dict[PortLabel, Any] = {}
        self._alarmed = False

    def on_start(self, ctx: TimedContext, api: DeviceApi) -> None:
        for port in ctx.ports:
            api.send(port, ("value", ctx.input))
        api.set_timer("alarm", self.alarm_at)
        api.set_timer("decide", self.decide_at)

    def on_message(self, ctx, api, port, message) -> None:
        kind, value = message
        if kind == "value" and port not in self._reports:
            self._reports[port] = value
        elif kind == "alarm":
            self._alarmed = True

    def on_timer(self, ctx, api, name) -> None:
        if name == "alarm":
            trouble = self._alarmed or any(
                self._reports.get(port) != ctx.input for port in ctx.ports
            )
            if trouble:
                self._alarmed = True
                for port in ctx.ports:
                    api.send(port, ("alarm", None))
        elif name == "decide":
            api.decide(self.default if self._alarmed else ctx.input)


class RelayFireDevice(TimedDevice):
    """Firing-squad attempt: on stimulus, broadcast GO and fire at the
    fixed clock time ``fire_at``; on hearing GO, fire at ``fire_at``
    too.  ``fire_at`` must exceed the network diameter times the delay
    so GO reaches everyone in all-correct behaviors."""

    def __init__(self, fire_at: float) -> None:
        self.fire_at = fire_at
        self._armed = False

    def _arm(self, api: DeviceApi) -> None:
        if self._armed:
            return
        self._armed = True
        if api.clock() >= self.fire_at:
            # Heard GO too late for the rendezvous (cannot happen in an
            # all-correct triangle run; on larger views it can): fire
            # immediately — better late than never, though simultaneity
            # is lost, which is the point.
            api.fire()
        else:
            api.set_timer("fire", self.fire_at)

    def on_start(self, ctx: TimedContext, api: DeviceApi) -> None:
        if ctx.input == 1:
            for port in ctx.ports:
                api.send(port, "GO")
            self._arm(api)

    def on_message(self, ctx, api, port, message) -> None:
        if message == "GO":
            for out in ctx.ports:
                if out != port:
                    api.send(out, "GO")
            self._arm(api)

    def on_timer(self, ctx, api, name) -> None:
        if name == "fire":
            api.fire()


class CountdownFireDevice(TimedDevice):
    """A subtler firing-squad attempt: GO messages carry a countdown so
    late hearers still fire at stimulus-time + ``fuse`` — provided the
    delay is *exactly* δ, which our model grants.  Works in all-correct
    behaviors of any graph with diameter · δ < fuse; still impossible
    to make Byzantine-proof on inadequate graphs."""

    def __init__(self, fuse: float, delay: float) -> None:
        self.fuse = fuse
        self.delay = delay
        self._armed = False

    def _arm(self, api: DeviceApi, remaining: float) -> None:
        if self._armed:
            return
        self._armed = True
        if remaining <= 0:
            api.fire()
        else:
            api.set_timer("fire", api.clock() + remaining)

    def on_start(self, ctx, api) -> None:
        if ctx.input == 1:
            for port in ctx.ports:
                api.send(port, ("GO", self.fuse - self.delay))
            self._arm(api, self.fuse)

    def on_message(self, ctx, api, port, message) -> None:
        kind, remaining = message
        if kind != "GO":
            return
        if not self._armed:
            for out in ctx.ports:
                api.send(out, ("GO", remaining - self.delay))
            self._arm(api, remaining)

    def on_timer(self, ctx, api, name) -> None:
        if name == "fire":
            api.fire()


@dataclass
class LowerEnvelopeClockDevice(TimedDevice):
    """The trivial synchronizer: run the logical clock at the lower
    envelope of the hardware clock, ``C(t) = l(D(t))``, with no
    communication.  Achieves skew exactly ``l(q(t)) - l(p(t))`` —
    which Theorem 8 proves is unbeatable in inadequate graphs."""

    lower: Any  # Envelope: Callable[[float], float]

    def on_start(self, ctx: TimedContext, api: DeviceApi) -> None:
        api.set_logical(self.lower)


class ExchangeMidpointClockDevice(TimedDevice):
    """A communicating synchronizer: broadcast the hardware reading at
    clock time ``exchange_at``; once all neighbors reported, shift the
    logical clock by the mean observed offset (compensating the known
    clock-units delay), then apply the lower envelope.

    On adequate graphs with honest neighbors this genuinely tightens
    the skew; the Theorem 8 engine shows it cannot survive the
    covering-ring adversary.
    """

    def __init__(self, lower, exchange_at: float, delay: float) -> None:
        self.lower = lower
        self.exchange_at = exchange_at
        self.delay = delay
        self._offsets: list[float] = []
        self._expected = 0

    def on_start(self, ctx: TimedContext, api: DeviceApi) -> None:
        self._expected = len(ctx.ports)
        api.set_logical(self.lower)
        if api.clock() >= self.exchange_at:
            # A clock already past the exchange time (an offset clock)
            # cannot set the timer; broadcast the reading at once.
            self._broadcast(ctx, api)
        else:
            api.set_timer("exchange", self.exchange_at)

    def on_timer(self, ctx, api, name) -> None:
        if name == "exchange":
            self._broadcast(ctx, api)

    def _broadcast(self, ctx, api) -> None:
        reading = api.clock()
        for port in ctx.ports:
            api.send(port, ("reading", reading))

    def on_message(self, ctx, api, port, message) -> None:
        kind, remote_reading = message
        if kind != "reading":
            return
        # The sender stamped its clock at send; our clock advanced by
        # `delay` clock units in transit under clock-mode delays only
        # if rates matched — use the naive estimate anyway (devices
        # may be wrong; they may not be lucky).
        local_estimate = api.clock() - self.delay
        self._offsets.append(remote_reading - local_estimate)
        if len(self._offsets) == self._expected:
            mean_offset = sum(self._offsets) / (len(self._offsets) + 1)
            lower = self.lower
            api.set_logical(lambda c, d=mean_offset: lower(c + d))
