"""Faulty devices for the continuous-time model.

:class:`TimedReplayDevice` is the timed form of the Fault axiom: it
plays back, on each port, messages at prescribed *real* times —
regardless of anything it hears.  The executor schedules its script
directly, so a replay node reproduces recorded edge behaviors exactly
(including recordings taken in a different system, possibly
time-scaled — which is how the clock-synchronization engine realizes
Lemma 9's scaled scenarios).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

from .device import Message, PortLabel, TimedDevice


class TimedReplayDevice(TimedDevice):
    """Plays a fixed send script; deaf to all inputs.

    ``script`` is a sequence of ``(send_time, port, message,
    arrival_time)`` quadruples.  Arrival times are part of the recorded
    edge behavior — the edge behavior is the state of the transmitting
    end of the link, so a faithful masquerade must reproduce *when the
    receiver hears each message*, not re-derive it from the faulty
    node's own (possibly very different) clock.
    """

    def __init__(
        self, script: Iterable[tuple[float, PortLabel, Message, float]]
    ) -> None:
        entries = []
        for entry in script:
            send_time, port, message, arrival = entry
            if arrival < send_time:
                raise ValueError("arrival cannot precede the send")
            entries.append((send_time, port, message, arrival))
        self.script: tuple[tuple[float, PortLabel, Message, float], ...] = (
            tuple(sorted(entries, key=lambda s: (s[0], repr(s[1]))))
        )

    @classmethod
    def from_edge_sends(
        cls,
        per_port: dict[PortLabel, Sequence[tuple[float, Any, float]]],
        time_map=None,
    ) -> "TimedReplayDevice":
        """Build a replay from recorded edge behaviors
        (``(send_time, message, arrival)`` triples per port), optionally
        re-timing sends and arrivals with ``time_map`` (scaling)."""
        mapping = time_map or (lambda t: t)
        script = []
        for port, sends in per_port.items():
            for send_time, message, arrival in sends:
                script.append(
                    (mapping(send_time), port, message, mapping(arrival))
                )
        return cls(script)


class TimedSilentDevice(TimedDevice):
    """Never sends, never decides, never fires."""


class _Gated:
    """A device API whose sends stop at ``crash_time``; everything else
    is forwarded to the real API unchanged."""

    __slots__ = ("_api", "_crash_time")

    def __init__(self, api, crash_time: float) -> None:
        self._api = api
        self._crash_time = crash_time

    @property
    def now(self) -> float:
        return self._api.now

    def clock(self) -> float:
        return self._api.clock()

    def send(self, port, message) -> None:
        if self._api.now < self._crash_time:
            self._api.send(port, message)

    def set_timer(self, name, clock_value: float) -> None:
        self._api.set_timer(name, clock_value)

    def decide(self, value) -> None:
        self._api.decide(value)

    def fire(self) -> None:
        self._api.fire()

    def set_logical(self, fn) -> None:
        self._api.set_logical(fn)


class TimedCrashDevice(TimedDevice):
    """Runs an inner device until ``crash_time``, then goes silent.

    Implemented by filtering the API: sends after the crash are
    swallowed.
    """

    def __init__(self, inner: TimedDevice, crash_time: float) -> None:
        self._inner = inner
        self._crash_time = crash_time

    def on_start(self, ctx, api):
        self._inner.on_start(ctx, _Gated(api, self._crash_time))

    def on_message(self, ctx, api, port, message):
        if api.now >= self._crash_time:
            return
        self._inner.on_message(ctx, _Gated(api, self._crash_time), port, message)

    def on_timer(self, ctx, api, name):
        if api.now >= self._crash_time:
            return
        self._inner.on_timer(ctx, _Gated(api, self._crash_time), name)
