"""Tie groups in the timed executor: a delivery that lands, with zero
transit, before the rest of a tie group is dispatched ahead of it.

In clock mode a delivery lands at ``clock⁻¹(clock(now) + δ)``, which
rounds to ``now`` when the sender's reading dwarfs ``δ``.  Below, ``b``
(rank 1) hears ``c`` and ``d`` at the same instant, a tie group, and
answers each to ``a`` (rank 0) with zero transit: ``a``'s delivery sorts
before the rest of ``b``'s group and must be dispatched first.
"""

from repro.graphs import CommunicationGraph
from repro.runtime.timed import LinearClock, make_timed_system
from repro.runtime.timed.device import TimedDevice

from .test_timed_equivalence import assert_equivalent


class _Relay(TimedDevice):
    def on_start(self, ctx, api):
        if ctx.input == "speak":
            api.send(ctx.ports[0], ("hello", api.clock()))

    def on_message(self, ctx, api, port, message):
        if ctx.input == "echo" and port != "a":
            api.send("a", ("echo", port, message))
        elif ctx.input == "sink":
            api.send("b", ("ack", message[1]))


def test_zero_transit_delivery_preempts_the_rest_of_a_tie_group():
    graph = CommunicationGraph(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("b", "d")]
    )
    # A power of two keeps clock and inverse exact, so b's reading plus
    # δ rounds back to b's own reading: zero transit.
    fast = LinearClock(2.0**66, 0.0)
    system = make_timed_system(
        graph,
        {u: _Relay for u in graph.nodes},
        {"a": "sink", "b": "echo", "c": "speak", "d": "speak"},
        delay=1.0,
        delay_mode="clock",
        clocks={"b": fast},
    )
    _, _, nodes, _ = assert_equivalent(system, 4.0)
    events = dict((u, evs) for u, evs, *_ in nodes)
    # b heard c and d at t = 1.0 and both acks at 2.0; a heard both
    # echoes at t = 1.0, with zero transit.
    receive_times = {
        u: [e[0] for e in evs if e[1] == "receive"] for u, evs in events.items()
    }
    assert receive_times["b"] == [1.0, 1.0, 2.0, 2.0]
    assert receive_times["a"] == [1.0, 1.0]
