"""Unit tests of the timed covering-argument machinery."""

from itertools import count

import pytest

from repro.core import (
    TimedArgumentError,
    build_base_behavior_timed,
)
from repro.graphs import ring_cover_of_triangle, triangle
from repro.protocols import ExchangeOnceWeakDevice
from repro.runtime.timed import (
    install_in_covering_timed,
    run_timed,
)
from repro.runtime.timed.device import TimedDevice


def ring_setup(delta=1.0, horizon=4.0):
    covering = ring_cover_of_triangle(12)
    factories = {
        u: (lambda: ExchangeOnceWeakDevice(decide_at=2.0))
        for u in triangle().nodes
    }
    ring_nodes = covering.cover.nodes
    cover_inputs = {
        node: 1 if i < 6 else 0 for i, node in enumerate(ring_nodes)
    }
    cover_system = install_in_covering_timed(
        covering, factories, cover_inputs, delay=delta
    )
    cover_behavior = run_timed(cover_system, horizon)
    return covering, factories, cover_system, cover_behavior


class _CountingSender(TimedDevice):
    """Sends the next number of a shared counter on each port at start:
    the base run's sends differ from the cover run's, though the device
    reads nothing."""

    def __init__(self, sent):
        self._sent = sent

    def on_start(self, ctx, api):
        for port in ctx.ports:
            api.send(port, next(self._sent))


class TestBuildTimedBaseBehavior:
    def test_two_correct_one_replay(self):
        covering, factories, cover_system, cover_behavior = ring_setup()
        nodes = covering.cover.nodes
        constructed = build_base_behavior_timed(
            covering, cover_system, cover_behavior, [nodes[2], nodes[3]],
            factories,
        )
        assert len(constructed.correct_nodes) == 2
        assert len(constructed.faulty_nodes) == 1

    def test_inputs_copied_from_cover(self):
        covering, factories, cover_system, cover_behavior = ring_setup()
        nodes = covering.cover.nodes
        constructed = build_base_behavior_timed(
            covering, cover_system, cover_behavior, [nodes[5], nodes[6]],
            factories,
        )
        # Node 5 has input 1, node 6 has input 0 (the half boundary).
        assert sorted(constructed.inputs.values()) == [0, 1]

    def test_decisions_match_covering(self):
        covering, factories, cover_system, cover_behavior = ring_setup()
        nodes = covering.cover.nodes
        constructed = build_base_behavior_timed(
            covering, cover_system, cover_behavior, [nodes[0], nodes[1]],
            factories,
        )
        for ring_node in (nodes[0], nodes[1]):
            base_node = covering(ring_node)
            assert (
                constructed.behavior.node(base_node).decision
                == cover_behavior.node(ring_node).decision
            )

    def test_same_fiber_scenario_rejected(self):
        covering, factories, cover_system, cover_behavior = ring_setup()
        nodes = covering.cover.nodes
        with pytest.raises(TimedArgumentError):
            build_base_behavior_timed(
                covering, cover_system, cover_behavior,
                [nodes[0], nodes[3]],  # both map to the same base node
                factories,
            )

    def test_time_map_shifts_replay(self):
        """A scaled reconstruction with h = 2t halves all event times."""
        covering, factories, cover_system, cover_behavior = ring_setup()
        nodes = covering.cover.nodes

        # Identity-clock devices are not time-invariant under scaling
        # (they set timers at fixed clock values = real values), so a
        # pure time_map without matching clock scaling must FAIL the
        # locality check — which is itself a meaningful property: the
        # engine notices that scaling without the Scaling axiom's
        # clock adjustment is unsound.
        with pytest.raises(TimedArgumentError):
            build_base_behavior_timed(
                covering,
                cover_system,
                cover_behavior,
                [nodes[0], nodes[1]],
                factories,
                time_map=lambda t: t / 2,
                time_tolerance=1e-9,
            )

    def test_send_mismatch_raises(self):
        """The timed analogue of the synchronous edge-column check: a
        correct node's sends are events of its trace, so different
        sends fail the Locality identification."""
        covering = ring_cover_of_triangle(12)
        sent = count()
        factories = {
            u: (lambda: _CountingSender(sent)) for u in triangle().nodes
        }
        cover_system = install_in_covering_timed(
            covering, factories, {u: 0 for u in covering.cover.nodes},
            delay=1.0,
        )
        cover_behavior = run_timed(cover_system, 2.0)
        nodes = covering.cover.nodes
        with pytest.raises(TimedArgumentError, match="timed Locality"):
            build_base_behavior_timed(
                covering, cover_system, cover_behavior, [nodes[2], nodes[3]],
                factories,
            )
