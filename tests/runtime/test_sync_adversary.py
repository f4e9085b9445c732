"""Edge-case coverage for the synchronous adversary devices: crashing
at round zero, degenerate two-faced splits, and replay scripts shorter
than the horizon; the random liar's table of draws."""

import random

from repro.graphs import triangle
from repro.protocols import MajorityVoteDevice
from repro.runtime.sync import (
    CrashDevice,
    NodeContext,
    RandomLiarDevice,
    ReplayDevice,
    TwoFacedDevice,
    run,
    uniform_system,
)


def _with_faulty_a(device, inputs=None):
    g = triangle()
    system = uniform_system(
        g, MajorityVoteDevice(), inputs or {u: 1 for u in g.nodes}
    )
    return system.with_devices({"a": device})


class TestCrashDevice:
    def test_crash_at_round_zero_is_born_silent(self):
        system = _with_faulty_a(CrashDevice(MajorityVoteDevice(), 0))
        behavior = run(system, 2)
        assert behavior.edge("a", "b").messages == (None, None)
        assert behavior.edge("a", "c").messages == (None, None)
        # State never advances past init either.
        states = behavior.node("a").states
        assert all(s == states[0] for s in states)

    def test_crash_mid_run_sends_prefix_only(self):
        inner = MajorityVoteDevice(rounds=3)
        g = triangle()
        system = uniform_system(
            g, MajorityVoteDevice(rounds=3), {u: 1 for u in g.nodes}
        ).with_devices({"a": CrashDevice(inner, 1)})
        behavior = run(system, 3)
        assert behavior.edge("a", "b").messages == (1, None, None)


class TestTwoFacedDevice:
    def test_empty_split_runs_face_two_everywhere(self):
        two_faced = TwoFacedDevice(
            MajorityVoteDevice(), MajorityVoteDevice(), ports_for_one=[]
        )
        system = _with_faulty_a(two_faced)
        honest = _with_faulty_a(MajorityVoteDevice())
        assert (
            dict(run(system, 2).edge_behaviors)
            == dict(run(honest, 2).edge_behaviors)
        )

    def test_full_split_runs_face_one_everywhere(self):
        two_faced = TwoFacedDevice(
            MajorityVoteDevice(), MajorityVoteDevice(), ports_for_one=["b", "c"]
        )
        system = _with_faulty_a(two_faced)
        honest = _with_faulty_a(MajorityVoteDevice())
        assert (
            dict(run(system, 2).edge_behaviors)
            == dict(run(honest, 2).edge_behaviors)
        )

    def test_split_faces_see_disjoint_inboxes(self):
        # Face one talks to b only, face two to c only; each face's
        # majority is computed from its own port subset.
        two_faced = TwoFacedDevice(
            MajorityVoteDevice(), MajorityVoteDevice(), ports_for_one=["b"]
        )
        system = _with_faulty_a(two_faced, {"a": 1, "b": 0, "c": 1})
        behavior = run(system, 2)
        state_one, state_two = behavior.node("a").states[-1]
        assert state_one != state_two


class TestReplayDevice:
    def test_script_shorter_than_horizon_sends_none_after_end(self):
        replay = ReplayDevice({"b": [7], "c": [8, 9]})
        system = _with_faulty_a(replay)
        behavior = run(system, 4)
        assert behavior.edge("a", "b").messages == (7, None, None, None)
        assert behavior.edge("a", "c").messages == (8, 9, None, None)
        assert replay.scripted_rounds() == 2

    def test_unlisted_port_sends_nothing(self):
        replay = ReplayDevice({"b": [1, 2]})
        system = _with_faulty_a(replay)
        behavior = run(system, 2)
        assert behavior.edge("a", "c").messages == (None, None)


class TestRandomLiarDevice:
    POOL = (0, 1, "x")

    def _expected(self, seed, round_index, ports):
        # One rng per (seed, round, port): the device's documented draw.
        return {
            label: random.Random(f"{seed}:{round_index}:{label!r}").choice(
                self.POOL
            )
            for label in ports
        }

    def test_sends_equal_cold_warm_and_fresh(self):
        ctx = NodeContext(ports=("b", "c", "d"), input=0)
        liar = RandomLiarDevice(41, self.POOL)
        state = liar.init_state(ctx)
        cold = [liar.send(ctx, state, r) for r in range(6)]
        warm = [liar.send(ctx, state, r) for r in range(6)]
        fresh = RandomLiarDevice(41, self.POOL)
        again = [fresh.send(ctx, state, r) for r in reversed(range(6))][::-1]
        expected = [self._expected(41, r, ctx.ports) for r in range(6)]
        assert cold == warm == again == expected
        assert len({tuple(out.values()) for out in cold}) > 1

    def test_table_is_keyed_by_port_order(self):
        liar = RandomLiarDevice(7, self.POOL)
        for ports in (("b", "c", "d"), ("d", "c", "b"), ("c",), ()):
            out = liar.send(NodeContext(ports=ports, input=0), None, 2)
            assert list(out) == list(ports)
            assert out == self._expected(7, 2, ports)

    def test_sends_are_copies(self):
        ctx = NodeContext(ports=("b", "c"), input=0)
        liar = RandomLiarDevice(3, self.POOL)
        first = liar.send(ctx, None, 0)
        first["b"] = "tampered"
        del first["c"]
        assert liar.send(ctx, None, 0) == self._expected(3, 0, ctx.ports)
