"""Golden-equivalence tests for compiled execution plans.

The compiled hot path (``compile_sync_plan`` + ``execute_plan``) must
be *observationally invisible*: byte-identical behaviors and injection
traces to the pre-compilation interpretive executor, which is kept
verbatim as :func:`repro.testing.reference_sync_run`.
"""

import pytest

from repro.graphs import triangle
from repro.graphs.builders import complete_graph, ring
from repro.protocols.naive import MajorityVoteDevice
from repro.runtime.faults import FaultPlan, LinkFault, SyncFaultInjector
from repro.runtime.plan import compile_sync_plan, compile_timed_plan
from repro.runtime.sync import (
    ExecutionError,
    FunctionDevice,
    check_determinism,
    make_system,
    run,
    uniform_system,
)
from repro.runtime.timed import LinearClock, make_timed_system, run_timed
from repro.runtime.timed.device import TimedDevice
from repro.testing import reference_sync_run


def _majority_system(n=4, rounds_input=None):
    g = complete_graph(n)
    devices = {u: MajorityVoteDevice() for u in g.nodes}
    inputs = {u: i % 2 for i, u in enumerate(g.nodes)}
    return make_system(g, devices, inputs)


def _fault_plan(graph):
    nodes = list(graph.nodes)
    return FaultPlan(
        link_faults=(
            LinkFault(edge=(nodes[0], nodes[1]), kind="drop", start=0, end=2),
            LinkFault(
                edge=(nodes[1], nodes[2]), kind="corrupt", start=1, end=3
            ),
        ),
        seed=17,
    )


class TestSyncPlanEquivalence:
    def test_fault_free_matches_reference(self):
        system = _majority_system()
        assert run(system, 4) == reference_sync_run(system, 4)

    def test_zero_rounds_matches_reference(self):
        system = _majority_system()
        assert run(system, 0) == reference_sync_run(system, 0)

    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_matches_reference_across_sizes(self, n):
        system = _majority_system(n)
        assert run(system, 10) == reference_sync_run(system, 10)

    def test_ring_matches_reference(self):
        g = ring(5)
        system = uniform_system(
            g,
            FunctionDevice(
                init=lambda ctx: (ctx.input,),
                send=lambda ctx, state, r: {p: state[-1] for p in ctx.ports},
                transition=lambda ctx, state, r, inbox: state
                + (tuple(sorted(map(repr, inbox.values()))),),
            ),
            {u: i for i, u in enumerate(g.nodes)},
        )
        assert run(system, 3) == reference_sync_run(system, 3)

    def test_fault_injected_matches_reference_including_trace(self):
        system = _majority_system()
        plan = _fault_plan(system.graph)
        i_planned = SyncFaultInjector(plan)
        i_reference = SyncFaultInjector(plan)
        planned = run(system, 4, injector=i_planned)
        reference = reference_sync_run(system, 4, injector=i_reference)
        assert planned == reference
        # The injector is consulted at exactly the same (edge, round)
        # points in the same order, so the traces are equal too.
        assert i_planned.trace == i_reference.trace

    def test_unknown_port_error_message_preserved(self):
        g = triangle()
        bad = FunctionDevice(
            init=lambda ctx: None,
            send=lambda ctx, state, r: {"no-such-port": 1},
            transition=lambda ctx, state, r, inbox: state,
        )
        system = uniform_system(g, bad, {u: 0 for u in g.nodes})
        with pytest.raises(ExecutionError, match="unknown port"):
            run(system, 1)
        with pytest.raises(ExecutionError, match="unknown port"):
            reference_sync_run(system, 1)

    def test_negative_rounds_rejected(self):
        system = _majority_system()
        with pytest.raises(ExecutionError, match="non-negative"):
            run(system, -1)


class TestSyncPlanCompilation:
    def test_plan_memoized_on_system(self):
        system = _majority_system()
        assert compile_sync_plan(system) is compile_sync_plan(system)

    def test_distinct_systems_get_distinct_plans(self):
        s1, s2 = _majority_system(), _majority_system()
        assert compile_sync_plan(s1) is not compile_sync_plan(s2)

    def test_plan_routes_cover_graph(self):
        system = _majority_system()
        plan = compile_sync_plan(system)
        g = system.graph
        assert set(plan.edges) == set(g.edges)
        out_edges = {e for cn in plan.nodes for (e, _) in cn.out_routes}
        in_edges = {e for cn in plan.nodes for (_, e) in cn.in_routes}
        assert out_edges == set(g.edges)
        assert in_edges == set(g.edges)

    def test_plan_run_matches_executor_run(self):
        system = _majority_system()
        plan = compile_sync_plan(system)
        assert plan.run(3) == run(system, 3)

    def test_check_determinism_on_compiled_plan(self):
        # check_determinism now doubles as a plan-layer self-check: it
        # compiles once and executes the same plan twice.
        check_determinism(_majority_system(), 3)


class _TimerDevice(TimedDevice):
    def __init__(self, at):
        self.at = at

    def on_start(self, ctx, api):
        for port in ctx.ports:
            api.send(port, ("hello", ctx.input))
        api.set_timer("wake", self.at)

    def on_message(self, ctx, api, port, message):
        pass

    def on_timer(self, ctx, api, name):
        api.decide((api.clock(), ctx.input))


class TestTimedPlan:
    def _system(self):
        g = triangle()
        return make_timed_system(
            g,
            {u: (lambda: _TimerDevice(3.0)) for u in g.nodes},
            {u: i for i, u in enumerate(g.nodes)},
            clocks={
                u: LinearClock(rate=1.0 + 0.1 * i, offset=0.5 * i)
                for i, u in enumerate(g.nodes)
            },
        )

    def test_timed_plan_memoized_on_system(self):
        system = self._system()
        assert compile_timed_plan(system) is compile_timed_plan(system)

    def test_timed_runs_are_deterministic_under_plan(self):
        system = self._system()
        b1 = run_timed(system, horizon=10.0)
        b2 = run_timed(system, horizon=10.0)
        assert b1 == b2
        # Devices still decide through their (skewed) hardware clocks.
        for u, decision in b1.decisions().items():
            assert decision is not None

    def test_receiver_port_table_matches_assignments(self):
        system = self._system()
        plan = compile_timed_plan(system)
        g = system.graph
        for u, v in g.edges:
            assert plan.by_node[u].sends[system.port(u, v)] == (
                (u, v),
                plan.by_node[v].rank,
                system.assignments[v].port_of_neighbor[u],
            )
