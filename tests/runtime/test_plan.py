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


def _outcome(execute, system, rounds, injector):
    """What ``execute`` returned, or the type and text of what it
    raised, plus the injector's trace."""
    try:
        result = execute(system, rounds, injector)
    except Exception as exc:  # compared, never swallowed
        result = (type(exc), str(exc))
    return result, injector.trace


def _bad_sender(graph, bad):
    """Every node floods its input on round 0; on round 1 the last node
    in graph order returns ``bad(ctx)``, after the others have sent."""
    last = graph.nodes[-1]

    def send(ctx, state, r):
        if r == 1 and state[0] == last:
            return bad(ctx)
        return {p: state[1] for p in ctx.ports}

    device = FunctionDevice(
        init=lambda ctx: ctx.input,
        send=send,
        transition=lambda ctx, state, r, inbox: state,
    )
    return uniform_system(graph, device, {u: (u, i) for i, u in enumerate(graph.nodes)})


class TestSyncPlanEquivalence:
    def test_fault_free_matches_reference(self):
        system = _majority_system()
        behavior = run(system, 4)
        assert behavior == reference_sync_run(system, 4)
        assert set(behavior.edge_behaviors) == set(system.graph.edges)

    def test_zero_rounds_matches_reference(self):
        system = _majority_system()
        behavior = run(system, 0)
        assert behavior == reference_sync_run(system, 0)
        assert set(behavior.edge_behaviors) == set(system.graph.edges)

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

    @pytest.mark.parametrize(
        "bad",
        [
            lambda ctx: None,
            lambda ctx: [],
            lambda ctx: list(ctx.ports),
            lambda ctx: [[1]],  # an unhashable port label
            lambda ctx: [{1}],  # a set: `in` retries it as a frozenset
            lambda ctx: {**{p: 1 for p in ctx.ports}, "no-such-port": 1},
        ],
        ids=["none", "empty-list", "list", "unhashable", "set", "unknown"],
    )
    def test_malformed_send_raises_as_reference(self, bad):
        # Campaigns copy str(exc) into their `execution` violation and
        # keep the injector's trace, so both must match the reference.
        system = _bad_sender(complete_graph(4), bad)
        plan = _fault_plan(system.graph)
        compiled = _outcome(run, system, 3, SyncFaultInjector(plan))
        reference = _outcome(
            reference_sync_run, system, 3, SyncFaultInjector(plan)
        )
        assert isinstance(compiled[0], tuple)
        assert compiled == reference

    def test_changed_decision_raises_as_reference(self):
        # Decides the round count from round 1 on, so it changes its
        # decision at round 2.
        fickle = FunctionDevice(
            init=lambda ctx: 0,
            send=lambda ctx, state, r: {},
            transition=lambda ctx, state, r, inbox: state + 1,
            choose=lambda ctx, state: state or None,
        )
        graph = complete_graph(3)
        system = uniform_system(graph, fickle, {u: 0 for u in graph.nodes})
        plan = FaultPlan(link_faults=(), seed=0)
        compiled = _outcome(run, system, 4, SyncFaultInjector(plan))
        reference = _outcome(
            reference_sync_run, system, 4, SyncFaultInjector(plan)
        )
        assert compiled[0][0] is ExecutionError
        assert "changed its decision from 1 to 2 at round 2" in compiled[0][1]
        assert compiled == reference

    def test_delay_due_after_last_round_matches_reference(self):
        g = complete_graph(4)
        system = make_system(
            g,
            {u: MajorityVoteDevice(rounds=4) for u in g.nodes},
            {u: i % 2 for i, u in enumerate(g.nodes)},
        )
        nodes = g.nodes
        plan = FaultPlan(
            link_faults=(
                LinkFault(
                    edge=(nodes[0], nodes[1]), kind="delay", start=2, delay=3
                ),
            ),
            seed=5,
        )
        i_planned, i_reference = SyncFaultInjector(plan), SyncFaultInjector(plan)
        planned = run(system, 4, injector=i_planned)
        assert planned == reference_sync_run(system, 4, injector=i_reference)
        assert i_planned.trace == i_reference.trace
        assert [r.action for r in i_planned.trace.records] == ["delay", "delay"]
        # The delayed messages never arrive: both slots stay empty.
        assert planned.edge(nodes[0], nodes[1]).messages[2:] == (None, None)

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
        assert len(plan.edges) == len(g.edges)
        # Each node's out-edges are one contiguous slot range, in slot
        # order; its inbox reads exactly its in-edges.
        stop = 0
        for cn in plan.nodes:
            r = cn.routes
            assert r.out_slots.start == stop
            stop = r.out_slots.stop
            assert plan.edges[r.out_slots] == g.outedges(cn.node)
            assert r.out_labels == tuple(
                system.port(cn.node, v) for v in g.neighbors(cn.node)
            )
            assert tuple(plan.edges[s] for s in r.in_slots) == g.inedges(
                cn.node
            )
        assert stop == len(plan.edges)

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
