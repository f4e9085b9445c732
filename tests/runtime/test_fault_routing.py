"""The compiled executor routes only faulted edges through the injector,
and compiles routes once per graph — both invisibly.

``execute_plan`` calls ``SyncFaultInjector.deliver`` only on the edges
the plan names (link-fault edges and partition cuts), and
``compile_sync_plan`` reuses one cached route table for every system
on a graph's shared identity labelling.  Both are checked here against
the interpretive :func:`repro.testing.reference_sync_run`, which still
passes every slot through the injector and re-resolves every port:
behaviors and injection traces must be equal, on seeded plans that
reach every injector branch.
"""

import math
import random

import pytest

from repro.graphs.builders import complete_graph, ring
from repro.graphs.coverings import hexagon_cover_of_triangle
from repro.protocols.naive import MajorityVoteDevice
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultPlan,
    LinkFault,
    Partition,
    SyncFaultInjector,
)
from repro.runtime.plan import compile_sync_plan
from repro.runtime.sync import (
    FunctionDevice,
    NodeAssignment,
    SyncSystem,
    install_in_covering,
    make_system,
    run,
)
from repro.testing import reference_sync_run

ROUNDS = 4


def _label_echo():
    """A device whose messages depend on its port labels and its whole
    history, so any misrouted or skipped slot shows in the behavior."""
    return FunctionDevice(
        init=lambda ctx: (ctx.input,),
        send=lambda ctx, state, r: {
            p: (len(state), repr(p), state[-1]) for p in ctx.ports
        },
        transition=lambda ctx, state, r, inbox: state
        + (tuple(sorted((repr(p), repr(m)) for p, m in inbox.items())),),
    )


def _devices(graph):
    return {
        u: _label_echo() if i % 2 else MajorityVoteDevice(rounds=ROUNDS)
        for i, u in enumerate(graph.nodes)
    }


def _inputs(graph, offset=0):
    return {u: (i + offset) % 2 for i, u in enumerate(graph.nodes)}


def _random_plan(graph, rng, seed):
    """A seeded plan over ``graph`` mixing every fault kind, windows
    that open and close inside the run, delays past the horizon,
    several delays per edge (preemption), coins with probability < 1,
    partitions overlapping link-fault edges, and faults on a non-edge
    and on an unknown node."""
    edges = sorted(graph.edges, key=repr)
    hot = rng.sample(edges, 3)  # few edges, so faults pile up on them
    faults = []
    for _ in range(rng.randint(2, 7)):
        kind = rng.choice(FAULT_KINDS)
        start = rng.randrange(ROUNDS)
        end = rng.choice([math.inf, start + rng.randint(1, ROUNDS)])
        extra = {}
        if kind == "delay":
            extra["delay"] = rng.randint(1, ROUNDS + 2)
        if kind == "omit":
            period = rng.randint(1, 3)
            extra.update(period=period, burst=rng.randint(1, period))
        if rng.random() < 0.3:
            extra["probability"] = rng.choice([0.25, 0.5, 0.75])
        faults.append(
            LinkFault(rng.choice(hot + edges), kind, start, end, **extra)
        )
    partitions = []
    for _ in range(rng.randint(0, 2)):
        cut = set(rng.sample(edges, rng.randint(1, 3)))
        cut.add(rng.choice(faults).edge)
        start = rng.randrange(ROUNDS)
        partitions.append(
            Partition(frozenset(cut), start, start + rng.randint(1, ROUNDS))
        )
    nodes = list(graph.nodes)
    non_edges = [
        (u, v) for u in nodes for v in nodes
        if u != v and not graph.has_edge(u, v)
    ]
    ghosts = [(nodes[0], "ghost")] + non_edges[:1]
    for edge in ghosts:
        faults.append(LinkFault(edge, rng.choice(FAULT_KINDS)))
    return FaultPlan(
        link_faults=tuple(faults),
        partitions=tuple(partitions),
        seed=seed,
        corrupt_pool=(0, 1, "junk"),
    )


def _both(system, plan, rounds=ROUNDS):
    """Run compiled and reference executors under fresh injectors."""
    compiled_injector = SyncFaultInjector(plan)
    reference_injector = SyncFaultInjector(plan)
    compiled = run(system, rounds, compiled_injector)
    reference = reference_sync_run(system, rounds, reference_injector)
    return compiled, reference, compiled_injector, reference_injector


class _CountingInjector(SyncFaultInjector):
    def __init__(self, plan):
        super().__init__(plan)
        self.slots = []

    def deliver(self, edge, round_index, message):
        self.slots.append((edge, round_index))
        return super().deliver(edge, round_index, message)


GRAPHS = {"ring5": lambda: ring(5), "k4": lambda: complete_graph(4)}


class TestFaultedEdgeRouting:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_seeded_plans_match_reference(self, graph_name):
        graph = GRAPHS[graph_name]()
        system = make_system(graph, _devices(graph), _inputs(graph))
        actions = set()
        past_horizon = 0
        for seed in range(60):
            plan = _random_plan(graph, random.Random(seed), seed)
            compiled, reference, ci, ri = _both(system, plan)
            assert compiled == reference, seed
            assert ci.trace == ri.trace, seed
            actions.update(r.action for r in ci.trace.records)
            past_horizon += sum(
                r.action == "delay" and r.delivered >= ROUNDS
                for r in ci.trace.records
            )
        # The seeded plans reach every branch of the injector.
        assert actions == {
            "drop", "corrupt", "delay", "deliver-delayed", "preempt",
            "partition",
        }
        assert past_horizon > 0

    def test_deliver_sees_only_faulted_edges_in_routing_order(self):
        graph = ring(5)
        system = make_system(graph, _devices(graph), _inputs(graph))
        plan = _random_plan(graph, random.Random(3), 3)
        injector = _CountingInjector(plan)
        run(system, ROUNDS, injector)
        touched = plan.faulty_edges() & graph.edges
        # Routing order: round by round, node by node, route by route.
        expected = [
            ((u, v), r)
            for r in range(ROUNDS)
            for u in graph.nodes
            for v in graph.neighbors(u)
            if (u, v) in touched
        ]
        assert injector.slots == expected

    def test_fault_free_injector_is_never_consulted(self):
        graph = complete_graph(4)
        system = make_system(graph, _devices(graph), _inputs(graph))
        injector = _CountingInjector(FaultPlan())
        assert run(system, ROUNDS, injector) == run(system, ROUNDS)
        assert injector.slots == []

    def test_device_raising_mid_send_leaves_same_trace_prefix(self):
        graph = complete_graph(4)
        first, _, crasher, _ = graph.nodes

        def send(ctx, state, r):
            if r == 2:
                raise RuntimeError(f"crash at round {r}")
            return {p: state[-1] for p in ctx.ports}

        devices = _devices(graph)
        devices[crasher] = FunctionDevice(
            init=lambda ctx: (ctx.input,),
            send=send,
            transition=lambda ctx, state, r, inbox: state + (r,),
        )
        system = make_system(graph, devices, _inputs(graph))
        for seed in range(20):
            plan = _random_plan(graph, random.Random(seed), seed)
            # A fault that acts in round 2 before the crasher sends.
            plan = FaultPlan(
                link_faults=plan.link_faults
                + (LinkFault((first, graph.neighbors(first)[0]), "drop"),),
                partitions=plan.partitions,
                seed=plan.seed,
                corrupt_pool=plan.corrupt_pool,
            )
            ci, ri = SyncFaultInjector(plan), SyncFaultInjector(plan)
            with pytest.raises(RuntimeError) as compiled_error:
                run(system, ROUNDS, ci)
            with pytest.raises(RuntimeError) as reference_error:
                reference_sync_run(system, ROUNDS, ri)
            assert str(compiled_error.value) == str(reference_error.value)
            assert ci.trace == ri.trace, seed
            assert any(r.time == 2 for r in ci.trace.records)


def _permuted_system(graph, devices, inputs, seed):
    """``graph`` with every node's labels a seeded permutation of its
    neighbor ids — a non-identity labelling over the same label set."""
    rng = random.Random(seed)
    assignments = {}
    for u in graph.nodes:
        neighbors = list(graph.neighbors(u))
        labels = neighbors[:]
        rng.shuffle(labels)
        assignments[u] = NodeAssignment(
            device=devices[u],
            input=inputs[u],
            port_of_neighbor=dict(zip(neighbors, labels)),
        )
    return SyncSystem(graph, assignments)


class TestRouteTable:
    def test_make_system_calls_share_one_route_table(self):
        graph = complete_graph(5)
        first = compile_sync_plan(
            make_system(graph, _devices(graph), _inputs(graph))
        )
        second = compile_sync_plan(
            make_system(graph, _devices(graph), _inputs(graph, offset=1))
        )
        assert first is not second
        for a, b in zip(first.nodes, second.nodes):
            assert a.routes is b.routes
            assert a.ctx.ports is b.ctx.ports
            assert a.device is not b.device
            assert a.ctx.input != b.ctx.input

    def test_identity_and_permuted_labels_match_reference(self):
        graph = complete_graph(5)
        devices, inputs = _devices(graph), _inputs(graph)
        identity = make_system(graph, devices, inputs)
        permuted = _permuted_system(graph, devices, inputs, seed=4)
        shared = compile_sync_plan(identity)
        own = compile_sync_plan(permuted)
        assert any(
            a.routes.out_labels != b.routes.out_labels
            for a, b in zip(shared.nodes, own.nodes)
        )
        for seed in range(10):
            plan = _random_plan(graph, random.Random(seed), seed)
            for system in (identity, permuted):
                compiled, reference, ci, ri = _both(system, plan)
                assert compiled == reference
                assert ci.trace == ri.trace
        # The permuted labelling changes what the devices see.
        assert run(identity, ROUNDS) != run(permuted, ROUNDS)
        # Compiling the permuted system left the shared table alone.
        again = compile_sync_plan(make_system(graph, devices, inputs))
        assert again.nodes[0].routes is shared.nodes[0].routes
        assert again.edges is shared.edges

    def test_covering_installation_matches_reference(self):
        covering = hexagon_cover_of_triangle()
        base = covering.base
        system = install_in_covering(
            covering,
            {w: _label_echo() for w in base.nodes},
            {u: i % 2 for i, u in enumerate(covering.cover.nodes)},
        )
        assert run(system, ROUNDS) == reference_sync_run(system, ROUNDS)
        for seed in range(10):
            plan = _random_plan(covering.cover, random.Random(seed), seed)
            compiled, reference, ci, ri = _both(system, plan)
            assert compiled == reference
            assert ci.trace == ri.trace
