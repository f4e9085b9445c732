"""Differential tests: the sync executor against its reference copy.

:func:`repro.runtime.sync.run` compiles each system into slot-indexed
routes, fills one message row per round, passes only the slots of the
edges a fault plan names through the injector, and builds the edge
behaviors from the rows on first read.  The interpretive
:func:`repro.testing.reference_sync_run` does none of that.  On every
random system below (a connected graph, a shuffled port labelling,
devices from :mod:`repro.testing` mixed with label-sensitive, malformed
and fickle ones, a fault plan, 0 to 6 rounds) the two must agree on the
behavior, edge by edge, on the injection trace, on any exception's type
and text, and, with telemetry on, on the run-scope event stream.
"""

import math
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.graphs import CommunicationGraph, complete_graph
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultPlan,
    LinkFault,
    Partition,
    SyncFaultInjector,
)
from repro.runtime.sync import FunctionDevice, NodeAssignment, SyncSystem, run
from repro.testing import (
    agreement_device_families,
    averaging_device_families,
    constant_device,
    echo_device,
    reference_sync_run,
)

MAX_ROUNDS = 6

#: What a malformed ``send()`` returns: no dict at all, an empty or a
#: full list of labels, an unhashable label, a set (``in`` retries it
#: as a frozenset), and a dict with one unknown label among the valid.
_MALFORMED = {
    "none": lambda ctx: None,
    "empty-list": lambda ctx: [],
    "list": lambda ctx: list(ctx.ports),
    "unhashable": lambda ctx: [[1]],
    "set": lambda ctx: [{1}],
    "unknown": lambda ctx: {**{p: 1 for p in ctx.ports}, "no-such-port": 1},
}


def _label_echo(bad_round=None, bad=None):
    """Sends ``(round, port label, last state)`` on every port and keeps
    its whole inbox history, so a misrouted, skipped or re-ordered slot
    shows in the behavior.  With ``bad``, returns ``bad(ctx)`` from
    ``send`` at round ``bad_round`` instead."""

    def send(ctx, state, r):
        if r == bad_round:
            return bad(ctx)
        return {p: (r, repr(p), state[-1]) for p in ctx.ports}

    return FunctionDevice(
        init=lambda ctx: (ctx.input,),
        send=send,
        transition=lambda ctx, state, r, inbox: state
        + (tuple(sorted((repr(p), repr(m)) for p, m in inbox.items())),),
    )


def _fickle(change_round):
    """Counts rounds and decides the count from round 1 on, until
    ``change_round``; from then on it decides ``-1``.  A decision
    that moves at all is an ``ExecutionError`` in both executors."""
    return FunctionDevice(
        init=lambda ctx: 0,
        send=lambda ctx, state, r: {p: state for p in ctx.ports},
        transition=lambda ctx, state, r, inbox: state + 1,
        choose=lambda ctx, state: (
            None if state == 0 else 1 if state < change_round else -1
        ),
    )


_NAMINGS = (tuple("abcdef"), tuple(range(6)), tuple(("n", i) for i in range(6)))


@st.composite
def _graphs(draw):
    """A connected graph on 1–6 nodes: a random spanning tree plus
    random chords, with node and edge insertion order shuffled."""
    n = draw(st.integers(1, 6))
    names = draw(st.permutations(draw(st.sampled_from(_NAMINGS))[:n]))
    tree = [(names[i], names[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    chords = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    edges = tree + [(names[i], names[j]) for i, j in chords if i != j]
    return CommunicationGraph(
        draw(st.permutations(names)), draw(st.permutations(edges))
    )


@st.composite
def _labelling(draw, graph, u):
    """A shuffled port labelling of ``u``'s links: integers, strings,
    or the neighbor names themselves in another order."""
    neighbors = graph.neighbors(u)
    kind = draw(st.sampled_from(["int", "str", "names"]))
    if kind == "int":
        labels = list(range(len(neighbors)))
    elif kind == "str":
        labels = [f"p{i}" for i in range(len(neighbors))]
    else:
        labels = list(neighbors)
    return dict(zip(neighbors, draw(st.permutations(labels))))


@st.composite
def _devices(draw):
    kind = draw(
        st.sampled_from(
            # label-echo twice: it sends on every port every round,
            # so the faulted slots carry messages to inject on.
            ["constant", "echo", "agreement", "averaging"]
            + ["label-echo"] * 2
        )
    )
    if kind == "constant":
        return constant_device(draw(st.integers(0, 1)))
    if kind == "echo":
        return echo_device()
    if kind == "agreement":
        return draw(agreement_device_families())[0]
    if kind == "averaging":
        return draw(averaging_device_families())
    return _label_echo()


@st.composite
def _misbehaving(draw, rounds):
    """``None``, or a device that returns a malformed ``send()`` result
    or changes its decision at a drawn round, which may be the end of
    the run (so it never gets to)."""
    kind = draw(st.sampled_from(["malformed", None, "malformed", "fickle"]))
    if kind == "malformed":
        # The set twice: ``in`` and ``issuperset`` disagree only on it.
        bad = _MALFORMED[draw(st.sampled_from(["set", *sorted(_MALFORMED)]))]
        return _label_echo(draw(st.integers(0, rounds)), bad)
    if kind == "fickle":
        return _fickle(draw(st.integers(2, max(rounds, 2))))
    return None


@st.composite
def _fault_plans(draw, graph):
    """``None`` (no injector), or a plan mixing every fault kind,
    windows inside and past the run, delays past the horizon, coins,
    partitions, and faults on a non-edge and on an unknown node.  Most
    faults are open from an early round on with certainty, so most runs
    inject somewhere."""
    if draw(st.sampled_from([False] * 4 + [True])):
        return None
    nodes = list(graph.nodes)
    edges = sorted(graph.edges, key=repr)
    ghosts = [(nodes[0], "ghost")] + [
        (u, v) for u in nodes for v in nodes
        if u != v and not graph.has_edge(u, v)
    ][:1]
    # Half the faults sit on the first sender's links, so a later
    # node that fails mid-round does so after injected slots.
    targets = st.sampled_from(graph.outedges(nodes[0])) | st.sampled_from(edges)
    faults = [LinkFault(draw(st.sampled_from(ghosts)), "drop")]
    for _ in range(draw(st.integers(1, 8)) if edges else 0):
        kind = draw(st.sampled_from(FAULT_KINDS))
        start = draw(st.sampled_from([0, 0, 1, 2, MAX_ROUNDS]))
        end = draw(st.sampled_from([math.inf, math.inf, start + 1, start + 3]))
        extra = {}
        if kind == "delay":
            extra["delay"] = draw(st.integers(1, MAX_ROUNDS + 2))
        if kind == "omit":
            period = draw(st.integers(1, 3))
            extra.update(period=period, burst=draw(st.integers(1, period)))
        extra["probability"] = draw(st.sampled_from([1.0, 1.0, 1.0, 0.5]))
        faults.append(
            LinkFault(draw(targets), kind, start, end, **extra)
        )
    partitions = []
    if edges:
        for _ in range(draw(st.integers(0, 2))):
            cut = draw(st.sets(st.sampled_from(edges), min_size=1, max_size=3))
            start = draw(st.integers(0, MAX_ROUNDS))
            end = start + draw(st.integers(1, MAX_ROUNDS))
            partitions.append(Partition(frozenset(cut), start, end))
    return FaultPlan(
        link_faults=tuple(faults),
        partitions=tuple(partitions),
        seed=draw(st.integers(0, 2**16)),
        corrupt_pool=(0, 1, "junk"),
    )


@st.composite
def _random_systems(draw):
    graph = draw(_graphs())
    rounds = draw(st.integers(0, MAX_ROUNDS))
    devices = {u: draw(_devices()) for u in graph.nodes}
    # At most one misbehaving node, half the time the last in graph
    # order, so the nodes before it have sent (and had their faulted
    # slots injected) when it fails.
    odd = draw(_misbehaving(rounds))
    if odd is not None:
        nodes = graph.nodes
        devices[draw(st.just(nodes[-1]) | st.sampled_from(nodes))] = odd
    assignments = {
        u: NodeAssignment(
            device=devices[u],
            input=draw(st.integers(0, 1)),
            port_of_neighbor=draw(_labelling(graph, u)),
        )
        for u in graph.nodes
    }
    system = SyncSystem(graph, assignments)
    return system, draw(_fault_plans(graph)), rounds


def _outcome(execute, system, rounds, plan, traced=True):
    """The behavior (or the type and text of what was raised), the
    injection trace, and the run-scope events of one run, traced or
    not."""
    injector = SyncFaultInjector(plan) if plan is not None else None
    if traced:
        obs.enable()
    else:
        obs.reset()
    try:
        with obs.capture() as capsule:
            try:
                result = execute(system, rounds, injector)
            except Exception as exc:  # noqa: BLE001 - across executors
                result = (type(exc), str(exc))
        events = list(capsule.payload())
    finally:
        obs.reset()
    return result, injector.trace if injector is not None else None, events


def _event(kind, **fields):
    return kind, tuple(sorted(fields.items()))


def _reference_events(system, rounds, plan):
    """The run-scope stream a traced run emits, rebuilt from reference
    runs of each prefix length: per round, its start, one delivery per
    edge in ``repr`` order, the round's injections (the records a
    one-round-longer run adds) in ``(repr(edge), action, time)``
    order, and its end.  A round whose sends raise stops after its
    start.  A round whose moves raise (a transition, or a decision
    that changes) has its deliveries and injections but no end."""

    def sends_only(k):
        """The system with round ``k``'s moves and every decision left
        out, so that a run through round ``k`` raises only if a send
        does; its round-``k`` messages are the real ones."""

        def still(device):
            def transition(ctx, state, r, inbox):
                if r == k:
                    return state
                return device.transition(ctx, state, r, inbox)

            return FunctionDevice(device.init_state, device.send, transition)

        return SyncSystem(system.graph, {
            u: replace(a, device=still(a.device))
            for u, a in system.assignments.items()
        })

    def injector():
        return SyncFaultInjector(plan) if plan is not None else None

    events = []
    seen = 0
    edges = sorted(system.graph.edges, key=repr)
    for k in range(rounds):
        events.append(_event(obs.ROUND_START, round=k))
        injected = injector()
        try:
            behavior = reference_sync_run(sends_only(k), k + 1, injected)
        except Exception:  # noqa: BLE001 - a send raised
            return events
        for u, v in edges:
            events.append(_event(
                obs.MESSAGE_DELIVERY, round=k, src=str(u), dst=str(v),
                empty=behavior.edge(u, v).messages[k] is None,
            ))
        fresh = injected.trace.records[seen:] if injected is not None else []
        seen += len(fresh)
        for rec in sorted(fresh, key=lambda r: (repr(r.edge), r.action, r.time)):
            events.append(_event(
                obs.FAULT_INJECTION, round=k, src=str(rec.edge[0]),
                dst=str(rec.edge[1]), action=rec.action, time=rec.time,
            ))
        try:
            reference_sync_run(system, k + 1, injector())
        except Exception:  # noqa: BLE001 - a move raised
            return events
        events.append(_event(
            obs.ROUND_END, round=k, messages=len(edges), injected=len(fresh),
        ))
    return events


def assert_equivalent(system, plan, rounds):
    reference, r_trace, _ = _outcome(reference_sync_run, system, rounds, plan)
    plain, p_trace, p_events = _outcome(run, system, rounds, plan, traced=False)
    compiled, c_trace, c_events = _outcome(run, system, rounds, plan)
    assert p_trace == c_trace == r_trace
    assert p_events == []
    assert c_events == _reference_events(system, rounds, plan)
    if isinstance(reference, tuple):
        assert plain == compiled == reference
        return
    # Read the untraced run's message columns from its rows, then its
    # edge behaviors one lookup at a time, so the lazy build from the
    # rows is what gets compared, and then the columns again, now
    # taken from the built behaviors.
    edges = plain.edge_behaviors
    columns = {(u, v): reference.edge(u, v).messages for u, v in edges}
    assert {(u, v): plain.column(u, v) for u, v in edges} == columns
    assert len(edges) == len(reference.edge_behaviors)
    assert {e: edges[e] for e in reference.edge_behaviors} == dict(
        reference.edge_behaviors
    )
    assert {(u, v): plain.column(u, v) for u, v in edges} == columns
    assert set(edges) == set(system.graph.edges)
    assert plain == reference
    assert compiled == reference


def _k3_case(last_device):
    """K3 on reversed integer ports, label echoes everywhere but at the
    last node, and a drop fault on the first node's first link, for
    three rounds."""
    graph = complete_graph(3)
    last = graph.nodes[-1]
    assignments = {
        u: NodeAssignment(
            device=last_device if u == last else _label_echo(),
            input=i % 2,
            port_of_neighbor=dict(zip(graph.neighbors(u), (1, 0))),
        )
        for i, u in enumerate(graph.nodes)
    }
    plan = FaultPlan(
        link_faults=(LinkFault(graph.outedges(graph.nodes[0])[0], "drop"),)
    )
    return SyncSystem(graph, assignments), plan, 3


def _pinned_case():
    """The last node sends a set at round 1, after the first node's
    slots went through the drop fault: a run that delivers faulted
    slots only after every send, or that checks ports with
    ``issuperset`` alone, differs from the reference here."""
    return _k3_case(_label_echo(1, _MALFORMED["set"]))


@given(_random_systems())
@example(_pinned_case())
@example(_k3_case(_fickle(2)))  # round 1 injects, then a decision moves
@settings(max_examples=150, deadline=None)
def test_random_systems_match_reference(case):
    assert_equivalent(*case)


def test_reused_injector_emits_only_this_runs_injections():
    # The injector's trace already holds a whole run's records when the
    # traced run starts; only the ones that run appends are its events.
    system, plan, rounds = _k3_case(_label_echo())
    injector = SyncFaultInjector(plan)
    run(system, rounds, injector)
    held = len(injector.trace)
    assert held
    obs.enable()
    try:
        with obs.capture() as capsule:
            run(system, rounds, injector)
        events = list(capsule.payload())
    finally:
        obs.reset()
    assert len(injector.trace) == 2 * held
    assert events == _reference_events(system, rounds, plan)
