"""Golden equivalence for the EIG device's send, receive and decide
paths.

:class:`EIGDevice` broadcasts in a precomputed roster order, expands
each broadcast payload once (memoized on the payload object's identity,
read off interned relay paths when it can) and resolves decisions level
by level from a shared path table with a counting majority.  All of it
must be observationally invisible: the pre-optimisation device, kept
here as :class:`ReferenceEIGDevice`, must produce the same states (down
to the insertion order of every tree dict), edge messages, decisions
and injection traces.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.adversary_search import STRATEGIES
from repro.analysis.campaign import (
    CampaignConfig,
    NodeFault,
    _build_system,
    _sample_attempt,
)
from repro.graphs import CommunicationGraph, complete_graph
from repro.protocols.eig import EIGDevice, _relays, _roster_table, eig_devices
from repro.runtime.faults import FaultPlan, LinkFault, SyncFaultInjector
from repro.runtime.sync import ReplayDevice, SyncDevice, make_system, run


def _strict_majority(values, default):
    """The dict-tally majority the device used before the counting one."""
    tally = {}
    for v in values:
        tally[v] = tally.get(v, 0) + 1
    for value, count in tally.items():
        if count * 2 > len(values):
            return value
    return default


class ReferenceEIGDevice(EIGDevice):
    """EIG before the fast path: every sender sorts its level on
    ``str`` keys, every receiver validates every payload itself, and
    the decision recurses over the tree from the root with a dict-tally
    majority."""

    def _level_entries(self, tree, level):
        return {path: v for path, v in tree.items() if len(path) == level}

    def send(self, ctx, state, round_index):
        tree, _decided = state
        if round_index >= self.rounds:
            return {}
        payload = tuple(
            sorted(
                self._level_entries(tree, round_index).items(),
                key=lambda kv: tuple(map(str, kv[0])),
            )
        )
        return {port: payload for port in ctx.ports}

    def transition(self, ctx, state, round_index, inbox):
        tree, decided = state
        if round_index >= self.rounds:
            return state
        tree = dict(tree)
        for path, value in self._level_entries(tree, round_index).items():
            if self.my_id not in path:
                tree[path + (self.my_id,)] = value
        for sender, payload in inbox.items():
            if payload is None:
                continue
            if not self._well_formed(payload, round_index):
                continue
            for path, value in payload:
                if sender not in path and len(path) == round_index:
                    tree[tuple(path) + (sender,)] = value
        if round_index == self.rounds - 1:
            decided = self._resolve(tree, ())
        return (tree, decided)

    def _well_formed(self, payload, level):
        if not isinstance(payload, tuple):
            return False
        for entry in payload:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                return False
            path = entry[0]
            if not isinstance(path, tuple) or len(path) != level:
                return False
            if len(set(path)) != len(path):
                return False
        return True

    def _resolve(self, tree, path):
        if len(path) == self.rounds:
            return tree.get(path, self.default)
        children = [
            self._resolve(tree, path + (q,))
            for q in self.all_ids
            if q not in path
        ]
        return _strict_majority(children, self.default)


def reference_eig_devices(graph, max_faults, default=0):
    roster = tuple(graph.nodes)
    return {
        u: ReferenceEIGDevice(u, roster, max_faults, default)
        for u in graph.nodes
    }


def _ordered(state):
    """A state with every dict replaced by its item list, so equality
    also compares insertion order."""
    if isinstance(state, dict):
        return ("dict", [(k, _ordered(v)) for k, v in state.items()])
    if isinstance(state, tuple):
        return tuple(_ordered(x) for x in state)
    return state


def _observe(system, rounds, plan):
    injector = SyncFaultInjector(plan)
    behavior = run(system, rounds, injector)
    return (
        {
            u: [_ordered(s) for s in b.states]
            for u, b in behavior.node_behaviors.items()
        },
        dict(behavior.edge_behaviors),
        behavior.decisions(),
        injector.trace,
    )


def _assert_equivalent(build, rounds, plan):
    """``build(factory)`` makes a system from an EIG device factory."""
    fast = _observe(build(eig_devices), rounds, plan)
    reference = _observe(build(reference_eig_devices), rounds, plan)
    assert fast[0] == reference[0], "node states differ"
    assert fast[1] == reference[1], "edge messages differ"
    assert fast[2] == reference[2], "decisions differ"
    assert fast[3] == reference[3], "injection traces differ"
    # ``==`` takes ``(True,)`` for ``(1,)``; the reprs tell them apart.
    assert repr(fast[:2]) == repr(reference[:2]), "states or messages differ"


def _config(n, f, links=0, kinds=("drop",), seed=0):
    return CampaignConfig(
        graph=complete_graph(n),
        device_factory=lambda g: eig_devices(g, f),
        rounds=f + 1,
        max_node_faults=f,
        max_link_faults=links,
        link_kinds=kinds,
        seed=seed,
    )


def _assert_attempt_equivalent(config, f, node_faults, plan, inputs):
    def build(factory):
        cfg = dataclasses.replace(config, device_factory=lambda g: factory(g, f))
        return _build_system(cfg, inputs, node_faults)

    _assert_equivalent(build, config.rounds, plan)


CAMPAIGNS = [
    pytest.param(4, 1, 0, ("drop",), 40, id="K4-f1"),
    pytest.param(
        7, 2, 3, ("drop", "corrupt", "delay"), 40, id="K7-f2-links"
    ),
    pytest.param(10, 3, 0, ("drop",), 3, id="K10-f3"),
]


class TestSeededCampaignAttempts:
    @pytest.mark.parametrize("n, f, links, kinds, attempts", CAMPAIGNS)
    def test_attempts_match_reference(self, n, f, links, kinds, attempts):
        config = _config(n, f, links, kinds, seed=n)
        for attempt in range(1, attempts + 1):
            node_faults, plan, inputs = _sample_attempt(config, attempt)
            _assert_attempt_equivalent(config, f, node_faults, plan, inputs)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_strategy_matches_reference(self, strategy):
        config = _config(7, 2, 3, ("drop", "corrupt", "delay"), seed=3)
        for attempt in range(1, 9):
            _, plan, inputs = _sample_attempt(config, attempt)
            node_faults = tuple(
                NodeFault(node, strategy, f"{config.seed}:{attempt}:{node}")
                for node in ("n5", "n6")
            )
            _assert_attempt_equivalent(config, 2, node_faults, plan, inputs)


class _Equivocator(SyncDevice):
    """Runs an EIG device, but sends ``flip_ports`` a fresh payload
    object with every value flipped: a two-faced sender whose faces
    differ in content, in the same round."""

    def __init__(self, inner, flip_ports):
        self._inner = inner
        self._flip = frozenset(flip_ports)

    def init_state(self, ctx):
        return self._inner.init_state(ctx)

    def send(self, ctx, state, round_index):
        out = dict(self._inner.send(ctx, state, round_index))
        for port in self._flip & set(out):
            out[port] = tuple((path, 1 - value) for path, value in out[port])
        return out

    def transition(self, ctx, state, round_index, inbox):
        return self._inner.transition(ctx, state, round_index, inbox)


class _Stuck(SyncDevice):
    """Sends its first-round EIG payload object again in every round:
    the same object, seen at several levels."""

    def __init__(self, inner):
        self._inner = inner

    def init_state(self, ctx):
        state = self._inner.init_state(ctx)
        return self._inner.send(ctx, state, 0)

    def send(self, ctx, state, round_index):
        return state

    def transition(self, ctx, state, round_index, inbox):
        return state


def _system_with(n, f, inputs, faulty):
    """``faulty(node, honest_device)`` wraps the device of node n{n-1}."""

    def build(factory):
        g = complete_graph(n)
        devices = dict(factory(g, f))
        bad = f"n{n - 1}"
        devices[bad] = faulty(bad, devices[bad])
        return make_system(g, devices, dict(zip(g.nodes, inputs)))

    return build


class TestRelayMemoMissPaths:
    def test_two_faced_sender_sends_different_objects_in_one_round(self):
        build = _system_with(
            4, 1, (1, 0, 1, 1), lambda bad, dev: _Equivocator(dev, {"n0"})
        )
        _assert_equivalent(build, 2, FaultPlan())
        build = _system_with(
            7, 2, (1, 0, 1, 1, 0, 0, 1),
            lambda bad, dev: _Equivocator(dev, {"n1", "n3"}),
        )
        _assert_equivalent(build, 3, FaultPlan())

    def test_corrupted_payload(self):
        # Corruption replaces a payload with a well-formed level-1 payload
        # from the pool: a new object that must be validated and expanded.
        pool = ((("n0",), 1), (("n1",), 0)), ((("n2",), 0),)
        plan = FaultPlan(
            link_faults=(
                LinkFault(edge=("n1", "n2"), kind="corrupt", start=0, end=2),
                LinkFault(edge=("n3", "n0"), kind="corrupt", start=1, end=2),
            ),
            seed=5,
            corrupt_pool=pool,
        )
        build = _system_with(4, 1, (1, 0, 1, 0), lambda bad, dev: dev)
        _assert_equivalent(build, 2, plan)

    def test_same_object_at_a_different_level(self):
        build = _system_with(4, 1, (0, 1, 1, 0), lambda bad, dev: _Stuck(dev))
        _assert_equivalent(build, 2, FaultPlan())
        delayed = FaultPlan(
            link_faults=(
                LinkFault(edge=("n2", "n0"), kind="delay", start=0, end=1, delay=1),
            ),
        )
        build = _system_with(4, 1, (0, 1, 1, 0), lambda bad, dev: dev)
        _assert_equivalent(build, 2, delayed)


class _Pair(tuple):
    """A plain tuple subclass: well formed, but never an interned entry."""


class _Rewrite(SyncDevice):
    """Runs an EIG device, but at round ``at`` sends
    ``rewrite(payload)`` in place of its payload."""

    def __init__(self, inner, at, rewrite):
        self._inner = inner
        self._at = at
        self._rewrite = rewrite

    def init_state(self, ctx):
        return self._inner.init_state(ctx)

    def send(self, ctx, state, round_index):
        out = self._inner.send(ctx, state, round_index)
        if round_index == self._at:
            out = {port: self._rewrite(m) for port, m in out.items()}
        return out

    def transition(self, ctx, state, round_index, inbox):
        return self._inner.transition(ctx, state, round_index, inbox)


class _Resend(SyncDevice):
    """Runs an EIG device, but at round ``again`` resends the payload
    objects it sent at round ``first``."""

    def __init__(self, inner, first, again):
        self._inner = inner
        self._first = first
        self._again = again

    def init_state(self, ctx):
        return (self._inner.init_state(ctx), {})

    def send(self, ctx, state, round_index):
        inner, sent = state
        if round_index == self._again:
            return sent
        return self._inner.send(ctx, inner, round_index)

    def transition(self, ctx, state, round_index, inbox):
        inner, sent = state
        if round_index == self._first:
            sent = self._inner.send(ctx, inner, round_index)
        return (self._inner.transition(ctx, inner, round_index, inbox), sent)


def _system_on(nodes, f, inputs, faulty):
    """:func:`_system_with` on the complete graph over ``nodes``; the
    last node is the faulty one."""

    def build(factory):
        nodes_ = list(nodes)
        g = CommunicationGraph(
            nodes_,
            [(u, v) for i, u in enumerate(nodes_) for v in nodes_[i + 1:]],
        )
        devices = dict(factory(g, f))
        devices[nodes_[-1]] = faulty(nodes_[-1], devices[nodes_[-1]])
        return make_system(g, devices, dict(zip(g.nodes, inputs)))

    return build


K7_INPUTS = (1, 0, 1, 1, 0, 0, 1)


class TestPayloadsOffTheRoster:
    """Payloads a faulty sender can build that are well formed but do
    not carry the roster's own path objects: receivers must relay them
    exactly as full validation does, and the senders of the next level
    must order them exactly as the ``str``-key sort does.  The same
    holds for a roster whose precomputed order cannot stand in for the
    sort."""

    def test_forged_path_is_relayed_at_the_next_level(self):
        forged = ((("zz",), 1),)
        build = _system_with(
            7, 2, K7_INPUTS,
            lambda bad, dev: ReplayDevice(
                {f"n{i}": [None, forged] for i in range(6)}
            ),
        )
        _assert_equivalent(build, 3, FaultPlan())
        _, edges, _, _ = _observe(build(eig_devices), 3, FaultPlan())
        assert (("zz", "n6"), 1) in edges[("n0", "n1")].messages[2]

    def test_level_one_payload_resent_at_level_two(self):
        build = _system_with(
            7, 2, K7_INPUTS, lambda bad, dev: _Resend(dev, 1, 2)
        )
        _assert_equivalent(build, 3, FaultPlan())

    def test_tuple_subclass_entry(self):
        def rewrite(payload):
            return (_Pair(payload[0]),) + payload[1:]

        build = _system_with(
            7, 2, K7_INPUTS, lambda bad, dev: _Rewrite(dev, 1, rewrite)
        )
        _assert_equivalent(build, 3, FaultPlan())

    @pytest.mark.parametrize(
        "twin", [(True,), (1.0,), None], ids=["True", "float", "copy"]
    )
    def test_path_equal_to_a_roster_path_but_not_identical(self, twin):
        def rewrite(payload):
            return tuple(
                ((path[0],) if twin is None else twin, value)
                if path == (1,) else (path, value)
                for path, value in payload
            )

        build = _system_on(
            range(7), 2, K7_INPUTS, lambda bad, dev: _Rewrite(dev, 1, rewrite)
        )
        _assert_equivalent(build, 3, FaultPlan())

    def test_roster_ids_that_share_a_str(self):
        # 0 and "0" both sort as "0": the sort then keeps tree insertion
        # order, which differs between nodes.
        build = _system_on((0, "0", 1, 2), 1, (1, 0, 1, 0), lambda b, d: d)
        _assert_equivalent(build, 2, FaultPlan())


class TestRelays:
    PAYLOAD = ((("n0",), 1), (("n1",), 0), (("n2",), 1))

    def test_expands_in_payload_order_skipping_the_sender(self):
        assert _relays(self.PAYLOAD, "n1", 1) == (
            (("n0", "n1"), 1),
            (("n2", "n1"), 1),
        )

    def test_hit_only_on_the_same_object(self):
        first = _relays(self.PAYLOAD, "n3", 1)
        assert _relays(self.PAYLOAD, "n3", 1) is first
        equal_copy = tuple(list(self.PAYLOAD))
        assert equal_copy is not self.PAYLOAD
        again = _relays(equal_copy, "n3", 1)
        assert again == first and again is not first

    def test_one_slot_per_sender_and_level(self):
        flipped = tuple((path, 1 - v) for path, v in self.PAYLOAD)
        assert _relays(self.PAYLOAD, "n3", 1)[0] == (("n0", "n3"), 1)
        assert _relays(flipped, "n3", 1)[0] == (("n0", "n3"), 0)
        assert _relays(self.PAYLOAD, "n3", 1)[0] == (("n0", "n3"), 1)
        # The same object is malformed one level down.
        assert _relays(self.PAYLOAD, "n3", 2) == ()

    def test_honest_runs_keep_to_the_interned_paths(self):
        # Each new graph brings new node objects and so its own table;
        # an honest run's tree keys must all be that table's paths, or
        # every broadcast would silently take the slow path.
        for _ in range(2):
            g = complete_graph(4)
            devices = eig_devices(g, 1)
            behavior = run(make_system(g, devices, dict.fromkeys(g.nodes, 1)), 2)
            table = _roster_table(*devices["n0"]._table_key)
            interned = {
                id(child)
                for level in table.relays
                for children in level.values()
                for child in children.values()
            }
            for u in g.nodes:
                tree, _ = behavior.node(u).states[-1]
                assert all(id(path) in interned for path in tree if path)

    @pytest.mark.parametrize(
        "payload, level",
        [
            (0, 1),
            (("corrupted", 1), 1),
            (((("n0",), 1, 2),), 1),
            (((("n0", "n1"), 1),), 1),
            (((["n0"], 1),), 1),
            (((("n0", "n0"), 1),), 2),
            (((([1],), 0),), 1),
        ],
        ids=["int", "bad-entry", "triple", "wrong-level", "list-path",
             "repeated-id", "unhashable-id"],
    )
    def test_malformed_payloads_relay_nothing(self, payload, level):
        assert _relays(payload, "n3", level) == ()
