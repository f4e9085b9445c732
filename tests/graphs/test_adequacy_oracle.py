"""An independent adequacy oracle: the Tseng–Vaidya path condition.

*Exact Byzantine Consensus in Directed Graphs* (Tseng and Vaidya)
characterizes the graphs on which Byzantine consensus tolerating ``f``
faults is solvable without counting nodes or computing connectivity:
for every partition ``F, L, C, R`` of the nodes with ``L`` and ``R``
non-empty and ``|F| <= f``, either ``C ∪ R ⇒ L`` or ``L ∪ C ⇒ R``.
Here ``A ⇒ B`` means some ``v`` in ``B`` has ``f + 1`` paths inside
``G − F`` from distinct nodes of ``A`` to ``v``, disjoint except at
``v``.  On undirected graphs this must coincide with FLM's condition
``n >= 3f + 1 and κ >= 2f + 1``, which ``is_adequate`` computes through
:mod:`repro.graphs.connectivity`; the oracle uses its own flow, so a
bug in that module cannot hide here.
"""

from collections import deque
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import connectivity_sweep, node_bound_sweep
from repro.graphs import (
    CommunicationGraph,
    circulant,
    complete_graph,
    is_adequate,
)


def _paths_into(graph, removed, sources, target, want):
    """How many paths (capped at ``want``) run inside ``graph − removed``
    from distinct nodes of ``sources`` to ``target``, disjoint except at
    ``target``: unit-capacity max-flow on the split-node digraph with a
    super-source feeding every source."""
    cap: dict[tuple, int] = {}
    adj: dict[object, list] = {}

    def arc(x, y):
        cap[(x, y)] = cap.get((x, y), 0) + 1
        cap.setdefault((y, x), 0)
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)

    sink = ("in", target)
    for u in graph.nodes:
        if u in removed:
            continue
        if u != target:
            arc(("in", u), ("out", u))
        for w in graph.neighbors(u):
            if w not in removed:
                arc(("out", u), ("in", w))
    for a in sources:
        arc("S", ("in", a))
    flow = 0
    while flow < want:
        parent = {"S": None}
        queue = deque(["S"])
        while queue and sink not in parent:
            x = queue.popleft()
            for y in adj.get(x, ()):
                if y not in parent and cap[(x, y)] > 0:
                    parent[y] = x
                    queue.append(y)
        if sink not in parent:
            break
        y = sink
        while parent[y] is not None:
            x = parent[y]
            cap[(x, y)] -= 1
            cap[(y, x)] += 1
            y = x
        flow += 1
    return flow


def tseng_vaidya_adequate(graph: CommunicationGraph, f: int) -> bool:
    """The path-form condition, brute-forced over every partition.

    Given ``F``, the set ``A`` in ``A ⇒ B`` is always the rest of
    ``V − F``, so the oracle first finds, for each ``F``, every
    non-empty ``B`` that is *not* reached (``V − F − B ⇒ B`` fails).
    A violating partition is then exactly a pair of disjoint such sets
    ``L`` and ``R`` (``C`` is what is left).
    """
    nodes = list(graph.nodes)
    for size in range(f + 1):
        for removed in combinations(nodes, size):
            alive = [u for u in nodes if u not in removed]
            unreached = []
            for labels in product((False, True), repeat=len(alive)):
                block = frozenset(u for u, b in zip(alive, labels) if b)
                if not block:
                    continue
                rest = [u for u in alive if u not in block]
                if not any(
                    _paths_into(graph, set(removed), rest, v, f + 1) > f
                    for v in block
                ):
                    unreached.append(block)
            for left, right in combinations(unreached, 2):
                if not left & right:
                    return False
    return True


def _graph_from_bits(n: int, bits) -> CommunicationGraph:
    pairs = list(combinations(range(n), 2))
    return CommunicationGraph(
        range(n), [pair for pair, keep in zip(pairs, bits) if keep]
    )


class TestOracleAgreesWithIsAdequate:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_labelled_graph_at_f1(self, n):
        edges = n * (n - 1) // 2
        for bits in product((False, True), repeat=edges):
            graph = _graph_from_bits(n, bits)
            assert tseng_vaidya_adequate(graph, 1) == is_adequate(graph, 1), (
                graph.edges
            )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.booleans(), min_size=15, max_size=15))
    def test_random_six_node_graphs_at_f1(self, bits):
        graph = _graph_from_bits(6, bits)
        assert tseng_vaidya_adequate(graph, 1) == is_adequate(graph, 1)

    @pytest.mark.parametrize("n, adequate", [(6, False), (7, True)])
    def test_complete_graphs_at_f2(self, n, adequate):
        graph = complete_graph(n)
        assert is_adequate(graph, 2) is adequate
        assert tseng_vaidya_adequate(graph, 2) is adequate

    @pytest.mark.parametrize("offsets", [(1,), (1, 2), (1, 2, 3)])
    def test_sweep_circulants(self, offsets):
        graph = circulant(8, list(offsets))
        assert tseng_vaidya_adequate(graph, 1) == is_adequate(graph, 1)


class TestSweepsAgreeWithOracle:
    """An engine witness appears exactly where the oracle says
    inadequate, and each row's ``adequate`` column matches it."""

    def _check(self, row, graph):
        oracle = tseng_vaidya_adequate(graph, row.max_faults)
        assert row.adequate is oracle, row
        assert ("witness found" in row.outcome) is (not oracle), row

    def test_connectivity_sweep(self):
        rows = connectivity_sweep()
        assert len(rows) == 3
        for offsets, row in zip([(1,), (1, 2), (1, 2, 3)], rows):
            self._check(row, circulant(8, list(offsets)))

    def test_node_bound_sweep(self):
        for row in node_bound_sweep((1,)):
            self._check(row, complete_graph(row.n_nodes))
