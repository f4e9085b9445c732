"""EIG Byzantine agreement: correct on adequate graphs under every
adversary we can field — the positive half of Theorem 1's story."""

import pytest

from repro.graphs import GraphError, complete_graph
from repro.problems import ByzantineAgreementSpec
from repro.protocols import eig_devices
from repro.runtime.sync import (
    CrashDevice,
    DelayedEchoDevice,
    RandomLiarDevice,
    ReplayDevice,
    SilentDevice,
    TwoFacedDevice,
    make_system,
    run,
)

SPEC = ByzantineAgreementSpec()


def run_eig(n, f, inputs, faulty=()):
    g = complete_graph(n)
    devices = dict(eig_devices(g, f))
    for node, bad in dict(faulty).items():
        devices[node] = bad
    input_map = {u: inputs[i] for i, u in enumerate(g.nodes)}
    system = make_system(g, devices, input_map)
    behavior = run(system, f + 1)
    correct = [u for u in g.nodes if u not in dict(faulty)]
    return SPEC.check(input_map, behavior.decisions(), correct), behavior


class TestFaultFree:
    @pytest.mark.parametrize("inputs", [(0, 0, 0, 0), (1, 1, 1, 1), (1, 0, 1, 0)])
    def test_four_nodes_no_faults(self, inputs):
        verdict, _ = run_eig(4, 1, inputs)
        assert verdict.ok

    def test_unanimous_input_is_decided(self):
        _, behavior = run_eig(4, 1, (1, 1, 1, 1))
        assert all(v == 1 for v in behavior.decisions().values())

    def test_decides_exactly_after_f_plus_1_rounds(self):
        _, behavior = run_eig(4, 1, (1, 0, 1, 0))
        assert all(
            behavior.node(u).decided_at == 2 for u in behavior.graph.nodes
        )


class TestOneByzantineFault:
    @pytest.mark.parametrize(
        "bad_factory",
        [
            lambda: SilentDevice(),
            lambda: RandomLiarDevice(seed=7),
            lambda: DelayedEchoDevice(),
            lambda: ReplayDevice({"n0": [1, 0], "n1": [0, 1], "n2": [1, 1]}),
        ],
        ids=["silent", "liar", "echo", "replay"],
    )
    @pytest.mark.parametrize("inputs", [(1, 1, 1, 0), (0, 0, 0, 1)])
    def test_k4_tolerates_one_fault(self, bad_factory, inputs):
        verdict, _ = run_eig(4, 1, inputs, faulty={"n3": bad_factory()})
        assert verdict.ok, verdict.describe()

    def test_two_faced_general(self):
        g = complete_graph(4)
        honest = eig_devices(g, 1)
        two_faced = TwoFacedDevice(
            face_one=honest["n3"], face_two=honest["n3"], ports_for_one=["n0"]
        )
        verdict, _ = run_eig(4, 1, (1, 1, 1, 0), faulty={"n3": two_faced})
        assert verdict.ok

    def test_unhashable_path_is_ignored(self):
        # A path holding an unhashable element cannot key the tree; it is
        # garbage from a faulty node and must not crash honest receivers.
        garbage = ((([1],), 0),)
        bad = ReplayDevice({p: [None, garbage] for p in ("n0", "n1", "n2")})
        verdict, behavior = run_eig(4, 1, (1, 1, 1, 0), faulty={"n3": bad})
        assert verdict.ok, verdict.describe()
        for u in ("n0", "n1", "n2"):
            tree, _ = behavior.node(u).states[-1]
            assert not any(len(p) == 2 and p[-1] == "n3" for p in tree)

    def test_unhashable_value_does_not_crash_deciders(self):
        # The path is well formed, so the list value is relayed and
        # resolved; the majority must count it by equality, not hash it.
        garbage = (((), [1]),)
        bad = ReplayDevice({p: [garbage, garbage] for p in ("n0", "n1", "n2")})
        verdict, behavior = run_eig(4, 1, (1, 1, 1, 0), faulty={"n3": bad})
        assert verdict.ok, verdict.describe()
        assert {behavior.decisions()[u] for u in ("n0", "n1", "n2")} == {1}

    def test_equality_majority_matches_tally_and_takes_unhashables(self):
        from itertools import product

        from repro.protocols.eig import _majority

        from .test_eig_equivalence import _strict_majority

        def agree(values):
            got = _majority(list(values), "d")
            want = _strict_majority(values, "d")
            assert got is want, (values, got, want)

        for n in range(1, 8):
            for values in product((0, 1, 2), repeat=n):
                agree(values)
        # 1 == True == 1.0: one class, and the first occurrence wins.
        for values in product((1, True, 1.0, 0), repeat=4):
            agree(values)
        nan = float("nan")
        agree((nan, nan, 0))  # one object: counted by identity
        agree((float("nan"), float("nan"), 0))  # distinct NaNs never match
        agree((nan, float("nan"), nan, 0))
        assert _majority([[1], 0, [1]], "d") == [1]
        assert _majority([0, [1], 0], "d") == 0
        assert _majority([[1], [2], 0], "d") == "d"


class TestTwoByzantineFaults:
    @pytest.mark.parametrize("seed", range(5))
    def test_k7_tolerates_two_liars(self, seed):
        inputs = tuple((seed >> i) & 1 for i in range(7))
        verdict, _ = run_eig(
            7,
            2,
            inputs,
            faulty={
                "n5": RandomLiarDevice(seed=seed),
                "n6": RandomLiarDevice(seed=seed + 100),
            },
        )
        assert verdict.ok, verdict.describe()

    def test_k7_crash_and_liar(self):
        from repro.graphs import complete_graph as cg
        from repro.protocols import eig_devices as eig

        honest = eig(cg(7), 2)
        verdict, _ = run_eig(
            7,
            2,
            (1, 1, 1, 1, 1, 0, 0),
            faulty={
                "n5": CrashDevice(honest["n5"], crash_round=1),
                "n6": RandomLiarDevice(seed=3),
            },
        )
        assert verdict.ok


class TestGuards:
    def test_rejects_inadequate_node_count(self):
        with pytest.raises(GraphError):
            eig_devices(complete_graph(3), 1)

    def test_rejects_incomplete_graph(self):
        from repro.graphs import ring

        with pytest.raises(GraphError):
            eig_devices(ring(5), 1)
