"""Link-level fault injection: plan semantics, the synchronous
injector, and the determinism / non-interference contracts the campaign
engine relies on.
"""

import pytest

from repro.graphs import GraphError, line, triangle
from repro.protocols import MajorityVoteDevice
from repro.runtime.faults import (
    FaultPlan,
    LinkFault,
    Partition,
    SyncFaultInjector,
    partition_between,
)
from repro.runtime.sync import make_system, run, uniform_system


def majority_system(inputs=None):
    g = triangle()
    inputs = inputs or {"a": 1, "b": 0, "c": 0}
    return uniform_system(g, MajorityVoteDevice(), inputs)


class TestPlanValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError):
            LinkFault(("a", "b"), "teleport")

    def test_bad_window_rejected(self):
        with pytest.raises(GraphError):
            LinkFault(("a", "b"), "drop", start=3, end=1)

    def test_bad_omit_shape_rejected(self):
        with pytest.raises(GraphError):
            LinkFault(("a", "b"), "omit", burst=3, period=2)

    def test_atoms_and_without(self):
        plan = FaultPlan(
            link_faults=(
                LinkFault(("a", "b"), "drop"),
                LinkFault(("b", "c"), "delay", delay=1),
            ),
            partitions=(Partition(frozenset({("a", "c")})),),
        )
        assert plan.size == 3
        smaller = plan.without_atoms([0])
        assert smaller.size == 2
        assert smaller.link_faults == (LinkFault(("b", "c"), "delay", delay=1),)
        assert smaller.partitions == plan.partitions
        assert plan.faulty_edges() == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_partition_between_cuts_both_directions(self):
        g = triangle()
        cut = partition_between(g, ["a"])
        assert cut.edges == {("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")}

    def test_roundtrip_through_dict(self):
        g = triangle()
        plan = FaultPlan(
            link_faults=(
                LinkFault(("a", "b"), "corrupt", start=1, end=3),
                LinkFault(("b", "c"), "omit", burst=1, period=3, end=5),
            ),
            partitions=(partition_between(g, ["c"], 0, 2),),
            seed=7,
            corrupt_pool=(0, 1, 2),
        )
        rebuilt = FaultPlan.from_dict(plan.to_dict(), g)
        assert rebuilt == plan

    def test_from_dict_rejects_unknown_node(self):
        plan = FaultPlan(link_faults=(LinkFault(("a", "z"), "drop"),))
        with pytest.raises(GraphError):
            FaultPlan.from_dict(plan.to_dict(), triangle())


class TestSyncInjector:
    def test_fault_free_plan_changes_nothing(self):
        system = majority_system()
        plain = run(system, 2)
        injector = SyncFaultInjector(FaultPlan())
        injected = run(system, 2, injector)
        assert dict(plain.node_behaviors) == dict(injected.node_behaviors)
        assert dict(plain.edge_behaviors) == dict(injected.edge_behaviors)
        assert len(injector.trace) == 0

    def test_drop_loses_the_slot(self):
        system = majority_system()
        plan = FaultPlan(link_faults=(LinkFault(("a", "b"), "drop"),))
        injector = SyncFaultInjector(plan)
        behavior = run(system, 2, injector)
        assert behavior.edge("a", "b").messages[0] is None
        # The other direction is untouched.
        assert behavior.edge("b", "a").messages[0] == 0
        actions = [r.action for r in injector.trace.records]
        assert "drop" in actions

    def test_corrupt_replaces_with_pool_value(self):
        system = majority_system()
        plan = FaultPlan(
            link_faults=(LinkFault(("a", "b"), "corrupt"),),
            corrupt_pool=(0, 1),
        )
        injector = SyncFaultInjector(plan)
        behavior = run(system, 2, injector)
        # a's input is 1; the corrupted value must differ.
        assert behavior.edge("a", "b").messages[0] == 0
        record = injector.trace.records[0]
        assert record.action == "corrupt"
        assert record.original == 1 and record.delivered == 0

    def test_delay_arrives_k_rounds_later(self):
        g = line(2)
        system = make_system(
            g,
            {u: MajorityVoteDevice(rounds=1) for u in g.nodes},
            {"l0": 1, "l1": 0},
        )
        plan = FaultPlan(
            link_faults=(
                LinkFault(("l0", "l1"), "delay", start=0, end=1, delay=2),
            )
        )
        injector = SyncFaultInjector(plan)
        behavior = run(system, 4, injector)
        messages = behavior.edge("l0", "l1").messages
        assert messages[0] is None  # consumed by the delay
        assert messages[2] == 1  # delivered two rounds later
        actions = [r.action for r in injector.trace.records]
        assert actions.count("delay") == 1
        assert actions.count("deliver-delayed") == 1

    def test_delayed_message_preempts_fresh_one(self):
        g = line(2)
        system = make_system(
            g,
            # Two exchange rounds: l0 sends in rounds 0 and 1.
            {u: MajorityVoteDevice(rounds=2) for u in g.nodes},
            {"l0": 1, "l1": 0},
        )
        plan = FaultPlan(
            link_faults=(
                LinkFault(("l0", "l1"), "delay", start=0, end=1, delay=1),
            )
        )
        injector = SyncFaultInjector(plan)
        behavior = run(system, 3, injector)
        # Round 1's fresh send is preempted by round 0's delayed packet.
        assert behavior.edge("l0", "l1").messages[1] == 1
        actions = [r.action for r in injector.trace.records]
        assert "preempt" in actions

    def test_omit_burst_is_periodic(self):
        g = line(2)
        system = make_system(
            g,
            {u: MajorityVoteDevice(rounds=4) for u in g.nodes},
            {"l0": 1, "l1": 0},
        )
        plan = FaultPlan(
            link_faults=(
                LinkFault(("l0", "l1"), "omit", burst=1, period=2),
            )
        )
        behavior = run(system, 4, SyncFaultInjector(plan))
        messages = behavior.edge("l0", "l1").messages
        assert messages == (None, 1, None, 1)

    def test_partition_window_cuts_and_heals(self):
        plan = FaultPlan(
            partitions=(partition_between(triangle(), ["a"], 0, 1),)
        )
        g = triangle()
        inputs = {u: 1 for u in g.nodes}
        flood = make_system(
            g, {u: MajorityVoteDevice(rounds=3) for u in g.nodes}, inputs
        )
        behavior = run(flood, 3, SyncFaultInjector(plan))
        assert behavior.edge("a", "b").messages[0] is None
        assert behavior.edge("a", "b").messages[1] == 1  # healed
        assert behavior.edge("b", "c").messages[0] == 1  # inside edge fine

    def test_probabilistic_fault_is_deterministic(self):
        plan = FaultPlan(
            link_faults=(
                LinkFault(("a", "b"), "drop", probability=0.5, end=64),
            ),
            seed=11,
        )
        system = uniform_system(
            triangle(),
            MajorityVoteDevice(rounds=8),
            {u: 1 for u in triangle().nodes},
        )
        first = SyncFaultInjector(plan)
        second = SyncFaultInjector(plan)
        b1 = run(system, 8, first)
        b2 = run(system, 8, second)
        assert first.trace == second.trace
        assert dict(b1.edge_behaviors) == dict(b2.edge_behaviors)
        # A different seed flips at least some coins over 8 rounds.
        other = SyncFaultInjector(
            FaultPlan(link_faults=plan.link_faults, seed=12)
        )
        run(system, 8, other)
        assert other.trace != first.trace

    @pytest.mark.parametrize("delay", [0.5, 1.7])
    def test_fractional_delay_rejected(self, delay):
        # Sync delays are whole rounds: 0.5 used to deliver in the same
        # slot it delayed, and 1.7 was silently truncated to 1.
        plan = FaultPlan(
            link_faults=(LinkFault(("a", "b"), "delay", delay=delay),)
        )
        with pytest.raises(GraphError, match="whole rounds"):
            SyncFaultInjector(plan)

    def test_whole_float_delay_roundtrips_and_applies(self):
        g = line(2)
        plan = FaultPlan.from_dict(
            FaultPlan(
                link_faults=(
                    LinkFault(("l0", "l1"), "delay", start=0, end=1, delay=1.0),
                )
            ).to_dict(),
            g,
        )
        assert plan.link_faults[0].delay == 1.0
        system = make_system(
            g,
            {u: MajorityVoteDevice(rounds=1) for u in g.nodes},
            {"l0": 1, "l1": 0},
        )
        injector = SyncFaultInjector(plan)
        behavior = run(system, 3, injector)
        assert behavior.edge("l0", "l1").messages[:2] == (None, 1)
        assert [(r.time, r.action) for r in injector.trace.records] == [
            (0, "delay"),
            (1, "deliver-delayed"),
        ]

