#!/usr/bin/env python3
"""The adversary lab: attacking protocols from both directions.

The paper's engines give *constructive* impossibility — they build the
adversary.  On the possible side, we can only search: this example
throws hundreds of randomized Byzantine strategies at protocols and
reads the results next to the theory.  The search is a node-fault
campaign (``repro campaign --links 0``): up to f faulty nodes, each
running a randomized Byzantine strategy.

  1. Randomized search cannot break EIG at n = 3f + 1 (theory says the
     bounds are tight; the search agrees).
  2. The same search demolishes naive majority voting in seconds, and
     shrinks what it found to a minimal counterexample.
  3. The engine then does what no random search can: it *derives* the
     adversary for the triangle, and we print the traitor's complete
     message transcript — the masquerade the Fault axiom bottles.
  4. Cost dashboard: what the surviving protocols pay (messages,
     traffic, rounds), including Bracha reliable broadcast.

Run:  python examples/adversary_lab.py
"""

from repro.analysis import format_table
from repro.analysis.campaign import CampaignConfig, run_campaign
from repro.analysis.metrics import COMPARE_HEADERS, compare, measure
from repro.core import refute_node_bound
from repro.graphs import complete_graph, triangle
from repro.protocols import (
    MajorityVoteDevice,
    authenticated_consensus_devices,
    eig_devices,
    reliable_broadcast_devices,
)
from repro.runtime.sync import make_system, run


def search_both_sides() -> None:
    print("=" * 72)
    print("1 & 2. Randomized adversary search: EIG vs naive majority")
    print("=" * 72)
    def search(factory, rounds):
        return run_campaign(
            CampaignConfig(
                graph=complete_graph(4),
                device_factory=factory,
                rounds=rounds,
                max_node_faults=1,
                max_link_faults=0,
                attempts=200,
                seed=42,
            )
        )

    eig_result = search(lambda g: eig_devices(g, 1), rounds=2)
    naive_result = search(
        lambda g: {u: MajorityVoteDevice() for u in g.nodes}, rounds=1
    )
    print(f"EIG (n=4, f=1): {eig_result.describe()}")
    print(f"1-round majority (n=4): {naive_result.describe()}")
    assert not eig_result.broken and naive_result.broken
    print()


def derive_the_adversary() -> None:
    print("=" * 72)
    print("3. The engine derives the traitor (no search needed)")
    print("=" * 72)
    g = triangle()
    witness = refute_node_bound(
        g, {u: MajorityVoteDevice() for u in g.nodes}, 1, rounds=2
    )
    broken = witness.violated[0]
    traitor = next(iter(broken.constructed.faulty_nodes))
    print(
        f"In {broken.label}, node {traitor} masquerades.  Its transcript "
        "(replayed from the covering run):"
    )
    rows = []
    for (u, v), edge in sorted(
        broken.constructed.behavior.edge_behaviors.items(),
        key=lambda kv: (str(kv[0][0]), str(kv[0][1])),
    ):
        if u == traitor:
            rows.append((f"{u} → {v}", *map(repr, edge.messages)))
    print(
        format_table(
            ("edge", *(f"round {r}" for r in range(len(rows[0]) - 1))), rows
        )
    )
    print(f"result: {broken.verdict.describe()}")
    print()


def cost_dashboard() -> None:
    print("=" * 72)
    print("4. What the survivors pay")
    print("=" * 72)
    metrics = {}
    k4 = complete_graph(4)
    inputs = {u: i % 2 for i, u in enumerate(k4.nodes)}
    metrics["EIG"] = measure(
        run(make_system(k4, eig_devices(k4, 1), inputs), 2)
    )
    metrics["Dolev-Strong (signed)"] = measure(
        run(make_system(k4, authenticated_consensus_devices(k4, 1), inputs), 2)
    )
    rb_devices, rb_rounds = reliable_broadcast_devices(k4, "n0", 1)
    rb_inputs = {u: ("V" if u == "n0" else None) for u in k4.nodes}
    metrics["Bracha broadcast"] = measure(
        run(make_system(k4, rb_devices, rb_inputs), rb_rounds)
    )
    print(format_table(COMPARE_HEADERS, compare(metrics)))


if __name__ == "__main__":
    search_both_sides()
    derive_the_adversary()
    cost_dashboard()
