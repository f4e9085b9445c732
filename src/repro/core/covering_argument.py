"""The generic covering argument (the paper's proof engine), for the
synchronous model.

Every impossibility proof in the paper has the same shape (end of
Section 3): install the candidate devices in a covering graph ``S`` of
the inadequate graph ``G``, run ``S`` once, cut out scenarios, and use
the Fault axiom to re-create each scenario inside a *correct* behavior
of ``G`` in which the remaining nodes are faulty masqueraders.

:func:`build_base_behavior` performs one such re-creation **and then
verifies the Locality identification at run time**: it re-runs the
assembled system on ``G`` and checks, state by state and message by
message, that the scenario of the correct nodes is identical to the
covering scenario.  A mismatch means the candidate devices are not
deterministic (or the engine is broken) and raises immediately — the
proofs never silently diverge from the constructions they implement.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Any

from ..graphs.coverings import CoveringMap
from ..graphs.graph import NodeId
from ..runtime.sync.adversary import ReplayDevice
from ..runtime.sync.behavior import SyncBehavior
from ..runtime.sync.device import SyncDevice
from ..runtime.sync.executor import run
from ..runtime.plan import identity_labelling
from ..runtime.sync.system import NodeAssignment, SyncSystem


class CoveringArgumentError(RuntimeError):
    """Raised when a construction's preconditions or the Locality
    identification fail."""


@dataclass(frozen=True)
class ConstructedBehavior:
    """One behavior ``E_i`` of the inadequate graph ``G``, assembled
    from a covering scenario via the Fault axiom.

    Attributes
    ----------
    label:
        Human-readable name, e.g. ``"E1"``.
    scenario_nodes:
        The covering nodes ``U`` whose scenario this behavior realizes.
    correct_nodes / faulty_nodes:
        ``phi(U)`` and its complement in ``G``.
    system / behavior:
        The assembled system on ``G`` and its recorded behavior.
    inputs:
        The inputs of the correct nodes (copied from their covering
        counterparts).
    """

    label: str
    scenario_nodes: tuple[NodeId, ...]
    correct_nodes: frozenset[NodeId]
    faulty_nodes: frozenset[NodeId]
    system: SyncSystem
    behavior: SyncBehavior
    inputs: Mapping[NodeId, Any]

    def decisions(self) -> dict[NodeId, Any | None]:
        return {u: self.behavior.decision(u) for u in self.correct_nodes}


def build_base_behavior(
    covering: CoveringMap,
    cover_system: SyncSystem,
    cover_behavior: SyncBehavior,
    scenario_nodes: Iterable[NodeId],
    base_devices: Mapping[NodeId, SyncDevice],
    label: str = "E",
) -> ConstructedBehavior:
    """Realize a covering scenario as a correct behavior of the base.

    The nodes ``scenario_nodes`` (a subset ``U`` of the covering on
    which ``phi`` restricts to an isomorphism) become the *correct*
    nodes ``phi(U)`` of ``G``, running their own devices on the inputs
    of their covering counterparts.  Every other node of ``G`` runs the
    Fault-axiom replay device, exhibiting toward each correct neighbor
    ``g`` exactly the behavior that ``g``'s covering counterpart saw
    from outside ``U``.
    """
    base = covering.base
    scenario = tuple(dict.fromkeys(scenario_nodes))
    if not covering.is_isomorphism_on(scenario):
        raise CoveringArgumentError(
            f"{label}: phi is not an isomorphism on scenario nodes "
            f"{sorted(map(str, scenario))}"
        )
    representative = {covering(u): u for u in scenario}
    correct = frozenset(representative)
    faulty = frozenset(base.nodes) - correct
    # The base graph's shared identity labelling: every base system of a
    # chain then runs on one cached route table.
    ports = identity_labelling(base)

    assignments: dict[NodeId, NodeAssignment] = {}
    inputs: dict[NodeId, Any] = {}
    for g, u in representative.items():
        inputs[g] = cover_system.input(u)
        assignments[g] = NodeAssignment(
            device=base_devices[g],
            input=inputs[g],
            port_of_neighbor=ports[g],
        )
    for w in faulty:
        scripts = {}
        for g in base.neighbors(w):
            if g not in correct:
                continue
            u = representative[g]
            source = covering.lift_neighbor(u, w)
            scripts[g] = cover_behavior.edge(source, u)
        assignments[w] = NodeAssignment(
            device=ReplayDevice(scripts),
            input=None,
            port_of_neighbor=ports[w],
        )

    system = SyncSystem(base, assignments)
    behavior = run(system, cover_behavior.rounds)
    _verify_locality(
        covering, cover_behavior, behavior, representative, label
    )
    return ConstructedBehavior(
        label=label,
        scenario_nodes=scenario,
        correct_nodes=correct,
        faulty_nodes=faulty,
        system=system,
        behavior=behavior,
        inputs=inputs,
    )


def _verify_locality(
    covering: CoveringMap,
    cover_behavior: SyncBehavior,
    base_behavior: SyncBehavior,
    representative: Mapping[NodeId, NodeId],
    label: str,
) -> None:
    """Check that each correct node's behavior in the assembled base
    system is identical to its covering counterpart's — the paper's
    Locality-axiom step, executed rather than assumed."""
    for g, u in representative.items():
        got = base_behavior.node(g)
        expected = cover_behavior.node(u)
        if got != expected:
            raise CoveringArgumentError(
                f"{label}: Locality identification failed at node {g!r} "
                f"(covering node {u!r}); the candidate devices are not "
                "deterministic functions of their local view"
            )
    base = covering.base
    for g, u in representative.items():
        for g2 in base.neighbors(g):
            if g2 not in representative:
                continue
            u2 = representative[g2]
            if not covering.cover.has_edge(u, u2):
                raise CoveringArgumentError(
                    f"{label}: representatives {u!r}, {u2!r} not adjacent "
                    "in the covering"
                )
            if base_behavior.edge(g, g2) != cover_behavior.edge(u, u2):
                raise CoveringArgumentError(
                    f"{label}: edge behavior mismatch on ({g!r}, {g2!r})"
                )


@dataclass(frozen=True)
class ChainLink:
    """A correct node shared by two consecutive constructed behaviors.

    Because the node's behavior is identical in both (it is the same
    covering node's behavior), its decision carries over — the glue of
    the paper's contradiction chains.
    """

    node: NodeId
    covering_node: NodeId
    first: str
    second: str


def shared_links(
    covering: CoveringMap,
    previous: ConstructedBehavior,
    current: ConstructedBehavior,
) -> list[ChainLink]:
    """The correct nodes shared (as covering nodes) by two behaviors."""
    shared = set(previous.scenario_nodes) & set(current.scenario_nodes)
    return [
        ChainLink(
            node=covering(u),
            covering_node=u,
            first=previous.label,
            second=current.label,
        )
        for u in sorted(shared, key=str)
    ]


@dataclass(frozen=True)
class ChainResult:
    """One run of a covering system plus the chain of constructed base
    behaviors extracted from it."""

    cover_system: SyncSystem
    cover_behavior: SyncBehavior
    constructed: tuple[ConstructedBehavior, ...]
    links: tuple[ChainLink, ...]


def run_scenario_chain(
    covering: CoveringMap,
    cover_system: SyncSystem,
    base_devices: Mapping[NodeId, SyncDevice],
    scenario_sets: Iterable[Iterable[NodeId]],
    rounds: int,
) -> ChainResult:
    """Run the covering system once and realize each scenario set as a
    correct behavior of the base graph."""
    cover_behavior = run(cover_system, rounds)
    constructed: list[ConstructedBehavior] = []
    for index, nodes in enumerate(scenario_sets, start=1):
        constructed.append(
            build_base_behavior(
                covering,
                cover_system,
                cover_behavior,
                nodes,
                base_devices,
                label=f"E{index}",
            )
        )
    links: list[ChainLink] = []
    for previous, current in zip(constructed, constructed[1:]):
        links.extend(shared_links(covering, previous, current))
    return ChainResult(
        cover_system=cover_system,
        cover_behavior=cover_behavior,
        constructed=tuple(constructed),
        links=tuple(links),
    )


def node_bound_scenarios(
    double_cover,
    part_a: Iterable[NodeId],
    part_b: Iterable[NodeId],
    part_c: Iterable[NodeId],
) -> list[list[NodeId]]:
    """The three scenario sets of the Section 3.1 argument.

    In the paper's labels (copies ``u v w`` / ``x y z`` of parts
    ``a b c``): ``S_vw = b@0 ∪ c@0``, ``S_wx = c@0 ∪ a@1``,
    ``S_xy = a@1 ∪ b@1``.
    """
    c0 = [double_cover.copy_of(v, 0) for v in sorted(part_c, key=str)]
    b0 = [double_cover.copy_of(v, 0) for v in sorted(part_b, key=str)]
    a1 = [double_cover.copy_of(v, 1) for v in sorted(part_a, key=str)]
    b1 = [double_cover.copy_of(v, 1) for v in sorted(part_b, key=str)]
    return [b0 + c0, c0 + a1, a1 + b1]


def connectivity_scenarios(
    double_cover,
    side_a: Iterable[NodeId],
    cut_b: Iterable[NodeId],
    side_c: Iterable[NodeId],
    cut_d: Iterable[NodeId],
) -> list[list[NodeId]]:
    """The three scenario sets of the Section 3.2 argument:
    ``S1 = (a ∪ b ∪ c)@0``, ``S2 = c@0 ∪ d@0 ∪ a@1``,
    ``S3 = (a ∪ b ∪ c)@1``."""
    a0 = [double_cover.copy_of(v, 0) for v in sorted(side_a, key=str)]
    b0 = [double_cover.copy_of(v, 0) for v in sorted(cut_b, key=str)]
    c0 = [double_cover.copy_of(v, 0) for v in sorted(side_c, key=str)]
    d0 = [double_cover.copy_of(v, 0) for v in sorted(cut_d, key=str)]
    a1 = [double_cover.copy_of(v, 1) for v in sorted(side_a, key=str)]
    b1 = [double_cover.copy_of(v, 1) for v in sorted(cut_b, key=str)]
    c1 = [double_cover.copy_of(v, 1) for v in sorted(side_c, key=str)]
    return [a0 + b0 + c0, c0 + d0 + a1, a1 + b1 + c1]
