"""Impossibility witnesses — the engines' output.

A witness is the executable counterpart of "contradiction": a set of
*correct* behaviors of the inadequate graph, built by the paper's
construction from one run of the covering system, of which at least one
violates the problem's correctness conditions for the specific
candidate devices supplied.  The theorems guarantee a witness exists
for every device implementation; the engines find one and explain it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from ..graphs.graph import CommunicationGraph, NodeId
from ..problems.spec import SpecVerdict
from .covering_argument import ChainLink, ChainResult, ConstructedBehavior


class NoViolationFound(RuntimeError):
    """Raised if every constructed behavior satisfies the spec.

    For a correct engine and deterministic devices this is unreachable
    (the theorems forbid it); reaching it indicates nondeterministic
    candidate devices or a horizon too short to observe decisions.
    """


@dataclass(frozen=True)
class CheckedBehavior:
    """A constructed behavior together with its spec verdict."""

    constructed: ConstructedBehavior
    verdict: SpecVerdict

    @property
    def label(self) -> str:
        return self.constructed.label


@dataclass(frozen=True)
class _ScenarioStub:
    """Stands in for a constructed behavior that the engine checks
    without assembling it: an all-correct reference run that already
    violates the spec, or one of Theorem 8's scaled scenarios."""

    label: str
    scenario_nodes: tuple[NodeId, ...]
    correct_nodes: frozenset[NodeId]
    faulty_nodes: frozenset[NodeId] = frozenset()


@dataclass(frozen=True)
class ImpossibilityWitness:
    """The full output of one covering argument.

    Attributes
    ----------
    problem / bound:
        What was refuted (e.g. ``"byzantine-agreement"`` /
        ``"3f+1 nodes"``).
    graph / max_faults:
        The inadequate graph and the fault budget.
    checked:
        Every constructed behavior with its verdict, in chain order.
    links:
        The correct nodes shared by consecutive behaviors (the glue of
        the contradiction).
    extra:
        Engine-specific data (e.g. the Lemma 7 value trace).
    """

    problem: str
    bound: str
    graph: CommunicationGraph
    max_faults: int
    checked: tuple[CheckedBehavior, ...]
    links: tuple[ChainLink, ...] = ()
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def violated(self) -> tuple[CheckedBehavior, ...]:
        return tuple(c for c in self.checked if not c.verdict.ok)

    @property
    def found(self) -> bool:
        return bool(self.violated)

    def describe(self) -> str:
        lines = [
            f"Impossibility witness for {self.problem} ({self.bound}) on "
            f"{self.graph!r} with f = {self.max_faults}:",
        ]
        for checked in self.checked:
            c = checked.constructed
            status = "OK" if checked.verdict.ok else "VIOLATED"
            lines.append(
                f"  {c.label}: correct = "
                f"{{{', '.join(sorted(map(str, c.correct_nodes)))}}}, "
                f"faulty = {{{', '.join(sorted(map(str, c.faulty_nodes)))}}} "
                f"-> {status}"
            )
            if not checked.verdict.ok:
                for violation in checked.verdict.violations:
                    lines.append(f"      {violation}")
        if self.links:
            lines.append("  chain links (shared correct behaviors):")
            for link in self.links:
                lines.append(
                    f"      {link.first} ~ {link.second} share node "
                    f"{link.node} (covering node {link.covering_node})"
                )
        return "\n".join(lines)

    def require_found(self) -> "ImpossibilityWitness":
        if not self.found:
            raise NoViolationFound(
                "every constructed behavior satisfied the specification; "
                "candidate devices are nondeterministic or the horizon is "
                "too short for decisions to appear"
            )
        return self


def _chain_witness(
    problem: str,
    bound: str,
    graph: CommunicationGraph,
    max_faults: int,
    chain: ChainResult,
    verdict: Callable[[ConstructedBehavior], SpecVerdict],
    require_violation: bool,
    extra: dict[str, Any] | None = None,
) -> ImpossibilityWitness:
    """The witness of one synchronous chain: every constructed behavior
    with its ``verdict``, and the chain's links."""
    witness = ImpossibilityWitness(
        problem=problem,
        bound=bound,
        graph=graph,
        max_faults=max_faults,
        checked=tuple(
            CheckedBehavior(constructed=c, verdict=verdict(c))
            for c in chain.constructed
        ),
        links=chain.links,
        extra=extra or {},
    )
    return witness.require_found() if require_violation else witness


def _spec_verdict(spec: Any) -> Callable[[ConstructedBehavior], SpecVerdict]:
    """``spec`` applied to a constructed behavior's correct nodes."""
    return lambda c: spec.check(c.inputs, c.decisions(), c.correct_nodes)
