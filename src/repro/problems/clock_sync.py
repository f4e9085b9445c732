"""The clock synchronization specification (Section 7).

Correct hardware clocks run at ``p(t)`` or ``q(t)`` (increasing,
invertible, ``p <= q``); envelope functions ``l <= u`` are
non-decreasing.  Running every logical clock at the lower envelope of
its own hardware clock (``C(E(t)) = l(D(t))``) trivially synchronizes
to within ``l(q(t)) - l(p(t))``.  *Nontrivial* synchronization beats
that by a constant:

    Agreement — ``|C_i(t) - C_j(t)| <= l(q(t)) - l(p(t)) - α`` for all
                correct ``i, j`` and all ``t >= t'``.
    Validity  — ``l(p(t)) <= C_i(t) <= u(q(t))`` for all ``t``.

Theorem 8: no devices achieve this in inadequate graphs.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

from ..graphs.graph import NodeId
from ..runtime.timed.clocks import ClockFunction
from .spec import SpecVerdict, Violation

LogicalClock = Callable[[float], float]
Envelope = Callable[[float], float]


@dataclass(frozen=True)
class ClockSyncSpec:
    """Nontrivial synchronization with margin ``alpha`` from time
    ``t_prime`` on, for clock bounds ``(p, q)`` and envelopes
    ``(lower, upper)``."""

    p: ClockFunction
    q: ClockFunction
    lower: Envelope
    upper: Envelope
    alpha: float
    t_prime: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(
                f"the synchronization margin α must be finite and positive, "
                f"not {self.alpha}"
            )

    def trivial_skew(self, t: float) -> float:
        """The skew achieved with no communication: ``l(q(t)) - l(p(t))``."""
        return self.lower(self.q(t)) - self.lower(self.p(t))

    def agreement_bound(self, t: float) -> float:
        """Maximum allowed skew at time ``t >= t'``."""
        return self.trivial_skew(t) - self.alpha

    def check_agreement_at(
        self,
        logical: Mapping[NodeId, LogicalClock],
        correct: Iterable[NodeId],
        t: float,
        tolerance: float = 1e-9,
    ) -> SpecVerdict:
        """Pairwise skew of correct logical clocks at one time ``t >= t'``."""
        if t < self.t_prime:
            raise ValueError(f"agreement binds only from t' = {self.t_prime}")
        correct = list(correct)
        bound = self.agreement_bound(t)
        violations = []
        readings = {u: logical[u](t) for u in correct}
        for i, a in enumerate(correct):
            for b in correct[i + 1 :]:
                skew = abs(readings[a] - readings[b])
                if skew > bound + tolerance:
                    violations.append(
                        Violation(
                            "agreement",
                            f"|C_{a} - C_{b}| = {skew:.6g} > bound "
                            f"{bound:.6g} at t = {t:.6g}",
                            (a, b),
                        )
                    )
        return SpecVerdict(tuple(violations))

    def check_validity_at(
        self,
        logical: Mapping[NodeId, LogicalClock],
        correct: Iterable[NodeId],
        t: float,
        tolerance: float = 1e-9,
    ) -> SpecVerdict:
        """Envelope containment of correct logical clocks at time ``t``."""
        low = self.lower(self.p(t))
        high = self.upper(self.q(t))
        violations = []
        for u in correct:
            value = logical[u](t)
            if value < low - tolerance or value > high + tolerance:
                violations.append(
                    Violation(
                        "validity",
                        f"C_{u}({t:.6g}) = {value:.6g} outside envelope "
                        f"[{low:.6g}, {high:.6g}]",
                        (u,),
                    )
                )
        return SpecVerdict(tuple(violations))

    def check_at(
        self,
        logical: Mapping[NodeId, LogicalClock],
        correct: Iterable[NodeId],
        t: float,
        tolerance: float = 1e-9,
    ) -> SpecVerdict:
        """Agreement (if ``t >= t'``) plus validity at time ``t``."""
        correct = list(correct)
        violations = list(
            self.check_validity_at(logical, correct, t, tolerance).violations
        )
        if t >= self.t_prime:
            violations.extend(
                self.check_agreement_at(logical, correct, t, tolerance).violations
            )
        return SpecVerdict(tuple(violations))
