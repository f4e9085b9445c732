"""Theorem 8 and Corollaries 12–15, executable: nontrivial clock
synchronization is impossible in inadequate graphs under the Scaling
axiom.

The construction (Section 7): with ``h = p⁻¹ ∘ q`` (so ``h(t) >= t``),
build a ring of ``k + 2`` nodes covering the triangle, node ``i``
running its device on hardware clock ``q ∘ h⁻ⁱ`` — each node slow
relative to one neighbor and fast relative to the other.  For each
``0 <= i <= k`` the two-node scenario ``S_i`` *scaled by* ``hⁱ`` has
clocks exactly ``(q, p)``, so by the Fault and Scaling axioms it is a
correct behavior of the triangle (Lemma 9) and must satisfy the
agreement and validity conditions.  Evaluated at the common real time
``t'' = h^k(t')`` those conditions telescope (Lemmas 10–11):

    ν_i  :=  C_i(t'') - l(D_i(t''))   satisfies   ν_1 >= 0,
    ν_{i+1} >= ν_i + α,

forcing ``C_{k+1}(t'') >= l(p(t')) + k·α``, while validity in the
scaled ``S_k`` caps it at ``u(q(t'))``.  Choosing ``k`` with
``l(p(t')) + k·α > u(q(t'))`` makes the conditions unsatisfiable, so
for any concrete devices at least one scaled scenario violates its
condition — the witness.

The engine also *executes* Lemma 9 for selected scenarios: it re-runs
the triangle with clocks ``(q, p)``, the third node replaying the
time-scaled recorded border, and verifies the correct nodes' event
traces and logical readings reproduce the covering's (scaled) —
checking the Scaling axiom rather than assuming it.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

from ..graphs.builders import triangle
from ..graphs.coverings import ring_cover_of_triangle
from ..graphs.graph import CommunicationGraph, NodeId
from ..problems.clock_sync import ClockSyncSpec
from ..problems.spec import SpecVerdict, Violation
from ..runtime.timed.clocks import (
    ClockFunction,
    compose,
    drift_map,
    verify_clock_order,
)
from ..runtime.timed.device import DeviceFactory
from ..runtime.timed.executor import run_timed
from ..runtime.timed.system import install_in_covering_timed
from .timed_argument import build_base_behavior_timed
from .witness import CheckedBehavior, ImpossibilityWitness, _ScenarioStub

Envelope = Callable[[float], float]


@dataclass(frozen=True)
class SynchronizationSetting:
    """The Section 7 problem instance: correct clocks run at ``p`` or
    ``q``; logical clocks must stay within envelopes ``[l, u]`` and
    agree within ``l(q(t)) - l(p(t)) - α`` from ``t'`` on."""

    p: ClockFunction
    q: ClockFunction
    lower: Envelope
    upper: Envelope
    alpha: float
    t_prime: float

    def spec(self) -> ClockSyncSpec:
        return ClockSyncSpec(
            p=self.p,
            q=self.q,
            lower=self.lower,
            upper=self.upper,
            alpha=self.alpha,
            t_prime=self.t_prime,
        )


def choose_k(setting: SynchronizationSetting) -> int:
    """The smallest ``k > 2`` with ``l(p(t')) + k·α > u(q(t'))`` and
    ``k + 2`` divisible by three."""
    gap = setting.upper(setting.q(setting.t_prime)) - setting.lower(
        setting.p(setting.t_prime)
    )
    k = max(3, int(gap / setting.alpha) + 1)
    while (k + 2) % 3 != 0 or setting.lower(
        setting.p(setting.t_prime)
    ) + k * setting.alpha <= setting.upper(setting.q(setting.t_prime)):
        k += 1
    return k


def refute_clock_sync(
    factories: Mapping[NodeId, DeviceFactory],
    setting: SynchronizationSetting,
    delay: float = 0.125,
    base: CommunicationGraph | None = None,
    verify_indices: tuple[int, ...] = (0, 1),
    require_violation: bool = True,
    tolerance: float = 1e-7,
) -> ImpossibilityWitness:
    """Refute claimed synchronization devices for the triangle.

    ``delay`` is the message delay in *sender-clock units* (the
    clock-mode delay policy keeps the Scaling axiom intact).
    ``verify_indices`` selects which scaled scenarios additionally get
    the full Lemma 9 reconstruction-and-comparison treatment.
    """
    base = base or triangle()
    verify_clock_order(setting.p, setting.q)
    h = drift_map(setting.p, setting.q)
    k = choose_k(setting)
    covering = ring_cover_of_triangle(k + 2, base)
    ring_nodes = covering.cover.nodes

    clocks = {
        node: compose(setting.q, h_back)
        for node, h_back in zip(ring_nodes, h.inverse().powers(len(ring_nodes)))
    }
    cover_inputs = {node: None for node in ring_nodes}
    cover_system = install_in_covering_timed(
        covering,
        factories,
        cover_inputs,
        delay=delay,
        delay_mode="clock",
        cover_clocks=clocks,
    )
    t_double_prime = h.iterate(k)(setting.t_prime)
    horizon = t_double_prime * 1.05 + 1.0
    cover_behavior = run_timed(cover_system, horizon)

    logical = {
        node: cover_behavior.node(node).logical_value for node in ring_nodes
    }
    hardware_at = {
        node: clocks[node](t_double_prime) for node in ring_nodes
    }

    checked: list[CheckedBehavior] = []
    nu_trace: list[dict[str, Any]] = []
    for i in range(k + 1):
        lo, hi = ring_nodes[i], ring_nodes[i + 1]
        violations: list[Violation] = []
        # Agreement in the scaled scenario S_i · hⁱ at scaled time
        # h⁻ⁱ(t'') >= t', expressed at unscaled time t'':
        # the bound telescopes to l(D_i(t'')) - l(D_{i+1}(t'')) - α.
        scale = max(1.0, abs(hardware_at[lo]), abs(hardware_at[hi]))
        tol = tolerance * scale
        bound = (
            setting.lower(hardware_at[lo])
            - setting.lower(hardware_at[hi])
            - setting.alpha
        )
        skew = abs(logical[lo](t_double_prime) - logical[hi](t_double_prime))
        if skew > bound + tol:
            violations.append(
                Violation(
                    "agreement",
                    f"|C_{lo} - C_{hi}| = {skew:.6g} > "
                    f"l(q)-l(p)-α = {bound:.6g} at t'' = "
                    f"{t_double_prime:.6g} (scaled scenario S_{i}·h^{i})",
                    (covering(lo), covering(hi)),
                )
            )
        # Validity in the same scaled scenario at the same instant:
        # l(p(s)) <= C <= u(q(s)) with p(s) = D_{i+1}(t''),
        # q(s) = D_i(t'').
        low = setting.lower(hardware_at[hi])
        high = setting.upper(hardware_at[lo])
        for node in (lo, hi):
            value = logical[node](t_double_prime)
            if value < low - tol or value > high + tol:
                violations.append(
                    Violation(
                        "validity",
                        f"C_{node}(t'') = {value:.6g} outside the scaled "
                        f"envelope [{low:.6g}, {high:.6g}]",
                        (covering(node),),
                    )
                )
        correct = frozenset({covering(lo), covering(hi)})
        checked.append(
            CheckedBehavior(
                constructed=_ScenarioStub(
                    label=f"S{i}",
                    scenario_nodes=(lo, hi),
                    correct_nodes=correct,
                    faulty_nodes=frozenset(base.nodes) - correct,
                ),
                verdict=SpecVerdict(tuple(violations)),
            )
        )
        nu_trace.append(
            {
                "i": i,
                "node": lo,
                "logical": logical[lo](t_double_prime),
                "nu": logical[lo](t_double_prime)
                - setting.lower(hardware_at[lo]),
                "agreement_bound": bound,
                "skew": skew,
            }
        )
    last = ring_nodes[k + 1]
    nu_trace.append(
        {
            "i": k + 1,
            "node": last,
            "logical": logical[last](t_double_prime),
            "nu": logical[last](t_double_prime)
            - setting.lower(hardware_at[last]),
            "agreement_bound": None,
            "skew": None,
        }
    )

    # The operational Lemma 9 reconstruction re-runs the triangle from
    # real time 0, so it applies exactly to scenarios whose scaling map
    # fixes 0 (always true for i = 0; true for all i when the clocks
    # are multiplicative, e.g. q = rt).  For additive clocks
    # (q = t + c) the scaled behavior starts before time 0 and only the
    # unscaled scenario is reconstructed — the numeric checks above
    # still cover every scenario.
    scaling_checks = []
    skipped_scaling: list[int] = []
    for i in verify_indices:
        if not 0 <= i <= k:
            continue
        if abs(h.iterate(-i)(0.0)) > 1e-9:
            skipped_scaling.append(i)
            continue
        scaling_checks.append(
            _verify_scaled_scenario(
                covering, cover_system, cover_behavior, factories, setting,
                h, i,
            )
        )

    witness = ImpossibilityWitness(
        problem="clock-synchronization",
        bound=f"3f+1 nodes (Scaling axiom; k = {k})",
        graph=base,
        max_faults=1,
        checked=tuple(checked),
        extra={
            "k": k,
            "t_prime": setting.t_prime,
            "t_double_prime": t_double_prime,
            "nu_trace": nu_trace,
            "upper_cap": setting.upper(setting.q(setting.t_prime)),
            "lower_base": setting.lower(setting.p(setting.t_prime)),
            "scaling_checks": scaling_checks,
            "scaling_checks_skipped": skipped_scaling,
        },
    )
    return witness.require_found() if require_violation else witness


def _verify_scaled_scenario(
    covering,
    cover_system,
    cover_behavior,
    factories,
    setting: SynchronizationSetting,
    h: ClockFunction,
    index: int,
) -> dict[str, Any]:
    """Execute Lemma 9 for one scenario: reconstruct ``S_i · hⁱ`` as a
    real run of the triangle with clocks ``(q, p)`` and a time-scaled
    replaying fault, and compare behaviors and logical readings."""
    ring_nodes = covering.cover.nodes
    lo, hi = ring_nodes[index], ring_nodes[index + 1]
    h_back = h.iterate(-index)
    base_clocks = {covering(lo): setting.q, covering(hi): setting.p}
    constructed = build_base_behavior_timed(
        covering,
        cover_system,
        cover_behavior,
        [lo, hi],
        factories,
        label=f"S{index}-scaled",
        time_map=h_back,
        base_clocks=base_clocks,
        time_tolerance=1e-6,
    )
    # Logical readings must agree at sampled scaled times.
    samples = []
    s_t = h_back(cover_behavior.horizon)
    for fraction in (0.25, 0.5, 0.9):
        s = setting.t_prime + fraction * max(s_t - setting.t_prime, 0.0)
        for ring_node in (lo, hi):
            base_node = covering(ring_node)
            original = cover_behavior.node(ring_node).logical_value(
                h.iterate(index)(s)
            )
            reconstructed = constructed.behavior.node(
                base_node
            ).logical_value(s)
            samples.append(
                {
                    "scaled_time": s,
                    "node": base_node,
                    "covering_logical": original,
                    "reconstructed_logical": reconstructed,
                    "match": abs(original - reconstructed)
                    <= 1e-6 * max(1.0, abs(original)),
                }
            )
    return {
        "index": index,
        "correct": sorted(map(str, constructed.correct_nodes)),
        "samples": samples,
        "all_match": all(s["match"] for s in samples),
    }
