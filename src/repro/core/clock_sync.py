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

:func:`_clock_argument` is this argument written once, for the ring
and for the connectivity bound's cyclic cover of ``k + 2`` copies.
Every scaled scenario is checked numerically off the one cover run.
Lemma 9 itself is *executed* for the scenarios the caller names
(:func:`_verify_scaled_scenario`): the base graph is re-run with
clocks ``q`` and ``p``, the other nodes replaying the time-scaled
recorded border, and the correct nodes' event traces and logical
readings must reproduce the cover's — checking the Scaling axiom
rather than assuming it.  A scaled run starts at ``h⁻ⁱ(0)``, before
time 0 when the clocks are offset (``q = t + c``), so the
reconstruction runs that much later on clocks shifted to match.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from ..graphs.builders import triangle
from ..graphs.coverings import CoveringMap, ring_cover_of_triangle
from ..graphs.graph import CommunicationGraph, NodeId
from ..problems.clock_sync import ClockSyncSpec as SynchronizationSetting
from ..problems.spec import SpecVerdict, Violation
from ..runtime.timed.behavior import TimedBehavior
from ..runtime.timed.clocks import (
    ClockFunction,
    LinearClock,
    compose,
    drift_map,
    verify_clock_order,
)
from ..runtime.timed.device import DeviceFactory
from ..runtime.timed.executor import run_timed
from ..runtime.timed.system import TimedSystem, install_in_covering_timed
from .timed_argument import build_base_behavior_timed
from .witness import CheckedBehavior, ImpossibilityWitness, _ScenarioStub

#: Message delay in sender-clock units: the clock-mode delay policy
#: keeps the Scaling axiom intact.
_DELAY = 0.125
#: Slack of the numeric checks, relative to the hardware clock readings.
_TOLERANCE = 1e-7


def choose_k(setting: SynchronizationSetting) -> int:
    """The smallest ``k > 2`` with ``l(p(t')) + k·α > u(q(t'))`` and
    ``k + 2`` divisible by three; a ``ValueError`` if the envelope gap
    ``u(q(t')) - l(p(t'))`` is not finite."""
    base = setting.lower(setting.p(setting.t_prime))
    cap = setting.upper(setting.q(setting.t_prime))
    gap = cap - base
    if not math.isfinite(gap):
        raise ValueError(
            f"the envelope gap u(q(t')) - l(p(t')) = {gap} is not finite, "
            "so no ring length k closes it"
        )
    k = max(3, int(gap / setting.alpha) + 1)
    while (k + 2) % 3 != 0 or base + k * setting.alpha <= cap:
        k += 1
    return k


@dataclass(frozen=True)
class _ClockCover:
    """One Theorem 8 construction for ring parameter ``k``.

    Cover node ``u`` runs hardware clock ``q ∘ h^-power[u]``.  Scenario
    ``(label, nodes, i)`` spans powers ``i`` and ``i + 1``: scaled by
    ``hⁱ``, its nodes at power ``i`` run clock ``q`` and those at
    ``i + 1`` clock ``p``; they are checked in the order given.
    ``agreement`` and ``validity`` word the violations, and
    ``summarize(logical, floor, scaling_checks)`` gives the witness's
    ``extra`` beyond ``k`` and ``t''``.
    """

    covering: CoveringMap
    power: Mapping[NodeId, int]
    scenarios: Sequence[tuple[str, Sequence[NodeId], int]]
    bound: str
    agreement: str
    validity: str
    summarize: Callable[..., dict[str, Any]]


def _clock_argument(
    setting: SynchronizationSetting,
    factories: Mapping[NodeId, DeviceFactory],
    graph: CommunicationGraph,
    max_faults: int,
    build: Callable[[int], _ClockCover],
    verify_indices: Collection[int],
    require_violation: bool,
) -> ImpossibilityWitness:
    """Theorem 8, once.

    Pick ``k``, run the cover built for it once with clocks
    ``q ∘ h⁻ⁱ``, and check agreement and validity of every scaled
    scenario at ``t''`` (each scenario's readings at scaled time
    ``h⁻ⁱ(t'')``, read at real time ``t''`` of the cover).  Lemma 9 is
    executed for the scenarios whose ``i`` is in ``verify_indices``.
    """
    verify_clock_order(setting.p, setting.q)
    h = drift_map(setting.p, setting.q)
    k = choose_k(setting)
    t_double_prime = h.iterate(k)(setting.t_prime)
    if not math.isfinite(t_double_prime):
        raise ValueError(
            f"t'' = h^k(t') = {t_double_prime} is not finite for k = {k}: "
            "the margin α is too small for these clocks"
        )
    cover = build(k)
    clocks = [compose(setting.q, back) for back in h.inverse().powers(k + 2)]
    cover_system = install_in_covering_timed(
        cover.covering, factories, dict.fromkeys(cover.power),
        delay=_DELAY, delay_mode="clock",
        cover_clocks={u: clocks[i] for u, i in cover.power.items()},
    )
    cover_behavior = run_timed(cover_system, t_double_prime * 1.05 + 1.0)

    covering = cover.covering
    hardware = [clock(t_double_prime) for clock in clocks]
    floor = [setting.lower(reading) for reading in hardware]
    logical = {
        u: cover_behavior.node(u).logical_value(t_double_prime)
        for u in cover.power
    }
    checked = []
    for label, nodes, i in cover.scenarios:
        # The scaled scenario at scaled time h⁻ⁱ(t'') >= t', expressed
        # at unscaled time t'': its clocks read q = D_i(t'') and
        # p = D_{i+1}(t''), so the agreement bound telescopes to
        # l(D_i(t'')) - l(D_{i+1}(t'')) - α and validity asks
        # l(D_{i+1}(t'')) <= C <= u(D_i(t'')).
        tol = _TOLERANCE * max(1.0, abs(hardware[i]), abs(hardware[i + 1]))
        bound = floor[i] - floor[i + 1] - setting.alpha
        low, high = floor[i + 1], setting.upper(hardware[i])
        violations = []
        for n, a in enumerate(nodes):
            for b in nodes[n + 1 :]:
                skew = abs(logical[a] - logical[b])
                if skew > bound + tol:
                    detail = cover.agreement.format(
                        a=a, b=b, skew=skew, bound=bound, t=t_double_prime,
                        label=label, i=i,
                    )
                    violations.append(
                        Violation("agreement", detail, (covering(a), covering(b)))
                    )
            value = logical[a]
            if value < low - tol or value > high + tol:
                detail = cover.validity.format(u=a, value=value, low=low, high=high)
                violations.append(Violation("validity", detail, (covering(a),)))
        correct = frozenset(covering(u) for u in nodes)
        checked.append(
            CheckedBehavior(
                constructed=_ScenarioStub(
                    label=label,
                    scenario_nodes=tuple(nodes),
                    correct_nodes=correct,
                    faulty_nodes=frozenset(graph.nodes) - correct,
                ),
                verdict=SpecVerdict(tuple(violations)),
            )
        )

    scaling_checks = [
        _verify_scaled_scenario(
            cover, cover_system, cover_behavior, factories, setting, h,
            scenario,
        )
        for scenario in cover.scenarios
        if scenario[2] in verify_indices
    ]
    witness = ImpossibilityWitness(
        problem="clock-synchronization",
        bound=cover.bound,
        graph=graph,
        max_faults=max_faults,
        checked=tuple(checked),
        extra={
            "k": k,
            "t_double_prime": t_double_prime,
            **cover.summarize(logical, floor, scaling_checks),
        },
    )
    return witness.require_found() if require_violation else witness


def _ring(
    setting: SynchronizationSetting, base: CommunicationGraph, k: int
) -> _ClockCover:
    """The ``(k + 2)``-ring of the triangle, node ``i`` at power ``i``;
    scenario ``S_i`` is the pair of ring nodes ``i, i + 1``."""
    covering = ring_cover_of_triangle(k + 2, base)
    ring = covering.cover.nodes

    def summarize(logical, floor, scaling_checks):
        nu_trace = [
            {
                "i": i,
                "node": node,
                "logical": logical[node],
                "nu": logical[node] - floor[i],
                "agreement_bound": (
                    floor[i] - floor[i + 1] - setting.alpha if i <= k else None
                ),
                "skew": (
                    abs(logical[node] - logical[ring[i + 1]])
                    if i <= k
                    else None
                ),
            }
            for i, node in enumerate(ring)
        ]
        return {
            "t_prime": setting.t_prime,
            "nu_trace": nu_trace,
            "upper_cap": setting.upper(setting.q(setting.t_prime)),
            "lower_base": setting.lower(setting.p(setting.t_prime)),
            "scaling_checks": scaling_checks,
            # Every scaled scenario can be reconstructed; the key is
            # kept, always empty, so that witnesses keep their shape.
            "scaling_checks_skipped": [],
        }

    return _ClockCover(
        covering=covering,
        power={node: i for i, node in enumerate(ring)},
        scenarios=[(f"S{i}", ring[i : i + 2], i) for i in range(k + 1)],
        bound=f"3f+1 nodes (Scaling axiom; k = {k})",
        agreement=(
            "|C_{a} - C_{b}| = {skew:.6g} > l(q)-l(p)-α = {bound:.6g} at "
            "t'' = {t:.6g} (scaled scenario S_{i}·h^{i})"
        ),
        validity=(
            "C_{u}(t'') = {value:.6g} outside the scaled envelope "
            "[{low:.6g}, {high:.6g}]"
        ),
        summarize=summarize,
    )


def refute_clock_sync(
    factories: Mapping[NodeId, DeviceFactory],
    setting: SynchronizationSetting,
    base: CommunicationGraph | None = None,
    verify_indices: Collection[int] = (0, 1),
    require_violation: bool = True,
) -> ImpossibilityWitness:
    """Refute claimed synchronization devices for the triangle.

    ``verify_indices`` selects which scaled scenarios additionally get
    the full Lemma 9 reconstruction-and-comparison treatment.
    """
    base = base or triangle()
    return _clock_argument(
        setting, factories, base, 1,
        lambda k: _ring(setting, base, k),
        verify_indices, require_violation,
    )


def _verify_scaled_scenario(
    cover: _ClockCover,
    cover_system: TimedSystem,
    cover_behavior: TimedBehavior,
    factories: Mapping[NodeId, DeviceFactory],
    setting: SynchronizationSetting,
    h: ClockFunction,
    scenario: tuple[str, Sequence[NodeId], int],
) -> dict[str, Any]:
    """Execute Lemma 9 for one scenario: reconstruct it scaled by
    ``hⁱ`` as a real run of the base graph, its nodes at power ``i`` on
    clock ``q`` and those at ``i + 1`` on ``p``, the others replaying
    the time-scaled border, and compare behaviors and logical readings.

    The scaled run starts at ``s₀ = h⁻ⁱ(0) <= 0``; the reconstruction
    starts at time 0 instead, on clocks ``q(t + s₀)`` and ``p(t + s₀)``,
    so scaled time ``s`` is its time ``s - s₀``.
    """
    label, nodes, index = scenario
    back, forth = h.iterate(-index), h.iterate(index)
    start = back(0.0)
    shift = LinearClock(1.0, start)
    clock = (setting.q, setting.p)
    constructed = build_base_behavior_timed(
        cover.covering,
        cover_system,
        cover_behavior,
        nodes,
        factories,
        label=f"{label}-scaled",
        time_map=compose(shift.inverse(), back),
        base_clocks={
            cover.covering(u): compose(clock[cover.power[u] - index], shift)
            for u in nodes
        },
        time_tolerance=1e-6,
    )
    # Logical readings must agree at sampled scaled times.
    samples = []
    s_t = back(cover_behavior.horizon)
    for fraction in (0.25, 0.5, 0.9):
        s = setting.t_prime + fraction * max(s_t - setting.t_prime, 0.0)
        for u in nodes:
            base_node = cover.covering(u)
            original = cover_behavior.node(u).logical_value(forth(s))
            reconstructed = constructed.behavior.node(
                base_node
            ).logical_value(s - start)
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
