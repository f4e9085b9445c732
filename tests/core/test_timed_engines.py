"""Theorems 2, 4, 8 and Corollaries 12–15: the timed impossibility
engines refute every candidate device family."""

import pytest

from repro.core import (
    SynchronizationSetting,
    agreement_frontier,
    choose_k,
    corollary_12_linear_envelope,
    corollary_13_diverging_linear,
    corollary_14_offset_clocks,
    corollary_15_logarithmic,
    refute_clock_sync,
    refute_firing_squad,
    refute_weak_agreement,
    ring_parameter,
)
from repro.core.firing_squad import fire_time_profile
from repro.graphs import triangle
from repro.protocols import (
    AlarmWeakDevice,
    CountdownFireDevice,
    ExchangeMidpointClockDevice,
    ExchangeOnceWeakDevice,
    LowerEnvelopeClockDevice,
    RelayFireDevice,
)
from repro.runtime.timed import LinearClock
from repro.runtime.timed.device import TimedDevice

TRIANGLE = triangle()


def factories_of(factory):
    return {u: factory for u in TRIANGLE.nodes}


class TestRingParameter:
    def test_multiple_of_three_above_ratio(self):
        k = ring_parameter(t_prime=2.0, delta=1.0)
        assert k % 3 == 0 and k * 1.0 > 2.0

    def test_minimum_is_three(self):
        assert ring_parameter(0.1, 1.0) == 3


class TestWeakAgreementEngine:
    def test_exchange_once_refuted(self):
        witness = refute_weak_agreement(
            factories_of(lambda: ExchangeOnceWeakDevice(decide_at=2.0)),
            delta=1.0,
            decision_deadline=3.0,
        )
        assert witness.found
        assert witness.extra["ring_size"] == 4 * witness.extra["k"]

    def test_violations_sit_at_the_half_boundaries(self):
        witness = refute_weak_agreement(
            factories_of(lambda: ExchangeOnceWeakDevice(decide_at=2.0)),
            delta=1.0,
            decision_deadline=3.0,
        )
        frontier = agreement_frontier(witness)
        assert len(frontier) >= 2

    def test_alarm_variant_also_refuted(self):
        witness = refute_weak_agreement(
            factories_of(
                lambda: AlarmWeakDevice(alarm_at=1.5, decide_at=3.0)
            ),
            delta=1.0,
            decision_deadline=4.0,
        )
        assert witness.found

    def test_lemma3_middles_decide_their_half(self):
        witness = refute_weak_agreement(
            factories_of(lambda: ExchangeOnceWeakDevice(decide_at=2.0)),
            delta=1.0,
            decision_deadline=3.0,
        )
        for row in witness.extra["lemma3"]:
            assert row["decides"] == row["expected"]

    def test_never_deciding_devices_caught_in_reference_run(self):
        class Mute(TimedDevice):
            pass

        witness = refute_weak_agreement(
            factories_of(Mute), delta=1.0, decision_deadline=2.0
        )
        assert witness.found
        assert witness.extra["stage"] == "all-correct reference runs"
        conditions = {
            v.condition
            for checked in witness.violated
            for v in checked.verdict.violations
        }
        assert "termination" in conditions


class TestFiringSquadEngine:
    def test_relay_fire_refuted(self):
        witness = refute_firing_squad(
            factories_of(lambda: RelayFireDevice(fire_at=2.5)),
            delta=1.0,
            fire_deadline=3.0,
        )
        assert witness.found
        middles = witness.extra["middles"]
        stim = {m["fire_time"] for m in middles if m["stimulated"]}
        unstim = {m["fire_time"] for m in middles if not m["stimulated"]}
        assert stim == {2.5}
        assert 2.5 not in unstim

    def test_countdown_fire_refuted(self):
        witness = refute_firing_squad(
            factories_of(lambda: CountdownFireDevice(fuse=3.0, delay=1.0)),
            delta=1.0,
            fire_deadline=4.0,
        )
        assert witness.found

    def test_fire_time_profile_shows_the_break(self):
        witness = refute_firing_squad(
            factories_of(lambda: RelayFireDevice(fire_at=2.5)),
            delta=1.0,
            fire_deadline=3.0,
        )
        profile = dict(fire_time_profile(witness))
        times = {t for row in profile.values() for t in row.values()}
        assert len(times) > 1  # not everyone fired simultaneously

    def test_firing_without_stimulus_caught_early(self):
        class Trigger(TimedDevice):
            def on_start(self, ctx, api):
                api.set_timer("go", 1.0)

            def on_timer(self, ctx, api, name):
                api.fire()

        witness = refute_firing_squad(
            factories_of(Trigger), delta=1.0, fire_deadline=2.0
        )
        assert witness.found
        assert witness.extra["stage"] == "all-correct reference runs"


def default_setting(alpha=0.05):
    return SynchronizationSetting(
        p=LinearClock(1.0, 0.0),
        q=LinearClock(1.2, 0.0),
        lower=LinearClock(1.0, 0.0),
        upper=LinearClock(1.0, 2.0),
        alpha=alpha,
        t_prime=1.0,
    )


class TestClockSyncEngine:
    def test_choose_k_satisfies_inequality(self):
        setting = default_setting()
        k = choose_k(setting)
        assert (k + 2) % 3 == 0
        assert setting.lower(setting.p(1.0)) + k * setting.alpha > (
            setting.upper(setting.q(1.0))
        )

    def test_trivial_synchronizer_refuted(self):
        lower = LinearClock(1.0, 0.0)
        witness = refute_clock_sync(
            factories_of(lambda: LowerEnvelopeClockDevice(lower)),
            default_setting(),
        )
        assert witness.found
        # The trivial device misses the bound by exactly α in *every*
        # scaled scenario.
        assert len(witness.violated) == len(witness.checked)

    def test_exchange_midpoint_refuted(self):
        lower = LinearClock(1.0, 0.0)
        witness = refute_clock_sync(
            factories_of(
                lambda: ExchangeMidpointClockDevice(
                    lower, exchange_at=0.5, delay=0.125
                )
            ),
            default_setting(),
        )
        assert witness.found

    def test_exchange_midpoint_refuted_on_offset_clocks(self):
        # Corollary 14's clocks q = t + 0.5 already read exchange_at at
        # time 0, so the device broadcasts at once instead of setting a
        # timer that is not in the future.
        from repro.core import corollary_14_offset_clocks

        lower = LinearClock(2.0, 0.0)
        outcome = corollary_14_offset_clocks(
            factories_of(
                lambda: ExchangeMidpointClockDevice(
                    lower, exchange_at=0.5, delay=0.125
                )
            )
        )
        assert outcome.witness.found
        assert outcome.witness.violated

    def test_lemma9_scaling_checks_pass(self):
        lower = LinearClock(1.0, 0.0)
        witness = refute_clock_sync(
            factories_of(lambda: LowerEnvelopeClockDevice(lower)),
            default_setting(),
            verify_indices=(0, 1, 2),
        )
        checks = witness.extra["scaling_checks"]
        assert len(checks) == 3
        assert all(c["all_match"] for c in checks)

    def test_nu_trace_accumulates_alpha(self):
        """Lemma 11 made visible: each agreement violation lets ν grow
        by at least α less than required, so with the trivial device ν
        stays at 0 while the *required* growth is k·α."""
        lower = LinearClock(1.0, 0.0)
        witness = refute_clock_sync(
            factories_of(lambda: LowerEnvelopeClockDevice(lower)),
            default_setting(),
        )
        trace = witness.extra["nu_trace"]
        assert all(abs(row["nu"]) < 1e-6 for row in trace)


class TestCorollaries:
    lower = LinearClock(1.0, 0.0)

    def factories(self):
        lower = self.lower
        return factories_of(lambda: LowerEnvelopeClockDevice(lower))

    def test_corollary_12(self):
        out = corollary_12_linear_envelope(self.factories())
        assert out.witness.found

    def test_corollary_13(self):
        out = corollary_13_diverging_linear(self.factories())
        assert out.witness.found
        # The unbeatable skew grows linearly with t.
        assert out.trivial_skew_at(10.0) > out.trivial_skew_at(1.0)

    def test_corollary_14(self):
        out = corollary_14_offset_clocks(self.factories())
        assert out.witness.found
        # The unbeatable skew is a constant (a·c).
        assert out.trivial_skew_at(10.0) == pytest.approx(
            out.trivial_skew_at(1.0)
        )

    def test_corollary_15(self):
        from repro.core.corollaries import Log2Envelope

        log_lower = Log2Envelope(shift=1.0)
        factories = factories_of(
            lambda: LowerEnvelopeClockDevice(log_lower)
        )
        out = corollary_15_logarithmic(factories)
        assert out.witness.found
        # log2 logical clocks make the trivial skew approach log2(r).
        import math

        assert out.trivial_skew_at(200.0) == pytest.approx(
            math.log2(2.0), abs=0.05
        )
