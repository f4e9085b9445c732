"""Connectivity bounds for (ε,δ,γ)-agreement and clock sync — the
remaining 'follows as for Byzantine agreement' cases, executable."""

import pytest

from repro.core import (
    SynchronizationSetting,
    refute_clock_sync_connectivity,
    refute_epsilon_delta_connectivity,
)
from repro.graphs import CoveringError, complete_graph, diamond, ring
from repro.protocols import (
    LowerEnvelopeClockDevice,
    MedianDevice,
    MidpointDevice,
)
from repro.runtime.timed import LinearClock

LOWER = LinearClock(1.0, 0.0)


def clock_setting(alpha=0.1):
    return SynchronizationSetting(
        p=LinearClock(1.0, 0.0),
        q=LinearClock(1.2, 0.0),
        lower=LOWER,
        upper=LinearClock(1.0, 2.0),
        alpha=alpha,
        t_prime=1.0,
    )


class TestEpsilonDeltaConnectivity:
    def test_median_on_diamond(self):
        g = diamond()
        witness = refute_epsilon_delta_connectivity(
            g,
            {u: MedianDevice() for u in g.nodes},
            max_faults=1,
            epsilon=0.25,
            delta=1.0,
            gamma=1.0,
            rounds=3,
        )
        assert witness.found
        # The drift appears across copies: B scenarios break.
        assert any(c.label.startswith("B") for c in witness.violated)

    def test_midpoint_on_six_ring(self):
        g = ring(6)  # n adequate, κ = 2 inadequate
        witness = refute_epsilon_delta_connectivity(
            g,
            {u: MidpointDevice() for u in g.nodes},
            max_faults=1,
            epsilon=0.4,
            delta=1.0,
            gamma=0.5,
            rounds=4,
        )
        assert witness.found

    def test_epsilon_above_half_delta_rejected(self):
        g = diamond()
        with pytest.raises(ValueError):
            refute_epsilon_delta_connectivity(
                g,
                {u: MidpointDevice() for u in g.nodes},
                max_faults=1,
                epsilon=0.5,
                delta=1.0,
                gamma=0.5,
                rounds=3,
            )

    def test_negative_rounds_rejected_before_any_device_runs(self):
        g = diamond()

        class Tripwire(MedianDevice):
            def send(self, *args, **kwargs):
                raise AssertionError("a device ran")

        with pytest.raises(ValueError, match="rounds must be non-negative"):
            refute_epsilon_delta_connectivity(
                g,
                {u: Tripwire() for u in g.nodes},
                max_faults=1,
                epsilon=0.25,
                delta=1.0,
                gamma=1.0,
                rounds=-1,
            )

    def test_adequate_graph_rejected(self):
        g = complete_graph(4)
        with pytest.raises(CoveringError):
            refute_epsilon_delta_connectivity(
                g,
                {u: MedianDevice() for u in g.nodes},
                max_faults=1,
                epsilon=0.2,
                delta=1.0,
                gamma=1.0,
                rounds=2,
            )

    def test_chain_is_linked(self):
        g = diamond()
        witness = refute_epsilon_delta_connectivity(
            g,
            {u: MedianDevice() for u in g.nodes},
            max_faults=1,
            epsilon=0.25,
            delta=1.0,
            gamma=1.0,
            rounds=3,
        )
        assert len(witness.links) >= len(witness.checked) - 2


class TestClockSyncConnectivity:
    def test_trivial_synchronizer_on_diamond(self):
        g = diamond()
        witness = refute_clock_sync_connectivity(
            g,
            {u: (lambda: LowerEnvelopeClockDevice(LOWER)) for u in g.nodes},
            max_faults=1,
            setting=clock_setting(),
        )
        assert witness.found
        # The trivial device keeps zero intra-copy skew (A scenarios
        # pass) but misses the margin on every cross-copy B scenario.
        violated_labels = {c.label for c in witness.violated}
        assert all(label.startswith("B") for label in violated_labels)
        assert len(violated_labels) == witness.extra["k"] + 1

    def test_nu_trace_spans_copies(self):
        g = diamond()
        witness = refute_clock_sync_connectivity(
            g,
            {u: (lambda: LowerEnvelopeClockDevice(LOWER)) for u in g.nodes},
            max_faults=1,
            setting=clock_setting(alpha=0.2),
        )
        trace = witness.extra["nu_trace"]
        assert len(trace) == witness.extra["k"] + 1
        # The trivial synchronizer never accumulates ν.
        assert all(abs(row["nu_min"]) < 1e-6 for row in trace)
