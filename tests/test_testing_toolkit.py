"""The public testing toolkit: device factories and strategies."""

import pytest
from hypothesis import given, settings

from repro.core import refute_node_bound, refute_simple_node_bound
from repro.graphs import triangle
from repro.runtime.sync import run, uniform_system
from repro.testing import (
    affine_blend_rule,
    agreement_device_families,
    averaging_device_families,
    constant_device,
    echo_device,
    gossip_rule_device,
    majority_rule,
)

TRIANGLE = triangle()


class TestFactories:
    def test_constant_device(self):
        behavior = run(
            uniform_system(
                TRIANGLE, constant_device(7), {u: 0 for u in TRIANGLE.nodes}
            ),
            1,
        )
        assert set(behavior.decisions().values()) == {7}

    def test_echo_device(self):
        behavior = run(
            uniform_system(
                TRIANGLE, echo_device(), {"a": 1, "b": 2, "c": 3}
            ),
            1,
        )
        assert behavior.decision("b") == 2

    def test_gossip_majority(self):
        device = gossip_rule_device(1, majority_rule())
        behavior = run(
            uniform_system(TRIANGLE, device, {"a": 1, "b": 1, "c": 0}), 2
        )
        assert set(behavior.decisions().values()) == {1}

    def test_gossip_rounds_guard(self):
        with pytest.raises(ValueError):
            gossip_rule_device(0, majority_rule())

    def test_affine_blend_weights_guard(self):
        with pytest.raises(ValueError):
            affine_blend_rule(0.8, 0.5)

    def test_affine_blend_is_convex(self):
        rule = affine_blend_rule(0.25, 0.25)
        assert rule(0.5, (0.0, 1.0)) == pytest.approx(
            0.25 * 0.0 + 0.25 * 1.0 + 0.5 * 0.5
        )


class TestStrategies:
    @given(agreement_device_families())
    @settings(max_examples=25, deadline=None)
    def test_every_family_is_refuted(self, family):
        device, rounds = family
        witness = refute_node_bound(
            TRIANGLE,
            {u: device for u in TRIANGLE.nodes},
            1,
            rounds=rounds + 1,
            require_violation=False,
        )
        assert witness.found

    @given(averaging_device_families())
    @settings(max_examples=20, deadline=None)
    def test_every_averaging_family_is_refuted(self, device):
        witness = refute_simple_node_bound(
            TRIANGLE,
            {u: device for u in TRIANGLE.nodes},
            1,
            rounds=2,
            require_violation=False,
        )
        assert witness.found


def test_importing_the_toolkit_leaves_hypothesis_unimported():
    # Importers that only want the factories or the reference executor
    # (the benchmark's workloads among them) skip hypothesis's import
    # cost; the strategy helpers import it on first use.
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.testing; "
            "print('hypothesis' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert probe.stdout.strip() == "False"
