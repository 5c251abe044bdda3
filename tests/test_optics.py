import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpfsim.optics import (
    GeometrySpec,
    LensSpec,
    coherence_ok,
    lens_gain,
    ring_radius,
    rotator_transform,
)

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestRotator:
    def test_hand_values_quarter_turn(self):
        amps = np.array([1.0 + 0j, 2.0 + 0j])
        out = rotator_transform(amps, (0, 1), math.pi / 2)
        assert out[0] == pytest.approx(2.0, abs=1e-12)
        assert out[1] == pytest.approx(-1.0, abs=1e-12)

    @given(a=angles, b=angles)
    @settings(max_examples=50, deadline=None)
    def test_composition_adds_angles(self, a, b):
        amps = np.array([0.3 - 0.7j, 1.1 + 0.2j])
        twice = rotator_transform(rotator_transform(amps, (0, 1), a), (0, 1), b)
        once = rotator_transform(amps, (0, 1), a + b)
        assert np.allclose(twice, once, atol=1e-9)

    @given(a=angles)
    @settings(max_examples=50, deadline=None)
    def test_norm_preserved(self, a):
        amps = np.array([0.3 - 0.7j, 1.1 + 0.2j])
        out = rotator_transform(amps, (0, 1), a)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(np.sum(np.abs(amps) ** 2), rel=1e-10)

    def test_input_not_mutated(self):
        amps = np.array([[0.3 - 0.7j, 1.1 + 0.2j, -0.4 + 0.5j, 0.9j]])
        saved = amps.copy()
        rotator_transform(amps, (slice(0, 4, 2), slice(1, 4, 2)), 0.4)
        assert np.array_equal(amps, saved)


class TestLensFormulas:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="positive"):
            LensSpec(radius=0.0, focal=1.0, wavelength=1e-6)
        with pytest.raises(ValueError, match="ring_choice"):
            LensSpec(radius=1.0, focal=1.0, wavelength=1e-6, ring_choice="third")
        with pytest.raises(ValueError, match="positive"):
            GeometrySpec(distance=-1.0, crystal_radius=1.0)

    def test_gain_hand_value(self):
        lens = LensSpec(radius=2e-3, focal=5e-3, wavelength=8e-7)
        expected = math.pi**2 * (2e-3) ** 4 / ((8e-7) ** 2 * (5e-3) ** 2)
        assert lens_gain(lens) == pytest.approx(expected, rel=1e-12)

    def test_ring_radius_first_and_second(self):
        lens1 = LensSpec(radius=2e-3, focal=5e-3, wavelength=8e-7, ring_choice="first")
        lens2 = LensSpec(radius=2e-3, focal=5e-3, wavelength=8e-7, ring_choice="second")
        base = 8e-7 * 5e-3 / (2.0 * 2e-3)
        assert ring_radius(lens1) == pytest.approx(1.22 * base, rel=1e-12)
        assert ring_radius(lens2) == pytest.approx(2.23 * base, rel=1e-12)

    def test_coherence_condition_boundary_inclusive(self):
        lens = LensSpec(radius=2e-3, focal=5e-3, wavelength=8e-7)
        # boundary: d = R_l R_C / lambda
        r_c = 5e-4
        d_star = lens.radius * r_c / lens.wavelength
        assert coherence_ok(lens, GeometrySpec(d_star, r_c))
        assert coherence_ok(lens, GeometrySpec(d_star * 1.01, r_c))
        assert not coherence_ok(lens, GeometrySpec(d_star * 0.99, r_c))
