import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpfsim.optics import rotator_transform

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
