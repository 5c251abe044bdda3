import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from zpfsim.field import (
    TRIAL_BLOCK,
    FieldState,
    Mode,
    evaluate_field,
    mode_scales,
    sample_vacuum,
    sample_vacuum_batch,
)

N_TRIALS = 1_000_000


@pytest.fixture(scope="module")
def vacuum_draws():
    """Shared 10^6-trial, two-mode vacuum sample."""
    return sample_vacuum_batch(2, seed=20240817, trial_indices=range(N_TRIALS))


def quadrature_moment(power):
    """Moment E[|alpha|^(2 power)] of the density (2/pi) e^{-2|alpha|^2}.

    Computed by radial quadrature, independent of the sampling code.
    """
    val, _ = quad(lambda r: (2.0 / np.pi) * np.exp(-2.0 * r * r) * r ** (2 * power)
                  * 2.0 * np.pi * r, 0.0, 10.0, epsabs=1e-13)
    return val


class TestMode:
    def test_dispersion_enforced(self):
        with pytest.raises(ValueError, match="dispersion"):
            Mode((0.0, 0.0, 1.0), 2.0)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Mode((0.0, 0.0, 0.0), 0.0)

    def test_mode_scale_is_sqrt_omega_over_box_volume(self):
        m = Mode((0.0, 0.0, 4.0), 4.0)
        assert mode_scales([m], box_length=2.0)[0] == pytest.approx(np.sqrt(4.0 / 8.0))


class TestSampleVacuum:
    def test_empty_mode_list_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sample_vacuum([], seed=1)

    def test_duplicate_mode_rejected(self):
        m = Mode((0.0, 0.0, 1.0), 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            sample_vacuum([m, Mode((0.0, 0.0, 1.0), 1.0)], seed=1)

    def test_determinism_bit_identical(self):
        m = Mode((0.0, 0.0, 1.0), 1.0)
        s1 = sample_vacuum([m], seed=7, trial_index=3)
        s2 = sample_vacuum([m], seed=7, trial_index=3)
        assert np.array_equal(s1.amplitudes, s2.amplitudes)
        s3 = sample_vacuum([m], seed=7, trial_index=4)
        assert not np.array_equal(s1.amplitudes, s3.amplitudes)

    def test_mean_occupation_matches_quadrature_oracle(self, vacuum_draws):
        # E[|alpha|^2] = 1/2 with Var(|alpha|^2) = 1/4; band is 3 SE at 10^6
        mean_sq = quadrature_moment(1)
        var_sq = quadrature_moment(2) - mean_sq**2
        assert mean_sq == pytest.approx(0.5, abs=1e-10)
        assert var_sq == pytest.approx(0.25, abs=1e-10)
        sample = np.mean(np.abs(vacuum_draws[:, 0]) ** 2)
        assert abs(sample - mean_sq) < 3.0 * np.sqrt(var_sq / N_TRIALS)
        assert abs(sample - 0.5) < 0.002

    def test_circular_symmetry_kills_alpha_squared(self, vacuum_draws):
        assert abs(np.mean(vacuum_draws[:, 0] ** 2)) < 3e-3

    def test_zero_mean(self, vacuum_draws):
        assert abs(np.mean(vacuum_draws[:, 0])) < 3.0 * np.sqrt(0.5 / N_TRIALS)

    def test_cross_mode_independence(self, vacuum_draws):
        a, b = vacuum_draws[:, 0], vacuum_draws[:, 1]
        cov = np.mean(a * np.conj(b)) - np.mean(a) * np.conj(np.mean(b))
        assert abs(cov) < 3.0 * np.sqrt(0.25 / N_TRIALS)


class TestBlockKeyedSampling:
    """Trial t is row t % TRIAL_BLOCK of the generator keyed by (seed, t // TRIAL_BLOCK)."""

    def test_unaligned_split_equals_whole_batch(self):
        whole = sample_vacuum_batch(3, seed=12, trial_indices=range(6000))
        cuts = (0, 1000, 2500, 6000)
        parts = [sample_vacuum_batch(3, seed=12, trial_indices=range(a, b))
                 for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_prefix_is_head_of_longer_run(self):
        longer = sample_vacuum_batch(5, seed=3, trial_indices=range(2 * TRIAL_BLOCK + 9))
        for n in (1, 100, TRIAL_BLOCK, TRIAL_BLOCK + 1):
            prefix = sample_vacuum_batch(5, seed=3, trial_indices=range(n))
            assert np.array_equal(prefix, longer[:n]), n

    def test_single_realization_is_batch_row(self):
        modes = [Mode((0.0, 0.0, w), w) for w in (1.0, 2.0, 3.0)]
        batch = sample_vacuum_batch(3, seed=7, trial_indices=range(TRIAL_BLOCK + 40))
        for k in (0, 5, TRIAL_BLOCK - 1, TRIAL_BLOCK + 33):
            state = sample_vacuum(modes, seed=7, trial_index=k)
            assert np.array_equal(state.amplitudes, batch[k]), k

    @pytest.mark.parametrize("indices", [[0, 2], range(0, 10, 2), range(5, 0, -1), [0, 1]])
    def test_non_contiguous_indices_rejected(self, indices):
        with pytest.raises(ValueError, match="contiguous"):
            sample_vacuum_batch(2, seed=1, trial_indices=indices)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            sample_vacuum_batch(2, seed=1, trial_indices=range(-1, 3))

    def test_same_row_of_two_blocks_uncorrelated(self):
        n_modes = 5000
        n = 2 * n_modes                    # Re and Im of every mode
        for row in (0, 17, TRIAL_BLOCK - 1):
            a, b = (sample_vacuum_batch(n_modes, seed=9, trial_indices=range(t, t + 1))
                    .view(np.float64).ravel()
                    for t in (row, TRIAL_BLOCK + row))
            r = np.corrcoef(a, b)[0, 1]
            assert abs(r) < 4.0 / np.sqrt(n), (row, r)


class TestEvaluateField:
    def _two_mode_state(self, amplitudes):
        m1 = Mode((0.0, 0.0, 2.0), 2.0)
        m2 = Mode((0.0, 3.0, 0.0), 3.0)
        return FieldState((m1, m2), np.asarray(amplitudes), mode_scales([m1, m2]))

    def test_zero_amplitudes_give_zero(self):
        state = self._two_mode_state([0.0, 0.0])
        assert evaluate_field(state, (0.3, -0.1, 2.0), 1.5) == 0.0

    def test_single_mode_at_origin_gives_scale(self):
        m = Mode((0.0, 0.0, 2.0), 2.0)
        state = FieldState((m,), np.array([1.0 + 0j]), mode_scales([m]))
        assert evaluate_field(state, (0.0, 0.0, 0.0), 0.0) == pytest.approx(np.sqrt(2.0))

    def test_two_mode_hand_sum(self):
        # direct arithmetic on the two-term sum at r=(0.1,0.2,0.3), t=0.4
        state = self._two_mode_state([1.0, 1.0j])
        expected = (cmath.sqrt(2) * cmath.exp(-1j * 0.6 + 1j * 0.8)
                    + cmath.sqrt(3) * 1j * cmath.exp(-1j * 0.6 + 1j * 1.2))
        got = evaluate_field(state, (0.1, 0.2, 0.3), 0.4)
        assert got == pytest.approx(expected, rel=1e-12)

    @given(a=st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
           b=st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
    @settings(max_examples=30, deadline=None)
    def test_linearity_in_amplitudes(self, a, b):
        alpha = np.array([0.4 - 0.2j, 1.1 + 0.7j])
        beta = np.array([-0.9 + 0.3j, 0.2 - 1.4j])
        r, t = (0.5, -1.0, 0.25), 0.7
        lhs = evaluate_field(self._two_mode_state(a * alpha + b * beta), r, t)
        rhs = (a * evaluate_field(self._two_mode_state(alpha), r, t)
               + b * evaluate_field(self._two_mode_state(beta), r, t))
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestFieldState:
    def test_length_mismatch_rejected(self):
        m = Mode((0.0, 0.0, 1.0), 1.0)
        with pytest.raises(ValueError, match="amplitudes"):
            FieldState((m,), np.array([1.0, 2.0]), np.array([1.0]))

    def test_nonpositive_scale_rejected(self):
        m = Mode((0.0, 0.0, 1.0), 1.0)
        with pytest.raises(ValueError, match="positive"):
            FieldState((m,), np.array([1.0 + 0j]), np.array([0.0]))
