import numpy as np
import pytest

from zpfsim.field import sample_pair_amplitudes, sample_vacuum_batch, sample_vacuum_power
from zpfsim.pdc import (
    PERTURBATIVE_G_LIMIT,
    PumpSpec,
    check_pairs,
    excess_photon_fraction,
    pair_correlation,
    pair_power,
    pdc_transform,
)


def matched_modes():
    """k, omega of a signal/idler pair phase-matched to a collinear pump (omega0 = 2)."""
    k = np.array([[0.0, 0.0, 1.2], [0.0, 0.0, 0.8]])
    return k, np.array([1.2, 0.8]), PumpSpec((0.0, 0.0, 2.0), 2.0, 0.1)


class TestPumpSpec:
    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PumpSpec((0.0, 0.0, 2.0), 2.0, -0.1)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            PumpSpec((0.0, 0.0, 2.0), 0.0, 0.1)

    def test_strong_coupling_warns(self):
        with pytest.warns(UserWarning, match="perturbative") as record:
            PumpSpec((0.0, 0.0, 2.0), 2.0, PERTURBATIVE_G_LIMIT)
        # the warning names the line that built the pump, not the dataclass __init__
        assert record[0].filename == __file__

    def test_weak_coupling_silent(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PumpSpec((0.0, 0.0, 2.0), 2.0, 0.29)


class TestPhaseMatchedPairs:
    """``check_pairs`` on (signal, idler) index pairs."""

    def test_repeated_index_rejected(self):
        k, omega, pump = matched_modes()
        k, omega = np.vstack([k, k[:1]]), np.append(omega, omega[0])
        with pytest.raises(ValueError, match=r"pair \(0, 1\) .*more than one pair"):
            check_pairs(k, omega, ([0, 1], [1, 2]), pump)

    def test_unknown_mode_rejected(self):
        k, omega, pump = matched_modes()
        with pytest.raises(IndexError):
            check_pairs(k, omega, ([0], [5]), pump)

    def test_wavevector_mismatch_rejected(self):
        k = np.array([[0.0, 0.0, 1.2], [0.0, 0.8, 0.0]])   # right frequency, wrong direction
        pump = PumpSpec((0.0, 0.0, 2.0), 2.0, 0.1)
        with pytest.raises(ValueError, match="wavevector"):
            check_pairs(k, np.array([1.2, 0.8]), (0, 1), pump)

    def test_frequency_mismatch_rejected(self):
        k = np.array([[0.0, 0.0, 1.3], [0.0, 0.0, 0.7]])
        pump = PumpSpec((0.0, 0.0, 2.0), 1.9, 0.1)
        with pytest.raises(ValueError, match="frequency"):
            check_pairs(k, np.array([1.3, 0.7]), (0, 1), pump)

    def test_valid_pair_passes(self):
        k, omega, pump = matched_modes()
        check_pairs(k, omega, ([0], [1]), pump)


class TestPdcTransform:
    def test_hand_computed_pair(self):
        g = 0.2
        a = 1.0 + 0.5 * g * g
        amps = np.array([0.3 - 0.4j, -0.1 + 0.7j])
        out = pdc_transform(amps, (0, 1), g)
        assert out[0] == pytest.approx(a * amps[0] + g * np.conj(amps[1]), rel=1e-14)
        assert out[1] == pytest.approx(a * amps[1] + g * np.conj(amps[0]), rel=1e-14)

    def test_unmatched_modes_untouched(self):
        amps = np.array([1.0 + 2j, 3.0 - 1j, 0.5 + 0.5j])
        out = pdc_transform(amps, (0, 2), 0.1)
        assert out[1] == amps[1]

    def test_zero_coupling_is_identity(self):
        amps = np.array([1.0 + 2j, 3.0 - 1j])
        assert np.array_equal(pdc_transform(amps, (0, 1), 0.0), amps)

    def test_input_not_mutated(self):
        amps = np.array([1.0 + 2j, 3.0 - 1j])
        saved = amps.copy()
        pdc_transform(amps, (0, 1), 0.3)
        assert np.array_equal(amps, saved)

    @pytest.mark.parametrize("index", [([0, 4], [3, 1]), (slice(0, 2), slice(2, 4)), (5, 0)])
    def test_unpaired_modes_pass_through_bitwise(self, index):
        # the output is not a copy of the input, so every mode that neither
        # index names must be copied in, signed zeros and NaN payloads too
        rng = np.random.default_rng(8)
        amps = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        amps[0, :] = complex(-0.0, 0.0)
        amps[1, :] = complex(np.nan, -0.0)
        saved = amps.copy()
        out = pdc_transform(amps, index, 0.2)
        assert amps.tobytes() == saved.tobytes()
        keep = np.ones(6, dtype=bool)
        keep[index[0]] = keep[index[1]] = False
        assert keep.any()
        assert out[:, keep].tobytes() == amps[:, keep].tobytes()

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(5)
        amps = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        index = ([0, 1], [3, 2])      # pairs (0, 3) and (1, 2)
        batched = pdc_transform(amps, index, 0.15)
        rows = np.stack([pdc_transform(row, index, 0.15) for row in amps])
        assert np.allclose(batched, rows, rtol=1e-14)


class TestApplyPdc:
    """The crystal step of a scenario build: validate the index pair, then map."""

    def test_valid_transform_and_immutability(self):
        k, omega, pump = matched_modes()
        amps = np.array([0.2 + 0.1j, -0.3 + 0.4j])
        saved = amps.copy()
        check_pairs(k, omega, (0, 1), pump)
        out = pdc_transform(amps, (0, 1), pump.g)
        assert out is not amps
        assert np.array_equal(amps, saved)
        a = 1.0 + 0.5 * pump.g**2
        assert out[0] == pytest.approx(a * amps[0] + pump.g * np.conj(amps[1]))

    def test_invalid_matching_raises(self):
        k, omega, _ = matched_modes()
        bad_pump = PumpSpec((0.0, 0.0, 2.0), 2.1, 0.1)
        with pytest.raises(ValueError, match="frequency"):
            check_pairs(k, omega, (0, 1), bad_pump)


class TestMoments:
    def test_closed_forms(self):
        g = 0.2
        assert pair_correlation(g) == pytest.approx(g * (1 + g * g / 2), rel=1e-15)
        assert excess_photon_fraction(g) == pytest.approx(g * g + g**4 / 8, rel=1e-15)

    def test_vacuum_moments_match_analytic(self):
        # oracle: with alpha_s, alpha_i iid circular gaussians,
        #   E[a's a'i] = 2 a g E[|alpha|^2] = g (1 + g^2/2)
        #   E[|a's|^2] = (a^2 + g^2) / 2, excess = g^2 + g^4/8
        g = 0.1
        n = 200_000
        amps = sample_vacuum_batch(2, seed=11, trial_indices=range(n))
        out = pdc_transform(amps, (0, 1), g)
        prod = out[:, 0] * out[:, 1]
        corr = np.mean(prod)
        se_corr = np.std(prod) / np.sqrt(n)
        assert abs(corr - pair_correlation(g)) < 3 * se_corr
        occ = np.abs(out[:, 0]) ** 2
        se_occ = np.std(occ) / np.sqrt(n)
        assert abs(np.mean(occ) - 0.5 - excess_photon_fraction(g)) < 3 * se_occ


class TestPairPower:
    """The pair law: each pair's two output powers from P = |p|^2 and the turned q."""

    @pytest.mark.parametrize("index", [(slice(0, 8), slice(15, 7, -1)),
                                       (np.arange(0, 16, 2), np.arange(15, 0, -2)),
                                       (0, 1)], ids=["mirrored-slices", "arrays", "ints"])
    @pytest.mark.parametrize("g", [0.0, 0.05, 0.2, 0.39])
    def test_law_equals_crystal_map(self, g, index):
        # from the same amplitudes: x = alpha_s, y = conj(alpha_i),
        # p = (x + y)/sqrt(2), q = (x - y)/sqrt(2), turned by p's phase
        n_modes = 2 * np.arange(16)[index[0]].size
        amps = sample_vacuum_batch(n_modes, seed=14, trial_indices=range(64))
        x, y = amps[:, index[0]], np.conj(amps[:, index[1]])
        p, q = (x + y) / np.sqrt(2.0), (x - y) / np.sqrt(2.0)
        power = pair_power(np.abs(p).reshape(64, -1) ** 2,
                           (q * np.conj(p) / np.abs(p)).reshape(64, -1), index, g)
        expected = np.abs(pdc_transform(amps, index, g)) ** 2
        assert power.shape == expected.shape
        assert np.allclose(power, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("g", [0.05, 0.39])
    def test_moments_of_the_drawn_law(self, g):
        # each power has mean n = 1/2 + g^2 + g^4/8 and variance n^2, and the
        # two have covariance m^2 with m = g (1 + g^2/2), all within 4 SE
        trials = 1_000_000
        power = pair_power(sample_vacuum_power(1, seed=41, trial_indices=range(trials)),
                           sample_pair_amplitudes(1, seed=41, trial_indices=range(trials)),
                           ([0], [1]), g)
        n = 0.5 + excess_photon_fraction(g)
        dev = power - power.mean(axis=0)
        for k in (0, 1):
            z_mean = (power[:, k].mean() - n) / (power[:, k].std() / np.sqrt(trials))
            sq = dev[:, k] ** 2
            z_var = (sq.mean() - n * n) / (sq.std() / np.sqrt(trials))
            assert abs(z_mean) < 4.0 and abs(z_var) < 4.0, (k, z_mean, z_var)
        cross = dev[:, 0] * dev[:, 1]
        z_cov = (cross.mean() - pair_correlation(g) ** 2) / (cross.std() / np.sqrt(trials))
        assert abs(z_cov) < 4.0, z_cov
