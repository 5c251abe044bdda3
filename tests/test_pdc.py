import numpy as np
import pytest

from zpfsim.field import sample_vacuum_batch
from zpfsim.pdc import excess_photon_fraction, pair_power, pdc_transform

from conftest import draw_rows, drawn_normals, drawn_power, pair_correlation


class TestPdcTransform:
    def test_hand_computed_pair(self):
        g = 0.2
        a = 1.0 + 0.5 * g * g
        amps = np.array([0.3 - 0.4j, -0.1 + 0.7j])
        out = pdc_transform(amps, g)
        assert out[0] == pytest.approx(a * amps[0] + g * np.conj(amps[1]), rel=1e-14)
        assert out[1] == pytest.approx(a * amps[1] + g * np.conj(amps[0]), rel=1e-14)

    def test_zero_coupling_is_identity(self):
        amps = np.array([1.0 + 2j, 3.0 - 1j])
        assert np.array_equal(pdc_transform(amps, 0.0), amps)

    def test_input_not_mutated(self):
        amps = np.array([1.0 + 2j, 3.0 - 1j])
        saved = amps.copy()
        pdc_transform(amps, 0.3)
        assert np.array_equal(amps, saved)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(5)
        amps = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        batched = pdc_transform(amps, 0.15)      # pairs (0, 3) and (1, 2)
        rows = np.stack([pdc_transform(row, 0.15) for row in amps])
        assert np.allclose(batched, rows, rtol=1e-14)


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
        amps = draw_rows(sample_vacuum_batch, 2, 11, n)
        out = pdc_transform(amps, g)
        prod = out[:, 0] * out[:, 1]
        corr = np.mean(prod)
        se_corr = np.std(prod) / np.sqrt(n)
        assert abs(corr - pair_correlation(g)) < 3 * se_corr
        occ = np.abs(out[:, 0]) ** 2
        se_occ = np.std(occ) / np.sqrt(n)
        assert abs(np.mean(occ) - 0.5 - excess_photon_fraction(g)) < 3 * se_occ


class TestPairPower:
    """The pair law: each pair's two output powers from P = |p|^2 and the turned q."""

    @pytest.mark.parametrize("n_pairs", [8, 1], ids=["mirrored-slices", "one-pair"])
    @pytest.mark.parametrize("g", [0.0, 0.05, 0.2, 0.39])
    def test_law_equals_crystal_map(self, g, n_pairs):
        # from the same amplitudes: x = alpha_s, y = conj(alpha_i) of mode
        # 2 n_pairs - 1 - j, p = (x + y)/sqrt(2), q = (x - y)/sqrt(2), turned
        # by p's phase
        amps = draw_rows(sample_vacuum_batch, 2 * n_pairs, 14, 64)
        x, y = amps[:, :n_pairs], np.conj(amps[:, :n_pairs - 1:-1])
        p, q = (x + y) / np.sqrt(2.0), (x - y) / np.sqrt(2.0)
        # pair_power reads 2P and 2q and returns pair j's signal and idler
        # powers in column j; modes j and 2 n_pairs - 1 - j hold them
        signal, idler = pair_power(2 * np.abs(p) ** 2, 2 * q * np.conj(p) / np.abs(p), g)
        power = np.hstack([signal, idler[:, ::-1]])
        expected = np.abs(pdc_transform(amps, g)) ** 2
        assert power.shape == expected.shape
        assert np.allclose(power, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("g", [0.05, 0.39])
    def test_moments_of_the_drawn_law(self, g):
        # each power has mean n = 1/2 + g^2 + g^4/8 and variance n^2, and the
        # two have covariance m^2 with m = g (1 + g^2/2), all within 4 SE
        trials = 1_000_000
        power = np.hstack(pair_power(draw_rows(drawn_power, 1, 41, trials),
                                     draw_rows(drawn_normals, 1, 41, trials, stream=1), g))
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
