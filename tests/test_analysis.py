import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zpfsim.analysis import (
    chsh_scan,
    chsh_summary,
    chsh_variants,
    classify_regime,
    min_rate_bound,
    tradeoff_report,
)
from zpfsim.engine import _ChunkSums, run_variants
from zpfsim.scenarios import chsh_scenario, pdc_scenario, vacuum_scenario

from conftest import detector

positive = st.floats(min_value=1e-12, max_value=1e6, allow_nan=False)


class TestClassifyRegime:
    def test_dark(self, small_detector):
        rep = classify_regime(0.0, small_detector)
        assert rep.regime == "dark"

    def test_linear_intermediate_saturated(self, small_detector):
        det = small_detector                      # zeta * sigma0 = 0.01
        s0 = det.sigma0
        assert classify_regime(5.0 * s0, det).regime == "linear"       # x = 0.05
        assert classify_regime(100.0 * s0, det).regime == "intermediate"  # x = 1
        assert classify_regime(2000.0 * s0, det).regime == "saturated"    # x = 20

    def test_margins_reported_in_sigma_units(self, small_detector):
        det = small_detector                      # threshold at I0 + 5 sigma0
        rep = classify_regime(8.0 * det.sigma0, det)
        checks = dict((name, margin) for name, _, margin in rep.checks)
        assert checks["dark_margin"] == pytest.approx(5.0, rel=1e-10)
        assert checks["linearity_margin"] == pytest.approx(3.0, rel=1e-10)

    def test_negative_signal_rejected(self, small_detector):
        with pytest.raises(ValueError, match="non-negative"):
            classify_regime(-1.0, small_detector)


class TestTradeoff:
    def test_feasibility_threshold_at_2k_sigma(self, small_detector):
        det = small_detector
        s0 = det.sigma0
        assert not tradeoff_report(det, 5.9 * s0).feasible
        assert tradeoff_report(det, 6.1 * s0).feasible
        # boundary is inclusive and collapses to a single point
        rep = tradeoff_report(det, 6.0 * s0)
        assert rep.feasible
        lo, hi = rep.interval
        assert lo == pytest.approx(hi, rel=1e-12)

    def test_interval_endpoints(self, small_detector):
        det = small_detector
        rep = tradeoff_report(det, 10.0 * det.sigma0, k=2.0)
        lo, hi = rep.interval
        assert lo == pytest.approx(det.I0 + 2.0 * det.sigma0, rel=1e-12)
        assert hi == pytest.approx(det.I0 + 8.0 * det.sigma0, rel=1e-12)

    def test_infeasible_interval_is_none(self, small_detector):
        rep = tradeoff_report(small_detector, 1.0 * small_detector.sigma0)
        assert rep.interval is None

    def test_validation(self, small_detector):
        with pytest.raises(ValueError, match="non-negative"):
            tradeoff_report(small_detector, -1.0)
        with pytest.raises(ValueError, match="positive"):
            tradeoff_report(small_detector, 1.0, k=0.0)


class TestMinRateBound:
    @given(eta=st.floats(min_value=1e-3, max_value=1.0), focal=positive,
           crystal_radius=positive, length=positive, distance=positive,
           wavelength=positive, tau=positive, window=positive)
    @settings(max_examples=50, deadline=None)
    def test_matches_direct_formula(self, eta, focal, crystal_radius, length,
                                    distance, wavelength, tau, window):
        assume(tau <= window)
        got = min_rate_bound(eta, focal, crystal_radius, length, distance,
                             wavelength, tau, window)
        expected = (eta * focal**2 * crystal_radius**2
                    / (2 * length * distance**2 * wavelength * math.sqrt(tau * window)))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_names_offending_parameter(self):
        with pytest.raises(ValueError, match="wavelength"):
            min_rate_bound(0.1, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="eta"):
            min_rate_bound(0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("args, match", [
        ((math.nan, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0), "eta"),
        ((0.1, math.inf, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0), "focal"),
        ((0.1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, math.inf), "window"),
        ((5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0), "efficiency"),
        ((0.1, 1.0, 1.0, 1.0, 1.0, 1.0, 1e-9, 1e-12), "tau"),
    ])
    def test_rejects_what_a_detector_rejects(self, args, match):
        # non-finite inputs, eta outside (0, 1] and tau > T, as DetectorSpec
        with pytest.raises(ValueError, match=match):
            min_rate_bound(*args)


SETTINGS = ((0.0, math.pi / 8), (0.0, 3 * math.pi / 8),
            (math.pi / 4, math.pi / 8), (math.pi / 4, 3 * math.pi / 8))


def small_chsh(g=0.2, n_cells=4, threshold_sigma=1.0, zeta_sigma=0.5):
    d1 = detector(n_cells=n_cells, omega_center=1.25,
                  threshold_sigma=threshold_sigma, zeta_sigma=zeta_sigma)
    d2 = detector(n_cells=n_cells, omega_center=0.75,
                  threshold_sigma=threshold_sigma, zeta_sigma=zeta_sigma)
    return chsh_scenario(d1, d2, g)


class TestChshScan:
    def test_requires_four_settings(self):
        with pytest.raises(ValueError, match="four analyzer settings"):
            chsh_scan(small_chsh(), SETTINGS[:3], 100, seed=0)

    @pytest.mark.parametrize("kind", ["pdc", "vacuum-4"])
    def test_requires_four_detectors_and_four_pairs(self, kind):
        # PDC: two detectors, one pair; four vacuum detectors: six pairs
        dets = [detector(n_cells=4, omega_center=w) for w in (1.25, 0.75, 1.5, 1.0)]
        scen = pdc_scenario(*dets[:2], 0.2) if kind == "pdc" else vacuum_scenario(dets)
        with pytest.raises(ValueError, match="four-detector, four-pair"):
            chsh_variants(scen, SETTINGS)

    def test_forced_unit_response_gives_s_of_two(self):
        # constant responses (1+, 1-, 2+, 2-) = (1, 0, 1, 0) in every trial of
        # every variant: only ++ fires, so every E = 1 and S = 2 exactly
        scen = small_chsh()
        n, q = 256, np.array([1.0, 0.0, 1.0, 0.0])
        u = np.tile([q[a] * q[c] for a, c in scen.coincidences], 5)
        const = np.tile(n * q, (5, 1))
        sums = _ChunkSums(n=n, q_sum=const, q2_sum=const, i_sum=np.zeros((5, 4)),
                          i2_sum=np.zeros((5, 4)), ii_sum=np.zeros((5, 4)),
                          u_sum=n * u, uu_sum=n * np.outer(u, u))
        res = chsh_summary(SETTINGS, sums)
        assert res.correlations == (1.0, 1.0, 1.0, 1.0)
        assert res.s_value == 2.0
        assert res.s_stderr == 0.0

    def test_estimates_within_bounds_and_reproducible(self):
        scen = small_chsh()
        res = chsh_scan(scen, SETTINGS, 4096, seed=7)
        for e, se in zip(res.correlations, res.correlation_stderr):
            assert -1.0 <= e <= 1.0
            assert se >= 0.0
        for probs in res.coincidence_probs:
            assert all(0.0 <= p <= 1.0 for p in probs)
        res2 = chsh_scan(scen, SETTINGS, 4096, seed=7)
        assert res.s_value == res2.s_value

    def test_rotation_by_pi_is_a_symmetry(self):
        # shifting both analyzers by pi flips both arms, leaving E unchanged
        scen = small_chsh()
        base = chsh_scan(scen, SETTINGS, 2048, seed=3)
        shifted = chsh_scan(scen, [(a + math.pi, b + math.pi) for a, b in SETTINGS],
                            2048, seed=3)
        assert np.allclose(base.correlations, shifted.correlations, atol=1e-10)


class TestClauserHorne:
    @given(n_cells=st.integers(1, 8), g=st.floats(0.0, 0.45),
           threshold_sigma=st.floats(0.1, 4.0), zeta_sigma=st.floats(1e-3, 10.0),
           angles=st.tuples(*[st.floats(-math.pi, math.pi)] * 4),
           trials=st.integers(1, 4100), seed=st.integers(0, 1000))
    @example(n_cells=4, g=0.44, threshold_sigma=3.8, zeta_sigma=0.02,
             angles=(0.0, -math.pi / 4, math.pi / 8, -math.pi / 8), trials=4100, seed=3)
    @settings(max_examples=100, deadline=None)
    def test_ch_is_at_most_zero_on_every_channel_pair(self, n_cells, g, threshold_sigma,
                                                      zeta_sigma, angles, trials, seed):
        # Clauser-Horne (1974): each trial's responses Q lie in [0, 1) and a
        # coincidence is Q1 Q2 on shared draws, so each trial's
        # Q1(a)Q2(b) - Q1(a)Q2(b') + Q1(a')Q2(b) + Q1(a')Q2(b') - Q1(a') - Q2(b)
        # is <= 0, and so is their mean, up to rounding. The coincidence-
        # normalized S may pass 2; this bound may not.
        a, a2, b, b2 = angles
        scen = small_chsh(g, n_cells, threshold_sigma, zeta_sigma)
        sums = run_variants(scen, [(a, b), (a, b2), (a2, b), (a2, b2)], trials, seed, workers=1)
        coinc = sums.u_sum.reshape(5, 4) / sums.n    # (variant, pair), pairs ++, +-, -+, --
        single = sums.q_sum / sums.n                 # (variant, detector 1+, 1-, 2+, 2-)
        for pair, (x, y) in enumerate(scen.coincidences):
            ch = (coinc[1, pair] - coinc[2, pair] + coinc[3, pair] + coinc[4, pair]
                  - single[3, x] - single[1, y])
            assert ch <= 1e-12 * single.max(), (scen.detector_names[x], scen.detector_names[y], ch)
