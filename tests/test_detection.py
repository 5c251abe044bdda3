import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.special import j0
from scipy.stats import norm

from zpfsim.detection import (
    DetectorSpec,
    intensity_batch,
    p_joint,
    p_single,
    q_model,
    response_matrix,
)
from zpfsim.field import sample_vacuum_batch
from zpfsim.scenarios import make_matched_detector

from conftest import detector, draw_rows, q_standard

# shared across hypothesis examples (construction is deterministic)
_BOUNDEDNESS_DETECTOR = detector(zeta_sigma=10.0)


def single_element_detector(omega_el=0.9, radius=2.0, length=3.0, window=5.0):
    """One element (tau = T) at omega_el; threshold far above I0 to satisfy validation."""
    return DetectorSpec(
        radius=radius, length=length, window=window, tau=window,
        omega_center=omega_el, threshold=1e6, zeta=1.0,
    )


def grid_kvecs(det):
    """Element wavevectors: omega_l along the detector axis, shape (n_elements, 3)."""
    return det.element_omegas[:, None] * np.asarray(det.axis)


class TestDetectorSpec:
    def test_threshold_below_vacuum_mean_rejected(self):
        with pytest.raises(ValueError, match="Q positive"):
            detector(threshold_sigma=-1.0)

    def test_tau_exceeding_window_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            DetectorSpec(radius=1.0, length=1.0, window=1.0, tau=2.0,
                         omega_center=1.0, threshold=1.0, zeta=1.0)

    def test_eta_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="efficiency"):
            detector(eta=1.5)

    def test_vacuum_law_formulas(self):
        det = detector(n_cells=50, omega_center=2.0, window=100.0, length=4.0)
        tau = 100.0 / 50
        bw = 2 * math.pi / tau
        assert det.I0 == pytest.approx(2.0 * bw / (8 * math.pi * 4.0), rel=1e-12)
        assert det.sigma0 == pytest.approx(det.I0 * math.sqrt(tau / 100.0), rel=1e-12)

    def test_default_zeta_from_eta(self):
        det = make_matched_detector(radius=2.0, window=50.0, n_cells=100, omega_center=4.0,
                                    threshold=1e6, eta=0.25)
        assert det.zeta == 0.25 * math.pi * 2.0**2 * 50.0 / 4.0

    def test_matched_grid_spacing(self):
        det = detector(n_cells=8, window=16.0 * math.pi)
        assert det.n_elements == 8 == round(det.window / det.tau)
        assert det.bandwidth == pytest.approx(2 * math.pi / det.tau, rel=1e-15)
        dw = np.diff(det.element_omegas)
        assert np.allclose(dw, 2 * math.pi / det.window)
        assert np.mean(det.element_omegas) == pytest.approx(det.omega_center)


class TestFilteredField:
    def test_matched_mode_gives_unit_response(self):
        det = detector(n_cells=8, window=16.0 * math.pi)
        amps = np.zeros(8, dtype=complex)
        amps[3] = 1.5 - 0.5j
        fields = response_matrix(grid_kvecs(det), det.element_omegas, np.ones(8), det) @ amps
        # the mode sits exactly on element 3: full response there, sinc zeros elsewhere
        assert fields[3] == pytest.approx(amps[3], rel=1e-12)
        for el in (0, 1, 5, 7):
            assert abs(fields[el]) < 1e-12

    def test_against_brute_force_filter_integral(self):
        # oracle: the defining window integral, evaluated as three independent
        # 1-D quadratures (time, axial, radial with the J0 disc identity)
        det = single_element_detector()
        k, omega = (0.6, 0.0, 0.8), 1.0
        alpha, scale = 0.7 - 0.3j, 1.3

        dw = omega - det.element_omegas[0]
        re_t, _ = quad(lambda t: math.cos(dw * t) / det.window, 0.0, det.window)
        im_t, _ = quad(lambda t: math.sin(dw * t) / det.window, 0.0, det.window)
        (k_el,) = grid_kvecs(det)
        dpar = k[2] - k_el[2]
        dperp = math.hypot(k[0] - k_el[0], k[1] - k_el[1])
        z_int, _ = quad(lambda z: math.cos(dpar * z) / det.length,
                        -det.length / 2, det.length / 2)
        r_int, _ = quad(lambda r: j0(dperp * r) * 2.0 * r / det.radius**2,
                        0.0, det.radius)
        expected = scale * alpha * complex(re_t, im_t) * z_int * r_int

        (got,) = response_matrix([k], [omega], [scale], det) @ [alpha]
        assert got == pytest.approx(expected, rel=1e-10)
        assert abs(got) < abs(scale * alpha)   # filtering can only attenuate

    def test_effective_intensity_sums_elements(self):
        det = detector(n_cells=8, window=16.0 * math.pi)
        rng = np.random.default_rng(0)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        fields = response_matrix(grid_kvecs(det), det.element_omegas, np.full(8, 0.7), det) @ amps
        # Ibar = sum_l |Ebar_l|^2, and on the matched grid Ebar_l = scale_l alpha_l
        intensity = np.sum(np.abs(fields) ** 2)
        assert intensity == pytest.approx(0.7**2 * np.sum(np.abs(amps) ** 2), rel=1e-10)


class TestResponseMatrix:
    def test_matched_grid_is_diagonal(self):
        det = detector(n_cells=32)
        scales = np.linspace(0.5, 1.5, 32)
        resp = response_matrix(grid_kvecs(det), det.element_omegas, scales, det)
        assert resp.shape == (32, 32)
        assert np.allclose(resp, np.diag(scales), rtol=0, atol=1e-12 * scales.max())

    def test_intensity_batch_matches_dense(self):
        det = detector(n_cells=16)
        scales = np.linspace(0.5, 1.5, 16)
        resp = response_matrix(grid_kvecs(det), det.element_omegas, scales, det)
        amps = draw_rows(sample_vacuum_batch, 16, 2, 40)
        dense = np.sum(np.abs(amps @ resp.T) ** 2, axis=1)
        parts = ((slice(0, 16), scales**2),)
        assert np.allclose(intensity_batch(np.abs(amps) ** 2, parts)[:, 0], dense, rtol=1e-12)


class TestResponseModels:
    def test_zero_at_and_below_threshold(self, small_detector):
        det = small_detector
        assert q_model(det.threshold, det) == 0.0
        assert q_model(det.threshold - det.sigma0, det) == 0.0
        assert q_model(0.0, det) == 0.0

    def test_linear_limit_above_threshold(self, small_detector):
        det = small_detector
        i = det.threshold + det.sigma0
        expected = -math.expm1(-det.zeta * (i - det.I0))
        assert q_model(i, det) == pytest.approx(expected, rel=1e-12)
        # small zeta: q ~ zeta (I - I0) up to the second-order term
        assert q_model(i, det) == pytest.approx(det.zeta * (i - det.I0), rel=5e-2)

    @given(x=st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_model_bounded_on_any_intensity(self, x):
        det = _BOUNDEDNESS_DETECTOR
        q = q_model(x * det.I0, det)
        assert 0.0 <= q < 1.0

    def test_standard_response_unbounded(self, small_detector):
        det = small_detector
        big = DetectorSpec(
            radius=1.0, length=det.length, window=det.window, tau=det.tau,
            omega_center=det.omega_center, threshold=det.threshold, zeta=3.0 / det.sigma0)
        assert q_standard(det.I0 - det.sigma0, big) < 0.0
        assert q_standard(det.I0 + det.sigma0, big) > 1.0
        # while the bounded model stays in [0, 1) at the same intensities
        assert q_model(det.I0 - det.sigma0, big) == 0.0
        assert 0.0 <= q_model(det.I0 + det.sigma0, big) < 1.0

    def test_array_and_scalar_shapes(self, small_detector):
        det = small_detector
        arr = q_model(np.array([0.0, det.threshold, det.threshold + det.sigma0]), det)
        assert arr.shape == (3,)
        assert isinstance(q_model(det.threshold, det), float)


class TestDetectionProbabilities:
    def test_joint_rejects_corr_outside_unit_interval(self, small_detector):
        det = small_detector
        with pytest.raises(ValueError, match="correlation"):
            p_joint(det, det, det.I0, det.I0, corr=1.5)

    def test_saturated_limit_equals_gaussian_tail(self):
        # huge gain: p -> P(I > I_m), the threshold-crossing probability
        det = detector(n_cells=100, threshold_sigma=1.0, zeta_sigma=1e6)
        p = p_single(det, det.I0 + 3.0 * det.sigma0)
        tail = norm.sf(det.threshold, det.I0 + 3.0 * det.sigma0, det.sigma0)
        assert p == pytest.approx(tail, rel=1e-6)

    def test_dark_probability_below_gaussian_tail(self, small_detector):
        det = small_detector
        p = p_single(det, det.I0)
        assert 0.0 < p <= norm.sf(5.0)

    def test_joint_factorizes_at_zero_corr(self):
        d1 = detector(n_cells=100, threshold_sigma=2.0, zeta_sigma=0.5)
        d2 = detector(n_cells=100, threshold_sigma=1.0, zeta_sigma=0.2)
        m1, m2 = d1.I0 + 4.0 * d1.sigma0, d2.I0 + 2.0 * d2.sigma0
        joint = p_joint(d1, d2, m1, m2, 0.0)
        assert joint == pytest.approx(p_single(d1, m1) * p_single(d2, m2), rel=1e-8)

    def test_perfect_corr_identical_arms_collapses(self):
        det = detector(n_cells=100, threshold_sigma=1.5, zeta_sigma=1e6)
        m = det.I0 + 3.0 * det.sigma0
        # saturated responses: joint click prob = single click prob on the diagonal
        joint = p_joint(det, det, m, m, 1.0)
        assert joint == pytest.approx(p_single(det, m), rel=1e-6)

    def test_against_dblquad_oracle_at_half_corr(self):
        d1 = detector(n_cells=100, threshold_sigma=1.0, zeta_sigma=0.8)
        d2 = detector(n_cells=100, threshold_sigma=0.5, zeta_sigma=0.4)
        m1, m2 = d1.I0 + 3.0 * d1.sigma0, d2.I0 + 2.0 * d2.sigma0
        s1, s2 = d1.sigma0, d2.sigma0
        c = 0.5

        def pdf2(x1, x2):
            z1 = (x1 - m1) / s1
            z2 = (x2 - m2) / s2
            expo = -(z1 * z1 - 2 * c * z1 * z2 + z2 * z2) / (2 * (1 - c * c))
            return math.exp(expo) / (2 * math.pi * s1 * s2 * math.sqrt(1 - c * c))

        oracle, _ = dblquad(
            lambda x2, x1: pdf2(x1, x2) * q_model(x1, d1) * q_model(x2, d2),
            d1.threshold, m1 + 10 * s1,
            d2.threshold, m2 + 10 * s2,
        )
        assert p_joint(d1, d2, m1, m2, c) == pytest.approx(oracle, rel=1e-6)

    def test_positive_corr_raises_coincidences(self):
        det = detector(n_cells=100, threshold_sigma=1.0, zeta_sigma=0.5)
        m = det.I0 + 3.0 * det.sigma0
        ps = [p_joint(det, det, m, m, c)
              for c in (-0.5, 0.0, 0.5, 0.9)]
        assert ps == sorted(ps)


# ---------------------------------------------------------------------------
# closed-form detection laws against independent oracles
# ---------------------------------------------------------------------------

ZETA_SIGMAS = (1e-9, 1e-6, 1e-3, 1.0, 10.0, 1e6)
CORRS = (-1.0, -0.6, 0.0, 0.6, 1.0)
# (threshold_sigma above I0, z = standardized threshold minus the law's mean):
# z = 0 puts the threshold exactly at the shifted mean; (20, 20) is a 20 sigma
# vacuum tail, beyond the old 12 sigma quadrature cut-off
OFFSETS = ((1.0, 1.0), (2.0, 0.0), (3.0, -2.0), (20.0, 20.0))


def law(det, z):
    """Mean of the gaussian intensity law that sits z sigma0 below the threshold."""
    return det.threshold - z * det.sigma0


def within_spec(value, oracle):
    """1e-10 relative, or 1e-15 absolute for values below 1e-5."""
    err = abs(value - oracle)
    return err <= 1e-10 * abs(oracle) or (abs(oracle) < 1e-5 and err <= 1e-15)


def standardized(det, mean):
    """(z, d, eps) of a detector and its law's mean as mpmath numbers."""
    sigma = mpmath.mpf(det.sigma0)
    return ((mpmath.mpf(det.threshold) - mpmath.mpf(mean)) / sigma,
            (mpmath.mpf(mean) - mpmath.mpf(det.I0)) / sigma,
            mpmath.mpf(det.zeta) * sigma)


def breakpoints(lo, hi, scale):
    """lo, lo + scale, lo + 2 scale, lo + 4 scale, ... up to hi."""
    pts, step = [lo], scale
    while lo + step < hi:
        pts.append(lo + step)
        step *= 2
    return pts + [hi]


def mp_p_single(det, mean):
    """The defining integral int phi(u) (1 - e^{-eps (u + d)}) du over u > z."""
    with mpmath.workdps(30):
        z, d, eps = standardized(det, mean)
        f = lambda u: mpmath.npdf(u) * -mpmath.expm1(-eps * (u + d))
        pts = breakpoints(z, max(z, 0) + 60, 1 / (1 + abs(z) + eps))
        return mpmath.quad(f, pts + [mpmath.inf])


def mp_p_joint(det1, det2, mean1, mean2, corr):
    """Outer integral over arm 1 of phi q1 times arm 2's conditional click law.

    The conditional law of u2 given u1 is N(c u1, 1 - c^2); its click
    probability is written out in 22-digit arithmetic, where the cancellation
    of the two terms costs at most eight digits.
    """
    with mpmath.workdps(22):
        z1, d1, e1 = standardized(det1, mean1)
        z2, d2, e2 = standardized(det2, mean2)
        c = mpmath.mpf(corr)
        q1 = lambda u: -mpmath.expm1(-e1 * (u + d1))
        scale = 1 / (1 + abs(z1) + e1 + e2)
        if abs(c) == 1:
            # u2 = c u1: arm 2 clicks only where c u1 > z2
            lo, hi = (max(z1, z2), mpmath.inf) if c > 0 else (z1, -z2)
            if lo >= hi:
                return mpmath.mpf(0)
            f = lambda u: mpmath.npdf(u) * q1(u) * -mpmath.expm1(-e2 * (c * u + d2))
            pts = breakpoints(lo, max(lo, 0) + 60, scale)
            if hi != mpmath.inf:
                pts = sorted({p for p in pts if p < hi} | {hi - scale * 2**j for j in range(60)
                                                           if hi - scale * 2**j > lo})
                return mpmath.quad(f, pts + [hi])
            return mpmath.quad(f, pts + [mpmath.inf])
        s = mpmath.sqrt(1 - c * c)

        def f(u):
            zc, dc, ec = (z2 - c * u) / s, (c * u + d2) / s, e2 * s
            p2 = mpmath.ncdf(-zc) - mpmath.exp(ec * ec / 2 - ec * dc) * mpmath.ncdf(-(zc + ec))
            return mpmath.npdf(u) * q1(u) * p2

        return mpmath.quad(f, breakpoints(z1, max(z1, 0) + 60, scale) + [mpmath.inf])


class TestClosedFormAccuracy:
    @pytest.mark.parametrize("zeta_sigma", ZETA_SIGMAS)
    @pytest.mark.parametrize("threshold_sigma,z", OFFSETS)
    def test_p_single_against_mpmath(self, zeta_sigma, threshold_sigma, z):
        det = detector(n_cells=100, threshold_sigma=threshold_sigma, zeta_sigma=zeta_sigma)
        mean = law(det, z)
        oracle = float(mp_p_single(det, mean))
        assert oracle > 0.0
        assert p_single(det, mean) == pytest.approx(oracle, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("zeta_sigma", (1e-3, 1.0, 10.0))
    @pytest.mark.parametrize("threshold_sigma,z", OFFSETS[:3])
    def test_p_single_against_quad(self, zeta_sigma, threshold_sigma, z):
        det = detector(n_cells=100, threshold_sigma=threshold_sigma, zeta_sigma=zeta_sigma)
        mean = law(det, z)
        lo, scale = det.threshold, det.sigma0 / (1.0 + zeta_sigma)
        pieces = [quad(lambda x: norm.pdf(x, mean, det.sigma0) * q_model(x, det), a, b,
                       epsabs=1e-18, epsrel=1e-12, limit=200)[0]
                  for a, b in zip([lo] + [lo + scale * 2**j for j in range(8)],
                                  [lo + scale * 2**j for j in range(8)] + [np.inf])]
        assert within_spec(p_single(det, mean), math.fsum(pieces))

    def test_p_single_20_sigma_tail_is_resolved(self):
        det = detector(n_cells=100, threshold_sigma=20.0, zeta_sigma=1e6)
        p = p_single(det, det.I0)
        # saturated response: the gaussian tail beyond 20 sigma, 2.75e-89
        assert p == pytest.approx(norm.sf(20.0), rel=1e-12)

    @pytest.mark.parametrize("corr", CORRS)
    @pytest.mark.parametrize("zeta_sigma", ZETA_SIGMAS)
    @pytest.mark.parametrize("offsets", ((OFFSETS[0], OFFSETS[1]), (OFFSETS[2], OFFSETS[0]),
                                         (OFFSETS[3], OFFSETS[1])))
    def test_p_joint_against_mpmath(self, corr, zeta_sigma, offsets):
        (t1, z1), (t2, z2) = offsets
        d1 = detector(n_cells=100, threshold_sigma=t1, zeta_sigma=zeta_sigma)
        # the second arm responds ten times more steeply (capped at 1e6)
        d2 = detector(n_cells=100, threshold_sigma=t2, zeta_sigma=min(10 * zeta_sigma, 1e6))
        means = law(d1, z1), law(d2, z2)
        oracle = float(mp_p_joint(d1, d2, *means, corr))
        assert within_spec(p_joint(d1, d2, *means, corr), oracle)

    def test_p_joint_20_sigma_tail_is_resolved(self):
        d1 = detector(n_cells=100, threshold_sigma=20.0, zeta_sigma=1.0)
        d2 = detector(n_cells=100, threshold_sigma=1.0, zeta_sigma=1.0)
        oracle = float(mp_p_joint(d1, d2, d1.I0, d2.I0, 0.6))
        assert 0.0 < oracle < 1e-80
        assert p_joint(d1, d2, d1.I0, d2.I0, 0.6) == pytest.approx(oracle, rel=1e-10, abs=0.0)
