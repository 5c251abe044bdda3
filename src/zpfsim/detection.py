"""Threshold photodetection built on filtered fields and effective intensity.

A detector is a cylinder (radius R, length L) carrying N = n_cells = T / tau
narrow-band elements (omega_l, k_l), spaced 2 pi / T around omega_center
with k_l along the detector axis. Each element sees the filtered field

    Ebar_l = (1 / (pi R^2 L T)) int_V dV int_0^T E+(r,t) e^{i k_l.r - i w_l t} dt,

which for a plane-wave superposition evaluates analytically to
sum_k scale_k alpha_k D(k - k_l) S(w - w_l), with S the time sinc factor
and D the normalized volume overlap of the cylinder. The effective
intensity is Ibar = c eps0 sum_l |Ebar_l|^2 and the detector response is

    Q(Ibar) = (1 - e^{-zeta (Ibar - I0)}) Theta(Ibar - I_m),  Theta(0) = 0,

which stays in [0, 1) as long as the threshold I_m exceeds the vacuum
mean I0. Under vacuum, Ibar is gaussian with mean I0 = wbar dw / (8 pi c L)
and deviation sigma0 = I0 sqrt(tau / T); a weak signal shifts the mean by
Ibar_s and leaves the deviation unchanged.

When the modes sit on a detector's own element grid (spacing 2 pi / T
along its axis), the sinc zeros make each element see exactly one mode and
Ibar = sum_m scale_m^2 |alpha_m|^2 over that detector's modes. The Monte
Carlo therefore reduces each detector's per-mode power |alpha_m|^2 over
its own modes only, with their scale^2 as weights (``intensity_batch``).
``response_matrix`` evaluates the general geometry and serves as its test
oracle: the filtered fields of an amplitude vector are
``response_matrix(k, omega, scales, detector) @ amps`` for modes with
wavevectors k (n, 3) and frequencies omega (n,). A scenario stores neither,
as no run reads them. No run calls it, and it alone needs scipy (for J1),
which is a test dependency.

The analytic detection probabilities ``p_single`` and ``p_joint`` integrate
the gaussian law N(mean, sigma0) of each detector's intensity against Q in
closed form; the detector fixes sigma0, so a law is a detector and its mean
I0 + Ibar_s. The results are one gaussian tail minus one exponentially
tilted tail, and four tilted bivariate-normal orthants (Owen's T function),
all in log space and with no truncation of the tails. The special functions
behind them are in ``zpfsim._special``.

All formulas below use dimensionless units (hbar = c = eps0 = 1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._special import erfcx, legendre_rule, log_ndtr, ndtr, owens_t

__all__ = [
    "DetectorSpec",
    "response_matrix",
    "intensity_batch",
    "q_model",
    "p_single",
    "p_joint",
]


@dataclass(frozen=True)
class DetectorSpec:
    """Geometry, timing, band, gain and threshold of one detector.

    ``threshold`` is the effective-intensity threshold I_m and must exceed
    the vacuum mean ``I0``. ``zeta`` is the dimensionless gain, positive;
    ``scenarios.make_matched_detector`` resolves it from a config's gain keys.
    """

    radius: float
    length: float
    window: float                 # time window T
    n_cells: int                  # coherence cells in the window, one element each
    omega_center: float
    threshold: float
    zeta: float
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if min(self.radius, self.length, self.window, self.omega_center) <= 0:
            raise ValueError("detector geometry, timing and frequency must be positive")
        if not isinstance(self.n_cells, int) or self.n_cells < 1:
            raise ValueError(f"n_cells must be a positive integer, got {self.n_cells!r}")
        if self.zeta <= 0:
            raise ValueError(f"gain zeta must be positive, got {self.zeta:g}")
        ax = np.asarray(self.axis, dtype=float)
        if ax.shape != (3,) or not np.any(ax):
            raise ValueError(f"axis must be a nonzero 3-vector, got {self.axis}")
        object.__setattr__(self, "axis", tuple(ax / np.linalg.norm(ax)))
        if self.threshold <= self.I0:
            raise ValueError(
                f"threshold I_m={self.threshold:g} must exceed the vacuum mean "
                f"I0={self.I0:g} to keep the response Q positive"
            )

    # derived quantities -----------------------------------------------------
    @property
    def tau(self) -> float:
        """Beam coherence time T / n_cells."""
        return self.window / self.n_cells

    @property
    def bandwidth(self) -> float:
        """Band width 2 pi / tau."""
        return 2.0 * math.pi / self.tau

    @property
    def I0(self) -> float:
        """Vacuum mean effective intensity wbar * dw / (8 pi c L)."""
        return vacuum_moments(self.omega_center, self.bandwidth, self.length,
                              self.tau, self.window)[0]

    @property
    def sigma0(self) -> float:
        """Vacuum effective-intensity deviation I0 sqrt(tau / T)."""
        return vacuum_moments(self.omega_center, self.bandwidth, self.length,
                              self.tau, self.window)[1]

    @property
    def element_omegas(self) -> np.ndarray:
        """Element frequencies spaced 2 pi / T around omega_center."""
        n = self.n_cells
        return self.omega_center + 2.0 * math.pi / self.window * (np.arange(n) - (n - 1) / 2.0)


def vacuum_moments(omega_center: float, bandwidth: float, length: float,
                   tau: float, window: float) -> tuple[float, float]:
    """Vacuum mean I0 = wbar dw / (8 pi c L) and deviation sigma0 = I0 sqrt(tau / T)."""
    i0 = omega_center * bandwidth / (8.0 * math.pi * length)
    return i0, i0 * math.sqrt(tau / window)


# ---------------------------------------------------------------------------
# filtered fields and effective intensity
# ---------------------------------------------------------------------------

def _sinc(x: np.ndarray) -> np.ndarray:
    """sin(x)/x with the x -> 0 limit."""
    return np.sinc(x / np.pi)

def _airy_disc(x: np.ndarray) -> np.ndarray:
    """2 J1(x)/x with the x -> 0 limit (disc overlap factor)."""
    from scipy.special import j1      # test dependency: only the test oracle gets here

    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = np.abs(x) > 1e-12
    out[nz] = 2.0 * j1(x[nz]) / x[nz]
    return out


def response_matrix(k, omega, scales, detector: DetectorSpec) -> np.ndarray:
    """Dense (n_cells x n_modes) map from amplitudes to filtered fields.

    The modes have wavevectors ``k`` (n_modes, 3) and frequencies ``omega``.
    The cylinder is centered at the origin with its axis along
    ``detector.axis``; the time factor carries the e^{i dw T / 2} phase of
    the one-sided window.
    """
    dw = np.asarray(omega, dtype=float)[None, :] - detector.element_omegas[:, None]
    time_factor = np.exp(0.5j * dw * detector.window) * _sinc(0.5 * dw * detector.window)
    axis = np.asarray(detector.axis, dtype=float)
    # element l's wavevector is omega_l along the axis; dk is (n_el, n_modes, 3)
    dk = np.asarray(k, dtype=float)[None] - detector.element_omegas[:, None, None] * axis
    dpar = dk @ axis
    dperp_sq = np.maximum(np.einsum("ijk,ijk->ij", dk, dk) - dpar**2, 0.0)
    vol_factor = (_sinc(0.5 * dpar * detector.length)
                  * _airy_disc(np.sqrt(dperp_sq) * detector.radius))
    return time_factor * vol_factor * np.asarray(scales, dtype=float)[None, :]


def intensity_batch(power: np.ndarray, parts) -> np.ndarray:
    """Effective intensities (B, n_det) of a per-mode power batch (B, n_modes).

    ``power`` holds |alpha|^2 of every mode. ``parts[d]`` = (index, w) gives
    detector d's own modes, those on its element grid, and their scale^2 in
    index order; the detector is reduced over them alone. Each row is
    reduced on its own (a contiguous row sum, whose order depends only on
    the detector's mode count), so a trial's intensity is bitwise the same
    in any batch; a BLAS matrix product is not, nor is ``einsum`` once rows
    exceed its 8192-element buffer.
    """
    out = np.empty((power.shape[0], len(parts)))
    for d, (idx, w) in enumerate(parts):
        out[:, d] = (power[:, idx] * w).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# detector response
# ---------------------------------------------------------------------------

def q_model(intensity, detector: DetectorSpec):
    """Bounded response Q = (1 - e^{-zeta (I - I0)}) Theta(I - I_m), Theta(0)=0."""
    i = np.asarray(intensity, dtype=float)
    scalar = i.ndim == 0
    i = np.atleast_1d(i)
    q = np.zeros_like(i)
    mask = i > detector.threshold
    # clamp one ulp below 1 so float rounding cannot breach the [0, 1) bound
    q[mask] = np.minimum(-np.expm1(-detector.zeta * (i[mask] - detector.I0)),
                         np.nextafter(1.0, 0.0))
    return float(q[0]) if scalar else q


# ---------------------------------------------------------------------------
# closed-form detection probabilities
# ---------------------------------------------------------------------------
#
# In standard units u = (I - mean) / sigma the response is
# Q = (1 - e^{-eps (u + d)}) Theta(u - z) with z = (I_m - mean) / sigma,
# d = (mean - I0) / sigma and eps = zeta sigma. Every expectation below is a
# gaussian orthant probability times an exponential tilt, evaluated in log
# space so that neither the tilt weight e^{eps^2/2} nor the tail overflows.

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_DEGENERATE_CORR = 1.0 - 1e-12


@functools.cache
def _laguerre_rule():
    """64-point Gauss-Laguerre rule (built on first use: it costs ~10 ms)."""
    return np.polynomial.laguerre.laggauss(64)


def _log1mexp(x: float) -> float:
    """log(1 - e^x) for x <= 0, without cancellation; -inf at x >= 0."""
    if x >= 0.0:
        return -math.inf
    return math.log(-math.expm1(x)) if x > -math.log(2.0) else math.log1p(-math.exp(x))


def _log_mills(u: float) -> float:
    """log R(u) with R = Phic / phi the Mills ratio."""
    if u >= 0.0:
        return math.log(math.sqrt(0.5 * math.pi) * erfcx(u / math.sqrt(2.0)))
    return log_ndtr(-u) + 0.5 * u * u + _LOG_SQRT_2PI


def _log_owens_tc(h: float, a: float) -> float:
    """log(Phic(h)/2 - T(h, a)) for h, a >= 0, T being Owen's T function.

    This is the probability of the wedge {X > h, Y > a X} of two independent
    standard normals. Directly as a difference it cancels once a h is large;
    there it is e^{-h^2 (1 + a^2)/2} / (4 pi) times the Laplace transform
    int_0^inf e^{-h^2 v / 2} dv / (sqrt(a^2 + v) (1 + a^2 + v)), taken by
    Gauss-Laguerre. For h > 2 and a h <= 2 the direct form would underflow;
    there it is the reflection Phic(h) Phic(a h) - Tc(a h, 1/a), or for
    a h < 1e-5 the first order T(h, a) = a e^{-h^2/2} / (2 pi).
    """
    if a * h > 2.0:
        nodes, weights = _laguerre_rule()
        p = 0.5 * h * h
        v = nodes / p
        s = float(np.dot(weights, 1.0 / (np.sqrt(a * a + v) * (1.0 + a * a + v))))
        return -p * (1.0 + a * a) + math.log(s / (4.0 * math.pi * p))
    if h <= 2.0:
        return math.log(0.5 * ndtr(-h) - owens_t(h, a))
    log_tail = log_ndtr(-h)
    if a * h < 1e-5:
        return log_tail - math.log(2.0) + math.log1p(
            -a / math.pi * math.exp(-0.5 * h * h - log_tail))
    log_box = log_tail + log_ndtr(-a * h)
    return log_box + _log1mexp(_log_owens_tc(a * h, 1.0 / a) - log_box)


def _log_orthant(h: float, k: float, corr: float) -> float:
    """log P(X > h, Y > k) for standard normals with correlation ``corr``.

    Owen's formula splits the orthant at its corner into two wedges; it is
    used where the corner is the orthant's point nearest the mean, so that
    both wedges are small together. Otherwise the orthant is complemented
    into a marginal tail minus an orthant whose corner is nearest.
    """
    if corr >= _DEGENERATE_CORR:
        return log_ndtr(-max(h, k))
    if corr <= -_DEGENERATE_CORR:
        # Y = -X: P(h < X < -k) = Phic(h) - Phic(-k), or by symmetry with
        # h and k swapped, taking the difference between the smaller tails
        if h + k >= 0.0:
            return -math.inf
        lo, hi = (h, k) if h > 0.0 else (k, h)
        top = log_ndtr(-lo)
        return top + _log1mexp(log_ndtr(hi) - top)
    if h == 0.0 and k == 0.0:
        return math.log(0.25 + math.asin(corr) / (2.0 * math.pi))
    if h <= 0.0 and k <= 0.0:
        # 1 - Phi(h) - Phi(k) + P(X < h, Y < k): two non-negative parts
        return math.log(ndtr(-h) - ndtr(k) + math.exp(_log_orthant(-h, -k, corr)))
    if k < corr * h:                       # nearest point on the edge X = h
        top = log_ndtr(-h)
        return top + _log1mexp(_log_orthant(h, -k, -corr) - top)
    if h < corr * k:                       # nearest point on the edge Y = k
        top = log_ndtr(-k)
        return top + _log1mexp(_log_orthant(-h, k, -corr) - top)
    s = math.sqrt((1.0 - corr) * (1.0 + corr))

    def wedge(x, y):                       # the wedge at the x side; empty at x = 0
        if x == 0.0:
            return -math.inf
        return _log_owens_tc(abs(x), abs(y - corr * x) / (abs(x) * s))

    wh, wk = wedge(h, k), wedge(k, h)
    if h > 0.0 and k > 0.0:
        return float(np.logaddexp(wh, wk))
    # a corner with one non-positive coordinate: that side's wedge is cut away
    if h <= 0.0:
        return wk + _log1mexp(wh - wk)
    return wh + _log1mexp(wk - wh)


def p_single(detector: DetectorSpec, mean: float) -> float:
    """p = int rho(I) Q(I) dI = Phic(z) - e^{eps^2/2 - eps d} Phic(z + eps).

    rho is the gaussian law N(mean, sigma0) of the detector's intensity;
    z = (I_m - mean)/sigma0, d = (mean - I0)/sigma0, eps = zeta sigma0. Written
    as Phic(z) (1 - e^L) with L = -zeta (I_m - I0) - [log R(z) - log R(z + eps)],
    R the Mills ratio, whose two terms have the same sign. For eps < 1 the
    bracket is the integral of 1/R(u) - u over [z, z + eps], taken by
    Gauss-Legendre, so that no eps and no threshold depth loses digits.
    """
    sigma = detector.sigma0
    z = (detector.threshold - mean) / sigma
    eps = detector.zeta * sigma
    if eps < 1.0:
        nodes, weights = legendre_rule(8)
        u = z + eps * nodes
        hazard = 1.0 / (math.sqrt(0.5 * math.pi) * erfcx(u / math.sqrt(2.0)))
        drop = eps * float(np.dot(weights, hazard - u))
    else:
        drop = _log_mills(z) - _log_mills(z + eps)
    log_kept = _log1mexp(-detector.zeta * (detector.threshold - detector.I0) - drop)
    return math.exp(log_ndtr(-z) + log_kept)


def p_joint(det1: DetectorSpec, det2: DetectorSpec, mean1: float, mean2: float,
            corr: float) -> float:
    """p12 = int rho12(I1, I2) Q1(I1) Q2(I2) dI1 dI2 in closed form.

    rho12 is the joint gaussian of the two intensities, with marginals
    N(mean_k, sigma0_k) and correlation ``corr`` in [-1, 1].
    Expanding Q1 Q2 gives four exponentially tilted gaussian orthants: for a
    tilt t in {0, -zeta1 e1, -zeta2 e2, -(zeta1, zeta2)} the term is
    e^{t.(mean - I0) + t'Sigma t/2} P(I > I_m) under N(mean + Sigma t, Sigma),
    entering with sign (-1)^(number of tilted arms). |corr| = 1 reduces each
    orthant to a one-dimensional tail. The sum is exact; as zeta sigma -> 0 it
    keeps an absolute accuracy of ~1e-16 rather than a relative one.
    """
    if not -1.0 <= corr <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {corr}")
    s1, s2 = det1.sigma0, det2.sigma0
    z1, z2 = (det1.threshold - mean1) / s1, (det2.threshold - mean2) / s2
    e1, e2 = det1.zeta * s1, det2.zeta * s2
    d1, d2 = (mean1 - det1.I0) / s1, (mean2 - det2.I0) / s2

    def term(t1, t2):
        log_weight = -t1 * d1 - t2 * d2 + 0.5 * (t1 * t1 + t2 * t2) + corr * t1 * t2
        return math.exp(log_weight + _log_orthant(z1 + t1 + corr * t2, z2 + t2 + corr * t1, corr))

    val = (term(0.0, 0.0) - term(e1, 0.0)) - (term(0.0, e2) - term(e1, e2))
    return min(max(val, 0.0), 1.0)
