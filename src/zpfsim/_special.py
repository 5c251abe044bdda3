"""Special functions of the gaussian detection laws, on ``math`` and numpy.

``ndtr`` and ``log_ndtr`` (the standard normal CDF and its log), ``erfcx``
(the scaled complementary error function e^{x^2} erfc(x)) and ``owens_t``
(Owen's T function on the region the orthant wedges reach), each accurate
to a few units in the last place relative. The gaussian factors e^{+-x^2}
are evaluated with x^2 split exactly into its rounded value and remainder,
so that the rounding of x^2 (up to 1e-13 relative at x ~ 30) never enters
a tail."""

from __future__ import annotations

import functools
import math

import numpy as np

_SQRT1_2 = math.sqrt(0.5)
_SQRT_PI = math.sqrt(math.pi)
_SPLITTER = 134217729.0          # 2^27 + 1, Veltkamp's splitting constant
# exp(x^2) overflows below this x
_ERFCX_NEG_LIMIT = -math.sqrt(math.log(np.finfo(float).max))
# above this x, erfc(x) nears the subnormal range and erfcx uses its
# asymptotic series, which is then exact to double precision in 12 terms
_ERFCX_ASYMPTOTIC = 26.0
_ASYMPTOTIC_TERMS = 12


@functools.cache
def legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [0, 1].

    Built on first use, so that only a process that integrates pays the
    ~3 ms import of ``numpy.polynomial``.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _square(x: float) -> tuple[float, float]:
    """(hi, lo) with hi = fl(x*x) and hi + lo = x*x exactly (Dekker's product)."""
    hi = x * x
    c = _SPLITTER * x
    xh = c - (c - x)
    xl = x - xh
    return hi, ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl


def _exp_square(x: float, sign: float) -> float:
    """exp(sign * x^2) without the rounding error of x^2 in the exponent."""
    hi, lo = _square(x)
    scale = math.exp(sign * hi)
    return scale * (1.0 + sign * lo) if scale else 0.0    # lo is nan once x^2 overflows


def _erfcx(x: float) -> float:
    if x < 0.0:
        if x < _ERFCX_NEG_LIMIT:
            return math.inf
        return 2.0 * _exp_square(x, 1.0) - _erfcx(-x)
    if x < _ERFCX_ASYMPTOTIC:
        return _exp_square(x, 1.0) * math.erfc(x)
    # 1/(x sqrt(pi)) sum_n (-1)^n (2n - 1)!! / (2 x^2)^n, summed from the smallest term
    r = 0.5 / (x * x)
    s = 1.0
    for n in range(_ASYMPTOTIC_TERMS, 0, -1):
        s = 1.0 - (2 * n - 1) * r * s
    return s / (x * _SQRT_PI)


def erfcx(x):
    """Scaled complementary error function e^{x^2} erfc(x), of a float or an array."""
    if np.ndim(x) == 0:
        return _erfcx(float(x))
    return np.array([_erfcx(v) for v in np.asarray(x, dtype=float).ravel()]).reshape(np.shape(x))


def ndtr(x: float) -> float:
    """Standard normal CDF Phi(x)."""
    if x >= -1.0:
        return 0.5 * math.erfc(-x * _SQRT1_2)
    return 0.5 * _erfcx(-x * _SQRT1_2) * _exp_square(x, -0.5)


def log_ndtr(x: float) -> float:
    """log Phi(x), finite down to x ~ -1e154 and without underflow in the left tail."""
    if x > 0.0:
        return math.log1p(-ndtr(-x))
    if x < -1e154:                # -x^2/2 < -5e307 swamps the log of the scaled tail
        return -0.5 * x * x
    return math.log(0.5 * _erfcx(-x * _SQRT1_2)) - 0.5 * x * x


def owens_t(h: float, a: float) -> float:
    """Owen's T(h, a) = (1/2 pi) int_0^a e^{-h^2 (1 + x^2)/2} / (1 + x^2) dx for a, h >= 0.

    Accurate where the orthant wedges use it, h <= 2 and a h <= 2. For a <= 1
    the integrand is smooth on [0, a] and a fixed Gauss-Legendre rule takes
    it to double precision; for a > 1 the reflection
    T(h, a) = (Phi(h) Phic(a h) + Phi(a h) Phic(h)) / 2 - T(a h, 1/a)
    brings it back to a < 1.
    """
    if a > 1.0:
        ah = a * h
        return (0.5 * (ndtr(h) * ndtr(-ah) + ndtr(ah) * ndtr(-h))
                - owens_t(ah, 1.0 / a))
    nodes, weights = legendre_rule(20)
    x = a * nodes
    q = 1.0 + x * x
    return a * float(np.dot(weights, np.exp(-0.5 * h * h * q) / q)) / (2.0 * math.pi)
