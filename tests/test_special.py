"""Accuracy of the detection laws' special functions against scipy and mpmath."""

import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.special as sc

from zpfsim._special import erfcx, log_ndtr, ndtr, owens_t

RTOL = 1e-13
# below the smallest normal double a value has underflowed; there the
# functions only need to be right to 1e-300 absolute
UNDERFLOW = sys.float_info.min
UNDERFLOW_ATOL = 1e-300

# x in [-40, 40] plus signed zeros, +-1e-300, the ndtr branch point -1 and
# the erfc underflow edge near 26.5 (and its ndtr image near -37.5)
X_GRID = sorted({*np.round(np.linspace(-40.0, 40.0, 801), 10).tolist(),
                 *np.linspace(26.0, 27.0, 41).tolist(),
                 *np.linspace(-38.5, -37.0, 31).tolist(),
                 0.0, -0.0, 1e-300, -1e-300, -1.0 - 1e-15, -1.0 + 1e-15,
                 26.55, 26.6, -26.6, -26.7})


def _mp_ndtr(x):
    return mpmath.ncdf(mpmath.mpf(x))


def _mp_log_ndtr(x):
    x = mpmath.mpf(x)
    return mpmath.log1p(-mpmath.ncdf(-x)) if x > 0 else mpmath.log(mpmath.ncdf(x))


def _mp_erfcx(x):
    x = mpmath.mpf(x)
    return mpmath.exp(x * x) * mpmath.erfc(x)


def _mp_owens_t(h, a):
    h, a = mpmath.mpf(h), mpmath.mpf(a)
    f = lambda x: mpmath.exp(-h * h * (1 + x * x) / 2) / (1 + x * x)
    return mpmath.quad(f, [0, 1, a] if a > 1 else [0, a]) / (2 * mpmath.pi)


def _error(got: float, want: float) -> float:
    """Relative error, or the absolute error in units of 1e-300 x RTOL where ``want`` underflows."""
    if math.isinf(want) or math.isinf(got):
        return 0.0 if got == want else math.inf
    if abs(want) < UNDERFLOW:
        return abs(got - want) / UNDERFLOW_ATOL * RTOL
    return abs(got - want) / abs(want)


def _worst(errors):
    """(largest error, its point) over ``errors`` = [(error, point), ...]."""
    return max(errors, key=lambda e: e[0])


@pytest.mark.parametrize("fn, mp_fn, sc_fn", [
    (ndtr, _mp_ndtr, sc.ndtr),
    (log_ndtr, _mp_log_ndtr, sc.log_ndtr),
    (erfcx, _mp_erfcx, sc.erfcx),
], ids=["ndtr", "log_ndtr", "erfcx"])
def test_one_argument_functions(fn, mp_fn, sc_fn):
    vs_mp, vs_sc = [], []
    for x in X_GRID:
        with mpmath.workdps(40):
            want = float(mp_fn(x))
        got, ref = fn(x), float(sc_fn(x))
        vs_mp.append((_error(got, want), x))
        scipy_off = _error(ref, want)
        if scipy_off <= RTOL:
            vs_sc.append((_error(got, ref), x))
        else:
            # scipy rounds x / sqrt(2) before erfc, which costs it up to ~2e-13
            # beyond |x| ~ 36; there the value must be the closer to mpmath
            assert _error(got, want) < scipy_off, x
    worst_mp, worst_sc = _worst(vs_mp), _worst(vs_sc)
    assert worst_mp[0] <= RTOL, f"worst against mpmath: {worst_mp}"
    assert worst_sc[0] <= RTOL, f"worst against scipy: {worst_sc}"


def test_erfcx_takes_arrays():
    x = np.array([[-3.0, 0.0], [2.0, 30.0]])
    np.testing.assert_allclose(erfcx(x), sc.erfcx(x), rtol=RTOL, atol=0)
    assert erfcx(x).shape == x.shape


def _owens_t_grid():
    # h in [0, 2] x a in [0, 2/h]: a h < 1e-5, a = 1 and just either side, h = 0
    points = []
    for h in [0.0, 1e-9, 1e-3, *np.linspace(0.1, 2.0, 20).tolist()]:
        a_max = 2.0 / h if h > 0 else 1e6
        a_values = [0.0, 1e-7 / max(h, 1e-9), 0.999, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.001,
                    a_max, *np.linspace(0.0, min(a_max, 40.0), 9).tolist()]
        points += [(h, a) for a in a_values if a * h <= 2.0]
    return points


def test_owens_t():
    vs_mp, vs_sc = [], []
    for h, a in _owens_t_grid():
        with mpmath.workdps(30):
            want = float(_mp_owens_t(h, a))
        got = owens_t(h, a)
        vs_mp.append((_error(got, want), (h, a)))
        vs_sc.append((_error(got, float(sc.owens_t(h, a))), (h, a)))
    worst_mp, worst_sc = _worst(vs_mp), _worst(vs_sc)
    assert worst_mp[0] <= RTOL, f"worst against mpmath: {worst_mp}"
    assert worst_sc[0] <= RTOL, f"worst against scipy: {worst_sc}"


def test_owens_t_closed_forms():
    # T(0, a) = atan(a) / (2 pi) and T(h, 1) = Phi(h) Phic(h) / 2
    for a in (0.0, 0.3, 1.0, 7.0):
        assert owens_t(0.0, a) == pytest.approx(math.atan(a) / (2 * math.pi), rel=RTOL, abs=0)
    for h in (0.0, 0.5, 2.0):
        assert owens_t(h, 1.0) == pytest.approx(0.5 * ndtr(h) * ndtr(-h), rel=RTOL)


@pytest.mark.parametrize("x", [-math.inf, -1e200, -1.2e154, 1e200, math.inf])
def test_extreme_arguments_match_scipy(x):
    # beyond |x| ~ 1.3e154 the square x^2 overflows; the limits must still hold
    for fn, ref in ((ndtr, sc.ndtr), (log_ndtr, sc.log_ndtr), (erfcx, sc.erfcx)):
        assert fn(x) == pytest.approx(float(ref(x)), rel=RTOL, abs=0), fn.__name__
