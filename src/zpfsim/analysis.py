"""Regime classification, the detection trade-off, the minimum-rate bound
and the CHSH harness.

``classify_regime`` gives a detector's regime and its two threshold
margins; ``tradeoff_report`` the feasible threshold interval, or None. The
runner reads both into each detector's record entry.

The CHSH harness reads four analyzer settings on shared hidden variables.
Every response lies in [0, 1), so the model obeys Clauser-Horne's CH <= 0;
S, normalized by each setting's coincidences, is post-selected and may pass
2 (Pearle 1970; Garg & Mermin 1987).

The engine reads the four settings from the same sampled tiles as the
plain run (``engine.run_variants``); ``chsh_summary`` gives the ``chsh`` block.
"""

from __future__ import annotations

import math

import numpy as np

from .detection import DetectorSpec
from .engine import run_variants
from .scenarios import Scenario

__all__ = [
    "classify_regime",
    "tradeoff_report",
    "min_rate_bound",
    "chsh_summary",
    "chsh_scan",
]

# zeta * Ibar_s thresholds delimiting the linear and saturated regimes
LINEAR_MAX = 0.1
SATURATED_MIN = 10.0


def classify_regime(detector: DetectorSpec, signal_mean: float) -> tuple[str, float, float]:
    """(regime, dark margin, linearity margin) of a detector under a signal mean Ibar_s.

    The regime is dark, linear, intermediate or saturated by zeta Ibar_s. The
    margins are (I_m - I0) / sigma0 and (I0 + Ibar_s - I_m) / sigma0.
    """
    if signal_mean < 0:
        raise ValueError("signal mean intensity must be non-negative")
    x = detector.zeta * signal_mean
    if signal_mean == 0:
        regime = "dark"
    elif x <= LINEAR_MAX:
        regime = "linear"
    elif x >= SATURATED_MIN:
        regime = "saturated"
    else:
        regime = "intermediate"
    s0 = detector.sigma0
    return (regime, (detector.threshold - detector.I0) / s0,
            (detector.I0 + signal_mean - detector.threshold) / s0)


def tradeoff_report(detector: DetectorSpec, signal_mean: float,
                    k: float = 3.0) -> tuple[float, float] | None:
    """Feasible threshold interval (I0 + k sigma0, I0 + Ibar_s - k sigma0), or None.

    The dark-count constraint I_m - I0 >= k sigma0 and the linearity
    constraint I0 + Ibar_s - I_m >= k sigma0 are jointly satisfiable iff
    Ibar_s >= 2 k sigma0; below that there is no interval.
    """
    if k <= 0:
        raise ValueError("constraint strength k must be positive")
    if signal_mean < 0:
        raise ValueError("signal mean intensity must be non-negative")
    s0 = detector.sigma0
    interval = detector.I0 + k * s0, detector.I0 + signal_mean - k * s0
    return interval if signal_mean >= 2.0 * k * s0 else None


def min_rate_bound(eta: float, focal: float, crystal_radius: float, length: float,
                   distance: float, wavelength: float, tau: float, window: float) -> float:
    """Lower bound on usable single rates (counts/s, SI inputs):

        Rate >> eta f^2 R_C^2 / (2 L d^2 lambda sqrt(tau T)).

    The inputs must be finite and positive, with eta <= 1 and tau <= T as
    for ``DetectorSpec``.
    """
    params = dict(eta=eta, focal=focal, crystal_radius=crystal_radius, length=length,
                  distance=distance, wavelength=wavelength, tau=tau, window=window)
    for name, value in params.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite positive number, got {value}")
    if eta > 1:
        raise ValueError(f"quantum efficiency must lie in (0, 1], got {eta}")
    if tau > window:
        raise ValueError("coherence time tau must not exceed the window T")
    return (eta * focal**2 * crystal_radius**2
            / (2.0 * length * distance**2 * wavelength * math.sqrt(tau * window)))


# ---------------------------------------------------------------------------
# CHSH harness
# ---------------------------------------------------------------------------

def _four_settings(settings) -> list:
    """``settings`` as [angle1, angle2] float pairs; ValueError unless there are four."""
    settings = [[float(a), float(b)] for a, b in settings]
    if len(settings) != 4:
        raise ValueError(f"exactly four analyzer settings required, got {len(settings)}")
    return settings


def chsh_summary(settings, sums) -> dict:
    """The record's ``chsh`` block (settings, E and S with standard errors) from variants 1-4.

    ``sums`` ran ``settings`` in order; each variant holds a CHSH scenario's
    coincidence pairs (++, +-, -+, --).
    """
    settings = _four_settings(settings)
    n = sums.n
    block = slice(4, 20)
    p = sums.u_sum[block] / n                            # (16,) setting-major
    cov = sums.uu_sum[block, block] / n - np.outer(p, p)
    if n > 1:
        cov *= n / (n - 1)
    cov /= n                                             # covariance of the mean

    correlations, stderrs = [], []
    grad_s = np.zeros(16)
    sign = (1.0, 1.0, 1.0, -1.0)
    for v in range(4):
        pv = p[4 * v: 4 * v + 4]
        a = pv[0] + pv[3]
        b = pv[1] + pv[2]
        tot = a + b
        g = np.zeros(16)
        if tot > 1e-300:
            e = (a - b) / tot
            if abs(e) > 1 + 1e-9:
                raise ValueError(f"correlation estimate {e} outside [-1, 1]")
            da = 2.0 * b / tot**2
            db = -2.0 * a / tot**2
            g[4 * v + 0] = g[4 * v + 3] = da
            g[4 * v + 1] = g[4 * v + 2] = db
        else:
            e = 0.0
        correlations.append(e)
        stderrs.append(math.sqrt(max(g @ cov @ g, 0.0)))
        grad_s += sign[v] * g
    return {
        "settings": settings,
        "correlations": correlations,
        "correlation_stderr": stderrs,
        "S": correlations[0] + correlations[1] + correlations[2] - correlations[3],
        "S_stderr": math.sqrt(max(grad_s @ cov @ grad_s, 0.0)),
    }


def chsh_scan(scenario: Scenario, settings, trials: int, seed: int,
              workers: int | None = None) -> dict:
    """The ``chsh`` block (``chsh_summary``) of four settings on shared hidden variables.

    ``scenario`` must have two analyzer stations (``chsh_scenario``), whose
    coincidence pairs are ordered (++, +-, -+, --). Every setting reuses the
    same per-trial vacuum draws, exactly as a deterministic hidden-variables
    model prescribes; the run is that of a ``runner`` CHSH point. The
    settings are checked before anything is sampled.
    """
    settings = _four_settings(settings)
    return chsh_summary(settings, run_variants(scenario, settings, trials, seed, workers))

