"""Regime classification, the detection trade-off, the minimum-rate bound
and the CHSH harness.

The CHSH harness reads four analyzer settings on shared hidden variables.
Every response lies in [0, 1), so the model obeys Clauser-Horne's CH <= 0;
S, normalized by each setting's coincidences, is post-selected and may pass
2 (Pearle 1970; Garg & Mermin 1987).

The engine reads the four settings from the same sampled tiles as the
plain run (``engine.run_variants``); this module checks them and turns the
sums into S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import DetectorSpec
from .engine import run_variants
from .scenarios import Scenario

__all__ = [
    "RegimeReport",
    "TradeoffReport",
    "ChshResult",
    "classify_regime",
    "tradeoff_report",
    "min_rate_bound",
    "chsh_variants",
    "chsh_summary",
    "chsh_scan",
]

# zeta * Ibar_s thresholds delimiting the linear and saturated regimes
LINEAR_MAX = 0.1
SATURATED_MIN = 10.0


@dataclass(frozen=True)
class RegimeReport:
    """Operating regime of a detector plus the constraint margins behind it."""

    regime: str                      # dark | linear | intermediate | saturated
    checks: tuple                    # (name, satisfied, margin in sigma0 units)


@dataclass(frozen=True)
class TradeoffReport:
    """Feasibility of the dark-count vs linearity trade-off.

    ``interval`` is the feasible threshold range [I0 + k sigma0,
    I0 + Ibar_s - k sigma0], or None when the signal is too weak.
    """

    feasible: bool
    interval: tuple[float, float] | None
    checks: tuple


def _margins(detector: DetectorSpec, signal_mean: float):
    if signal_mean < 0:
        raise ValueError("signal mean intensity must be non-negative")
    s0 = detector.sigma0
    dark = (detector.threshold - detector.I0) / s0
    linear = (detector.I0 + signal_mean - detector.threshold) / s0
    return dark, linear


def classify_regime(signal_mean: float, detector: DetectorSpec) -> RegimeReport:
    """Dark / linear / saturated classification of Eq.-level operation."""
    dark_m, lin_m = _margins(detector, signal_mean)
    x = detector.zeta * signal_mean
    if signal_mean == 0:
        regime = "dark"
    elif x <= LINEAR_MAX:
        regime = "linear"
    elif x >= SATURATED_MIN:
        regime = "saturated"
    else:
        regime = "intermediate"
    checks = (
        ("zeta_signal", True, x),
        ("dark_margin", dark_m > 0, dark_m),
        ("linearity_margin", lin_m > 0, lin_m),
    )
    return RegimeReport(regime, checks)


def tradeoff_report(detector: DetectorSpec, signal_mean: float, k: float = 3.0) -> TradeoffReport:
    """Evaluate both threshold constraints at strength k (default 3 sigma0).

    The dark-count constraint I_m - I0 >= k sigma0 and the linearity
    constraint I0 + Ibar_s - I_m >= k sigma0 are jointly satisfiable iff
    Ibar_s >= 2 k sigma0.
    """
    if k <= 0:
        raise ValueError("constraint strength k must be positive")
    dark_m, lin_m = _margins(detector, signal_mean)
    s0 = detector.sigma0
    lo = detector.I0 + k * s0
    hi = detector.I0 + signal_mean - k * s0
    feasible = signal_mean >= 2.0 * k * s0
    checks = (
        ("dark_margin", dark_m >= k, dark_m),
        ("linearity_margin", lin_m >= k, lin_m),
        ("signal_strength", feasible, signal_mean / s0),
    )
    return TradeoffReport(feasible, (lo, hi) if feasible else None, checks)


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

@dataclass(frozen=True)
class ChshResult:
    """Four-setting CHSH estimate with per-setting correlations."""

    settings: tuple                 # four (angle1, angle2) pairs
    correlations: tuple             # four E estimates
    correlation_stderr: tuple
    s_value: float
    s_stderr: float
    coincidence_probs: tuple        # per setting: (p++, p+-, p-+, p--)

    def __post_init__(self):
        for e in self.correlations:
            if abs(e) > 1 + 1e-9:
                raise ValueError(f"correlation estimate {e} outside [-1, 1]")


def chsh_variants(scenario: Scenario, settings) -> tuple:
    """The four analyzer settings of a CHSH point as float pairs, checked.

    ``run_variants`` runs them as variants 1-4 after the plain run; the
    scenario must have four detectors (1+, 1-, 2+, 2-) and four pairs.
    """
    settings = tuple((float(a), float(b)) for a, b in settings)
    if len(settings) != 4:
        raise ValueError(f"exactly four analyzer settings required, got {len(settings)}")
    if len(scenario.coincidences) != 4 or len(scenario.detector_names) != 4:
        raise ValueError("CHSH analyzer settings need a four-detector, four-pair scenario")
    return settings


def chsh_summary(settings: tuple, sums) -> ChshResult:
    """CHSH estimate from variants 1-4 of ``sums``, in ``chsh_variants``' order.

    Each variant holds the coincidence pairs (++, +-, -+, --).
    """
    n = sums.n
    block = slice(4, 20)
    p = sums.u_sum[block] / n                            # (16,) setting-major
    cov = sums.uu_sum[block, block] / n - np.outer(p, p)
    if n > 1:
        cov *= n / (n - 1)
    cov /= n                                             # covariance of the mean

    correlations, stderrs, probs = [], [], []
    grad_s = np.zeros(16)
    sign = (1.0, 1.0, 1.0, -1.0)
    for v in range(4):
        pv = p[4 * v: 4 * v + 4]
        probs.append(tuple(pv))
        a = pv[0] + pv[3]
        b = pv[1] + pv[2]
        tot = a + b
        g = np.zeros(16)
        if tot > 1e-300:
            e = (a - b) / tot
            da = 2.0 * b / tot**2
            db = -2.0 * a / tot**2
            g[4 * v + 0] = g[4 * v + 3] = da
            g[4 * v + 1] = g[4 * v + 2] = db
        else:
            e = 0.0
        correlations.append(e)
        stderrs.append(math.sqrt(max(g @ cov @ g, 0.0)))
        grad_s += sign[v] * g
    s_value = (correlations[0] + correlations[1] + correlations[2] - correlations[3])
    s_stderr = math.sqrt(max(grad_s @ cov @ grad_s, 0.0))
    return ChshResult(
        settings=settings,
        correlations=tuple(correlations),
        correlation_stderr=tuple(stderrs),
        s_value=s_value,
        s_stderr=s_stderr,
        coincidence_probs=tuple(probs),
    )


def chsh_scan(scenario: Scenario, settings, trials: int, seed: int,
              workers: int | None = None) -> ChshResult:
    """Estimate S over four analyzer settings with shared hidden variables.

    ``scenario`` must be a two-station scenario with coincidence pairs
    ordered (++, +-, -+, --). Every setting reuses the same per-trial
    vacuum draws, exactly as a deterministic hidden-variables model
    prescribes; the run is that of a ``runner`` CHSH point.
    """
    settings = chsh_variants(scenario, settings)
    return chsh_summary(settings, run_variants(scenario, settings, trials, seed, workers))

