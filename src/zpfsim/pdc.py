"""Parametric-down-conversion source: the nonlinear-crystal amplitude map.

The crystal couples every phase-matched pair of modes (signal s, idler i):

    alpha_s' = (1 + g^2/2) alpha_s + g conj(alpha_i)
    alpha_i' = (1 + g^2/2) alpha_i + g conj(alpha_s)

Modes outside the matching pass through unchanged. Under the vacuum
ensemble this map has the exact moments

    E[alpha_s' alpha_i']   = g (1 + g^2/2)
    E[|alpha_s'|^2] - 1/2  = g^2 + g^4/8

The pairs are one ``(signal, idler)`` index pair into the scenario's mode
arrays; ``check_pairs`` checks them against the pump when a scenario is built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PumpSpec",
    "check_pairs",
    "pdc_transform",
    "pair_correlation",
    "excess_photon_fraction",
]

# Above this coupling the order-g^2 expansion of the map is dubious.
PERTURBATIVE_G_LIMIT = 0.3
# Relative tolerance of the phase-matching conditions.
PAIR_RTOL = 1e-9


@dataclass(frozen=True)
class PumpSpec:
    """Pump beam: wavevector k0, angular frequency omega0, coupling g."""

    k0: tuple[float, float, float]
    omega0: float
    g: float

    def __post_init__(self):
        if self.g < 0:
            raise ValueError(f"coupling g must be non-negative, got {self.g}")
        if self.omega0 <= 0:
            raise ValueError("pump frequency must be positive")
        if self.g >= PERTURBATIVE_G_LIMIT:
            warnings.warn(
                f"coupling g={self.g:g} is outside the perturbative regime "
                f"(g < {PERTURBATIVE_G_LIMIT})",
                stacklevel=3,   # past the dataclass __init__, to the line that built the pump
            )


def check_pairs(k: np.ndarray, omega: np.ndarray, index, pump: PumpSpec) -> None:
    """Raise ValueError naming the first pair of ``index`` that fails a check.

    ``index`` is a ``(signal, idler)`` pair of mode indices, as ``pdc_transform``
    takes it, into the mode arrays ``k`` (n, 3) and ``omega`` (n,). No mode may
    appear in two pairs, and each pair must satisfy k_s + k_i = k0 and
    omega_s + omega_i = omega0 within ``PAIR_RTOL``. An index outside the
    modes raises numpy's IndexError.
    """
    pos = np.arange(len(omega))
    s, i = (np.atleast_1d(pos[idx]) for idx in index)
    uses = np.bincount(np.concatenate((s, i)), minlength=len(omega))
    repeat = (uses[s] > 1) | (uses[i] > 1)
    k0 = np.asarray(pump.k0, dtype=float)
    k_bad = (np.linalg.norm(k[s] + k[i] - k0, axis=1)
             > PAIR_RTOL * max(np.linalg.norm(k0), 1.0))
    w_bad = np.abs(omega[s] + omega[i] - pump.omega0) > PAIR_RTOL * pump.omega0
    failed = np.flatnonzero(repeat | k_bad | w_bad)
    if failed.size:
        p = failed[0]
        reason = ("uses a mode that appears in more than one pair" if repeat[p] else
                  "violates wavevector matching" if k_bad[p] else
                  "violates frequency matching")
        raise ValueError(f"pair ({s[p]}, {i[p]}) {reason}")


def pdc_transform(amps: np.ndarray, index, g: float) -> np.ndarray:
    """Apply the crystal map to an amplitude array of shape (..., n_modes).

    ``index`` is a pair ``(signal, idler)`` of equal-length mode indices
    (ints, slices or integer arrays); their k-th entries form one pair.
    """
    amps = np.asarray(amps, dtype=complex)
    if g == 0:
        return amps.copy()
    s_idx, i_idx = index
    a = 1.0 + 0.5 * g * g
    # Both mapped halves are computed straight from the input before the
    # output is allocated (a full copy made first faulted in fresh pages for
    # the halves on every row tile of the engine). Only the modes that neither
    # index names are copied in: every builder's crystal pairs every mode, so
    # on the run path nothing is copied.
    halves = []
    for own, partner in ((s_idx, i_idx), (i_idx, s_idx)):
        t = np.conj(amps[..., partner])
        t *= g
        t += a * amps[..., own]
        halves.append(t)
    out = np.empty_like(amps)
    out[..., s_idx], out[..., i_idx] = halves
    keep = np.ones(amps.shape[-1], dtype=bool)
    keep[s_idx] = keep[i_idx] = False
    if keep.any():
        out[..., keep] = amps[..., keep]
    return out


def pair_correlation(g: float) -> float:
    """Ensemble moment E[alpha_s' alpha_i'] of one matched pair."""
    return g * (1.0 + 0.5 * g * g)


def excess_photon_fraction(g: float) -> float:
    """Above-vacuum occupation E[|alpha'|^2] - 1/2 of one output mode."""
    return g * g + g**4 / 8.0
