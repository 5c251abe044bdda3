"""Parametric-down-conversion source: the nonlinear-crystal amplitude map.

The crystal couples every phase-matched pair of modes (signal s, idler i):

    alpha_s' = (1 + g^2/2) alpha_s + g conj(alpha_i)
    alpha_i' = (1 + g^2/2) alpha_i + g conj(alpha_s)

Modes outside the matching pass through unchanged. Under the vacuum
ensemble this map has the exact moments

    E[alpha_s' alpha_i']   = g (1 + g^2/2)
    E[|alpha_s'|^2] - 1/2  = g^2 + g^4/8
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .field import Mode

__all__ = [
    "PumpSpec",
    "PhaseMatchedPairs",
    "pdc_transform",
    "pair_correlation",
    "excess_photon_fraction",
]

# Above this coupling the order-g^2 expansion of the map is dubious.
PERTURBATIVE_G_LIMIT = 0.3


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
                stacklevel=2,
            )


@dataclass(frozen=True)
class PhaseMatchedPairs:
    """Partial matching of (signal, idler) mode indices.

    Each pair must satisfy k_s + k_i = k0 and omega_s + omega_i = omega0
    within ``rtol``, and no mode may appear twice.
    """

    pairs: tuple[tuple[int, int], ...]
    rtol: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((int(a), int(b)) for a, b in self.pairs))
        used = set()
        for s, i in self.pairs:
            for idx in (s, i):
                if idx in used:
                    raise ValueError(f"mode index {idx} appears in more than one pair")
                used.add(idx)

    @classmethod
    def from_index(cls, index, n_modes: int) -> "PhaseMatchedPairs":
        """The pairs a ``(signal, idler)`` index pair selects among ``n_modes`` modes."""
        pos = np.arange(n_modes)
        s_pos, i_pos = (np.atleast_1d(pos[idx]).tolist() for idx in index)
        return cls(tuple(zip(s_pos, i_pos, strict=True)))

    def validate(self, modes: tuple[Mode, ...], pump: PumpSpec) -> None:
        """Raise ValueError naming the first pair that fails a check."""
        n = len(modes)
        pairs = np.array(self.pairs, dtype=np.int64).reshape(-1, 2)
        unknown = ((pairs < 0) | (pairs >= n)).any(axis=1)
        s, i = pairs[~unknown].T
        kvecs = np.array([m.k for m in modes], dtype=float).reshape(-1, 3)
        omegas = np.array([m.omega for m in modes], dtype=float)
        k0 = np.asarray(pump.k0, dtype=float)
        k_bad = np.zeros_like(unknown)
        w_bad = np.zeros_like(unknown)
        k_bad[~unknown] = (np.linalg.norm(kvecs[s] + kvecs[i] - k0, axis=1)
                           > self.rtol * max(np.linalg.norm(k0), 1.0))
        w_bad[~unknown] = np.abs(omegas[s] + omegas[i] - pump.omega0) > self.rtol * pump.omega0
        failed = np.flatnonzero(unknown | k_bad | w_bad)
        if failed.size:
            p = failed[0]
            reason = ("references an unknown mode" if unknown[p] else
                      "violates wavevector matching" if k_bad[p] else
                      "violates frequency matching")
            raise ValueError(f"pair {self.pairs[p]} {reason}")


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
