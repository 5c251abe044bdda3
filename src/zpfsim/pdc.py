"""Parametric-down-conversion source: the nonlinear-crystal amplitude map.

The crystal couples each signal mode s with the one idler mode i that is
phase-matched to it:

    alpha_s' = (1 + g^2/2) alpha_s + g conj(alpha_i)
    alpha_i' = (1 + g^2/2) alpha_i + g conj(alpha_s)

Every scenario lays its n modes out mirrored, so that mode m pairs with mode
n-1-m: the first half are the signals and the second half, read backwards,
their idlers. Under the vacuum ensemble this map has the exact moments

    E[alpha_s' alpha_i']   = g (1 + g^2/2)
    E[|alpha_s'|^2] - 1/2  = g^2 + g^4/8

Pair law. With x = alpha_s, y = conj(alpha_i) and a = 1 + g^2/2 the map,
x' = a x + g y and y' = a y + g x, is diagonal in p, q = (x +- y)/sqrt(2):
p' = (a + g) p, q' = (a - g) q. Turned by p's phase, which keeps moduli,

    |alpha_s'|^2, |alpha_i'|^2 = |(a + g) sqrt(P) +- (a - g) q|^2 / 2,  P = |p|^2.

Under the vacuum p and q are independent vacuum amplitudes (the basis change
is unitary), so P is exponential with mean 1/2 and the turned q a vacuum
amplitude independent of P: ``pair_power`` needs three random numbers, not four.
It reads them as the field draws them, 2P and 2q, in place, and returns the
powers pair by pair, not in mode order.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pdc_transform",
    "pair_power",
    "excess_photon_fraction",
]

# Above this coupling the order-g^2 expansion of the map is dubious.
PERTURBATIVE_G_LIMIT = 0.3


def pdc_transform(amps: np.ndarray, g: float) -> np.ndarray:
    """Apply the crystal map to an amplitude array of shape (..., n_modes), n_modes even."""
    amps = np.asarray(amps, dtype=complex)
    h = amps.shape[-1] // 2
    s_idx, i_idx = slice(None, h), slice(None, h - 1, -1)     # signals; idlers read backwards
    a = 1.0 + 0.5 * g * g
    # Both mapped halves are computed straight from the input before the
    # output is allocated (a full copy made first faulted in fresh pages for
    # the halves on every row tile of the engine).
    halves = []
    for own, partner in ((s_idx, i_idx), (i_idx, s_idx)):
        t = np.conj(amps[..., partner])
        t *= g
        t += a * amps[..., own]
        halves.append(t)
    out = np.empty_like(amps)
    out[..., s_idx], out[..., i_idx] = halves
    return out


def pair_power(pump: np.ndarray, q: np.ndarray, g: float) -> tuple[np.ndarray, np.ndarray]:
    """Signal and idler |alpha'|^2 (..., n_pairs) of each pair, from 2P and the turned 2q.

    ``pump`` holds each pair's 2P, a standard exponential
    (``field.sample_vacuum_power``), and the complex ``q`` its 2q, whose Re
    and Im are standard normals (``field.sample_vacuum_normals``). Works in
    place on both and returns views of them, pair-ordered: pair j's signal
    power (mode j) is ``pump[..., j]`` and its idler power (mode
    2 n_pairs - 1 - j) is ``q.real[..., j]``.
    """
    a = 1.0 + 0.5 * g * g
    # P ends as the signal's power, Re q as the idler's, Im q as Im^2
    pump *= 0.5
    r = np.sqrt(pump, out=pump)
    r *= (a + g) * 0.5**0.5
    q *= (a - g) * 0.5**0.5 * 0.5      # 2q to q: multiplying by 1/2 is exact
    re, im = q.real, q.imag
    np.square(im, out=im)
    np.subtract(r, re, out=re)
    r *= 2.0
    r -= re
    for x in (r, re):
        x *= x
        x += im
    return r, re


def excess_photon_fraction(g: float) -> float:
    """Above-vacuum occupation E[|alpha'|^2] - 1/2 of one output mode."""
    return g * g + g**4 / 8.0
