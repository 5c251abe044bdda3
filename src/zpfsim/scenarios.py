"""Declarative experiment scenarios.

A ``Scenario`` bundles the modes (read-only arrays ``k``, ``omega`` with
|k| = omega, and ``pol``; no two modes share both k and pol), the ordered
amplitude-map operations (the crystal) and, per detector, the index of its
own modes with their read-only weights. Everything is plain data so
scenarios can be shipped to worker processes.

PDC and CHSH share one crystal builder (``_crystal_scenario``). A CHSH
analyzer rotates each station's (H, V) pairs, the own modes of its '+' and
'-' detectors, per op variant (``analysis.chsh_variants``).

Every builder puts each detector's modes on that detector's own element
grid, where the filtered-field response is diagonal: detector d sees
Ibar_d = sum_m scale_m^2 |alpha_m|^2 over its own modes m only. Detector d's
entry ``parts[d]`` = (index, scale^2) holds those modes as a slice and
their scale^2 in index order.
The mode scales are calibrated so that each detector's vacuum-ensemble mean of
the effective intensity equals its analytic value I0; this amounts to
fixing the quantization box length per beam.

Each amplitude-map op holds its mode pairs as one index pair (basic slices
for the builders' contiguous and mirrored layouts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .detection import DetectorSpec, vacuum_moments
from .pdc import PumpSpec, check_pairs, excess_photon_fraction, pdc_transform
from .optics import rotator_transform

__all__ = [
    "Scenario",
    "apply_ops",
    "make_matched_detector",
    "vacuum_scenario",
    "pdc_scenario",
    "chsh_scenario",
]


@dataclass(frozen=True)
class Scenario:
    """Modes, amplitude-map ops and each detector's own modes with their weights."""

    k: np.ndarray                          # (n_modes, 3) wavevectors
    omega: np.ndarray                      # (n_modes,) frequencies
    pol: np.ndarray                        # (n_modes,) int8 polarization, 0 = H, 1 = V
    ops: tuple[tuple, ...]
    detector_names: tuple[str, ...]
    detector_specs: tuple[DetectorSpec, ...]
    parts: tuple[tuple, ...]               # per detector: (own-mode index, scale^2)
    coincidences: tuple[tuple[int, int], ...] = ()
    signal_means: tuple[float, ...] = ()   # analytic Ibar_s per detector

    def __post_init__(self):
        for arr in (self.k, self.omega, self.pol, *(w for _, w in self.parts)):
            arr.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return len(self.omega)


def apply_ops(amps: np.ndarray, ops) -> np.ndarray:
    """Run the declarative op list over an amplitude batch (..., n_modes)."""
    out = amps
    for op in ops:
        kind = op[0]
        if kind == "pdc":
            out = pdc_transform(out, op[1], op[2])
        elif kind == "rotator":
            out = rotator_transform(out, op[1], op[2])
        else:
            raise ValueError(f"unknown op {kind!r}")
    return out


def make_matched_detector(
    *,
    omega_center: float,
    window: float,
    n_cells: int,
    threshold_sigma: float | None = None,
    threshold: float | None = None,
    length: float = 1.0,
    radius: float = 1.0,
    eta: float = 1.0,
    zeta: float | None = None,
    zeta_sigma: float | None = None,
    axis=(0.0, 0.0, 1.0),
) -> DetectorSpec:
    """Detector with tau = T / n_cells on its matched element grid.

    The threshold is given either absolutely (``threshold``) or as
    I0 + threshold_sigma * sigma0. ``zeta_sigma``, when given, sets the gain
    so that zeta * sigma0 equals it.
    """
    if (threshold is None) == (threshold_sigma is None):
        raise ValueError("give exactly one of threshold and threshold_sigma")
    tau = window / n_cells
    i0, sigma0 = vacuum_moments(omega_center, 2.0 * math.pi / tau, length, tau, window)
    if zeta_sigma is not None:
        if zeta is not None:
            raise ValueError("give at most one of zeta and zeta_sigma")
        zeta = zeta_sigma / sigma0
    return DetectorSpec(
        radius=radius,
        length=length,
        window=window,
        tau=tau,
        omega_center=omega_center,
        threshold=i0 + threshold_sigma * sigma0 if threshold is None else threshold,
        eta=eta,
        zeta_override=zeta,
        axis=tuple(axis),
    )


def _matched_beam(det: DetectorSpec, n_modes: int | None):
    """Frequencies of the modes on the detector's element grid, and their scale^2.

    When ``n_modes`` is smaller than the element count the central slice of
    the grid is used; the calibration always sets sum(scale^2)/2 = I0.
    """
    n_el = det.n_elements
    if n_modes is None:
        n_modes = n_el
    if not 1 <= n_modes <= n_el:
        raise ValueError(f"n_modes must lie in [1, {n_el}], got {n_modes}")
    start = (n_el - n_modes) // 2
    omegas = det.element_omegas[start:start + n_modes]
    # scale^2 proportional to omega, normalized to the vacuum mean
    return omegas, 2.0 * det.I0 * omegas / np.sum(omegas)


def _mode_arrays(beams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k = omega * axis, omega and pol of the beams (omegas, pol, axis).

    Raises ValueError on a frequency <= 0 or a mode repeating an earlier (round(k, 12), pol).
    """
    omega = np.concatenate([w for w, _, _ in beams])
    if omega.min() <= 0:
        raise ValueError(f"mode frequency must be positive, got {omega.min()}")
    pol = np.concatenate([np.broadcast_to(np.int8(p), w.shape) for w, p, _ in beams])
    k = np.concatenate([w[:, None] * np.asarray(axis, dtype=float) for w, _, axis in beams])
    _, first, inverse = np.unique(np.column_stack((np.round(k, 12), pol)), axis=0,
                                  return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[inverse.reshape(-1)] != np.arange(len(omega)))
    if repeats.size:
        m = repeats[0]
        raise ValueError(f"duplicate mode (k={tuple(k[m].tolist())}, pol={pol[m]})")
    return k, omega, pol


def vacuum_scenario(detectors: list[DetectorSpec], names: list[str] | None = None,
                    n_modes: int | None = None) -> Scenario:
    """One independent matched beam per detector, no source and no optics."""
    if names is None:
        names = [f"d{i}" for i in range(len(detectors))]
    beams, parts, start = [], [], 0
    for det in detectors:
        omegas, s = _matched_beam(det, n_modes)
        beams.append((omegas, 0, det.axis))
        parts.append((slice(start, start + len(omegas)), s))
        start += len(omegas)
    coinc = tuple((i, j) for i in range(len(detectors)) for j in range(i + 1, len(detectors)))
    return Scenario(
        *_mode_arrays(beams),
        ops=(),
        detector_names=tuple(names),
        detector_specs=tuple(detectors),
        parts=tuple(parts),
        coincidences=coinc,
        signal_means=tuple(0.0 for _ in detectors),
    )


def _collinear_pump(det1: DetectorSpec, det2: DetectorSpec, g: float) -> PumpSpec:
    """Pump of a collinear two-band source, after checking that the detectors fit it.

    Both detectors must share the window T, axis and element count, so that
    every phase-matched pair satisfies k1 + k2 = k0 exactly, and their bands
    must be well separated.
    """
    if det1.window != det2.window:
        raise ValueError("the two detectors must share the window T")
    if det1.axis != det2.axis:
        raise ValueError("collinear scenario requires a common detector axis")
    if det1.n_elements != det2.n_elements:
        raise ValueError("the two detectors must have equal element counts")
    if abs(det1.omega_center - det2.omega_center) < 4.0 * max(det1.bandwidth, det2.bandwidth):
        raise ValueError("the two detector bands must be well separated")
    omega0 = det1.omega_center + det2.omega_center
    return PumpSpec(tuple(omega0 * np.asarray(det1.axis, dtype=float)), omega0, g)


def _crystal_scenario(det1: DetectorSpec, det2: DetectorSpec, g: float, n_pol: int,
                      names) -> Scenario:
    """Collinear PDC into two beams with ``n_pol`` polarization modes per frequency slot.

    Beam b is detector b's element grid: slot j holds polarization p at index
    b*off + n_pol*j + p, with off = n_pol * n. Detector q of beam b owns the
    beam's polarization-q modes. Reading beam 2 backwards pairs slot j with
    the frequency-mirrored slot n-1-j and, for two polarizations, swaps H and
    V. ``_collinear_pump`` states what the detectors must share.
    """
    pump = _collinear_pump(det1, det2, g)
    off = n_pol * det1.n_elements
    beams, parts = [], []
    for b, det in enumerate((det1, det2)):
        omegas, weights = _matched_beam(det, None)
        beams.append((np.repeat(omegas, n_pol), np.tile(np.arange(n_pol), len(omegas)), det.axis))
        parts += [(slice(b * off + q, (b + 1) * off, n_pol), weights) for q in range(n_pol)]
    k, omega, pol = _mode_arrays(beams)
    crystal = (slice(0, off), slice(2 * off - 1, off - 1, -1))
    check_pairs(k, omega, crystal, pump)
    specs = (det1,) * n_pol + (det2,) * n_pol
    excess = excess_photon_fraction(g)
    return Scenario(
        k, omega, pol,
        ops=(("pdc", crystal, g),),
        detector_names=tuple(names),
        detector_specs=specs,
        parts=tuple(parts),
        coincidences=tuple(product(range(n_pol), range(n_pol, 2 * n_pol))),
        signal_means=tuple(2.0 * d.I0 * excess for d in specs),
    )


def pdc_scenario(det_signal: DetectorSpec, det_idler: DetectorSpec, g: float,
                 names: tuple[str, str] = ("signal", "idler")) -> Scenario:
    """Collinear PDC: signal and idler beams in separate frequency bands.

    Pair j couples the j-th signal grid mode with the frequency-mirrored
    idler grid mode (``_crystal_scenario`` with one polarization per slot).
    """
    return _crystal_scenario(det_signal, det_idler, g, 1, names)


def chsh_scenario(det_station1: DetectorSpec, det_station2: DetectorSpec, g: float) -> Scenario:
    """Two polarization-analyzed stations fed by cross-polarized PDC pairs.

    Station s carries two polarization modes (H, V) per frequency slot; the
    crystal couples (1H, 2V) and (1V, 2H) slot-wise. Station s's '+' and '-'
    detectors own its H and V modes. An analyzer setting rotates each
    station's (H, V) pairs after the crystal (``analysis.chsh_variants``), so
    that '+' reads H after rotation and '-' reads V.
    """
    return _crystal_scenario(det_station1, det_station2, g, 2, ("1+", "1-", "2+", "2-"))
