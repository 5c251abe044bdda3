"""Declarative experiment scenarios.

A ``Scenario`` holds what a run reads: the mode count, its crystal (None,
or the coupling g of a crystal that pairs mode m with mode N-1-m of its N
modes, see ``pdc``) and, per detector, the index of its own modes with their
read-only weights. Everything is plain data so scenarios can be shipped to
worker processes.

PDC and CHSH share one crystal builder (``_crystal_scenario``). A CHSH
scenario's ``stations`` hold each station's (H, V) pairs, the own modes of
its '+' and '-' detectors, and their one weight vector; the engine reads
every analyzer setting from three sums per station (``engine.run_variants``).

Every builder puts each detector's modes on that detector's own element
grid, where the filtered-field response is diagonal: detector d sees
Ibar_d = sum_m scale_m^2 |alpha_m|^2 over its own modes m only. Detector d's
entry ``parts[d]`` = (index, scale^2) holds those modes as a slice and
their scale^2 in index order. Two detectors on one axis share no mode: their
bands lie at least four band widths apart (``_bands_separated``).
The mode scales are calibrated so that each detector's vacuum-ensemble mean of
the effective intensity equals its analytic value I0; this amounts to
fixing the quantization box length per beam.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .detection import DetectorSpec, vacuum_moments
from .pdc import PERTURBATIVE_G_LIMIT, excess_photon_fraction, pdc_transform

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
    """The mode count, the crystal and each detector's own modes with their weights."""

    n_modes: int
    crystal: float | None                  # coupling g of mode m with N-1-m, or None
    detector_names: tuple[str, ...]
    detector_specs: tuple[DetectorSpec, ...]
    parts: tuple[tuple, ...]               # per detector: (own-mode index, scale^2)
    coincidences: tuple[tuple[int, int], ...] = ()
    stations: tuple[tuple, ...] = ()       # per station: (H index, V index, scale^2)

    def __post_init__(self):
        for _, w in self.parts:
            w.setflags(write=False)
        if self.crystal is not None and self.n_modes % 2:
            raise ValueError(f"a crystal needs an even number of modes, got {self.n_modes}")

    @property
    def signal_means(self) -> tuple[float, ...]:
        """Analytic Ibar_s per detector: 2 I0 times the crystal's excess occupation."""
        excess = 0.0 if self.crystal is None else excess_photon_fraction(self.crystal)
        return tuple(2.0 * d.I0 * excess for d in self.detector_specs)


def apply_ops(amps: np.ndarray, scenario: Scenario) -> np.ndarray:
    """The scenario's crystal map on an amplitude batch (..., n_modes); the identity without one."""
    return amps if scenario.crystal is None else pdc_transform(amps, scenario.crystal)


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
    I0 + threshold_sigma * sigma0. The gain is ``zeta``, else zeta_sigma /
    sigma0, else eta * pi R^2 T / omega_center (the aperture-window
    photon-count conversion).
    """
    if (threshold is None) == (threshold_sigma is None):
        raise ValueError("give exactly one of threshold and threshold_sigma")
    if not 0 < eta <= 1:
        raise ValueError(f"quantum efficiency must lie in (0, 1], got {eta}")
    tau = window / n_cells
    i0, sigma0 = vacuum_moments(omega_center, 2.0 * math.pi / tau, length, tau, window)
    if zeta_sigma is not None:
        if zeta is not None:
            raise ValueError("give at most one of zeta and zeta_sigma")
        zeta = zeta_sigma / sigma0
    elif zeta is None:
        zeta = eta * math.pi * radius**2 * window / omega_center
    return DetectorSpec(
        radius=radius,
        length=length,
        window=window,
        tau=tau,
        omega_center=omega_center,
        threshold=i0 + threshold_sigma * sigma0 if threshold is None else threshold,
        zeta=zeta,
        axis=tuple(axis),
    )


def _matched_beam(det: DetectorSpec, n_modes: int | None) -> np.ndarray:
    """scale^2 of the modes on the detector's element grid, in frequency order.

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
    if omegas[0] <= 0:
        raise ValueError(f"mode frequency must be positive, got {omegas[0]}")
    # scale^2 proportional to omega, normalized to the vacuum mean
    return 2.0 * det.I0 * omegas / np.sum(omegas)


def _bands_separated(det1: DetectorSpec, det2: DetectorSpec) -> bool:
    """Whether the two detectors' bands lie at least four band widths apart."""
    return abs(det1.omega_center - det2.omega_center) >= 4.0 * max(det1.bandwidth, det2.bandwidth)


def vacuum_scenario(detectors: list[DetectorSpec], names: list[str] | None = None,
                    n_modes: int | None = None) -> Scenario:
    """One independent matched beam per detector, no source and no optics."""
    if names is None:
        names = [f"d{i}" for i in range(len(detectors))]
    parts, start = [], 0
    for det in detectors:
        s = _matched_beam(det, n_modes)
        parts.append((slice(start, start + len(s)), s))
        start += len(s)
    coinc = tuple((i, j) for i in range(len(detectors)) for j in range(i + 1, len(detectors)))
    for i, j in coinc:
        a, b = detectors[i], detectors[j]
        if a.axis == b.axis and not _bands_separated(a, b):
            raise ValueError(f"duplicate mode: detectors {names[i]!r} and {names[j]!r} share "
                             "an axis and their bands lie closer than four band widths")
    return Scenario(
        n_modes=start,
        crystal=None,
        detector_names=tuple(names),
        detector_specs=tuple(detectors),
        parts=tuple(parts),
        coincidences=coinc,
    )


def _check_collinear(det1: DetectorSpec, det2: DetectorSpec, g: float) -> None:
    """Check that two detectors fit a collinear two-band source of coupling g.

    Both detectors must share the window T, axis and element count, so that
    every mirrored pair satisfies k1 + k2 = k0 exactly, and their bands must
    be well separated. g must be non-negative; g >= PERTURBATIVE_G_LIMIT warns.
    """
    if det1.window != det2.window:
        raise ValueError("the two detectors must share the window T")
    if det1.axis != det2.axis:
        raise ValueError("collinear scenario requires a common detector axis")
    if det1.n_elements != det2.n_elements:
        raise ValueError("the two detectors must have equal element counts")
    if not _bands_separated(det1, det2):
        raise ValueError("the two detector bands must be well separated")
    if g < 0:
        raise ValueError(f"coupling g must be non-negative, got {g}")
    if g >= PERTURBATIVE_G_LIMIT:
        warnings.warn(f"coupling g={g:g} is outside the perturbative regime "
                      f"(g < {PERTURBATIVE_G_LIMIT})",
                      stacklevel=4)   # past the builders, to the line that called one


def _crystal_scenario(det1: DetectorSpec, det2: DetectorSpec, g: float, n_pol: int,
                      names) -> Scenario:
    """Collinear PDC into two beams with ``n_pol`` polarization modes per frequency slot.

    Beam b is detector b's element grid: slot j holds polarization p at index
    b*off + n_pol*j + p, with off = n_pol * n. Detector q of beam b owns the
    beam's polarization-q modes; with two polarizations, beam b is analyzer
    station b: (H index, V index, weights). The crystal pairs mode m with mode
    2*off-1-m: reading beam 2 backwards pairs slot j with the
    frequency-mirrored slot n-1-j and, for two polarizations, swaps H and V.
    ``_check_collinear`` states what the detectors must share.
    """
    _check_collinear(det1, det2, g)
    off = n_pol * det1.n_elements
    parts, stations = [], []
    for b, det in enumerate((det1, det2)):
        weights = _matched_beam(det, None)
        own = [slice(b * off + q, (b + 1) * off, n_pol) for q in range(n_pol)]
        parts += [(index, weights) for index in own]
        if n_pol == 2:
            stations.append((*own, weights))
    return Scenario(
        n_modes=2 * off,
        crystal=g,
        detector_names=tuple(names),
        detector_specs=(det1,) * n_pol + (det2,) * n_pol,
        parts=tuple(parts),
        coincidences=tuple(product(range(n_pol), range(n_pol, 2 * n_pol))),
        stations=tuple(stations),
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
    station's (H, V) pairs after the crystal (``engine.run_variants``), so
    that '+' reads H after rotation and '-' reads V.
    """
    return _crystal_scenario(det_station1, det_station2, g, 2, ("1+", "1-", "2+", "2-"))
