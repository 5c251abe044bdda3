"""Linear optical elements and the lens feasibility formulas.

The polarization rotator acts unitarily on an amplitude array of shape
(..., n_modes); the (H, V) mode pairs it mixes are given as one index pair.
The lens is handled at the intensity level: it multiplies the signal mean
by the gain b^2 and fixes the recommended detector radius, but leaves the
zeropoint statistics untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LensSpec",
    "GeometrySpec",
    "rotator_transform",
    "lens_gain",
    "ring_radius",
    "coherence_ok",
]

# Fraction-of-intensity coefficients of the Airy pattern rings.
_RING_COEFF = {"first": 1.22, "second": 2.23}


@dataclass(frozen=True)
class LensSpec:
    """Lens radius, focal distance, working wavelength and ring choice."""

    radius: float
    focal: float
    wavelength: float
    ring_choice: str = "first"

    def __post_init__(self):
        if min(self.radius, self.focal, self.wavelength) <= 0:
            raise ValueError("lens radius, focal distance and wavelength must be positive")
        if self.ring_choice not in _RING_COEFF:
            raise ValueError(f"ring_choice must be 'first' or 'second', got {self.ring_choice!r}")


@dataclass(frozen=True)
class GeometrySpec:
    """Source-to-detector distance d and crystal radius R_C."""

    distance: float
    crystal_radius: float

    def __post_init__(self):
        if min(self.distance, self.crystal_radius) <= 0:
            raise ValueError("distance and crystal radius must be positive")


def rotator_transform(amps: np.ndarray, index, angle: float) -> np.ndarray:
    """Polarization rotation by ``angle`` on the (H, V) index pair ``index``."""
    amps = np.asarray(amps, dtype=complex)
    c = math.cos(angle)
    s = math.sin(angle)
    h_idx, v_idx = index
    h, v = amps[..., h_idx], amps[..., v_idx]
    # each rotated half straight from the input, made before the one copy it
    # is assigned into (as in ``pdc.pdc_transform``)
    new_h = s * v
    new_h += c * h
    new_v = -s * h
    new_v += c * v
    out = amps.copy()
    out[..., h_idx], out[..., v_idx] = new_h, new_v
    return out


def lens_gain(lens: LensSpec) -> float:
    """Signal-intensity amplification b^2 = pi^2 R_l^4 / (lambda^2 f^2)."""
    return math.pi**2 * lens.radius**4 / (lens.wavelength**2 * lens.focal**2)


def ring_radius(lens: LensSpec) -> float:
    """Optimum detector radius a * lambda * f / (2 R_l), first or second ring."""
    a = _RING_COEFF[lens.ring_choice]
    return a * lens.wavelength * lens.focal / (2.0 * lens.radius)


def coherence_ok(lens: LensSpec, geom: GeometrySpec) -> bool:
    """Spatial-coherence condition d * lambda >= R_l * R_C (boundary inclusive)."""
    return geom.distance * lens.wavelength >= lens.radius * geom.crystal_radius
