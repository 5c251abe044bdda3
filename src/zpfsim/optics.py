"""Linear optical elements: the polarization rotator.

The rotator acts unitarily on an amplitude array of shape (..., n_modes);
the (H, V) mode pairs it mixes are given as one index pair. No run calls
it: the CHSH analyzers read the same rotation from the engine's three sums,
and it serves as their test oracle.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["rotator_transform"]


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
