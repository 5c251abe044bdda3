"""Vacuum sampling of the plane-wave mode amplitudes and of their power.

The hidden variables of the whole simulator live here: each plane-wave mode
(its wavevector, frequency and polarization are arrays on the ``Scenario``)
carries a complex amplitude alpha whose vacuum distribution is the circular
gaussian (2/pi) exp(-2|alpha|^2), i.e. Re(alpha) and Im(alpha) are
independent normals with mean 0 and variance 1/4. A batch of realizations
is one (trials x modes) array; there is no per-realization type.

Three draws are offered. ``sample_vacuum_batch`` draws the amplitudes, two
normals per mode. ``sample_vacuum_power`` draws the power |alpha|^2 alone,
which under this law is exactly exponential with mean 1/2, for a run that
reads no amplitude (see ``engine``); with one amplitude per crystal pair
(``sample_pair_amplitudes``) it gives a PDC run's powers (``pdc.pair_power``).

Sampling is block-keyed: block b of seed s holds trials
[b * TRIAL_BLOCK, (b + 1) * TRIAL_BLOCK) and fills them, row by row, from
one SFC64 stream seeded by SeedSequence((s, b)); pair amplitudes come from a
second, seeded by SeedSequence((s, b, 1)), not to reuse the exponentials' raw values.
A trial's draws therefore depend only on (draw, seed, t), whatever chunking,
tiling or worker count produced them. SFC64 is used for speed: its ziggurat
normals take about a fifth less time than PCG64's, and its exponentials
about half the time of its normals (numpy 2.4.6, 2-vCPU x86-64 VM).

A block may be drawn in several calls: the engine samples each chunk in
row tiles. Each thread remembers the generator of each stream's last call,
with the draw and the trial it stopped before; a call of the same draw that
starts there, inside the same block, resumes that generator. Any other call
builds the block's generator afresh and draws and discards the rows before
its start. Resuming only saves the re-draw; the values are the same either way.

Everything is expressed in dimensionless units (hbar = c = epsilon_0 = 1)
unless stated otherwise.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["TRIAL_BLOCK", "RNG_STREAM", "sample_vacuum_batch", "sample_vacuum_power",
           "sample_pair_amplitudes"]

TRIAL_BLOCK = 2048
# Identifier of the sampling streams, recorded with every run: normal
# amplitudes and exponential power from the SFC64 keyed by (seed, block), and
# the crystal pairs' amplitudes from the one keyed by (seed, block, 1).
RNG_STREAM = f"sfc64-seedseq-block{TRIAL_BLOCK}-normal-amp-exp-power-pair-law"

# Per thread: .slots[stream] = (draw, width, seed, next trial, generator) of its last call.
_resume = threading.local()


def _draw(draw: str, width: int, seed: int, trial_indices: range, stream=()) -> np.ndarray:
    """Rows (len(trial_indices), width) of ``Generator.<draw>``, keyed (seed, block, *stream)."""
    if width < 1:
        raise ValueError("n_modes must be >= 1")
    if not isinstance(trial_indices, range) or trial_indices.step != 1:
        raise ValueError("trial_indices must be a contiguous ascending range")
    last = _resume.__dict__.setdefault("slots", {}).pop(stream, None)
    out = np.empty((len(trial_indices), width))
    first = t = trial_indices.start
    rng = None
    while t < trial_indices.stop:
        block, skip = divmod(t, TRIAL_BLOCK)
        stop = min(trial_indices.stop, (block + 1) * TRIAL_BLOCK)
        rows = out[t - first:stop - first]
        if skip and last is not None and last[:4] == (draw, width, seed, t):
            rng, skip = last[4], 0
        else:
            key = np.random.SeedSequence((seed, block, *stream))
            rng = np.random.Generator(np.random.SFC64(key))
        fill = getattr(rng, draw)
        while skip:
            # draw and discard the block's leading rows, using ``rows`` as scratch
            k = min(skip, len(rows))
            fill(out=rows[:k])
            skip -= k
        fill(out=rows)
        t = stop
    if rng is not None:
        _resume.slots[stream] = (draw, width, seed, t, rng)
    return out


def sample_vacuum_batch(n_modes: int, seed: int, trial_indices: range) -> np.ndarray:
    """Vacuum amplitudes for a contiguous ascending range of trials.

    Returns shape (len(trial_indices), n_modes). Trial t is drawn as described
    in the module docstring, so it depends only on (seed, t). Re and Im are
    independent N(0, 1/4), hence E[|alpha|^2] = 1/2 and E[alpha^2] = 0.
    """
    out = _draw("standard_normal", 2 * n_modes, seed, trial_indices).view(complex)  # Re, Im
    out *= 0.5
    return out


def sample_vacuum_power(n_modes: int, seed: int, trial_indices: range) -> np.ndarray:
    """Vacuum power |alpha|^2 per mode for a contiguous ascending range of trials.

    Returns shape (len(trial_indices), n_modes) of independent exponentials
    with mean 1/2, the law of |alpha|^2 under the vacuum; trial t depends
    only on (seed, t), as for ``sample_vacuum_batch``.
    """
    out = _draw("standard_exponential", n_modes, seed, trial_indices)
    out *= 0.5
    return out


def sample_pair_amplitudes(n_pairs: int, seed: int, trial_indices: range) -> np.ndarray:
    """Vacuum amplitudes (rows, n_pairs) as ``sample_vacuum_batch``'s, keyed (seed, b, 1)."""
    out = _draw("standard_normal", 2 * n_pairs, seed, trial_indices, (1,))
    out *= 0.5
    return out.view(complex)   # Re, Im
