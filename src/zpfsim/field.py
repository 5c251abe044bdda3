"""Vacuum sampling of the plane-wave mode amplitudes.

The hidden variables of the whole simulator live here: each plane-wave mode
(its wavevector, frequency and polarization are arrays on the ``Scenario``)
carries a complex amplitude alpha whose vacuum distribution is the circular
gaussian (2/pi) exp(-2|alpha|^2), i.e. Re(alpha) and Im(alpha) are
independent normals with mean 0 and variance 1/4. A batch of realizations
is one (trials x modes) complex array; there is no per-realization type.

Sampling is block-keyed: block b of seed s holds trials
[b * TRIAL_BLOCK, (b + 1) * TRIAL_BLOCK) and fills them, row by row, from
one SFC64 generator seeded by SeedSequence((s, b)). A trial's amplitudes
therefore depend only on (seed, t), whatever chunking, tiling or worker
count produced them. SFC64 is used for speed: its ziggurat normals take
about a fifth less time than PCG64's (numpy 2.4.6, 2-vCPU x86-64 VM).

A block may be drawn in several calls: the engine samples each chunk in
row tiles. Each thread remembers the generator of its last call, with the
trial it stopped before; a call that starts there, inside the same block,
resumes that generator. Any other call builds the block's generator afresh
and draws and discards the rows before its start. Resuming only saves the
re-draw; the values are the same either way.

Everything is expressed in dimensionless units (hbar = c = epsilon_0 = 1)
unless stated otherwise.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["TRIAL_BLOCK", "RNG_STREAM", "sample_vacuum_batch"]

TRIAL_BLOCK = 2048
# Identifier of the amplitude stream, recorded with every run.
RNG_STREAM = f"sfc64-seedseq-block{TRIAL_BLOCK}"

# Per thread: .last = (n_modes, seed, next trial, generator) of the last call.
_resume = threading.local()


def sample_vacuum_batch(n_modes: int, seed: int, trial_indices: range) -> np.ndarray:
    """Vacuum amplitudes for a contiguous ascending range of trials.

    Returns shape (len(trial_indices), n_modes). Trial t is drawn as described
    in the module docstring, so it depends only on (seed, t). Re and Im are
    independent N(0, 1/4), hence E[|alpha|^2] = 1/2 and E[alpha^2] = 0.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if not isinstance(trial_indices, range) or trial_indices.step != 1:
        raise ValueError("trial_indices must be a contiguous ascending range")
    last, _resume.last = getattr(_resume, "last", None), None
    out = np.empty((len(trial_indices), n_modes), dtype=complex)
    flat = out.view(np.float64)       # Re and Im interleaved
    first = t = trial_indices.start
    rng = None
    while t < trial_indices.stop:
        block, skip = divmod(t, TRIAL_BLOCK)
        stop = min(trial_indices.stop, (block + 1) * TRIAL_BLOCK)
        rows = flat[t - first:stop - first]
        if skip and last is not None and last[:3] == (n_modes, seed, t):
            rng, skip = last[3], 0
        else:
            rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, block))))
        while skip:
            # draw and discard the block's leading rows, using ``rows`` as scratch
            k = min(skip, len(rows))
            rng.standard_normal(out=rows[:k])
            skip -= k
        rng.standard_normal(out=rows)
        t = stop
    if rng is not None:
        _resume.last = (n_modes, seed, t, rng)
    out *= 0.5
    return out
