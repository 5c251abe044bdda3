"""Chunked, reproducible Monte Carlo over the hidden variables.

Trials are split into chunks of one sampling block (``field.TRIAL_BLOCK``
trials). ``run_variants`` samples each chunk once, maps it by the
scenario's crystal once, and accumulates sufficient statistics of every
variant over the same mapped amplitudes; ``detection_summary`` reads
variant 0 of them into the record's Monte Carlo fields. Variant 0 is the
plain run, and variant 1 + k reads the scenario's two analyzer stations
(``Scenario.stations``) through setting k, an angle pair (theta1, theta2).

A detector reads only |alpha'|^2, so a scenario without stations (a vacuum
or PDC point; a scenario's crystal pairs mode m with mode N-1-m) draws that
power: an exponential per vacuum mode (``field.sample_vacuum_power``), or
one exponential and one amplitude per crystal pair (``pdc.pair_power``),
even at g = 0. A scenario with stations (a CHSH point) draws the amplitudes
(``field.sample_vacuum_batch``) and maps them by the crystal, so that its
plain run equals variant 0 of its settings run bit for bit.

An analyzer at angle theta rotates a station's (H, V) pairs, which its '+'
and '-' detectors own with one weight vector w. From A = sum w|h|^2 and
B = sum w|v|^2 (variant 0's '+' and '-' intensities), C = sum w Re(h conj v),
c = cos theta and s = sin theta, the station reads I+ = c^2 A + s^2 B + 2cs C
and I- = s^2 A + c^2 B - 2cs C (``optics.rotator_transform`` up to
rounding), so a setting costs O(trials) and no rotated copy of the tile.

A chunk is processed in row tiles of about TILE_AMPS amplitudes (512 KiB):
each tile is sampled, mapped and reduced to effective intensities, each
detector over its own modes (``Scenario.parts``), while it is still in
cache. A chunk draws its tiles in order from its block's two generators
(``field.block_generators``), and each row's intensity is reduced on its
own, so it does not depend on the tile. Q and the sufficient statistics
are then computed over the whole chunk, and chunk results folded in chunk
order, so the outcome is bit-identical for any tile size or worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .detection import intensity_batch, q_model
from .field import TRIAL_BLOCK, block_generators, sample_vacuum_batch, sample_vacuum_power
from .pdc import pair_power
from .scenarios import Scenario, apply_ops

__all__ = ["detection_summary", "mc_detect", "run_variants"]

# Complex amplitudes per row tile (16 bytes each): a 512 KiB tile (16 rows
# at 2048 modes) and its mapped copies fit in a 2 MiB per-core L2 cache.
TILE_AMPS = 1 << 15


@dataclass(frozen=True)
class _ChunkSums:
    n: int
    q_sum: np.ndarray       # (V, D)
    q2_sum: np.ndarray      # (V, D)
    i_sum: np.ndarray       # (V, D)
    i2_sum: np.ndarray      # (V, D)
    ii_sum: np.ndarray      # (V, P)
    u_sum: np.ndarray       # (V*P,) coincidence products Q_a Q_c, variant-major
    uu_sum: np.ndarray      # (V*P, V*P)


def _cross_sums(amps: np.ndarray, stations) -> np.ndarray:
    """C = sum w Re(h conj v) of each station (2, rows), each row reduced on its own."""
    return np.stack([((amps.real[:, h] * amps.real[:, v] + amps.imag[:, h] * amps.imag[:, v])
                      * w).sum(axis=1) for h, v, w in stations])


def _analyze(i: np.ndarray, cross: np.ndarray, settings) -> None:
    """Fill variants 1.. of ``i`` (V, 4, rows) from variant 0 and ``cross`` (see above)."""
    for k, angles in enumerate(settings, start=1):
        for st, theta in enumerate(angles):
            c, s = math.cos(theta), math.sin(theta)
            a, b, x = i[0, 2 * st], i[0, 2 * st + 1], 2 * c * s * cross[st]
            i[k, 2 * st] = c * c * a + s * s * b + x
            i[k, 2 * st + 1] = s * s * a + c * c * b - x


def chunk_intensities(scenario: Scenario, settings, seed: int,
                      block: int, rows: int) -> np.ndarray:
    """Effective intensities (1 + len(settings), D, rows) of the first ``rows`` trials of ``block``.

    The trials are sampled, mapped by the scenario's crystal and reduced one
    row tile at a time to variant 0's intensities and each station's C; a
    scenario without stations samples its modes' power instead. The
    settings follow over the whole chunk. ``rows`` is at most TRIAL_BLOCK.
    """
    n_modes = scenario.n_modes
    step = min(max(TILE_AMPS // n_modes, 1), TRIAL_BLOCK)
    stations = scenario.stations
    rng, pair_rng = block_generators(seed, block)
    i = np.empty((1 + len(settings), len(scenario.detector_specs), rows))
    cross = np.empty((len(stations), rows))
    for t in range(0, rows, step):
        n = min(step, rows - t)
        cols = slice(t, t + n)
        if not stations:
            power = (pair_power(sample_vacuum_power(n_modes // 2, rng, n),
                                sample_vacuum_batch(n_modes // 2, pair_rng, n),
                                scenario.crystal)
                     if scenario.crystal is not None else sample_vacuum_power(n_modes, rng, n))
            i[:, :, cols] = intensity_batch(power, scenario.parts).T
            continue
        amps = apply_ops(sample_vacuum_batch(n_modes, rng, n), scenario)
        i[0, :, cols] = intensity_batch(amps.real**2 + amps.imag**2, scenario.parts).T
        cross[:, cols] = _cross_sums(amps, stations)
    _analyze(i, cross, settings)
    return i


def _chunk_worker(args) -> _ChunkSums:
    scenario = args[0]
    i = chunk_intensities(*args)
    n_var, _, b = i.shape
    pairs = scenario.coincidences
    n_pair = len(pairs)
    q = np.empty_like(i)
    for d, spec in enumerate(scenario.detector_specs):
        q[:, d] = q_model(i[:, d], spec)
    qq = np.empty((n_var, n_pair, b))
    for p, (a, c) in enumerate(pairs):
        qq[:, p, :] = q[:, a, :] * q[:, c, :]
    u = qq.reshape(n_var * n_pair, b)
    return _ChunkSums(
        n=b,
        q_sum=q.sum(axis=2), q2_sum=(q * q).sum(axis=2),
        i_sum=i.sum(axis=2), i2_sum=(i * i).sum(axis=2),
        ii_sum=np.stack([(i[:, a, :] * i[:, c, :]).sum(axis=1) for a, c in pairs], axis=1)
        if n_pair else np.zeros((n_var, 0)),
        u_sum=u.sum(axis=1),
        uu_sum=u @ u.T,
    )


def _fold(chunks: list[_ChunkSums]) -> _ChunkSums:
    first = chunks[0]
    acc = {f: np.array(getattr(first, f), dtype=float, copy=True)
           for f in ("q_sum", "q2_sum", "i_sum", "i2_sum", "ii_sum", "u_sum", "uu_sum")}
    n = first.n
    for ch in chunks[1:]:
        n += ch.n
        for f in acc:
            acc[f] += getattr(ch, f)
    return _ChunkSums(n=n, **acc)


def default_workers() -> int:
    """Worker count from ZPFSIM_WORKERS (default 1); ValueError unless a positive integer."""
    raw = os.environ.get("ZPFSIM_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"ZPFSIM_WORKERS must be a positive integer, got {raw!r}")
    return workers


def run_variants(scenario: Scenario, settings, trials: int, seed: int,
                 workers: int | None = None) -> _ChunkSums:
    """Accumulated sufficient statistics of the plain run and every analyzer setting.

    Variant 0 runs the scenario as built; variant 1 + k reads it through
    ``settings[k]``, one analyzer angle pair (theta1, theta2) for the
    scenario's two stations. ``()`` runs the plain run alone. Settings on a
    scenario without stations raise ValueError before anything is sampled.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    settings = tuple((float(t1), float(t2)) for t1, t2 in settings)
    if settings and not scenario.stations:
        raise ValueError("analyzer settings need a scenario with analyzer stations")
    if workers is None:
        workers = default_workers()
    args = [(scenario, settings, seed, b, min(TRIAL_BLOCK, trials - b * TRIAL_BLOCK))
            for b in range(math.ceil(trials / TRIAL_BLOCK))]
    if workers > 1 and len(args) > 1:
        # imported here: it loads multiprocessing, logging and socket
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_chunk_worker, args))
    else:
        chunks = [_chunk_worker(a) for a in args]
    return _fold(chunks)


def _mean_se(total: float, total_sq: float, n: int) -> tuple[float, float]:
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    if n > 1:
        var *= n / (n - 1)
    return mean, math.sqrt(var / n)


def detection_summary(scenario: Scenario, sums: _ChunkSums) -> tuple[dict, dict]:
    """Variant 0 of ``sums`` as the record's Monte Carlo fields (detectors, coincidences).

    detectors[name]: p_mc, p_mc_stderr, intensity_mean_mc, intensity_mean_stderr and
    intensity_std_mc; coincidences[(name_a, name_b)]: p_mc, p_mc_stderr and corr_mc.
    """
    n = sums.n
    names = scenario.detector_names
    detectors = {}
    for d, nm in enumerate(names):
        prob, prob_se = _mean_se(sums.q_sum[0, d], sums.q2_sum[0, d], n)
        mean, mean_se = _mean_se(sums.i_sum[0, d], sums.i2_sum[0, d], n)
        detectors[nm] = {"p_mc": prob, "p_mc_stderr": prob_se, "intensity_mean_mc": mean,
                         "intensity_mean_stderr": mean_se,
                         "intensity_std_mc": mean_se * math.sqrt(n)}
    coincidences = {}
    for p, (a, c) in enumerate(scenario.coincidences):
        # variant 0: u_sum[p] sums Q_a Q_c and uu_sum[p, p] its square
        prob, prob_se = _mean_se(sums.u_sum[p], sums.uu_sum[p, p], n)
        cov = sums.ii_sum[0, p] / n - (sums.i_sum[0, a] / n) * (sums.i_sum[0, c] / n)
        sa = math.sqrt(max(sums.i2_sum[0, a] / n - (sums.i_sum[0, a] / n) ** 2, 0.0))
        sc = math.sqrt(max(sums.i2_sum[0, c] / n - (sums.i_sum[0, c] / n) ** 2, 0.0))
        coincidences[(names[a], names[c])] = {
            "p_mc": prob, "p_mc_stderr": prob_se,
            "corr_mc": cov / (sa * sc) if sa > 0 and sc > 0 else 0.0}
    return detectors, coincidences


def mc_detect(scenario: Scenario, trials: int, seed: int,
              workers: int | None = None) -> tuple[dict, dict]:
    """Direct Monte Carlo over the vacuum ensemble: ``detection_summary``'s record fields."""
    return detection_summary(scenario, run_variants(scenario, (), trials, seed, workers))
