import math

import numpy as np
import pytest

from zpfsim.detection import intensity_batch
from zpfsim.engine import chunk_intensities
from zpfsim.field import TRIAL_BLOCK, block_generators, sample_vacuum_normals, sample_vacuum_power
from zpfsim.scenarios import chsh_scenario, make_matched_detector, pdc_scenario, vacuum_scenario

WINDOW_1K = 2.0 * math.pi * 1000.0
WINDOW_1E5 = 2.0 * math.pi * 1e5

# One (name, passed, detail) entry per acceptance criterion, printed in the
# terminal summary so the pass/fail lines survive output capturing.
_CRITERIA: list[tuple[str, bool, str]] = []


def record_criterion(name: str, passed: bool, detail: str = "") -> None:
    _CRITERIA.append((name, bool(passed), detail))
    assert passed, f"{name}: {detail}"


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in _CRITERIA:
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f" — {detail}"
        terminalreporter.write_line(line)


@pytest.fixture
def small_detector():
    """100-cell matched detector with a 5 sigma threshold."""
    return make_matched_detector(
        omega_center=1.0, window=WINDOW_1K, n_cells=100,
        threshold_sigma=5.0, zeta_sigma=0.01,
    )


def detector(n_cells=100, threshold_sigma=5.0, zeta_sigma=0.01, omega_center=1.0,
             window=WINDOW_1K, **kwargs):
    return make_matched_detector(
        omega_center=omega_center, window=window, n_cells=n_cells,
        threshold_sigma=threshold_sigma, zeta_sigma=zeta_sigma, **kwargs,
    )


def q_standard(intensity, detector):
    """Unbounded textbook response zeta (I - I0); may be negative or exceed 1."""
    i = np.asarray(intensity, dtype=float)
    q = detector.zeta * (i - detector.I0)
    return q if q.ndim else float(q)


def pair_correlation(g):
    """Ensemble moment E[alpha_s' alpha_i'] = g (1 + g^2/2) of one matched crystal pair."""
    return g * (1.0 + 0.5 * g * g)


def mc_intensity_samples(scenario, trials, seed):
    """Per-detector effective-intensity samples, computed as the engine does.

    One sampling block at a time, each in the engine's row tiles, because a
    whole run can be too large to hold at once (10^5 trials x 10^4 modes in
    criterion 1).
    """
    out = np.concatenate([chunk_intensities(scenario, (), seed, block, rows)[0]
                          for block, rows in blocks(trials)], axis=1)
    return {nm: out[d] for d, nm in enumerate(scenario.detector_names)}


def blocks(trials):
    """(block, rows) of each sampling block that trials [0, trials) touch, in order."""
    return [(b, min(TRIAL_BLOCK, trials - b * TRIAL_BLOCK))
            for b in range(math.ceil(trials / TRIAL_BLOCK))]


def draw_rows(sample, n_modes, seed, trials, stream=0):
    """Rows [0, trials) of a ``field`` sampler, drawn block by block as the engine does.

    ``stream`` 0 draws from each block's first generator, 1 from its second
    (the crystal pairs' amplitudes).
    """
    return np.concatenate([sample(n_modes, block_generators(seed, block)[stream], rows)
                           for block, rows in blocks(trials)])


def drawn_power(n_modes, rng, rows):
    """2|alpha|^2 (rows, n_modes) of the next ``rows`` trials: ``field.sample_vacuum_power``."""
    return sample_vacuum_power(rng, np.empty((rows, n_modes)))


def drawn_normals(n_modes, rng, rows):
    """2 alpha (rows, n_modes) of the next ``rows`` trials: ``field.sample_vacuum_normals``."""
    return sample_vacuum_normals(rng, np.empty((rows, n_modes), dtype=complex))


def mode_ordered_pair_power(pump_power, q, g):
    """|alpha'|^2 (..., 2 n_pairs) of every mode from each pair's P and turned q (..., n_pairs).

    The pair law as the engine once formed it, operation for operation: P
    and q in the vacuum's own units, pair j's signal written to mode j and
    its idler to mode 2 n_pairs - 1 - j. Overwrites both inputs.
    """
    a = 1.0 + 0.5 * g * g
    r = np.sqrt(pump_power, out=pump_power)
    r *= (a + g) * 0.5**0.5
    q *= (a - g) * 0.5**0.5
    re, im = q.real, q.imag
    np.square(im, out=im)
    np.subtract(r, re, out=re)
    r *= 2.0
    r -= re
    for x in (r, re):
        x *= x
        x += im
    h = r.shape[-1]
    out = np.empty(r.shape[:-1] + (2 * h,))
    out[..., :h], out[..., :h - 1:-1] = r, re
    return out


def power_path_oracle(scenario, seed, block, rows):
    """Variant 0's intensities (D, rows) of a scenario without stations, composed the old way.

    Draws half a standard exponential per mode (vacuum), or per pair with
    half a standard complex normal per pair from the block's second
    generator (PDC), interleaves the pair law into mode order
    (``mode_ordered_pair_power``) and reduces with ``intensity_batch``, all
    ``rows`` trials at once.
    """
    rng, pair_rng = block_generators(seed, block)
    if scenario.crystal is None:
        power = 0.5 * rng.standard_exponential((rows, scenario.n_modes))
    else:
        h = scenario.n_modes // 2
        power = mode_ordered_pair_power(0.5 * rng.standard_exponential((rows, h)),
                                        0.5 * pair_rng.standard_normal((rows, 2 * h)).view(complex),
                                        scenario.crystal)
    return intensity_batch(power, scenario.parts).T


def dense_weights(scenario):
    """(n_modes, n_det) matrix of scale^2 on each detector's own modes, 0 elsewhere."""
    weights = np.zeros((scenario.n_modes, len(scenario.parts)))
    for d, (idx, w) in enumerate(scenario.parts):
        weights[idx, d] = w
    return weights


def mode_geometry(scenario):
    """(k, omega, pol) of every mode, read off the scenario's parts and stations.

    A scenario stores no mode geometry, since no run reads it. Detector d's
    own modes, ``parts[d]`` = (index, w), lie in index order on consecutive
    elements of its grid, with w proportional to omega: on a grid of spacing
    dw, w[0] / w[-1] = omega_0 / (omega_0 + (n - 1) dw) places the first of
    them. A mode has polarization 1 (V) if a station's V index holds it, else
    0 (H), and wavevector k = omega along its detector's axis. Each mode must
    belong to exactly one detector.
    """
    k = np.zeros((scenario.n_modes, 3))
    omega = np.zeros(scenario.n_modes)
    pol = np.zeros(scenario.n_modes, dtype=np.int8)
    owners = np.zeros(scenario.n_modes, dtype=int)
    for (index, w), det in zip(scenario.parts, scenario.detector_specs):
        grid, n = det.element_omegas, len(w)
        first = 0
        if n < len(grid):
            dw, r = 2.0 * math.pi / det.window, w[0] / w[-1]
            first = round((r * (n - 1) * dw / (1.0 - r) - grid[0]) / dw)
        omega[index] = grid[first:first + n]
        k[index] = omega[index][:, None] * np.asarray(det.axis)
        owners[index] += 1
    assert np.all(owners == 1), "the detectors' own modes must partition the modes"
    for _, v, _ in scenario.stations:
        pol[v] = 1
    return k, omega, pol


def oracle_scenarios(window):
    """Vacuum (full beams; central slices for two and three detectors), PDC and CHSH."""
    vac = [detector(n_cells=16, window=window),
           detector(n_cells=16, window=window, omega_center=2.0)]
    pdc = (detector(n_cells=16, window=window, omega_center=1.25),
           detector(n_cells=16, window=window, omega_center=0.75))
    return {
        "vacuum": vacuum_scenario(vac),
        "vacuum-slice": vacuum_scenario(vac, n_modes=6),
        "vacuum-3-slice": vacuum_scenario(
            vac + [detector(n_cells=16, window=window, omega_center=3.0)], n_modes=6),
        "pdc": pdc_scenario(*pdc, 0.1),
        "chsh": chsh_scenario(*pdc, 0.1),
    }


def signed_zero_amps(rows, n_modes, seed):
    """Gaussian amplitudes with +0.0 or -0.0 in about a third of the parts."""
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, rows, n_modes))
    zero = rng.random(parts.shape) < 1 / 3
    parts[zero] = rng.choice([0.0, -0.0], size=zero.sum())
    amps = np.empty((rows, n_modes), dtype=complex)
    amps.real, amps.imag = parts      # set directly: arithmetic would drop some signs
    return amps
