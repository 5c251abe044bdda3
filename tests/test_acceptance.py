"""Acceptance criteria, one test per criterion.

Each test reports a single PASS/FAIL line (with the measured margin) in the
terminal summary via ``record_criterion``.
"""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml

from zpfsim.analysis import chsh_scan, min_rate_bound, tradeoff_report
from zpfsim.detection import (
    BivariateIntensityDist,
    p_single,
    q_model,
    q_standard,
    rho_signal,
)
from zpfsim.engine import mc_detect
from zpfsim.field import sample_vacuum_batch
from zpfsim.pdc import excess_photon_fraction, pair_correlation, pdc_transform
from zpfsim.scenarios import (
    chsh_scenario,
    make_matched_detector,
    pdc_scenario,
    vacuum_scenario,
)

from conftest import WINDOW_1K, detector, draw_rows, mc_intensity_samples, record_criterion


def test_criterion_1_vacuum_statistics():
    """Sample mean = I0 (3 SE) and deviation = I0 sqrt(tau/T) (5%) at 1e5 trials."""
    trials = 100_000
    details = []
    ok = True
    for ratio, n_cells in ((1e-2, 100), (1e-4, 10_000)):
        # window grows with the cell count so the frequency grid stays narrow
        det = detector(n_cells=n_cells, threshold_sigma=5.0, zeta_sigma=0.01,
                       window=WINDOW_1K * n_cells / 100)
        assert det.tau / det.window == pytest.approx(ratio, rel=1e-12)
        scen = vacuum_scenario([det], ["d"])
        samples = mc_intensity_samples(scen, trials, seed=101)["d"]
        mean, std = float(np.mean(samples)), float(np.std(samples, ddof=1))
        se = std / math.sqrt(trials)
        mean_z = abs(mean - det.I0) / se
        std_err = abs(std / (det.I0 * math.sqrt(ratio)) - 1.0)
        ok = ok and mean_z < 3.0 and std_err < 0.05
        details.append(f"tau/T={ratio:g}: mean {mean_z:.2f} SE, sigma off {std_err:.3%}")
    record_criterion("1 vacuum statistics", ok, "; ".join(details))


def _linear_pdc_scenario():
    # Ibar_s = 10 sigma0, I_m = I0 + 3 sigma0, zeta * Ibar_s = 1e-2
    n_cells = 1024
    excess_target = 10.0 / (2.0 * math.sqrt(n_cells))      # Ibar_s/(2 I0)
    x = (-8.0 + math.sqrt(64.0 + 32.0 * excess_target)) / 2.0   # solves x + x^2/8 = e
    g = math.sqrt(x)
    # each band spans ~1 rad at 1024 cells, so the centers sit far apart
    kw = dict(n_cells=n_cells, threshold_sigma=3.0, zeta_sigma=1e-3)
    ds = detector(omega_center=8.0, **kw)
    di = detector(omega_center=2.0, **kw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # g ~ 0.39 is flagged as non-perturbative
        scen = pdc_scenario(ds, di, g)
    return scen, ds


def test_criterion_2_linear_response():
    """Quadrature p within 5% of zeta*Ibar_s; MC agrees with quadrature (3 SE)."""
    scen, det = _linear_pdc_scenario()
    signal = scen.signal_means[0]
    assert signal == pytest.approx(10.0 * det.sigma0, rel=1e-10)
    assert det.zeta * signal == pytest.approx(1e-2, rel=1e-10)
    p_quad = p_single(rho_signal(det, signal), det)
    rel_err = abs(p_quad / (det.zeta * signal) - 1.0)
    res = mc_detect(scen, 100_000, seed=202)
    est = res.singles["signal"]
    mc_z = abs(est.value - p_quad) / est.stderr
    ok = rel_err <= 0.05 and mc_z < 3.0
    record_criterion("2 linear response", ok,
                     f"|p/zeta*Is - 1| = {rel_err:.3%}, MC-quadrature {mc_z:.2f} SE")


def test_criterion_3_dark_counts():
    """p_dark <= 2.87e-7 at I_m = I0 + 5 sigma0 and monotone decreasing in I_m."""
    probs = [p_single(rho_signal(detector(threshold_sigma=s, zeta_sigma=1.0), 0.0),
                      detector(threshold_sigma=s, zeta_sigma=1.0))
             for s in (5.0, 6.0, 7.0, 8.0)]
    ok = probs[0] <= 2.87e-7 and all(a > b for a, b in zip(probs, probs[1:]))
    record_criterion("3 dark counts", ok,
                     f"p_dark(5 sigma) = {probs[0]:.3g} <= 2.87e-7, "
                     f"monotone over 5..8 sigma")


def test_criterion_4_saturation():
    """p >= 0.99 for zeta * Ibar_s = 100 with a feasible threshold."""
    det = detector(threshold_sigma=3.0, zeta_sigma=10.0)
    signal = 10.0 * det.sigma0                       # zeta * Ibar_s = 100
    assert tradeoff_report(det, signal).feasible
    p = p_single(rho_signal(det, signal), det)
    record_criterion("4 saturation", p >= 0.99, f"p = {p:.8f} >= 0.99")


def test_criterion_5_tradeoff_theorem(small_detector):
    """Feasible region empty iff Ibar_s < 2k sigma0 (k = 3)."""
    s0 = small_detector.sigma0
    ok = True
    for factor in (0.0, 1.0, 3.0, 5.0, 5.99):
        rep = tradeoff_report(small_detector, factor * s0)
        ok = ok and not rep.feasible and rep.interval is None
    for factor in (6.01, 8.0, 20.0, 1000.0):
        rep = tradeoff_report(small_detector, factor * s0)
        lo, hi = rep.interval
        ok = ok and rep.feasible and lo <= hi
    record_criterion("5 trade-off theorem", ok,
                     "empty below 6 sigma0, non-empty above, k = 3")


def test_criterion_6_rate_bound():
    """Typical-parameter bound in [1e4, 1e7]; documented set in [1e5, 1e6]."""
    # centimeter-scale optics, 1 ps coherence, 10 ns window
    broad = min_rate_bound(eta=0.1, focal=5e-3, crystal_radius=1e-3, length=5e-3,
                           distance=1.0, wavelength=8e-7, tau=1e-12, window=1e-8)
    # documented set landing inside [1e5, 1e6]: smaller crystal radius
    narrow = min_rate_bound(eta=0.1, focal=5e-3, crystal_radius=5e-4, length=5e-3,
                            distance=1.0, wavelength=8e-7, tau=1e-12, window=1e-8)
    ok = 1e4 <= broad <= 1e7 and 1e5 <= narrow <= 1e6
    record_criterion("6 rate bound", ok,
                     f"broad {broad:.3g} in [1e4, 1e7], narrow {narrow:.3g} in [1e5, 1e6]")


SETTINGS_CANONICAL = ((0.0, math.pi / 8), (0.0, 3 * math.pi / 8),
                      (math.pi / 4, math.pi / 8), (math.pi / 4, 3 * math.pi / 8))


def test_criterion_7_chsh_bound():
    """|S| <= 2 + 3 SE across >= 100 randomized configurations."""
    rng = np.random.default_rng(777)
    n_configs = 100
    worst = -math.inf
    ok = True
    for trial in range(n_configs):
        g = float(rng.uniform(0.0, 0.45))
        threshold_sigma = float(rng.uniform(0.3, 2.0))
        zeta_sigma = float(10.0 ** rng.uniform(-3.0, 0.0))
        kw = dict(n_cells=4, threshold_sigma=threshold_sigma, zeta_sigma=zeta_sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scen = chsh_scenario(
                detector(omega_center=1.25, **kw), detector(omega_center=0.75, **kw), g)
        if rng.uniform() < 0.5:
            settings = SETTINGS_CANONICAL
        else:
            settings = tuple((float(a), float(b))
                             for a, b in rng.uniform(0.0, 2.0 * math.pi, size=(4, 2)))
        res = chsh_scan(scen, settings, trials=4000, seed=1000 + trial)
        slack = abs(res.s_value) - (2.0 + 3.0 * res.s_stderr)
        worst = max(worst, abs(res.s_value))
        if slack > 1e-9:
            ok = False
    record_criterion("7 CHSH bound", ok,
                     f"max |S| = {worst:.4f} over {n_configs} configs, "
                     "all within 2 + 3 SE")


def test_criterion_8_boundedness_contrast():
    """q_standard leaves [0, 1] on vacuum samples; q_model never does."""
    det = detector(threshold_sigma=1.0, zeta_sigma=3.0)
    scen = vacuum_scenario([det], ["d"])
    samples = mc_intensity_samples(scen, 20_000, seed=404)["d"]
    qs = q_standard(samples, det)
    qm = q_model(samples, det)
    ok = (np.any(qs < 0.0) and np.any(qs > 1.0)
          and np.all((qm >= 0.0) & (qm < 1.0)))
    record_criterion("8 boundedness contrast", ok,
                     f"q_standard range [{qs.min():.2f}, {qs.max():.2f}], "
                     f"q_model range [{qm.min():.3f}, {qm.max():.3f}]")


def test_criterion_9_pdc_moments():
    """MC moments match g(1+g^2/2) and g^2+g^4/8 within 3 SE at g in {0.05, 0.1, 0.2}."""
    n = 200_000
    amps = draw_rows(sample_vacuum_batch, 2, 909, n)
    ok = True
    details = []
    for g in (0.05, 0.1, 0.2):
        out = pdc_transform(amps, (0, 1), g)
        prod = out[:, 0] * out[:, 1]
        z_corr = abs(np.mean(prod) - pair_correlation(g)) / (np.std(prod) / math.sqrt(n))
        occ = np.abs(out[:, 0]) ** 2
        z_occ = abs(np.mean(occ) - 0.5 - excess_photon_fraction(g)) / (
            np.std(occ) / math.sqrt(n))
        ok = ok and z_corr < 3.0 and z_occ < 3.0
        details.append(f"g={g}: {z_corr:.2f}/{z_occ:.2f} SE")
    record_criterion("9 PDC moments", ok, ", ".join(details))


def test_criterion_10_determinism(tmp_path):
    """Identical config+seed give byte-identical outputs, for 1 and 4 workers."""
    cfg = {
        "scenario": {"kind": "pdc", "g": 0.1},
        "detectors": [
            {"name": "signal", "omega_center": 1.25, "window": WINDOW_1K,
             "n_cells": 16, "threshold_sigma": 2.0, "zeta_sigma": 0.5},
            {"name": "idler", "omega_center": 0.75, "window": WINDOW_1K,
             "n_cells": 16, "threshold_sigma": 2.0, "zeta_sigma": 0.5},
        ],
        "run": {"trials": 5000, "seed": 42},
        "sweeps": {"scenario.g": [0.05, 0.1]},
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))

    def run_cli(tag, workers, fmt):
        out = tmp_path / f"{tag}.{fmt}"
        env = dict(os.environ, ZPFSIM_WORKERS=str(workers))
        subprocess.run(
            [sys.executable, "-m", "zpfsim.cli", "run", "--config", str(cfg_path),
             "--out", str(out), "--format", fmt],
            check=True, env=env, capture_output=True)
        return out.read_bytes()

    j1 = run_cli("a", 1, "json")
    j2 = run_cli("b", 1, "json")
    j4 = run_cli("c", 4, "json")
    c1 = run_cli("d", 1, "csv")
    c4 = run_cli("e", 4, "csv")
    ok = j1 == j2 == j4 and c1 == c4
    digest = json.loads(j1)["config_digest"][:12]
    record_criterion("10 determinism", ok,
                     f"json and csv byte-identical across repeats and workers "
                     f"{{1, 4}} (digest {digest})")
