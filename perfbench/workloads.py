"""The benchmark's workloads: config generation from (name, seed) and output checks.

Each workload drives one of zpfsim's computational paths, so that each layer
dominates somewhere and is idle somewhere else:

- vacuum-wide: a wide vacuum detector whose dense response-matrix build
  (O(N^2) in the cell count) dominates set-up and run time.
- pdc-linear: the criterion-2 linear-response PDC, where the crystal map,
  vacuum sampling and the effective intensity share the Monte Carlo time.
- chsh-sweep: a 4-cell CHSH sweep, bound by per-trial generator set-up in
  vacuum sampling (every trial is sampled twice) and the rotator variants.
- analytic-grid: an 8-point analytic parameter scan with no Monte Carlo,
  bound by the p_joint quadrature.

The seed goes into ``run.seed``; the program receives only the generated YAML.
"""

from __future__ import annotations

import math

WINDOW_1K = 2.0 * math.pi * 1000.0

# Ibar_s = 10 sigma0 at 1024 cells: solve x + x^2/8 = 10 / (2 sqrt(1024)), g = sqrt(x)
_EXCESS = 10.0 / (2.0 * math.sqrt(1024))
G_LINEAR = math.sqrt((-8.0 + math.sqrt(64.0 + 32.0 * _EXCESS)) / 2.0)

WHY = {
    "vacuum-wide": "one 2048-cell vacuum detector with a 2pi*1e5 window: the dense "
                   "O(N^2) detection.response_matrix build dominates set-up and run time",
    "pdc-linear": "criterion-2 PDC at 1024 cells: pdc_transform, vacuum sampling and "
                  "intensity_batch share the Monte Carlo, plus one p_joint",
    "chsh-sweep": "6-point CHSH sweep at 4 cells: per-trial generator set-up in "
                  "sample_vacuum_batch dominates and every trial is sampled twice",
    "analytic-grid": "8-point analytic PDC scan with no Monte Carlo: the p_joint "
                     "quadrature and per-point runner work dominate",
}

TRIALS = {"vacuum-wide": 4096, "pdc-linear": 4096, "chsh-sweep": 2048, "analytic-grid": 1}


def _detector(name, omega_center, window, n_cells, threshold_sigma, zeta_sigma):
    return {"name": name, "omega_center": omega_center, "window": window,
            "n_cells": n_cells, "threshold_sigma": threshold_sigma, "zeta_sigma": zeta_sigma}


def make_config(name: str, seed: int) -> dict:
    """The YAML mapping of workload ``name`` with ``run.seed`` = ``seed``."""
    run = {"trials": TRIALS[name], "seed": seed}
    if name == "vacuum-wide":
        return {
            "scenario": {"kind": "vacuum"},
            "detectors": [_detector("d0", 1.0, 2.0 * math.pi * 1e5, 2048, 5.0, 0.01)],
            "run": {**run, "mode": "both"},
        }
    if name == "pdc-linear":
        return {
            "scenario": {"kind": "pdc", "g": G_LINEAR},
            "detectors": [_detector("signal", 8.0, WINDOW_1K, 1024, 3.0, 1e-3),
                          _detector("idler", 2.0, WINDOW_1K, 1024, 3.0, 1e-3)],
            "run": {**run, "mode": "both"},
        }
    if name == "chsh-sweep":
        return {
            "scenario": {"kind": "chsh", "g": 0.05},
            "detectors": [_detector("s1", 1.25, WINDOW_1K, 4, 1.0, 0.1),
                          _detector("s2", 0.75, WINDOW_1K, 4, 1.0, 0.1)],
            "run": {**run, "mode": "mc"},
            "sweeps": {"scenario.g": [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]},
        }
    if name == "analytic-grid":
        return {
            "scenario": {"kind": "pdc", "g": 0.1},
            "detectors": [_detector("signal", 1.25, WINDOW_1K, 16, 2.0, 0.5),
                          _detector("idler", 0.75, WINDOW_1K, 16, 2.0, 0.5)],
            "run": {**run, "mode": "analytic"},
            "sweeps": {"scenario.g": [0.1, 0.25],
                       "detectors.0.threshold_sigma": [1.0, 3.0],
                       "analytic.corr": [0.0, 0.6]},
        }
    raise ValueError(f"unknown workload {name!r}")


def runs_mc(cfg: dict) -> bool:
    return cfg["run"]["mode"] != "analytic" or cfg["scenario"]["kind"] == "chsh"


def _common_problems(out: dict, cfg: dict) -> list[str]:
    problems = []
    expected = math.prod(len(v) for v in (cfg.get("sweeps") or {}).values())
    if len(out["points"]) != expected:
        problems.append(f"{len(out['points'])} points, sweep has {expected}")
    if not out.get("config_digest"):
        problems.append("config_digest missing")
    for k, point in enumerate(out["points"]):
        dets = point["detectors"]
        for dname, det in dets.items():
            for key in ("p_mc", "p_analytic"):
                if key in det and not 0.0 <= det[key] < 1.0:
                    problems.append(f"point {k} {dname} {key} = {det[key]} outside [0, 1)")
        for cname, coinc in point["coincidences"].items():
            a, b = cname.split("&")
            for key in ("p_mc", "p_analytic"):
                if key not in coinc:
                    continue
                if not 0.0 <= coinc[key] < 1.0:
                    problems.append(f"point {k} {cname} {key} = {coinc[key]} outside [0, 1)")
                bound = min(dets[a].get(key, 1.0), dets[b].get(key, 1.0))
                if coinc[key] > bound:
                    problems.append(f"point {k} {cname} {key} = {coinc[key]} > single {bound}")
    return problems


def _workload_problems(name: str, out: dict) -> list[str]:
    problems = []
    points = out["points"]
    if name == "vacuum-wide":
        for det in points[0]["detectors"].values():
            z = abs(det["intensity_mean_mc"] - det["I0"]) / det["intensity_mean_stderr"]
            if z > 4.0:
                problems.append(f"intensity mean {z:.2f} SE from I0")
            rel = abs(det["intensity_std_mc"] / det["sigma0"] - 1.0)
            if rel > 0.05:
                problems.append(f"intensity std {rel:.2%} from sigma0")
    elif name == "pdc-linear":
        sig = points[0]["detectors"]["signal"]
        z = abs(sig["p_mc"] - sig["p_analytic"]) / sig["p_mc_stderr"]
        if z > 4.0:
            problems.append(f"signal p_mc {z:.2f} SE from p_analytic")
    elif name == "chsh-sweep":
        for k, point in enumerate(points):
            chsh = point["chsh"]
            if abs(chsh["S"]) > 2.0 + 3.0 * chsh["S_stderr"]:
                problems.append(f"point {k}: |S| = {abs(chsh['S'])} above 2 + 3 SE")
    elif name == "analytic-grid":
        by_line = {}
        for point in points:
            ov = point["overrides"]
            line = (ov["scenario.g"], ov["analytic.corr"])
            by_line.setdefault(line, []).append(
                (ov["detectors.0.threshold_sigma"], point["detectors"]["signal"]["p_analytic"]))
        for line, values in by_line.items():
            probs = [p for _, p in sorted(values)]
            if any(later > earlier for earlier, later in zip(probs, probs[1:])):
                problems.append(f"signal p_analytic rises with threshold at g, corr = {line}")
    return problems


def check_output(name: str, out: dict, cfg: dict) -> list[str]:
    """Problems found in one run's JSON output; empty when it passes."""
    try:
        return _common_problems(out, cfg) + _workload_problems(name, out)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed output: {exc!r}"]
