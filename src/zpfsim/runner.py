"""Batch execution of configured experiments and result emission.

``run`` walks the sweep grid, executes the analytic and/or Monte Carlo
paths per point and assembles a RunRecord whose JSON payload is
byte-identical for identical (config, seed) regardless of worker count.
A CHSH point runs ``analysis.chsh_variants``' five variants in one pass:
variant 0 gives the detector statistics and variants 1-4 the CHSH block.
"""

from __future__ import annotations

import copy
import csv
import json
from dataclasses import dataclass

from . import __version__
from .analysis import chsh_summary, chsh_variants, classify_regime, tradeoff_report
from .config import ConfigError, ExperimentConfig, config_digest, sweep_points
from .detection import BivariateIntensityDist, p_joint, p_single, rho_signal
from .engine import default_workers, detection_summary, mc_detect, run_variants
from .field import RNG_STREAM
from .scenarios import Scenario, chsh_scenario, pdc_scenario, vacuum_scenario

__all__ = ["RunRecord", "run", "validate_points", "emit"]

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class RunRecord:
    """Machine-readable outcome of one batch run."""

    config_digest: str
    points: tuple
    tool_version: str = __version__
    schema_version: int = SCHEMA_VERSION
    rng: str = RNG_STREAM

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
            "rng": self.rng,
            "config_digest": self.config_digest,
            "points": list(self.points),
        }


def _build_scenario(data: dict, specs: list) -> Scenario:
    kind = data["scenario"]["kind"]
    g = data["scenario"]["g"]
    names = [d["name"] for d in data["detectors"]]
    if kind == "vacuum":
        return vacuum_scenario(specs, names, data["scenario"]["n_modes"])
    if kind == "pdc":
        return pdc_scenario(specs[0], specs[1], g, (names[0], names[1]))
    return chsh_scenario(specs[0], specs[1], g)


def validate_points(config: ExperimentConfig) -> list:
    """(overrides, point data, Scenario) of every sweep point, as ``run`` computes them.

    Raises ConfigError naming the first point that fails its checks
    (``config.sweep_points``) or whose scenario cannot be built.
    """
    built = []
    for overrides, point_data, specs in sweep_points(config.data):
        try:
            built.append((overrides, point_data, _build_scenario(point_data, specs)))
        except ValueError as exc:
            raise ConfigError(f"sweep point {overrides or '(base)'}: cannot build scenario: "
                              f"{exc}") from exc
    return built


def _point_result(data: dict, scen: Scenario, workers: int | None) -> dict:
    mode, trials, seed = data["run"]["mode"], data["run"]["trials"], data["run"]["seed"]
    kind = data["scenario"]["kind"]
    want_analytic = mode in ("analytic", "both")

    mc = chsh = None
    if mode != "analytic" and kind == "chsh":
        settings, variants = chsh_variants(scen, data["chsh"]["settings"])
        sums = run_variants(scen, variants, trials, seed, workers)
        mc, chsh = detection_summary(scen, sums), chsh_summary(settings, sums)
    elif mode != "analytic":
        mc = mc_detect(scen, trials, seed, workers)

    detectors = {}
    for name, det, signal_mean in zip(scen.detector_names, scen.detector_specs,
                                      scen.signal_means):
        regime = classify_regime(signal_mean, det)
        trade = tradeoff_report(det, signal_mean)
        entry = {
            "I0": det.I0,
            "sigma0": det.sigma0,
            "zeta": det.zeta,
            "threshold": det.threshold,
            "signal_mean": signal_mean,
            "regime": regime.regime,
            "dark_margin_sigma": regime.checks[1][2],
            "linearity_margin_sigma": regime.checks[2][2],
            "tradeoff_feasible": trade.feasible,
            "tradeoff_interval": list(trade.interval) if trade.interval else None,
        }
        if want_analytic:
            entry["p_analytic"] = p_single(rho_signal(det, signal_mean), det)
        if mc is not None:
            entry["p_mc"] = mc.singles[name].value
            entry["p_mc_stderr"] = mc.singles[name].stderr
            entry["intensity_mean_mc"] = mc.intensity_mean[name].value
            entry["intensity_mean_stderr"] = mc.intensity_mean[name].stderr
            entry["intensity_std_mc"] = mc.intensity_std[name]
        detectors[name] = entry

    coincidences = {}
    for a, b in scen.coincidences:
        na, nb = scen.detector_names[a], scen.detector_names[b]
        key = f"{na}&{nb}"
        entry = {}
        corr = data["analytic"]["corr"]
        if mc is not None:
            est = mc.coincidences[(na, nb)]
            entry["p_mc"] = est.value
            entry["p_mc_stderr"] = est.stderr
            entry["corr_mc"] = mc.intensity_corr[(na, nb)]
            if corr is None:
                corr = mc.intensity_corr[(na, nb)]
        if want_analytic:
            da, db = scen.detector_specs[a], scen.detector_specs[b]
            dist = BivariateIntensityDist(
                rho_signal(da, scen.signal_means[a]),
                rho_signal(db, scen.signal_means[b]),
                0.0 if corr is None else max(-1.0, min(1.0, corr)),
            )
            entry["p_analytic"] = p_joint(dist, da, db)
            entry["corr_used"] = dist.corr
        coincidences[key] = entry

    point = {"detectors": detectors, "coincidences": coincidences}
    if chsh is not None:
        point["chsh"] = {
            "settings": [list(s) for s in chsh.settings],
            "correlations": list(chsh.correlations),
            "correlation_stderr": list(chsh.correlation_stderr),
            "S": chsh.s_value,
            "S_stderr": chsh.s_stderr,
        }
    return point


def run(config: ExperimentConfig, trials: int | None = None, seed: int | None = None,
        workers: int | None = None) -> RunRecord:
    """Execute every sweep point; deterministic for fixed (config, seed).

    Every point is validated (``validate_points``) and the worker count read
    (``default_workers`` unless given) before the first one is computed: an
    invalid point or ZPFSIM_WORKERS raises ConfigError, a failing point
    RuntimeError.
    """
    if workers is None:
        try:
            workers = default_workers()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    data = copy.deepcopy(config.data)
    if trials is not None:
        data["run"]["trials"] = trials
    if seed is not None:
        data["run"]["seed"] = seed
    points = []
    for overrides, point_data, scen in validate_points(ExperimentConfig(data)):
        try:
            result = _point_result(point_data, scen, workers)
        except Exception as exc:
            raise RuntimeError(f"sweep point {overrides or '(base)'} failed: {exc}") from exc
        result["overrides"] = overrides
        points.append(result)
    return RunRecord(config_digest=config_digest(data), points=tuple(points))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _flatten(node, prefix: str, out: dict) -> None:
    if isinstance(node, dict):
        for key in sorted(node):
            _flatten(node[key], f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(node, list):
        for idx, item in enumerate(node):
            _flatten(item, f"{prefix}.{idx}", out)
    else:
        out[prefix] = node


def _format_cell(value) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit(record: RunRecord, fmt: str, path) -> None:
    """Write the record as schema-versioned JSON or flat CSV (17 digits)."""
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(record.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        return
    if fmt != "csv":
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    rows = []
    for point in record.points:
        flat: dict = {}
        _flatten(point, "", flat)
        rows.append(flat)
    columns = sorted(set().union(*[row.keys() for row in rows])) if rows else []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(col)) for col in columns])
