"""Batch execution of configured experiments and result emission.

``run`` walks the config's resolved sweep points (``ExperimentConfig.points``,
each checked and built once by ``config``), executes the analytic and/or
Monte Carlo paths per point and returns the record dict, whose JSON is
byte-identical for identical (config, seed) regardless of worker count.
A point's entries merge the analytic fields with the Monte Carlo fields
that ``engine.mc_detect`` returns. A CHSH point runs the plain run and its
four analyzer settings in one ``engine.run_variants`` pass: variant 0 gives
the detector fields and variants 1-4 the ``chsh`` block (``chsh_summary``).
"""

from __future__ import annotations

import copy
import csv
import json

from . import __version__
from .analysis import chsh_summary, classify_regime, tradeoff_report
from .config import ConfigError, ExperimentConfig
from .detection import p_joint, p_single
from .engine import default_workers, detection_summary, mc_detect, run_variants
from .field import RNG_STREAM
from .scenarios import Scenario

__all__ = ["run", "emit"]

SCHEMA_VERSION = 2


def _point_result(data: dict, scen: Scenario, workers: int | None) -> dict:
    mode, trials, seed = data["run"]["mode"], data["run"]["trials"], data["run"]["seed"]
    kind = data["scenario"]["kind"]
    want_analytic = mode in ("analytic", "both")

    mc_detectors, mc_pairs, chsh = {}, {}, None
    if mode != "analytic" and kind == "chsh":
        settings = data["chsh"]["settings"]
        sums = run_variants(scen, settings, trials, seed, workers)
        (mc_detectors, mc_pairs), chsh = detection_summary(scen, sums), chsh_summary(settings, sums)
    elif mode != "analytic":
        mc_detectors, mc_pairs = mc_detect(scen, trials, seed, workers)

    detectors = {}
    for name, det, signal_mean in zip(scen.detector_names, scen.detector_specs,
                                      scen.signal_means):
        regime, dark_margin, linearity_margin = classify_regime(det, signal_mean)
        interval = tradeoff_report(det, signal_mean)
        entry = {
            "I0": det.I0,
            "sigma0": det.sigma0,
            "zeta": det.zeta,
            "threshold": det.threshold,
            "signal_mean": signal_mean,
            "regime": regime,
            "dark_margin_sigma": dark_margin,
            "linearity_margin_sigma": linearity_margin,
            "tradeoff_feasible": interval is not None,
            "tradeoff_interval": list(interval) if interval else None,
        }
        if want_analytic:
            entry["p_analytic"] = p_single(det, det.I0 + signal_mean)
        entry.update(mc_detectors.get(name, {}))
        detectors[name] = entry

    coincidences = {}
    for a, b in scen.coincidences:
        na, nb = scen.detector_names[a], scen.detector_names[b]
        entry = mc_pairs.get((na, nb), {})
        # a vacuum pair's beams are independent: its correlation is 0 in every mode
        corr = 0.0 if kind == "vacuum" else data["analytic"]["corr"]
        if corr is None:
            corr = entry.get("corr_mc")
        if want_analytic:
            da, db = scen.detector_specs[a], scen.detector_specs[b]
            corr = max(-1.0, min(1.0, corr))
            entry["p_analytic"] = p_joint(da, db, da.I0 + scen.signal_means[a],
                                          db.I0 + scen.signal_means[b], corr)
            entry["corr_used"] = corr
        coincidences[f"{na}&{nb}"] = entry

    point = {"detectors": detectors, "coincidences": coincidences}
    if chsh is not None:
        point["chsh"] = chsh
    return point


def run(config: ExperimentConfig, trials: int | None = None, seed: int | None = None,
        workers: int | None = None) -> dict:
    """The record of every sweep point; deterministic for fixed (config, seed).

    A ``trials`` or ``seed`` override makes a new config, whose points are
    resolved afresh. Every point is resolved (``ExperimentConfig.points``)
    and the worker count read (``default_workers`` unless given) before the
    first one is computed: an invalid point or ZPFSIM_WORKERS raises
    ConfigError, a failing point RuntimeError.
    """
    if workers is None:
        try:
            workers = default_workers()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if trials is not None or seed is not None:
        data = copy.deepcopy(config.data)
        data["run"].update({key: value for key, value in (("trials", trials), ("seed", seed))
                            if value is not None})
        config = ExperimentConfig(data)
    points = []
    for overrides, point_data, scen in config.points:
        try:
            result = _point_result(point_data, scen, workers)
        except Exception as exc:
            raise RuntimeError(f"sweep point {overrides or '(base)'} failed: {exc}") from exc
        result["overrides"] = overrides
        points.append(result)
    return {"schema_version": SCHEMA_VERSION, "tool_version": __version__, "rng": RNG_STREAM,
            "config_digest": config.digest, "points": points}


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


def emit(record: dict, fmt: str, path) -> None:
    """Write ``run``'s record as schema-versioned JSON or flat CSV (17 digits).

    A CSV row is one point plus the record's digest, rng, schema and tool
    version; a field that its point lacks is an empty cell, a null is ``None``."""
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(record, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return
    if fmt != "csv":
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    meta = {key: value for key, value in record.items() if key != "points"}
    rows = []
    for point in record["points"]:
        flat = dict(meta)
        _flatten(point, "", flat)
        rows.append(flat)
    columns = sorted(set().union(*[row.keys() for row in rows])) if rows else []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[col]) if col in row else "" for col in columns])
