"""Declarative experiment configuration: YAML schema, validation, digest.

The schema is strict: unknown keys are errors, because physics configs are
easy to silently typo. ``load_config`` fills documented defaults and keeps
a record of every default it applied.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field

import yaml

from .scenarios import make_matched_detector

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config", "config_digest"]

# canonical CHSH analyzer settings (a, b), (a, b'), (a', b), (a', b')
_DEFAULT_CHSH_SETTINGS = [
    [0.0, math.pi / 8], [0.0, 3 * math.pi / 8],
    [math.pi / 4, math.pi / 8], [math.pi / 4, 3 * math.pi / 8],
]

_TOP_KEYS = {"units", "scenario", "detectors", "run", "sweeps", "chsh", "analytic"}
_SCENARIO_KEYS = {"kind", "g", "n_modes"}
_DETECTOR_KEYS = {"name", "omega_center", "window", "n_cells", "length", "radius",
                  "eta", "zeta", "zeta_sigma", "threshold_sigma", "threshold", "axis"}
_RUN_KEYS = {"trials", "seed", "mode"}
_CHSH_KEYS = {"settings"}
_ANALYTIC_KEYS = {"corr"}


class ConfigError(ValueError):
    """Configuration parse or validation failure."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, default-filled experiment description."""

    data: dict
    defaults_applied: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return config_digest(self.data)

    def detector_specs(self):
        """Build the DetectorSpec list; raises ConfigError on bad physics."""
        specs = []
        for dcfg in self.data["detectors"]:
            kwargs = dict(
                omega_center=dcfg["omega_center"],
                window=dcfg["window"],
                n_cells=dcfg["n_cells"],
                length=dcfg["length"],
                radius=dcfg["radius"],
                eta=dcfg["eta"],
                zeta=dcfg["zeta"],
                zeta_sigma=dcfg["zeta_sigma"],
                axis=tuple(dcfg["axis"]),
            )
            if dcfg["threshold_sigma"] is not None:
                kwargs["threshold_sigma"] = dcfg["threshold_sigma"]
            else:
                kwargs["threshold"] = dcfg["threshold"]
            try:
                specs.append(make_matched_detector(**kwargs))
            except ValueError as exc:
                raise ConfigError(f"detector {dcfg['name']!r}: {exc}") from exc
        return specs


def config_digest(data: dict) -> str:
    """Content hash of the semantic config; stable under key reordering."""
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _require_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _default(section: dict, key: str, value, defaults: dict, where: str):
    if key not in section or section[key] is None:
        section[key] = value
        defaults[f"{where}.{key}"] = value
    return section[key]


def _check_number(value, name: str, positive: bool = False):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")


def check_point(data: dict) -> None:
    """Checks run on the base config and on every sweep point.

    Seeds key a SeedSequence, which takes only non-negative integers;
    ``scenario.n_modes`` is read only by the vacuum builder. An analytic-only
    PDC run has no Monte Carlo estimate of the signal-idler correlation, so
    it needs ``analytic.corr``; a base config whose sweep sets it is exempt,
    since no point runs with the base value.
    """
    seed = data["run"]["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"run.seed must be a non-negative integer, got {seed!r}")
    kind = data["scenario"]["kind"]
    if kind != "vacuum" and data["scenario"]["n_modes"] is not None:
        raise ConfigError(f"scenario.n_modes applies only to kind 'vacuum', not {kind!r}")
    if (kind == "pdc" and data["run"]["mode"] == "analytic"
            and data["analytic"]["corr"] is None and "analytic.corr" not in data["sweeps"]):
        raise ConfigError("kind 'pdc' with run.mode 'analytic' requires analytic.corr "
                          "(there is no Monte Carlo correlation to fall back on)")


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed mapping and fill defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    data = copy.deepcopy(raw)
    defaults: dict = {}
    _require_keys(data, _TOP_KEYS, "config root")
    _default(data, "units", "dimensionless", defaults, "")
    if data["units"] != "dimensionless":
        raise ConfigError(
            f"units must be 'dimensionless', got {data['units']!r}; the simulator works "
            "in hbar = c = eps0 = 1 units (for SI inputs use `zpfsim rate-bound`)")

    scenario = data.get("scenario")
    if not isinstance(scenario, dict):
        raise ConfigError("config requires a 'scenario' mapping")
    _require_keys(scenario, _SCENARIO_KEYS, "scenario")
    kind = scenario.get("kind")
    if kind not in ("vacuum", "pdc", "chsh"):
        raise ConfigError(f"scenario.kind must be vacuum, pdc or chsh, got {kind!r}")
    _default(scenario, "g", 0.0, defaults, "scenario")
    _check_number(scenario["g"], "scenario.g")
    if scenario["g"] < 0:
        raise ConfigError("scenario.g must be non-negative")
    _default(scenario, "n_modes", None, defaults, "scenario")

    detectors = data.get("detectors")
    if not isinstance(detectors, list) or not detectors:
        raise ConfigError("config requires a non-empty 'detectors' list")
    if kind in ("pdc", "chsh") and len(detectors) != 2:
        raise ConfigError(f"scenario kind {kind!r} requires exactly 2 detectors")
    names = set()
    for idx, det in enumerate(detectors):
        where = f"detectors[{idx}]"
        if not isinstance(det, dict):
            raise ConfigError(f"{where} must be a mapping")
        _require_keys(det, _DETECTOR_KEYS, where)
        _default(det, "name", f"d{idx}", defaults, where)
        if det["name"] in names:
            raise ConfigError(f"duplicate detector name {det['name']!r}")
        names.add(det["name"])
        for key in ("omega_center", "window"):
            if key not in det:
                raise ConfigError(f"{where} requires {key}")
            _check_number(det[key], f"{where}.{key}", positive=True)
        if "n_cells" not in det:
            raise ConfigError(f"{where} requires n_cells")
        if not isinstance(det["n_cells"], int) or det["n_cells"] < 1:
            raise ConfigError(f"{where}.n_cells must be a positive integer")
        _default(det, "length", 1.0, defaults, where)
        _default(det, "radius", 1.0, defaults, where)
        _default(det, "eta", 1.0, defaults, where)
        _default(det, "zeta", None, defaults, where)
        _default(det, "zeta_sigma", None, defaults, where)
        _default(det, "axis", [0.0, 0.0, 1.0], defaults, where)
        _default(det, "threshold", None, defaults, where)
        _default(det, "threshold_sigma", None, defaults, where)
        if (det["threshold"] is None) == (det["threshold_sigma"] is None):
            raise ConfigError(f"{where}: give exactly one of threshold and threshold_sigma")
        if det["zeta"] is not None and det["zeta_sigma"] is not None:
            raise ConfigError(f"{where}: give at most one of zeta and zeta_sigma")

    run = _default(data, "run", {}, defaults, "")
    if not isinstance(run, dict):
        raise ConfigError("'run' must be a mapping")
    _require_keys(run, _RUN_KEYS, "run")
    _default(run, "trials", 10000, defaults, "run")
    _default(run, "seed", 0, defaults, "run")
    _default(run, "mode", "both", defaults, "run")
    if not isinstance(run["trials"], int) or run["trials"] < 1:
        raise ConfigError("run.trials must be a positive integer")
    if run["mode"] not in ("mc", "analytic", "both"):
        raise ConfigError(f"run.mode must be mc, analytic or both, got {run['mode']!r}")

    chsh = _default(data, "chsh", {}, defaults, "")
    if not isinstance(chsh, dict):
        raise ConfigError("'chsh' must be a mapping")
    _require_keys(chsh, _CHSH_KEYS, "chsh")
    _default(chsh, "settings", copy.deepcopy(_DEFAULT_CHSH_SETTINGS), defaults, "chsh")
    settings = chsh["settings"]
    if (not isinstance(settings, list) or len(settings) != 4
            or any(len(pair) != 2 for pair in settings)):
        raise ConfigError("chsh.settings must be four [angle1, angle2] pairs")

    analytic = _default(data, "analytic", {}, defaults, "")
    if not isinstance(analytic, dict):
        raise ConfigError("'analytic' must be a mapping")
    _require_keys(analytic, _ANALYTIC_KEYS, "analytic")
    _default(analytic, "corr", None, defaults, "analytic")
    if analytic["corr"] is not None:
        _check_number(analytic["corr"], "analytic.corr")
        if not -1.0 <= analytic["corr"] <= 1.0:
            raise ConfigError("analytic.corr must lie in [-1, 1]")

    sweeps = _default(data, "sweeps", {}, defaults, "")
    if not isinstance(sweeps, dict):
        raise ConfigError("'sweeps' must be a mapping of dotted paths to value lists")
    for path, values in sweeps.items():
        if not isinstance(values, list):
            raise ConfigError(f"sweep axis {path!r} must be a list of values")
        probe = copy.deepcopy(data)
        for value in values:
            set_by_path(probe, path, value)   # raises ConfigError on a bad path

    check_point(data)
    cfg = ExperimentConfig(data, defaults)
    cfg.detector_specs()   # physics validation (e.g. the I_m > I0 requirement)
    return cfg


def set_by_path(data: dict, path: str, value) -> None:
    """Assign ``value`` at a dotted path like ``detectors.0.threshold_sigma``."""
    parts = path.split(".")
    node = data
    try:
        for part in parts[:-1]:
            node = node[int(part)] if isinstance(node, list) else node[part]
        leaf = parts[-1]
        if isinstance(node, list):
            node[int(leaf)] = value
        else:
            if leaf not in node:
                raise KeyError(leaf)
            node[leaf] = value
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"sweep path {path!r} does not address a config field") from exc


def load_config(path) -> ExperimentConfig:
    """Read, parse and validate a YAML config file."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"cannot parse {path}{loc}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if raw is None:
        raise ConfigError(f"{path} is empty")
    return parse_config(raw)
