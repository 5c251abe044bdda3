"""Declarative experiment configuration: YAML schema, validation, digest.

The schema is strict: unknown keys are errors, because physics configs are
easy to silently typo, and so are repeated YAML keys. ``_SCHEMA`` is the
one table of keys, defaults and value checks. ``load_config`` fills
documented defaults, records them, and checks and builds every sweep point
once (``sweep_points``): a base value that a sweep overrides is never checked.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import yaml

from .scenarios import Scenario, chsh_scenario, make_matched_detector, pdc_scenario, vacuum_scenario

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config", "config_digest"]


class ConfigError(ValueError):
    """Configuration parse or validation failure."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _numbers(n: int):
    return lambda v: isinstance(v, (list, tuple)) and len(v) == n and all(map(_is_number, v))


_REQUIRED = object()   # default of a key the config must give
_NUMBER = ("a number", _is_number)
_POSITIVE = ("a positive number", lambda v: _is_number(v) and v > 0)
_COUNT = ("a positive integer", lambda v: _is_int(v) and v >= 1)

# canonical CHSH analyzer settings (a, b), (a, b'), (a', b), (a', b')
_DEFAULT_CHSH_SETTINGS = [
    [0.0, math.pi / 8], [0.0, 3 * math.pi / 8],
    [math.pi / 4, math.pi / 8], [math.pi / 4, 3 * math.pi / 8],
]

# section -> key -> (default, what a valid value is, check). Section "" holds
# the top-level keys and "detectors" every list entry. A key given as null
# takes its default; a None default also admits None; a callable default is
# called with the section's dotted prefix.
_SCHEMA = {
    "": {
        "units": ("dimensionless", "'dimensionless' (hbar = c = eps0 = 1; for SI inputs "
                  "use `zpfsim rate-bound`)", lambda v: v == "dimensionless"),
    },
    "scenario": {
        "kind": (_REQUIRED, "vacuum, pdc or chsh", lambda v: v in ("vacuum", "pdc", "chsh")),
        "g": (0.0, "a non-negative number", lambda v: _is_number(v) and v >= 0),
        "n_modes": (None, *_COUNT),
    },
    "detectors": {
        "name": (lambda prefix: "d" + prefix.split(".")[1], "a string",
                 lambda v: isinstance(v, str)),
        **dict.fromkeys(("omega_center", "window"), (_REQUIRED, *_POSITIVE)),
        "n_cells": (_REQUIRED, *_COUNT),
        **dict.fromkeys(("length", "radius", "eta"), (1.0, *_NUMBER)),
        **dict.fromkeys(("zeta", "zeta_sigma", "threshold_sigma", "threshold"), (None, *_NUMBER)),
        "axis": ([0.0, 0.0, 1.0], "three numbers", _numbers(3)),
    },
    "run": {
        "trials": (10000, *_COUNT),
        "seed": (0, "a non-negative integer", lambda v: _is_int(v) and v >= 0),
        "mode": ("both", "mc, analytic or both", lambda v: v in ("mc", "analytic", "both")),
    },
    "chsh": {
        "settings": (_DEFAULT_CHSH_SETTINGS, "four [angle1, angle2] pairs of numbers",
                     lambda v: isinstance(v, list) and len(v) == 4 and all(map(_numbers(2), v))),
    },
    "analytic": {
        "corr": (None, "a number in [-1, 1]", lambda v: _is_number(v) and -1.0 <= v <= 1.0),
    },
}
_SECTIONS = ("scenario", "run", "chsh", "analytic", "sweeps")

# schema path -> (which points read the key, whether a point reads it from its
# kind, run.mode and the key's own section). A key that its point does not
# read must keep its _SCHEMA default.
_READERS = {
    # the analytic law assumes that a detector sees all of its n_cells modes
    "scenario.n_modes": ("kind 'vacuum' with run.mode 'mc'",
                         lambda kind, mode, section: kind == "vacuum" and mode == "mc"),
    "scenario.g": ("kinds 'pdc' and 'chsh'", lambda kind, mode, section: kind != "vacuum"),
    "chsh.settings": ("kind 'chsh' with run.mode 'mc' or 'both'",
                      lambda kind, mode, section: kind == "chsh" and mode != "analytic"),
    # a vacuum pair's beams are independent, so its correlation is 0
    "analytic.corr": ("kinds 'pdc' and 'chsh' with run.mode 'analytic' or 'both'",
                      lambda kind, mode, section: kind != "vacuum" and mode != "mc"),
    # radius and eta set only the zeta derived when neither zeta nor zeta_sigma is given
    **dict.fromkeys(("detectors.radius", "detectors.eta"), (
        "a detector without zeta or zeta_sigma",
        lambda kind, mode, section: section["zeta"] is None and section["zeta_sigma"] is None)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, default-filled experiment description."""

    data: dict
    defaults_applied: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return config_digest(self.data)

    @cached_property
    def points(self) -> list:
        """(overrides, point data, Scenario) of every sweep point (``sweep_points``)."""
        return sweep_points(self.data)

    def detector_specs(self):
        """Build the DetectorSpec list; raises ConfigError on bad physics."""
        specs = []
        for dcfg in self.data["detectors"]:
            try:
                specs.append(make_matched_detector(
                    **{key: value for key, value in dcfg.items() if key != "name"}))
            except ValueError as exc:
                raise ConfigError(f"detector {dcfg['name']!r}: {exc}") from exc
        return specs


def config_digest(data: dict) -> str:
    """Content hash of the semantic config; stable under key reordering."""
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _sections(data: dict):
    """(dotted prefix, mapping, schema) of every schema section of ``data``."""
    yield "", data, _SCHEMA[""]
    for name in _SECTIONS[:-1]:
        yield f"{name}.", data[name], _SCHEMA[name]
    for idx, det in enumerate(data["detectors"]):
        yield f"detectors.{idx}.", det, _SCHEMA["detectors"]


def check_point(data: dict) -> None:
    """Check one sweep point: every value against ``_SCHEMA``, every key its
    point does not read against its default (``_READERS``), then the
    cross-key rules.

    An analytic-only PDC or CHSH run has no Monte Carlo estimate of the
    intensity correlation of its coincidences, so it needs ``analytic.corr``.
    """
    for prefix, section, schema in _sections(data):
        for key, (default, what, ok) in schema.items():
            value = section[key]
            if not (value is None and default is None or ok(value)):
                raise ConfigError(f"{prefix}{key} must be {what}, got {value!r}")
    kind, mode = data["scenario"]["kind"], data["run"]["mode"]
    for prefix, section, schema in _sections(data):
        for key, (default, _, _) in schema.items():
            readers, reads = _READERS.get(f"{prefix.split('.')[0]}.{key}", (None, None))
            if readers and section[key] != default and not reads(kind, mode, section):
                raise ConfigError(f"{prefix}{key} = {section[key]!r} applies only to {readers} "
                                  f"(this point: kind {kind!r}, run.mode {mode!r})")
    names = [det["name"] for det in data["detectors"]]
    if kind != "vacuum" and len(names) != 2:
        raise ConfigError(f"scenario kind {kind!r} requires exactly 2 detectors")
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate detector name in {names}")
    if kind != "vacuum" and mode == "analytic" and data["analytic"]["corr"] is None:
        raise ConfigError(f"kind {kind!r} with run.mode 'analytic' requires analytic.corr "
                          "(there is no Monte Carlo correlation to fall back on)")


def _build_scenario(point: dict, specs: list) -> Scenario:
    kind, g = point["scenario"]["kind"], point["scenario"]["g"]
    names = [det["name"] for det in point["detectors"]]
    if kind == "vacuum":
        return vacuum_scenario(specs, names, point["scenario"]["n_modes"])
    if kind == "pdc":
        return pdc_scenario(specs[0], specs[1], g, (names[0], names[1]))
    return chsh_scenario(specs[0], specs[1], g)


def sweep_points(data: dict) -> list:
    """(overrides, point data, Scenario) of every sweep point.

    A point is the config with its sweep values set and ``sweeps`` emptied;
    a config without sweeps is its own single point. Every point passes
    ``check_point``, then builds its detector specs and its scenario.
    Raises ConfigError naming the first point that fails.
    """
    sweeps = data["sweeps"]
    points = []
    for combo in product(*sweeps.values()):
        overrides = dict(zip(sweeps, combo))
        point = copy.deepcopy(data)
        for path, value in overrides.items():
            set_by_path(point, path, value)
        point["sweeps"] = {}
        try:
            check_point(point)
            specs = ExperimentConfig(point).detector_specs()
        except ConfigError as exc:
            if not overrides:
                raise
            raise ConfigError(f"sweep point {overrides}: {exc}") from exc
        try:
            scenario = _build_scenario(point, specs)
        except ValueError as exc:
            raise ConfigError(f"sweep point {overrides or '(base)'}: cannot build scenario: "
                              f"{exc}") from exc
        points.append((overrides, point, scenario))
    return points


def parse_config(raw: dict) -> ExperimentConfig:
    """Check the structure, fill defaults and resolve every sweep point (``points``)."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    data = copy.deepcopy(raw)
    for name in _SECTIONS:
        if data.get(name) is None:
            data[name] = {}
        if not isinstance(data[name], dict):
            raise ConfigError(f"'{name}' must be a mapping")
    detectors = data.get("detectors")
    if (not isinstance(detectors, list) or not detectors
            or not all(isinstance(det, dict) for det in detectors)):
        raise ConfigError("config requires a non-empty 'detectors' list of mappings")

    defaults: dict = {}
    leaves = set()
    for prefix, section, schema in _sections(data):
        unknown = set(section) - set(schema) - (set() if prefix else {*_SECTIONS, "detectors"})
        if unknown:
            raise ConfigError(f"unknown key(s) in {prefix[:-1] or 'config root'}: "
                              f"{', '.join(sorted(map(str, unknown)))}")
        for key, (default, _, _) in schema.items():
            leaves.add(prefix + key)
            if section.get(key) is not None:
                continue
            if default is _REQUIRED:
                raise ConfigError(f"{prefix[:-1]} requires {key}")
            section[key] = default(prefix) if callable(default) else copy.deepcopy(default)
            defaults[prefix + key] = section[key]
    for path, values in data["sweeps"].items():
        if path not in leaves:
            raise ConfigError(f"sweep path {path!r} does not address a config field")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep axis {path!r} must be a non-empty list of values")

    config = ExperimentConfig(data, defaults)
    config.points    # check and build every point now, so a bad config fails here
    return config


def set_by_path(data: dict, path: str, value) -> None:
    """Assign ``value`` at a dotted path like ``detectors.0.threshold_sigma``.

    The path is not checked here: ``parse_config`` accepts only sweep paths
    that name a schema key.
    """
    *parents, leaf = path.split(".")
    node = data
    for part in parents:
        node = node[int(part)] if isinstance(node, list) else node[part]
    node[leaf] = value


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that rejects a key repeated in one mapping; merge keys (<<) still apply."""

    def construct_mapping(self, node, deep=False):
        keys = []
        for key_node in (k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"):
            keys.append(self.construct_object(key_node, deep=deep))
            if keys[-1] in keys[:-1]:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {keys[-1]!r}", key_node.start_mark)
        return super().construct_mapping(node, deep)


def load_config(path) -> ExperimentConfig:
    """Read, parse and validate a YAML config file."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"cannot parse {path}{loc}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if raw is None:
        raise ConfigError(f"{path} is empty")
    return parse_config(raw)
