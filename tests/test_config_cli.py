import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import types
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from zpfsim.cli import main
from zpfsim.config import (
    ConfigError,
    config_digest,
    load_config,
    parse_config,
    set_by_path,
)
from zpfsim import config, engine, optics, runner, scenarios
from zpfsim.analysis import chsh_scan
from zpfsim.engine import mc_detect
from zpfsim.field import TRIAL_BLOCK, sample_vacuum_batch
from zpfsim.runner import emit, run
from zpfsim.scenarios import chsh_scenario


def base_config(**overrides):
    cfg = {
        "scenario": {"kind": "vacuum"},
        "detectors": [
            {"name": "a", "omega_center": 1.0, "window": 2 * math.pi * 100,
             "n_cells": 8, "threshold_sigma": 2.0, "zeta_sigma": 0.5},
        ],
        "run": {"trials": 200, "seed": 1},
    }
    cfg.update(overrides)
    return cfg


def chsh_config(**overrides):
    dets = [{"name": name, "omega_center": omega, "window": 2 * math.pi * 100,
             "n_cells": 4, "threshold_sigma": 1.0, "zeta_sigma": 0.5}
            for name, omega in (("s1", 1.25), ("s2", 0.75))]
    return base_config(scenario={"kind": "chsh", "g": 0.2}, detectors=dets, **overrides)


def with_value(raw, path, value):
    set_by_path(raw, path, value)
    return raw


def invoke(args):
    """Run the CLI in-process: its exit code, and stdout and stderr together as output."""
    out, code = io.StringIO(), 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            main(args)
        except SystemExit as exc:
            code = exc.code
    return types.SimpleNamespace(exit_code=code, output=out.getvalue())


def pdc_config(**overrides):
    dets = [{"name": name, "omega_center": omega, "window": 2 * math.pi * 1000,
             "n_cells": 16, "threshold_sigma": 2.0, "zeta_sigma": 0.5}
            for name, omega in (("signal", 1.25), ("idler", 0.75))]
    return base_config(scenario={"kind": "pdc", "g": 0.1}, detectors=dets, **overrides)


def vacuum_pair():
    det = base_config()["detectors"][0]
    return base_config(detectors=[{**det, "name": name, "omega_center": omega}
                                  for name, omega in (("a", 1.0), ("b", 2.0))])


def derived_gain():
    return with_value(base_config(), "detectors.0.zeta_sigma", None)


# config._READERS path -> (a config whose point reads the key, a value other
# than its default, configs whose points do not read it)
MC = {"trials": 200, "seed": 1, "mode": "mc"}
ANALYTIC = {"trials": 1, "seed": 1, "mode": "analytic"}
SETTINGS = [[0, 1], [0, 2], [1, 1], [1, 2]]
READER_CASES = {
    "scenario.n_modes": (lambda: base_config(run=MC), 7, [base_config, pdc_config,
                                                           lambda: chsh_config(run=MC)]),
    "scenario.g": (pdc_config, 0.2, [base_config, vacuum_pair]),
    # a crystal's two detectors must share their axis
    "detectors.axis": (lambda: with_value(pdc_config(), "detectors.1.axis", [1, 0, 0]),
                       [1, 0, 0], [base_config, vacuum_pair]),
    "chsh.settings": (chsh_config, SETTINGS, [
        pdc_config, lambda: chsh_config(run=ANALYTIC, analytic={"corr": 0.0})]),
    "analytic.corr": (pdc_config, 0.5, [lambda: pdc_config(run=MC), base_config, vacuum_pair]),
    **dict.fromkeys(("detectors.radius", "detectors.eta"), (derived_gain, 0.3, [
        base_config, lambda: with_value(derived_gain(), "detectors.0.zeta", 0.5)])),
}


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(base_config())
        assert cfg.data["run"]["mode"] == "both"
        assert cfg.data["scenario"]["g"] == 0.0
        assert "run.mode" in cfg.defaults_applied
        assert cfg.data["chsh"]["settings"][2] == [math.pi / 4, math.pi / 8]

    def test_radius_and_eta_set_the_derived_zeta(self):
        raw = with_value(with_value(base_config(), "detectors.0.radius", 2.0),
                         "detectors.0.eta", 0.3)
        del raw["detectors"][0]["zeta_sigma"]
        (det,) = parse_config(raw).detector_specs()
        assert det.zeta == 0.3 * math.pi * 2.0**2 * det.window / det.omega_center

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(base_config(plots=True))

    def test_unknown_detector_key_rejected(self):
        raw = base_config()
        raw["detectors"][0]["radius_mm"] = 3
        with pytest.raises(ConfigError, match="radius_mm"):
            parse_config(raw)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config(base_config(scenario={"kind": "laser"}))

    def test_duplicate_detector_names_rejected(self):
        raw = base_config()
        raw["detectors"].append(dict(raw["detectors"][0], omega_center=2.0))
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(raw)

    def test_exactly_one_threshold_form_required(self):
        raw = base_config()
        raw["detectors"][0]["threshold"] = 99.0
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(raw)
        del raw["detectors"][0]["threshold"]
        del raw["detectors"][0]["threshold_sigma"]
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(raw)

    def test_absolute_threshold_converted(self):
        raw = base_config()
        det = raw["detectors"][0]
        del det["threshold_sigma"]
        probe = parse_config(base_config()).detector_specs()[0]
        det["threshold"] = probe.I0 + 2.0 * probe.sigma0
        spec = parse_config(raw).detector_specs()[0]
        assert spec.threshold == pytest.approx(probe.threshold, rel=1e-12)

    def test_pdc_needs_two_detectors(self):
        raw = base_config(scenario={"kind": "pdc", "g": 0.1})
        with pytest.raises(ConfigError, match="exactly 2"):
            parse_config(raw)

    def test_si_units_rejected(self):
        parse_config(base_config(units="dimensionless"))
        with pytest.raises(ConfigError, match="rate-bound"):
            parse_config(base_config(units="SI"))

    def test_physics_validation_wrapped(self):
        raw = base_config()
        raw["detectors"][0]["threshold_sigma"] = -3.0   # below the vacuum mean
        with pytest.raises(ConfigError, match="detector 'a'"):
            parse_config(raw)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            parse_config(base_config(run={"trials": 200, "seed": -3}))

    def test_pdc_analytic_requires_corr(self):
        for make in (pdc_config, chsh_config):
            raw = make(run={"trials": 1, "seed": 1, "mode": "analytic"})
            with pytest.raises(ConfigError, match="analytic.corr"):
                parse_config(raw)
            parse_config({**raw, "analytic": {"corr": 0.5}})
            parse_config({**raw, "sweeps": {"analytic.corr": [0.0, 0.6]}})
            # with a Monte Carlo run the correlation comes from the samples
            parse_config({**raw, "run": {"trials": 1, "seed": 1, "mode": "both"}})
            with pytest.raises(ConfigError, match="analytic.corr"):
                parse_config({**raw, "sweeps": {"analytic.corr": [0.6, None]}})

    def test_n_modes_only_for_vacuum(self):
        # the analytic gaussian law assumes that a detector sees all of its n_cells modes
        parse_config(base_config(scenario={"kind": "vacuum", "n_modes": 7},
                                 run={"trials": 200, "seed": 1, "mode": "mc"}))
        for mode in ("both", "analytic"):
            with pytest.raises(ConfigError, match="n_modes = 7 applies only to kind 'vacuum' with "
                                                  "run.mode 'mc'"):
                parse_config(base_config(scenario={"kind": "vacuum", "n_modes": 7},
                                         run={"trials": 200, "seed": 1, "mode": mode}))
        dets = [{"name": name, "omega_center": omega, "window": 2 * math.pi * 100,
                 "n_cells": 8, "threshold_sigma": 2.0, "zeta_sigma": 0.5}
                for name, omega in (("signal", 1.25), ("idler", 0.75))]
        for kind in ("pdc", "chsh"):
            with pytest.raises(ConfigError, match="n_modes"):
                parse_config(base_config(scenario={"kind": kind, "n_modes": 7}, detectors=dets))

    def test_bad_sweep_path_rejected(self):
        raw = base_config(sweeps={"detectors.0.no_such_field": [1, 2]})
        with pytest.raises(ConfigError, match="sweep path"):
            parse_config(raw)

    def test_set_by_path_addresses_lists_and_dicts(self):
        data = base_config()
        set_by_path(data, "detectors.0.threshold_sigma", 7.0)
        assert data["detectors"][0]["threshold_sigma"] == 7.0
        set_by_path(data, "run.trials", 99)
        assert data["run"]["trials"] == 99


class TestDigest:
    def test_stable_under_key_reordering(self):
        a = parse_config(base_config()).data
        b = {k: a[k] for k in reversed(list(a))}
        assert config_digest(a) == config_digest(b)

    def test_changes_with_content(self):
        a = parse_config(base_config()).data
        b = copy.deepcopy(a)
        b["run"]["seed"] = 2
        assert config_digest(a) != config_digest(b)


class TestLoadConfig:
    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(base_config()))
        cfg = load_config(path)
        assert cfg.data["run"]["trials"] == 200

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("scenario: {kind: vacuum\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.yaml")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        # without the check the second seed would silently replace the first
        path = tmp_path / "dup.yaml"
        path.write_text("scenario: {kind: vacuum}\n"
                        "detectors:\n"
                        "  - {omega_center: 1.0, window: 628.3, n_cells: 8, threshold_sigma: 2.0}\n"
                        "run: {seed: 1, seed: 7}\n")
        with pytest.raises(ConfigError, match="at line 4, column 16: found duplicate key 'seed'"):
            load_config(path)

    def test_merge_keys_still_apply(self, tmp_path):
        path = tmp_path / "merge.yaml"
        path.write_text("scenario: {kind: vacuum}\n"
                        "detectors:\n"
                        "  - &a {name: a, omega_center: 1.0, window: 628.3, n_cells: 8,\n"
                        "        threshold_sigma: 2.0}\n"
                        "  - {<<: *a, name: b, omega_center: 2.0}\n")
        first, second = load_config(path).data["detectors"]
        assert second == {**first, "name": "b", "omega_center": 2.0}


class TestRunner:
    def test_sweep_produces_one_point_per_value(self, tmp_path):
        raw = base_config(sweeps={"detectors.0.threshold_sigma": [1.0, 2.0, 3.0]})
        record = run(parse_config(raw))
        assert len(record["points"]) == 3
        sigmas = [p["overrides"]["detectors.0.threshold_sigma"] for p in record["points"]]
        assert sigmas == [1.0, 2.0, 3.0]
        # higher threshold, fewer dark counts
        probs = [p["detectors"]["a"]["p_analytic"] for p in record["points"]]
        assert probs == sorted(probs, reverse=True)

    def test_emit_json_and_csv(self, tmp_path):
        record = run(parse_config(base_config()), trials=100)
        jpath = tmp_path / "out.json"
        cpath = tmp_path / "out.csv"
        emit(record, "json", jpath)
        emit(record, "csv", cpath)
        payload = json.loads(jpath.read_text())
        assert payload["schema_version"] == 2
        assert payload["rng"] == "sfc64-seedseq-block2048-normal-amp-exp-power-pair-law"
        assert payload["config_digest"] == record["config_digest"]
        header, row = cpath.read_text().strip().split("\n")
        assert len(header.split(",")) == len(row.split(","))
        assert "detectors.a.p_mc" in header

    def test_csv_cell_of_a_missing_field_is_empty(self, tmp_path):
        # the signal's tradeoff interval is null at g = 0.1 and two numbers at g = 0.35
        dets = [{"name": name, "omega_center": omega, "window": 2 * math.pi * 1000,
                 "n_cells": 1024, "threshold_sigma": 3.0, "zeta_sigma": 1e-3}
                for name, omega in (("signal", 8.0), ("idler", 2.0))]
        raw = base_config(scenario={"kind": "pdc"}, detectors=dets,
                          run={"trials": 1, "seed": 1, "mode": "analytic"},
                          analytic={"corr": 0.0}, sweeps={"scenario.g": [0.1, 0.35]})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            record = run(parse_config(raw))
        path = tmp_path / "out.csv"
        emit(record, "csv", path)
        with open(path, newline="") as fh:
            weak, strong = csv.DictReader(fh)
        col = "detectors.signal.tradeoff_interval"
        interval = record["points"][1]["detectors"]["signal"]["tradeoff_interval"]
        assert record["points"][0]["detectors"]["signal"]["tradeoff_interval"] is None
        assert (weak[col], weak[col + ".0"], weak[col + ".1"]) == ("None", "", "")
        assert (strong[col], strong[col + ".0"], strong[col + ".1"]) == (
            "", *(format(bound, ".17g") for bound in interval))

    def test_chsh_point_samples_each_chunk_once(self, monkeypatch):
        # one sampling pass serves the detector statistics and all four settings
        trials = 2 * TRIAL_BLOCK + 5
        cfg = parse_config(chsh_config(run={"trials": trials, "seed": 5}))
        calls = []
        monkeypatch.setattr(engine, "sample_vacuum_batch",
                            lambda n, rng, rows: calls.append(rows) or sample_vacuum_batch(
                                n, rng, rows))
        (point,) = run(cfg, workers=1)["points"]
        assert calls == [TRIAL_BLOCK, TRIAL_BLOCK, 5]
        monkeypatch.undo()
        # the same numbers as separate mc_detect and chsh_scan passes
        specs = cfg.detector_specs()
        scen = chsh_scenario(specs[0], specs[1], 0.2)
        mc_detectors, _ = mc_detect(scen, trials, 5, workers=1)
        for name in scen.detector_names:
            assert mc_detectors[name].items() <= point["detectors"][name].items()
        assert point["chsh"] == chsh_scan(scen, cfg.data["chsh"]["settings"], trials, 5,
                                          workers=1)

    def test_chsh_point_samples_each_chunk_in_row_tiles(self, monkeypatch):
        # at 2048 modes a chunk is sampled in several tiles; together they
        # draw each block's trials once, from one generator per block
        trials = 2 * TRIAL_BLOCK + 5
        raw = chsh_config(run={"trials": trials, "seed": 5})
        for det in raw["detectors"]:
            det.update(n_cells=512, window=2 * math.pi * 1e5)
        cfg = parse_config(raw)
        calls = []
        monkeypatch.setattr(engine, "sample_vacuum_batch",
                            lambda n, rng, rows: calls.append((n, rng, rows))
                            or sample_vacuum_batch(n, rng, rows))
        run(cfg, workers=1)
        assert {n for n, _, _ in calls} == {2048}
        assert len(calls) > 3 and min(rows for _, _, rows in calls) >= 1
        per_generator = {}
        for _, rng, rows in calls:
            per_generator[id(rng)] = per_generator.get(id(rng), 0) + rows
        assert list(per_generator.values()) == [TRIAL_BLOCK, TRIAL_BLOCK, 5]

    def test_chsh_point_maps_each_tile_by_the_crystal_once(self, monkeypatch):
        # five variants (the plain run and four settings) share one crystal
        # pass per tile; the settings read its sums, so no rotator runs
        trials = TRIAL_BLOCK + 5
        cfg = parse_config(chsh_config(run={"trials": trials, "seed": 5}))
        monkeypatch.setattr(engine, "TILE_AMPS", 7 * 16)      # 7-row tiles of 16 modes
        calls = {"tiles": 0, "pdc": 0, "rotator": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(engine, "sample_vacuum_batch",
                            counted("tiles", engine.sample_vacuum_batch))
        monkeypatch.setattr(scenarios, "pdc_transform", counted("pdc", scenarios.pdc_transform))
        monkeypatch.setattr(optics, "rotator_transform",
                            counted("rotator", optics.rotator_transform))
        run(cfg, workers=1)
        assert calls["tiles"] == math.ceil(TRIAL_BLOCK / 7) + 1
        assert calls["pdc"] == calls["tiles"]
        assert calls["rotator"] == 0

    def test_chsh_analytic_point_runs_no_monte_carlo(self, monkeypatch):
        cfg = parse_config(chsh_config(run={"trials": 3000, "seed": 1, "mode": "analytic"},
                                       analytic={"corr": 0.0}))
        sampled = []
        monkeypatch.setattr(engine, "sample_vacuum_batch",
                            lambda *args: sampled.append(args) or sample_vacuum_batch(*args))
        (point,) = run(cfg, workers=1)["points"]
        assert sampled == []
        assert "chsh" not in point
        for entry in (*point["detectors"].values(), *point["coincidences"].values()):
            assert "p_mc" not in entry and "corr_mc" not in entry
            assert 0.0 <= entry["p_analytic"] < 1.0
        assert {c["corr_used"] for c in point["coincidences"].values()} == {0.0}

    def test_vacuum_pair_uses_zero_correlation_in_every_mode(self):
        # the beams are independent: p_joint reads corr 0, not the sampled corr_mc
        points = {mode: run(parse_config(with_value(vacuum_pair(), "run.mode", mode)),
                            workers=1)["points"][0]["coincidences"]["a&b"]
                  for mode in ("both", "analytic")}
        assert points["both"]["corr_mc"] != 0.0
        assert points["both"]["corr_used"] == points["analytic"]["corr_used"] == 0.0
        assert points["both"]["p_analytic"] == points["analytic"]["p_analytic"]

    def test_mc_agrees_with_analytic_for_dark_counts(self):
        raw = base_config()
        raw["detectors"][0]["threshold_sigma"] = 1.0
        raw["run"]["trials"] = 4000
        point = run(parse_config(raw))["points"][0]
        det = point["detectors"]["a"]
        assert abs(det["p_mc"] - det["p_analytic"]) < 4 * det["p_mc_stderr"]


class TestCli:
    @pytest.mark.parametrize("call, frozen", [("main()", True), ("main(sys.argv[1:])", False)],
                             ids=["own-command-line", "argv"])
    def test_only_the_own_command_line_freezes_the_heap(self, tmp_path, call, frozen):
        # in a fresh interpreter: main() freezes the import-time heap when it
        # reads the process's command line, and leaves a caller's heap as it
        # is when given argv
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(base_config()))
        src = str(Path(config.__file__).resolve().parents[1])
        code = (f"import gc, sys; sys.argv = ['zpfsim', 'validate', '--config', {str(path)!r}]; "
                f"from zpfsim.cli import main; {call}; print(gc.get_freeze_count())")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert out.returncode == 0, out.stderr
        count = int(out.stdout.splitlines()[-1])
        assert count > 0 if frozen else count == 0, count

    def test_validate_reports_defaults(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(base_config()))
        result = invoke(["validate", "--config", str(path)])
        assert result.exit_code == 0
        assert "valid (digest" in result.output
        assert "default run.mode = both" in result.output
        assert "default units = dimensionless" in result.output
        assert "default analytic.corr = None" in result.output
        assert "default detectors.0.length = 1.0" in result.output
        # leaf keys only: no section-level duplicates such as `.sweeps = {}`
        assert "default ." not in result.output
        for section in ("run", "chsh", "analytic", "sweeps"):
            assert f"default {section} =" not in result.output

    def test_warnings_are_one_line_each(self, tmp_path):
        # two points build the same non-perturbative crystal; "always" keeps
        # the module's warning registry from hiding the second
        path, out_path = tmp_path / "exp.yaml", tmp_path / "res.json"
        raw = with_value(pdc_config(sweeps={"run.seed": [1, 2]}), "scenario.g", 0.35)
        path.write_text(yaml.safe_dump(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            results = [invoke(["validate", "--config", str(path)]),
                       invoke(["run", "--config", str(path), "--out", str(out_path)])]
        for result, first in zip(results, ("valid (digest", "wrote")):
            assert result.exit_code == 0, result.output
            lines = result.output.splitlines()
            assert lines[0] == ("warning: coupling g=0.35 is outside the perturbative regime "
                                "(g < 0.3)"), result.output
            assert lines[1].startswith(first)
            assert not any(line.startswith("warning") for line in lines[1:])
            assert "UserWarning" not in result.output

    def test_validate_rejects_bad_config(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(base_config(plots=True)))
        result = invoke(["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert "config error" in result.output

    def test_validate_rejects_unbuildable_scenario(self, tmp_path):
        # every key is valid, but 256-cell bands at 1.25 and 0.75 overlap, so the
        # scenario cannot be built
        dets = [{"name": name, "omega_center": omega, "window": 2 * math.pi * 1000,
                 "n_cells": 256, "threshold_sigma": 3.0, "zeta_sigma": 0.01}
                for name, omega in (("signal", 1.25), ("idler", 0.75))]
        raw = base_config(scenario={"kind": "pdc", "g": 0.1}, detectors=dets)
        with pytest.raises(ConfigError, match=r"\(base\): cannot build scenario: .*separated"):
            parse_config(raw)
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        result = invoke(["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert "config error" in result.output
        assert "separated" in result.output

    def test_validate_rejects_swept_negative_seed(self, tmp_path):
        raw = base_config(sweeps={"run.seed": [1, -3]})
        with pytest.raises(ConfigError, match="'run.seed': -3"):
            parse_config(raw)
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        result = invoke(["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert "'run.seed': -3" in result.output
        assert "non-negative" in result.output

    @pytest.mark.parametrize("raw", [
        with_value(base_config(), "detectors.0.length", "abc"),
        with_value(base_config(), "detectors.0.eta", "abc"),
        with_value(base_config(), "detectors.0.threshold", "abc"),
        base_config(scenario={"kind": "vacuum", "n_modes": "abc"}),
        base_config(scenario={"kind": "vacuum", "n_modes": 2.5}),
        base_config(run={"trials": True, "seed": 1}),
        with_value(base_config(), "detectors.0.n_cells", True),
        with_value(base_config(), "detectors.0.axis", [0, 0, 0]),
        with_value(base_config(), "detectors.0.axis", [1, 0]),
        chsh_config(chsh={"settings": [[0, "x"], [0, 1], [1, 0], [1, 1]]}),
        with_value(base_config(), "detectors.0.threshold_sigma", math.nan),
        with_value(base_config(), "detectors.0.zeta_sigma", math.inf),
        base_config(sweeps={"scenario.g": []}),
        # keys that the point's run would not read
        base_config(scenario={"kind": "vacuum", "g": 0.1}),
        pdc_config(chsh={"settings": [[0, 1], [0, 2], [1, 1], [1, 2]]}),
        chsh_config(run={"trials": 1, "seed": 1, "mode": "analytic"}, analytic={"corr": 0.0},
                    chsh={"settings": [[0, 1], [0, 2], [1, 1], [1, 2]]}),
        pdc_config(run={"trials": 200, "seed": 1, "mode": "mc"}, analytic={"corr": 0.5}),
        base_config(analytic={"corr": 0.5}),
        # a vacuum pair's beams are independent: its correlation is 0, not a parameter
        base_config(detectors=[{**base_config()["detectors"][0], "name": name, "omega_center": omega}
                               for name, omega in (("a", 1.0), ("b", 2.0))],
                    analytic={"corr": 0.9}),
        with_value(base_config(), "detectors.0.radius", 2.0),
        with_value(base_config(), "detectors.0.eta", 0.3),
        # a non-positive gain would give negative detection probabilities
        with_value(with_value(base_config(), "detectors.0.zeta_sigma", None),
                   "detectors.0.zeta", -2.0),
        with_value(base_config(), "detectors.0.zeta_sigma", 0.0),
    ], ids=["length", "eta", "threshold", "n_modes-str", "n_modes-float", "trials-bool",
            "n_cells-bool", "axis-zero", "axis-2d", "chsh-settings", "threshold_sigma-nan",
            "zeta_sigma-inf", "empty-sweep", "vacuum-g", "pdc-chsh-settings",
            "analytic-chsh-settings", "mc-corr", "one-detector-corr", "vacuum-pair-corr",
            "radius-with-zeta", "eta-with-zeta", "zeta-negative", "zeta_sigma-zero"])
    def test_malformed_config_is_a_config_error(self, tmp_path, raw):
        cfg_path, out_path = tmp_path / "exp.yaml", tmp_path / "res.json"
        cfg_path.write_text(yaml.safe_dump(raw))
        for args in (["validate"], ["run", "--out", str(out_path)]):
            result = invoke(args + ["--config", str(cfg_path)])
            assert result.exit_code == 2, (args, result.output)
            assert "config error:" in result.output
        assert not out_path.exists()

    def test_swept_ignored_key_names_the_point(self, tmp_path):
        raw = base_config(sweeps={"scenario.g": [0.0, 0.1]})
        with pytest.raises(ConfigError, match=r"sweep point \{'scenario.g': 0.1\}: .*'vacuum'"):
            parse_config(raw)
        cfg_path = tmp_path / "exp.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        result = invoke(["validate", "--config", str(cfg_path)])
        assert result.exit_code == 2
        assert "config error: sweep point {'scenario.g': 0.1}" in result.output

    @pytest.mark.parametrize("path", sorted(READER_CASES))
    def test_key_is_accepted_only_where_it_is_read(self, tmp_path, path):
        assert set(READER_CASES) == set(config._READERS)    # every row has a case
        section, key = path.split(".")
        assert key in config._SCHEMA[section]    # a misspelt row would never fire
        readers, _ = config._READERS[path]
        at = path.replace("detectors.", "detectors.0.")
        reader, value, others = READER_CASES[path]

        def given(make):
            raw = make()
            raw.setdefault(section, {})
            return with_value(raw, at, value)

        parse_config(given(reader))
        cfg_path = tmp_path / "exp.yaml"
        for other in others:
            cfg_path.write_text(yaml.safe_dump(given(other)))
            result = invoke(["validate", "--config", str(cfg_path)])
            assert result.exit_code == 2, result.output
            assert "config error:" in result.output
            assert f"{at} = {value!r} applies only to {readers}" in result.output

    def test_swept_seed_overrides_invalid_base_seed(self, tmp_path):
        cfg_path, out_path = tmp_path / "exp.yaml", tmp_path / "res.json"
        raw = base_config(run={"trials": 100, "seed": -3}, sweeps={"run.seed": [1, 2]})
        cfg_path.write_text(yaml.safe_dump(raw))
        result = invoke(["validate", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        result = invoke(["run", "--config", str(cfg_path), "--out", str(out_path)])
        assert result.exit_code == 0, result.output
        points = json.loads(out_path.read_text())["points"]
        assert [p["overrides"] for p in points] == [{"run.seed": 1}, {"run.seed": 2}]
        out_path.unlink()
        raw["sweeps"] = {"run.seed": [1, -3]}
        cfg_path.write_text(yaml.safe_dump(raw))
        for args in (["validate"], ["run", "--out", str(out_path)]):
            result = invoke(args + ["--config", str(cfg_path)])
            assert result.exit_code == 2, args
            assert "sweep point {'run.seed': -3}" in result.output
        assert not out_path.exists()

    def test_run_writes_output(self, tmp_path):
        cfg_path = tmp_path / "exp.yaml"
        out_path = tmp_path / "res.json"
        cfg_path.write_text(yaml.safe_dump(base_config()))
        result = invoke(["run", "--config", str(cfg_path), "--trials", "100",
                         "--out", str(out_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out_path.read_text())
        assert len(payload["points"]) == 1

    def test_run_override_changes_results(self, tmp_path):
        cfg_path = tmp_path / "exp.yaml"
        cfg_path.write_text(yaml.safe_dump(base_config()))
        outs = []
        for seed in (1, 2):
            out_path = tmp_path / f"res{seed}.json"
            result = invoke(["run", "--config", str(cfg_path), "--seed", str(seed),
                             "--trials", "100", "--out", str(out_path)])
            assert result.exit_code == 0, result.output
            outs.append(out_path.read_bytes())
        assert outs[0] != outs[1]

    def test_each_point_is_checked_once(self, tmp_path, monkeypatch):
        cfg_path, out_path = tmp_path / "exp.yaml", tmp_path / "res.json"
        cfg_path.write_text(yaml.safe_dump(base_config(sweeps={"run.seed": [1, 2]})))
        check, calls = config.check_point, []
        monkeypatch.setattr(config, "check_point", lambda data: calls.append(data) or check(data))
        for args in (["validate"], ["run", "--out", str(out_path)]):
            calls.clear()
            result = invoke(args + ["--config", str(cfg_path)])
            assert result.exit_code == 0, result.output
            assert len(calls) == 2, args

    def test_run_validates_every_point_before_computing(self, tmp_path, monkeypatch):
        dets = [{**base_config()["detectors"][0], "n_cells": 4}]
        raw = base_config(detectors=dets, sweeps={"run.seed": [1, -3]})
        cfg_path, out_path = tmp_path / "exp.yaml", tmp_path / "res.json"
        cfg_path.write_text(yaml.safe_dump(raw))
        computed = []
        monkeypatch.setattr(runner, "_point_result", lambda *args: computed.append(args))
        result = invoke(["run", "--config", str(cfg_path), "--out", str(out_path)])
        assert result.exit_code == 2
        assert "config error" in result.output
        assert "'run.seed': -3" in result.output
        assert computed == []
        assert not out_path.exists()

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_run_rejects_nonpositive_trials_override(self, tmp_path, trials):
        cfg_path = tmp_path / "exp.yaml"
        cfg_path.write_text(yaml.safe_dump(base_config()))
        result = invoke(["run", "--config", str(cfg_path), "--trials", trials,
                         "--out", str(tmp_path / "res.json")])
        assert result.exit_code == 2
        assert "--trials" in result.output
        assert not (tmp_path / "res.json").exists()

    def test_pdc_analytic_without_corr_rejected(self, tmp_path):
        cfg_path, out_path = tmp_path / "exp.yaml", tmp_path / "res.json"
        cfg_path.write_text(yaml.safe_dump(
            pdc_config(run={"trials": 1, "seed": 1, "mode": "analytic"})))
        for args in (["validate"], ["run", "--out", str(out_path)]):
            result = invoke(args + ["--config", str(cfg_path)])
            assert result.exit_code == 2, args
            assert "analytic.corr" in result.output
        assert not out_path.exists()

    def test_pdc_analytic_with_corr_runs(self, tmp_path):
        raw = pdc_config(run={"trials": 1, "seed": 1, "mode": "analytic"},
                         analytic={"corr": 0.6})
        cfg_path, out_path = tmp_path / "exp.yaml", tmp_path / "res.json"
        cfg_path.write_text(yaml.safe_dump(raw))
        result = invoke(["run", "--config", str(cfg_path), "--out", str(out_path)])
        assert result.exit_code == 0, result.output
        (coinc,) = json.loads(out_path.read_text())["points"][0]["coincidences"].values()
        assert coinc["corr_used"] == 0.6
        assert 0.0 < coinc["p_analytic"] < 1.0

    def test_validate_rejects_duplicate_modes(self, tmp_path):
        det = base_config()["detectors"][0]
        raw = base_config(detectors=[det, {**det, "name": "b"}])
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        result = invoke(["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert "duplicate mode" in result.output

    @pytest.mark.parametrize("kind", ["vacuum", "pdc"])
    def test_validate_accepts_long_window(self, tmp_path, kind):
        # at T = 2 pi 10^12 the element spacing 2 pi / T is 10^-12: distinct
        # modes, however close, are no duplicates
        raw = base_config() if kind == "vacuum" else pdc_config()
        for det in raw["detectors"]:
            det.update(window=2 * math.pi * 1e12, n_cells=4)
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        result = invoke(["validate", "--config", str(path)])
        assert result.exit_code == 0, result.output

    def test_run_rejects_negative_seed_override(self, tmp_path):
        cfg_path = tmp_path / "exp.yaml"
        cfg_path.write_text(yaml.safe_dump(base_config()))
        result = invoke(["run", "--config", str(cfg_path), "--seed", "-1",
                         "--out", str(tmp_path / "res.json")])
        assert result.exit_code == 2
        assert not (tmp_path / "res.json").exists()

    def test_rate_bound_prints_value(self):
        result = invoke([
            "rate-bound", "--eta", "0.1", "--focal", "5e-3",
            "--crystal-radius", "1e-3", "--detector-length", "5e-3",
            "--distance", "1.0", "--wavelength", "8e-7",
            "--tau", "1e-12", "--window", "1e-8"])
        assert result.exit_code == 0
        value = float(result.output.strip())
        expected = 0.1 * (5e-3) ** 2 * (1e-3) ** 2 / (
            2 * 5e-3 * 1.0 * 8e-7 * math.sqrt(1e-12 * 1e-8))
        assert value == pytest.approx(expected, rel=1e-5)

    def test_rate_bound_rejects_nonpositive(self):
        result = invoke([
            "rate-bound", "--eta", "0", "--focal", "5e-3",
            "--crystal-radius", "1e-3", "--detector-length", "5e-3",
            "--distance", "1.0", "--wavelength", "8e-7",
            "--tau", "1e-12", "--window", "1e-8"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("option, value", [
        ("--eta", "nan"), ("--focal", "inf"), ("--distance", "-inf"), ("--eta", "5"),
        ("--tau", "1e-7"),
    ])
    def test_rate_bound_rejects_invalid_inputs(self, option, value):
        args = {"--eta": "0.1", "--focal": "5e-3", "--crystal-radius": "1e-3",
                "--detector-length": "5e-3", "--distance": "1.0", "--wavelength": "8e-7",
                "--tau": "1e-12", "--window": "1e-8", option: value}
        result = invoke(["rate-bound", *(t for kv in args.items() for t in kv)])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
    def test_run_rejects_invalid_worker_count(self, tmp_path, monkeypatch, value):
        cfg_path, out_path = tmp_path / "exp.yaml", tmp_path / "res.json"
        cfg_path.write_text(yaml.safe_dump(base_config()))
        computed = []
        monkeypatch.setattr(runner, "_point_result", lambda *args: computed.append(args))
        monkeypatch.setenv("ZPFSIM_WORKERS", value)
        result = invoke(["run", "--config", str(cfg_path), "--out", str(out_path)])
        assert result.exit_code == 2, result.output
        assert (f"config error: ZPFSIM_WORKERS must be a positive integer, got {value!r}"
                in result.output)
        assert computed == []
        assert not out_path.exists()


@st.composite
def small_configs(draw, straddle=True):
    """Configs of every kind and mode at <= 8 cells and <= 64 trials.

    Keys are set as the kind and mode read them; the band widths straddle
    the limits of a valid config, and so do the thresholds and gains unless
    ``straddle`` is false.
    """
    kind = draw(st.sampled_from(["vacuum", "pdc", "chsh"]))
    mode = draw(st.sampled_from(["mc", "analytic", "both"]))
    window = draw(st.sampled_from([2 * math.pi * 10, 2 * math.pi * 100]))
    n_cells = draw(st.integers(1, 8))
    omegas = (draw(st.sampled_from([(1.0,), (1.0, 2.0)])) if kind == "vacuum"
              else draw(st.sampled_from([(1.25, 0.75), (1.0, 2.0)])))
    # one value in six on the wrong side of zero, one in six at zero
    sign = st.sampled_from([1.0, 1.0, 1.0, 1.0, 0.0, -1.0] if straddle else [1.0])
    dets = []
    for omega in omegas:
        det = {"name": f"d{omega}", "omega_center": omega, "window": window,
               "n_cells": n_cells, "threshold_sigma": draw(sign) * draw(st.floats(0.1, 4.0))}
        gain = draw(st.sampled_from(["zeta", "zeta_sigma", None]))
        if gain is not None:
            det[gain] = draw(sign) * draw(st.floats(1e-3, 2.0))
        dets.append(det)
    raw = {"scenario": {"kind": kind}, "detectors": dets,
           "run": {"trials": draw(st.integers(1, 64)), "seed": draw(st.integers(0, 1000)),
                   "mode": mode}}
    # couplings from 0.3 on warn that they leave the perturbative regime
    couplings = st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.35])
    if kind == "vacuum":
        raw["scenario"]["n_modes"] = draw(st.none() | st.integers(1, 8))
    else:
        raw["scenario"]["g"] = draw(couplings)
    if mode != "mc" and kind != "vacuum":
        raw["analytic"] = {"corr": draw(st.floats(-1.0, 1.0))}
    # an optional sweep along one axis, one or two points
    axis = draw(st.sampled_from([None, "scenario.g", "detectors.0.threshold_sigma", "run.seed"]))
    if axis is not None:
        values = {"scenario.g": couplings, "run.seed": st.integers(0, 1000),
                  "detectors.0.threshold_sigma": st.tuples(sign, st.floats(0.1, 4.0)).map(
                      lambda t: t[0] * t[1])}[axis]
        raw["sweeps"] = {axis: draw(st.lists(values, min_size=1, max_size=2))}
    return raw


class TestValidateMatchesRun:
    @given(raw=small_configs())
    @settings(max_examples=200, deadline=None)
    def test_validate_accepts_exactly_what_run_completes(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path, out_path = Path(tmp) / "exp.yaml", Path(tmp) / "res.json"
            cfg_path.write_text(yaml.safe_dump(raw))
            checked = invoke(["validate", "--config", str(cfg_path)])
            ran = invoke(["run", "--config", str(cfg_path), "--out", str(out_path)])
            assert checked.exit_code in (0, 2), checked.output
            assert ran.exit_code == checked.exit_code, ran.output
            if ran.exit_code:
                return
            points = json.loads(out_path.read_text())["points"]
            assert len(points) == math.prod(map(len, raw.get("sweeps", {}).values()))
            for point in points:
                for entry in (*point["detectors"].values(), *point["coincidences"].values()):
                    for key in ("p_mc", "p_analytic"):
                        if key in entry:
                            assert 0.0 <= entry[key] < 1.0, (key, entry)


# Keys whose accepted values a run does not read yet (ROADMAP item 8).
def known_ignored(path: str, data: dict) -> bool:
    kind, mode = data["scenario"]["kind"], data["run"]["mode"]
    return (path in ("run.trials", "run.seed") and mode == "analytic"
            or path.endswith(".name") and kind == "chsh")


def leaf_paths(data: dict) -> list:
    return ["units", *(f"{section}.{key}" for section in ("scenario", "run", "chsh", "analytic")
                       for key in data[section]),
            *(f"detectors.{idx}.{key}" for idx, det in enumerate(data["detectors"])
              for key in det)]


def get_by_path(data: dict, path: str):
    for part in path.split("."):
        data = data[int(part)] if isinstance(data, list) else data[part]
    return data


def changed_value(path: str, value, data: dict, draw):
    """A value other than ``value`` for the leaf at ``path``, valid where the schema allows."""
    key = path.rpartition(".")[2]
    if key in ("kind", "mode"):
        choices = {"kind": ["vacuum", "pdc", "chsh"], "mode": ["mc", "analytic", "both"]}[key]
        return draw(st.sampled_from([c for c in choices if c != value]))
    if key == "n_modes":    # None takes every one of the n_cells modes
        n_cells = data["detectors"][0]["n_cells"]
        return draw(st.integers(1, 9).filter(lambda n: n != (value or n_cells)))
    if value is None:
        return draw(st.floats(0.1, 0.9))
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        changed = copy.deepcopy(value)
        changed[0] = [changed[0][0] + 0.5, *changed[0][1:]] if key == "settings" else 1.0
        return changed
    if isinstance(value, int):
        return value + draw(st.integers(1, 3))
    return value * draw(st.sampled_from([0.5, 2.0])) if value else 0.25


def record_points(data: dict):
    """The points of the record ``run`` makes of ``data`` (JSON), or None if it is rejected."""
    try:
        cfg = parse_config(data)
    except ConfigError:
        return None
    return json.dumps(run(cfg, workers=1)["points"], sort_keys=True)


class TestEveryKeyIsRead:
    @given(raw=small_configs(straddle=False), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_changed_key_is_rejected_or_changes_the_record(self, raw, data):
        """Each accepted leaf key, changed alone, is rejected or changes the record."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            original = record_points(raw)
            if original is None:
                return
            base = parse_config(raw).data
            # a swept key's base value is replaced at every point
            for path in (p for p in leaf_paths(base) if p not in base["sweeps"]):
                value = changed_value(path, get_by_path(base, path), base, data.draw)
                changed = copy.deepcopy(base)
                set_by_path(changed, path, value)
                if record_points(changed) == original:
                    assert known_ignored(path, base), f"{path} = {value!r} is accepted and ignored"
