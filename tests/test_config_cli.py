import contextlib
import copy
import io
import json
import math
import tempfile
import types
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
from zpfsim import engine, optics, runner, scenarios
from zpfsim.analysis import chsh_scan
from zpfsim.engine import mc_detect
from zpfsim.field import TRIAL_BLOCK, sample_vacuum_batch
from zpfsim.runner import emit, run, validate_points
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
                validate_points(parse_config({**raw, "sweeps": {"analytic.corr": [0.6, None]}}))

    def test_n_modes_only_for_vacuum(self):
        parse_config(base_config(scenario={"kind": "vacuum", "n_modes": 7}))
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


class TestRunner:
    def test_sweep_produces_one_point_per_value(self, tmp_path):
        raw = base_config(sweeps={"detectors.0.threshold_sigma": [1.0, 2.0, 3.0]})
        record = run(parse_config(raw))
        assert len(record.points) == 3
        sigmas = [p["overrides"]["detectors.0.threshold_sigma"] for p in record.points]
        assert sigmas == [1.0, 2.0, 3.0]
        # higher threshold, fewer dark counts
        probs = [p["detectors"]["a"]["p_analytic"] for p in record.points]
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
        assert payload["config_digest"] == record.config_digest
        header, row = cpath.read_text().strip().split("\n")
        assert len(header.split(",")) == len(row.split(","))
        assert "detectors.a.p_mc" in header

    def test_chsh_point_samples_each_chunk_once(self, monkeypatch):
        # one sampling pass serves the detector statistics and all four settings
        trials = 2 * TRIAL_BLOCK + 5
        cfg = parse_config(chsh_config(run={"trials": trials, "seed": 5}))
        calls = []
        monkeypatch.setattr(engine, "sample_vacuum_batch",
                            lambda n, rng, rows: calls.append(rows) or sample_vacuum_batch(
                                n, rng, rows))
        (point,) = run(cfg, workers=1).points
        assert calls == [TRIAL_BLOCK, TRIAL_BLOCK, 5]
        monkeypatch.undo()
        # the same numbers as separate mc_detect and chsh_scan passes
        specs = cfg.detector_specs()
        scen = chsh_scenario(specs[0], specs[1], 0.2)
        mc = mc_detect(scen, trials, 5, workers=1)
        res = chsh_scan(scen, cfg.data["chsh"]["settings"], trials, 5, workers=1)
        for name in scen.detector_names:
            assert point["detectors"][name]["p_mc"] == mc.singles[name].value
        assert point["chsh"]["correlations"] == list(res.correlations)
        assert point["chsh"]["S"] == res.s_value
        assert point["chsh"]["S_stderr"] == res.s_stderr

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
        (point,) = run(cfg, workers=1).points
        assert sampled == []
        assert "chsh" not in point
        for entry in (*point["detectors"].values(), *point["coincidences"].values()):
            assert "p_mc" not in entry and "corr_mc" not in entry
            assert 0.0 <= entry["p_analytic"] < 1.0
        assert {c["corr_used"] for c in point["coincidences"].values()} == {0.0}

    def test_mc_agrees_with_analytic_for_dark_counts(self):
        raw = base_config()
        raw["detectors"][0]["threshold_sigma"] = 1.0
        raw["run"]["trials"] = 4000
        point = run(parse_config(raw)).points[0]
        det = point["detectors"]["a"]
        assert abs(det["p_mc"] - det["p_analytic"]) < 4 * det["p_mc_stderr"]


class TestCli:
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

    def test_validate_rejects_bad_config(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(base_config(plots=True)))
        result = invoke(["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert "config error" in result.output

    def test_validate_rejects_unbuildable_scenario(self, tmp_path):
        # parses cleanly, but 256-cell bands at 1.25 and 0.75 overlap, so run cannot build it
        dets = [{"name": name, "omega_center": omega, "window": 2 * math.pi * 1000,
                 "n_cells": 256, "threshold_sigma": 3.0, "zeta_sigma": 0.01}
                for name, omega in (("signal", 1.25), ("idler", 0.75))]
        raw = base_config(scenario={"kind": "pdc", "g": 0.1}, detectors=dets)
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
        with_value(base_config(), "detectors.0.radius", 2.0),
        with_value(base_config(), "detectors.0.eta", 0.3),
        # a non-positive gain would give negative detection probabilities
        with_value(with_value(base_config(), "detectors.0.zeta_sigma", None),
                   "detectors.0.zeta", -2.0),
        with_value(base_config(), "detectors.0.zeta_sigma", 0.0),
    ], ids=["length", "eta", "threshold", "n_modes-str", "n_modes-float", "trials-bool",
            "n_cells-bool", "axis-zero", "axis-2d", "chsh-settings", "threshold_sigma-nan",
            "zeta_sigma-inf", "empty-sweep", "vacuum-g", "pdc-chsh-settings",
            "analytic-chsh-settings", "mc-corr", "one-detector-corr", "radius-with-zeta",
            "eta-with-zeta", "zeta-negative", "zeta_sigma-zero"])
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
def small_configs(draw):
    """Configs of every kind and mode at <= 8 cells and <= 64 trials.

    Keys are set as the kind and mode read them; the thresholds, gains and
    band widths straddle the limits of a valid config.
    """
    kind = draw(st.sampled_from(["vacuum", "pdc", "chsh"]))
    mode = draw(st.sampled_from(["mc", "analytic", "both"]))
    window = draw(st.sampled_from([2 * math.pi * 10, 2 * math.pi * 100]))
    n_cells = draw(st.integers(1, 8))
    omegas = (draw(st.sampled_from([(1.0,), (1.0, 2.0)])) if kind == "vacuum"
              else draw(st.sampled_from([(1.25, 0.75), (1.0, 2.0)])))
    # one value in six on the wrong side of zero, one in six at zero
    sign = st.sampled_from([1.0, 1.0, 1.0, 1.0, 0.0, -1.0])
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
    if kind == "vacuum":
        raw["scenario"]["n_modes"] = draw(st.none() | st.integers(1, 8))
    else:
        raw["scenario"]["g"] = draw(st.sampled_from([0.0, 0.1, 0.25]))
    if mode != "mc" and len(dets) == 2:
        raw["analytic"] = {"corr": draw(st.floats(-1.0, 1.0))}
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
            for point in json.loads(out_path.read_text())["points"]:
                for entry in (*point["detectors"].values(), *point["coincidences"].values()):
                    for key in ("p_mc", "p_analytic"):
                        if key in entry:
                            assert 0.0 <= entry[key] < 1.0, (key, entry)
