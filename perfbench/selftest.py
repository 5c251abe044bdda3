"""Self-test of the tracer, its aggregation and the benchmark definition.

Usage (from the repository root): python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys
import tempfile
import types
import unittest

import yaml

from tracer import FUNCTIONS, PER_LAYER_UNITS, Tracer, layer_metrics, self_times
from workloads import WHY

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _span(id_, parent, name, start, end, counts=None):
    return {"id": id_, "parent": parent, "name": name, "start": start, "end": end,
            "counts": counts or {}}


def _fake_package(name: str, modules: dict) -> list[types.ModuleType]:
    """Register modules built from source under package ``name``."""
    pkg = types.ModuleType(name)
    sys.modules[name] = pkg
    made = [pkg]
    for sub, source in modules.items():
        mod = types.ModuleType(f"{name}.{sub}")
        sys.modules[mod.__name__] = mod
        setattr(pkg, sub, mod)
        exec(source, mod.__dict__)
        made.append(mod)
    return made


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_duration_minus_child_coverage(self):
        spans = [
            _span(0, None, "runner.run", 0.0, 10.0),
            _span(1, 0, "engine.mc_detect", 1.0, 4.0),
            _span(2, 0, "detection.p_joint", 3.0, 6.0),     # overlaps span 1
            _span(3, 1, "field.sample_vacuum_batch", 2.0, 3.0),
            _span(4, 0, "runner.emit", 9.0, 12.0),          # clipped at the parent's end
        ]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - (5.0 + 1.0))
        self.assertAlmostEqual(selfs[1], 3.0 - 1.0)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[3], 1.0)

        metrics = layer_metrics(spans, trials=1, mc=True)
        self.assertAlmostEqual(metrics["runner.self_s"], selfs[0] + selfs[4])
        self.assertAlmostEqual(metrics["detection.p_joint.self_s"], 3.0)
        self.assertEqual(metrics["engine.mc_detect.calls"], 1)
        self.assertEqual(metrics["engine.chunks"], 1)
        self.assertAlmostEqual(metrics["detection.p_joint.ms_per_call"], 3000.0)


class InstallTest(unittest.TestCase):
    def tearDown(self):
        for key in [k for k in sys.modules if k == "fakepkg" or k.startswith("fakepkg.")]:
            del sys.modules[key]

    def test_intra_module_calls_are_not_spanned(self):
        _, alpha, beta = _fake_package("fakepkg", {
            "alpha": "__all__ = ['outer', 'inner']\n"
                     "def inner(x):\n    return x + 1\n"
                     "def outer(x):\n    return inner(x) + f(x)\n",
            "beta": "__all__ = ['f']\ndef f(x):\n    return 2 * x\n",
        })
        alpha.f = beta.f      # a cross-module binding, as `from .beta import f` makes
        tracer = Tracer()
        wrapped = tracer.install("fakepkg")
        self.assertEqual(wrapped, ["alpha.inner", "alpha.outer", "beta.f"])
        self.assertIs(alpha.f, beta.f)
        self.assertEqual(alpha.outer(3), 10)
        spans = tracer.export()
        self.assertEqual([s["name"] for s in spans], ["alpha.outer", "beta.f"])
        self.assertEqual(spans[1]["parent"], spans[0]["id"])
        self.assertEqual(alpha.inner(1), 2)     # a top-level call is spanned
        self.assertEqual(tracer.export()[-1]["name"], "alpha.inner")

    def test_missing_name_is_absent_without_failing(self):
        _fake_package("fakepkg", {
            "detection": "__all__ = ['p_joint', 'response_matrix']\n"
                         "def p_joint(x):\n    return x\n",
        })
        tracer = Tracer()
        wrapped = tracer.install("fakepkg")
        self.assertEqual(wrapped, ["detection.p_joint"])
        sys.modules["fakepkg.detection"].p_joint(1)
        metrics = layer_metrics(tracer.export(), trials=10, mc=False)
        self.assertEqual(set(metrics) | {"trace.wall_s", "trace.import_s", "trace.overhead_frac"},
                         set(PER_LAYER_UNITS))
        self.assertEqual(metrics["detection.response_matrix.calls"], 0)
        self.assertEqual(metrics["detection.response_matrix.self_s"], 0.0)
        self.assertEqual(metrics["detection.p_joint.calls"], 1)
        self.assertIn("detection.response_matrix", set(FUNCTIONS) - set(wrapped))


class TracedOutputTest(unittest.TestCase):
    def test_traced_output_equals_cli_output(self):
        cfg = {
            "scenario": {"kind": "pdc", "g": 0.2},
            "detectors": [
                {"name": "signal", "omega_center": 1.25, "window": 6283.185307179586,
                 "n_cells": 16, "threshold_sigma": 2.0, "zeta_sigma": 0.5},
                {"name": "idler", "omega_center": 0.75, "window": 6283.185307179586,
                 "n_cells": 16, "threshold_sigma": 2.0, "zeta_sigma": 0.5},
            ],
            "run": {"trials": 3000, "seed": 5, "mode": "both"},
        }
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), ZPFSIM_WORKERS="1")
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            cfg_path = os.path.join(tmp, "exp.yaml")
            with open(cfg_path, "w") as fh:
                yaml.safe_dump(cfg, fh)
            cli_out, traced_out = os.path.join(tmp, "cli.json"), os.path.join(tmp, "traced.json")
            spans_path = os.path.join(tmp, "spans.json")
            subprocess.run([sys.executable, "-m", "zpfsim.cli", "run", "--config", cfg_path,
                            "--out", cli_out, "--format", "json"],
                           check=True, env=env, cwd=ROOT, capture_output=True, timeout=300)
            subprocess.run([sys.executable, os.path.join(HERE, "traced_run.py"), cfg_path,
                            traced_out, spans_path],
                           check=True, env=env, cwd=ROOT, capture_output=True, timeout=300)
            with open(cli_out, "rb") as a, open(traced_out, "rb") as b:
                self.assertEqual(a.read(), b.read())
            with open(spans_path) as fh:
                trace = json.load(fh)
        names = {s["name"] for s in trace["spans"]}
        self.assertTrue({"runner.run", "engine.mc_detect", "detection.p_joint"} <= names)
        self.assertEqual(set(FUNCTIONS) - set(trace["wrapped"]), set())


class DefinitionTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WHY))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER_UNITS)


if __name__ == "__main__":
    unittest.main()
