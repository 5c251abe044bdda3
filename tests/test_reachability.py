"""Every function under ``src/zpfsim`` is entered by some ``zpfsim`` command.

A fresh interpreter installs a ``sys.setprofile`` hook before it imports
zpfsim, so import-time calls count, and then runs ``zpfsim.cli.main`` on:
``validate``, ``run --format json`` and ``run --format csv`` of every golden
config; one ``--trials``/``--seed`` override; one analytic vacuum point whose
gain puts ``p_single`` on its Mills-ratio branch; one ``rate-bound``; and
three usage errors. Warnings stay on, so that the CLI's warning printer runs.

Every ``def`` (methods, properties and nested functions included) that no
command enters must be named in ``PENDING`` with its reason, and every
``PENDING`` name must be unreached: a new test-only helper in ``src/`` fails
this test, and so does a stale entry, so the list can only shrink. Test-only
code lives under ``tests/``.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import zpfsim

SRC = Path(zpfsim.__file__).resolve().parent
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

_PINNED = "pinned by perfbench/tracer.py FUNCTIONS until ROADMAP item 3"
PENDING = {
    "detection.response_matrix": _PINNED,
    "detection._sinc": "reached only through detection.response_matrix",
    "detection._airy_disc": "reached only through detection.response_matrix",
    "optics.rotator_transform": _PINNED,
    "analysis.chsh_scan": _PINNED,
}

_VACUUM_ANALYTIC = """
scenario: {kind: vacuum}
detectors:
  - {name: d, omega_center: 1.0, window: 6283.185307179586, n_cells: 16,
     threshold_sigma: 2.0, zeta_sigma: 2.0}
run: {trials: 1, seed: 1, mode: analytic}
"""

# Runs each command of argv[1] (a JSON list of argv lists) through the CLI
# under the profile hook, and writes the exit codes and the entered code
# objects' (file, first line) to argv[2].
_PROBE = """
import json, sys

entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(hook)
from zpfsim.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    try:
        main(argv)
        codes.append(0)
    except SystemExit as exc:
        codes.append(exc.code)
sys.setprofile(None)
with open(sys.argv[2], "w") as fh:
    json.dump({"codes": codes, "entered": sorted(entered)}, fh)
"""


def defined_functions() -> dict:
    """{(file, first line): dotted name} of every ``def`` under ``src/zpfsim``.

    A code object's first line is its first decorator's, if it has one.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = name
                visit(child, path, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem)
    return found


def commands(tmp: Path) -> list:
    """(argv, expected exit code) of every command the guard runs."""
    out = []
    for config in sorted(GOLDEN.glob("*.yaml")):
        out.append((["validate", "--config", str(config)], 0))
        for fmt in ("json", "csv"):
            out.append((["run", "--config", str(config), "--format", fmt,
                         "--out", str(tmp / f"{config.stem}.{fmt}")], 0))
    out.append((["run", "--config", str(GOLDEN / "chsh-sweep.yaml"), "--trials", "3",
                 "--seed", "2", "--out", str(tmp / "override.json")], 0))
    vacuum = tmp / "vacuum-analytic.yaml"
    vacuum.write_text(_VACUUM_ANALYTIC)
    out.append((["run", "--config", str(vacuum), "--out", str(tmp / "vacuum.json")], 0))
    rate_bound = ["rate-bound", "--eta", "0.1", "--focal", "5e-3", "--crystal-radius", "1e-3",
                  "--detector-length", "5e-3", "--wavelength", "8e-7", "--tau", "1e-12",
                  "--window", "1e-8"]
    out.append((rate_bound + ["--distance", "1.0"], 0))
    out.append((["validate", "--config", str(tmp / "missing.yaml")], 2))
    out.append((["no-such-command"], 2))
    # with "=", -inf is the value (a bare -inf reads as a missing value), so
    # min_rate_bound's check rejects it
    out.append((rate_bound + ["--distance=-inf"], 2))
    return out


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reachability")
    cmds = commands(tmp)
    result = tmp / "result.json"
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([argv for argv, _ in cmds]), str(result)],
        capture_output=True, text=True, timeout=600,
        env={"PYTHONPATH": str(SRC.parent), "PYTHONDONTWRITEBYTECODE": "1",
             "ZPFSIM_WORKERS": "1"})
    assert proc.returncode == 0, proc.stderr
    data = json.loads(result.read_text())
    entered = {(str(Path(f).resolve()), line) for f, line in data["entered"]}
    return cmds, data["codes"], entered, proc.stderr


def test_commands_exit_as_expected(traced):
    cmds, codes, _, stderr = traced
    assert [(argv, code) for (argv, _), code in zip(cmds, codes)] == cmds, stderr


def test_unreached_functions_are_exactly_pending(traced):
    entered = traced[2]
    unreached = {name for key, name in defined_functions().items() if key not in entered}
    new, stale = sorted(unreached - PENDING.keys()), sorted(PENDING.keys() - unreached)
    assert not new and not stale, (f"no command enters {new} (move it to tests/); "
                                   f"PENDING names {stale}, which is reached or gone")
