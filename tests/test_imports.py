import ast
import importlib
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import zpfsim

MODULES = [importlib.import_module(f"zpfsim.{m.name}")
           for m in pkgutil.iter_modules(zpfsim.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    # the benchmark's span tracer wraps every function listed in __all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_benchmark_traced_functions_are_listed_in_all():
    # the tracer spans a function only through its module's __all__, and
    # reports one that is missing as absent with metrics of 0
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unlisted = [name for name in tracer.FUNCTIONS
                if name.split(".")[1] not in importlib.import_module(
                    f"zpfsim.{name.split('.')[0]}").__all__]
    assert unlisted == []


def test_package_imports_resolve():
    tree = ast.parse(Path(zpfsim.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"zpfsim.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            assert getattr(zpfsim, alias.asname or alias.name) is getattr(module, alias.name)


def _modules_after_cli_import(prefixes):
    # import in a fresh interpreter to see the truth
    src = str(Path(zpfsim.__file__).resolve().parents[1])
    code = ("import sys, zpfsim.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({tuple(prefixes)!r})))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                         timeout=120)
    return out.stdout.strip()


def test_cli_import_leaves_out_scipy_integrate_and_stats():
    # scipy (and numpy.f2py, which scipy's array-API layer pulls in) cost
    # about half of every process's start-up and the package needs neither;
    # nor does it need click, as the CLI is built on argparse. The quadrature
    # rules are built on first use, so numpy.polynomial (~3 ms) loads only in
    # a process that evaluates an analytic law
    prefixes = ("scipy", "numpy.f2py", "click", "numpy.polynomial")
    assert _modules_after_cli_import(prefixes) == "[]"


def test_cli_import_leaves_out_process_pool():
    # only a multi-worker run needs the process pool and what it loads
    prefixes = ("concurrent.futures.process", "multiprocessing", "logging", "socket")
    assert _modules_after_cli_import(prefixes) == "[]"


_PDC_BOTH = """
scenario: {kind: pdc, g: 0.1}
detectors:
  - {name: signal, omega_center: 1.25, window: 6283.185307179586, n_cells: 16,
     threshold_sigma: 2.0, zeta_sigma: 0.5}
  - {name: idler, omega_center: 0.75, window: 6283.185307179586, n_cells: 16,
     threshold_sigma: 2.0, zeta_sigma: 0.5}
run: {trials: 300, seed: 1, mode: both}
"""

_CHSH = """
scenario: {kind: chsh, g: 0.2}
detectors:
  - {name: s1, omega_center: 1.25, window: 628.3185307179587, n_cells: 4,
     threshold_sigma: 1.0, zeta_sigma: 0.5}
  - {name: s2, omega_center: 0.75, window: 628.3185307179587, n_cells: 4,
     threshold_sigma: 1.0, zeta_sigma: 0.5}
run: {trials: 300, seed: 1}
"""


@pytest.mark.parametrize("config", [_PDC_BOTH, _CHSH], ids=["pdc-both", "chsh"])
def test_run_succeeds_with_scipy_blocked(tmp_path, config):
    # a None entry in sys.modules makes every `import scipy...` raise ImportError
    src = str(Path(zpfsim.__file__).resolve().parents[1])
    cfg_path, out_path = tmp_path / "exp.yaml", tmp_path / "res.json"
    cfg_path.write_text(config)
    code = ("import sys; sys.modules['scipy'] = None; "
            "from zpfsim.cli import main; "
            f"main(['run', '--config', {str(cfg_path)!r}, '--out', {str(out_path)!r}])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1",
                              "ZPFSIM_WORKERS": "1"},
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out_path.exists()
