import ast
import importlib
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


def test_package_imports_resolve():
    tree = ast.parse(Path(zpfsim.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"zpfsim.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            assert getattr(zpfsim, alias.asname or alias.name) is getattr(module, alias.name)


def test_cli_import_leaves_out_scipy_integrate_and_stats():
    # both cost a noticeable share of every process's start-up and the
    # package needs neither; import in a fresh interpreter to see the truth
    src = str(Path(zpfsim.__file__).resolve().parents[1])
    code = ("import sys, zpfsim.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.stats') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src}, timeout=120)
    assert out.stdout.strip() == "[]"
