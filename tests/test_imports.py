import subprocess
import sys
from pathlib import Path

import zpfsim


def test_cli_import_leaves_out_scipy_integrate_and_stats():
    # both cost a noticeable share of every process's start-up and the
    # package needs neither; import in a fresh interpreter to see the truth
    src = str(Path(zpfsim.__file__).resolve().parents[1])
    code = ("import sys, zpfsim.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.stats') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src}, timeout=120)
    assert out.stdout.strip() == "[]"
