"""zpfsim benchmark: end-to-end CLI runs and a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: batch CLI, closed loop, one client. One child process runs at a
time, with ZPFSIM_WORKERS=1 and the BLAS/OpenMP thread counts set to 1.

--trace 0 alternates two fresh processes until the next one would end past
--seconds (warm-up included):
``python -m zpfsim.cli run --format json`` (run_s, peak_rss_mb) and
perfbench/setup_probe.py (setup_s). It reports the medians of run_s, setup_s
and peak_rss_mb.

--trace 1 alternates a traced in-process run (perfbench/traced_run.py) with
an untraced CLI run and reports the per-layer metrics of perfbench/tracer.py.

Each invocation first makes one discarded warm-up CLI run, so bytecode
compilation and a cold file cache stay out of the timed runs. Every run's
output is checked (perfbench/workloads.py) and must be byte-identical to the
warm-up's; a run that exits non-zero, times out or fails a check is failed.
A fixed reference kernel is timed between every two runs. run_s and setup_s
are each run's wall time rescaled, by the reference time around it to the
power SPEED_EXPONENT, to a host on which the kernel takes REF_NOMINAL_S:
the shared host's speed moves by up to 1.7x for tens of seconds at a time,
and the rescaled times stay steady where raw wall times do not. Raw wall
times are kept with every sample.

The last line of standard output is one JSON object with the keys correct,
attempted, failed (failed / attempted is the failure fraction) and metrics.
Per-run detail goes to .perfbench_runs/<workload>-s<seed>-t<trace>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

PINNED_ENV = {"ZPFSIM_WORKERS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)    # before numpy loads, so the reference kernel is pinned too

import numpy as np     # noqa: E402
import yaml            # noqa: E402

from tracer import FUNCTIONS, PER_LAYER_UNITS, layer_metrics    # noqa: E402
from workloads import WHY, check_output, make_config, runs_mc   # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_runs")

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 40
# The reference kernel's time on an uncontended 2-vCPU Xeon VM (the baseline's host).
REF_NOMINAL_S = 0.070
# How far a run's wall time follows the host speed the reference kernel sees:
# wall ~ ref ** SPEED_EXPONENT. Interpreter-bound work follows it more than
# array-bound work (0.5-0.9 by workload on that VM); over ten-seed sets of
# all four workloads, 0.75-0.8 gave the smallest spreads.
SPEED_EXPONENT = 0.8
MIN_ROUNDS = 2


def _py_part(n: int) -> int:
    table = {}
    for i in range(n):
        table[i & 255] = table.get(i & 255, 0) + abs(i - 128) % 7
    return sum(table.values())


def reference_kernel() -> dict:
    """Time a fixed mix of the kinds of work a zpfsim run does: a pure-Python
    loop, small-array numpy calls from Python, vectorised random draws and
    transcendentals, and a BLAS matmul. Its inputs never change, so its time
    moves only with the speed the host gives the benchmark."""
    t0 = time.perf_counter()
    _py_part(120_000)
    t1 = time.perf_counter()
    v = np.linspace(0.0, 1.0, 64)
    for _ in range(4000):
        v = np.sqrt(v * v + 1e-3) - np.float64(1e-3) * v.sum()
    t2 = time.perf_counter()
    x = np.random.default_rng(12345).standard_normal(400_000)
    np.exp(np.sin(x) * 0.5).sum()
    t3 = time.perf_counter()
    a = np.arange(256 * 256, dtype=float).reshape(256, 256) / 65536.0
    for _ in range(24):
        a @ a
    t4 = time.perf_counter()
    return {"ref_s": t4 - t0, "pyloop_s": t1 - t0, "numpy_small_s": t2 - t1,
            "numpy_vector_s": t3 - t2, "matmul_s": t4 - t3}


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], stderr_path: str) -> dict:
    """Run one child from the repository root; wall time from spawn to exit."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"spawn": t0, "wall_s": t1 - t0, "cpu_s": usage.ru_utime + usage.ru_stime,
            "exit": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def _sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


class Bench:
    """One workload and seed: runs children, checks outputs, keeps every sample."""

    def __init__(self, workload: str, seed: int, trace: int):
        self.workload = workload
        self.cfg = make_config(workload, seed)
        self.tag = f"{workload}-s{seed}-t{trace}"
        self.cfg_path = os.path.join(WORK, self.tag + ".yaml")
        with open(self.cfg_path, "w") as fh:
            yaml.safe_dump(self.cfg, fh)
        self.reference_sha = None
        self.samples = []
        reference_kernel()      # first call pays page faults and numpy warm-up
        self.last_ref = reference_kernel()

    def path(self, suffix: str) -> str:
        return os.path.join(WORK, f"{self.tag}.{suffix}")

    def _spawn(self, argv: list[str]) -> dict:
        """Run one child between two reference-kernel timings (the one before
        is the previous sample's after) and record ``ref_s``, their mean."""
        before = self.last_ref
        res = spawn(argv, self.path("stderr"))
        self.last_ref = reference_kernel()
        res["ref"] = {"before": before, "after": self.last_ref,
                      "ref_s": (before["ref_s"] + self.last_ref["ref_s"]) / 2.0}
        return res

    def _record(self, kind: str, res: dict, problems: list[str], **extra) -> dict:
        if res["exit"] != 0:
            problems = [f"exit code {res['exit']}"] + problems
        sample = {"kind": kind, **res, **extra, "problems": problems, "ok": not problems}
        self.samples.append(sample)
        return sample

    def _check(self, out_path: str) -> tuple[str | None, list[str]]:
        sha = _sha256(out_path)
        if sha is None:
            return None, ["no output file"]
        with open(out_path) as fh:
            problems = check_output(self.workload, json.load(fh), self.cfg)
        if self.reference_sha is None:
            self.reference_sha = sha
        elif sha != self.reference_sha:
            problems.append("output differs from the first run of this seed")
        return sha, problems

    def cli_run(self, kind: str = "run") -> dict:
        out = self.path("out.json")
        if os.path.exists(out):
            os.remove(out)
        res = self._spawn([sys.executable, "-m", "zpfsim.cli", "run", "--config",
                           self.cfg_path, "--out", out, "--format", "json"])
        sha, problems = self._check(out) if res["exit"] == 0 else (None, [])
        return self._record(kind, res, problems, sha256=sha)

    def setup_run(self) -> dict:
        res = self._spawn([sys.executable, os.path.join(HERE, "setup_probe.py"), self.cfg_path])
        return self._record("setup", res, [])

    def traced_run(self) -> dict:
        out, spans_path = self.path("traced.json"), self.path("spans.json")
        for path in (out, spans_path):
            if os.path.exists(path):
                os.remove(path)
        res = self._spawn([sys.executable, os.path.join(HERE, "traced_run.py"), self.cfg_path,
                           out, spans_path])
        if res["exit"] != 0:
            return self._record("traced", res, [])
        sha, problems = self._check(out)
        with open(spans_path) as fh:
            trace = json.load(fh)
        spans = trace["spans"]
        layers = layer_metrics(spans, self.cfg["run"]["trials"], runs_mc(self.cfg))
        layers["trace.wall_s"] = res["wall_s"]
        layers["trace.import_s"] = (min(s["start"] for s in spans) - res["spawn"]
                                    if spans else res["wall_s"])
        return self._record("traced", res, problems, sha256=sha,
                            absent=[f for f in FUNCTIONS if f not in trace["wrapped"]],
                            layers=layers)

    def rounds(self, steps, deadline: float) -> None:
        """Repeat ``steps`` in order, for at least MIN_ROUNDS rounds, until the
        next step would end past ``deadline`` if it took as long as it did last
        time, or until a sample has failed."""
        last, n = {}, 0
        while True:
            for step in steps:
                if n >= MIN_ROUNDS and time.perf_counter() + last[step] > deadline:
                    return
                start = time.perf_counter()
                step()
                last[step] = time.perf_counter() - start
                if any(not s["ok"] for s in self.samples):
                    return      # the result is already incorrect; stay within the time limit
            n += 1


def _values(bench: Bench, kind: str, key: str = "wall_s") -> list[float]:
    samples = [s for s in bench.samples if s["kind"] == kind]
    return [s[key] for s in ([s for s in samples if s["ok"]] or samples)]


def _scaled(bench: Bench, kind: str) -> list[float]:
    """Wall times rescaled to a host on which the reference kernel takes
    REF_NOMINAL_S: wall x (REF_NOMINAL_S / the reference time around the run)
    ** SPEED_EXPONENT."""
    samples = [s for s in bench.samples if s["kind"] == kind]
    return [s["wall_s"] * (REF_NOMINAL_S / s["ref"]["ref_s"]) ** SPEED_EXPONENT
            for s in ([s for s in samples if s["ok"]] or samples)]


def end_to_end(bench: Bench) -> dict:
    """Medians of the rescaled CLI and set-up times, and of the CLI runs' peak RSS."""
    return {"run_s": statistics.median(_scaled(bench, "run")),
            "setup_s": statistics.median(_scaled(bench, "setup")),
            "peak_rss_mb": statistics.median(_values(bench, "run", "peak_rss_mb"))}


def per_layer(bench: Bench) -> dict:
    traced = [s for s in bench.samples if s["kind"] == "traced" and "layers" in s]
    if not traced:
        return dict.fromkeys(PER_LAYER_UNITS, 0.0)
    out = {name: statistics.median(s["layers"][name] for s in traced)
           for name in PER_LAYER_UNITS if name != "trace.overhead_frac"}
    out["trace.overhead_frac"] = (statistics.median(_scaled(bench, "traced"))
                                  / statistics.median(_scaled(bench, "run")) - 1.0)
    return out


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "pinned_env": PINNED_ENV}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zpfsim", "__init__.py")):
        print(f"zpfsim sources not found under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORK, exist_ok=True)

    deadline = time.perf_counter() + args.seconds     # the warm-up counts against it
    bench = Bench(args.workload, args.seed, args.trace)
    warm = bench.cli_run("warmup")
    if warm["exit"] != 0:
        print(f"zpfsim run exited with code {warm['exit']}; see {bench.path('stderr')}",
              file=sys.stderr)
        return 1
    if args.trace:
        bench.rounds((bench.traced_run, bench.cli_run), deadline)
        values, units = per_layer(bench), PER_LAYER_UNITS
    else:
        bench.rounds((bench.cli_run, bench.setup_run, bench.cli_run), deadline)
        values, units = end_to_end(bench), END_TO_END_UNITS

    failed = sum(not s["ok"] for s in bench.samples)
    attempted = len(bench.samples)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "why": WHY[args.workload], "environment": environment(),
              "fail_frac": failed / attempted, "metrics": values, "samples": bench.samples}
    with open(bench.path("json"), "w") as fh:
        json.dump(report, fh, indent=1)

    env = report["environment"]
    print(f"# {args.workload} seed {args.seed}: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, nproc {env['nproc']}; detail in {bench.path('json')}")
    for sample in bench.samples:
        if not sample["ok"]:
            print(f"# FAILED {sample['kind']}: {'; '.join(sample['problems'])}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    for kind in ("run", "setup", "traced"):
        walls = sorted(_values(bench, kind))
        if walls:
            print(f"# {kind} wall s: n {len(walls)}, min {walls[0]:.4g}, "
                  f"median {statistics.median(walls):.4g}, max {walls[-1]:.4g}")
    refs = sorted(s["ref"]["after"]["ref_s"] for s in bench.samples)
    print(f"# reference kernel s: n {len(refs)}, min {refs[0]:.4g}, "
          f"median {statistics.median(refs):.4g}, max {refs[-1]:.4g} (nominal {REF_NOMINAL_S})")
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} runs failed)")
    if args.trace:
        absent = sorted({f for s in bench.samples for f in s.get("absent", ())})
        if absent:
            print(f"# absent functions: {', '.join(absent)}")
        top = max(FUNCTIONS, key=lambda f: values[f"{f}.self_s"])
        print(f"# largest self time: {top} {values[top + '.self_s']:.4g} s")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
