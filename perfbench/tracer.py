"""Span tracer for the zpfsim layers, installed from outside the package.

Every function named in a ``zpfsim.<module>.__all__`` is replaced, in every
loaded ``zpfsim`` namespace that binds it, by a wrapper that records a span:
name ``<module>.<function>``, start, end and parent span id. A call made
while the innermost open span belongs to the same module is not spanned, so
intra-layer calls (``q_model`` inside ``p_single``'s quadrature) stay in the
caller's self time. Spans are kept in memory and exported when the run ends.

``layer_metrics`` turns exported spans into the benchmark's per-layer
metrics. A listed function that no longer exists is reported as absent and
its metrics read 0, so later refactors run under an unchanged benchmark.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("config", "scenarios", "field", "pdc", "optics", "detection",
          "engine", "analysis", "runner")

FUNCTIONS = (
    "config.load_config",
    "scenarios.make_matched_detector", "scenarios.vacuum_scenario",
    "scenarios.pdc_scenario", "scenarios.chsh_scenario", "scenarios.apply_ops",
    "detection.response_matrix", "detection.intensity_batch", "detection.q_model",
    "detection.p_single", "detection.p_joint",
    "field.sample_vacuum_batch",
    "pdc.pdc_transform",
    "optics.rotator_transform",
    "engine.mc_detect", "engine.run_variants",
    "analysis.chsh_scan", "analysis.classify_regime", "analysis.tradeoff_report",
    "runner.run", "runner.emit",
)

BUILDERS = ("scenarios.vacuum_scenario", "scenarios.pdc_scenario", "scenarios.chsh_scenario")

# Functions timed per 2048-trial chunk. The per-chunk figure uses the
# inclusive span duration, so apply_ops includes its pdc/optics children.
PER_CHUNK = ("field.sample_vacuum_batch", "scenarios.apply_ops",
             "detection.intensity_batch", "detection.q_model")


def _metric_units():
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for fn in FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    units.update({
        "engine.chunks": "count",
        "field.sample_vacuum_batch.draws": "count",
        "field.sample_vacuum_batch.ns_per_draw": "ns",
        "field.draws_per_useful": "ratio",
        "detection.response_matrix.nnz_per_row": "nnz/row",
        "detection.intensity_batch.bytes_computed": "bytes",
        "runner.emit.bytes": "bytes",
    })
    for fn in PER_CHUNK:
        units[f"{fn}.ms_per_chunk"] = "ms"
    units["detection.p_joint.ms_per_call"] = "ms"
    units.update({"trace.wall_s": "s", "trace.import_s": "s", "trace.overhead_frac": "ratio"})
    return units


# Every per-layer metric the benchmark reports, with its unit.
PER_LAYER_UNITS = _metric_units()


def _nbytes(obj) -> int:
    """Bytes held by an ndarray or a scipy sparse matrix; 0 for anything else."""
    if hasattr(obj, "indptr"):
        return obj.data.nbytes + obj.indices.nbytes + obj.indptr.nbytes
    return getattr(obj, "nbytes", 0) if hasattr(obj, "dtype") else 0


def _scenario_modes(result):
    scen = result[0] if isinstance(result, tuple) else result
    return {"n_modes": scen.n_modes}


# Work counts read from a spanned call's arguments and result.
HOOKS = {
    "field.sample_vacuum_batch": lambda args, kw, res: {"draws": int(res.size)},
    "detection.response_matrix":
        lambda args, kw, res: {"nnz": int(res.nnz), "rows": int(res.shape[0])},
    "detection.intensity_batch":
        lambda args, kw, res: {"bytes": sum(_nbytes(x) for x in (*args, *kw.values(), res))},
    "runner.emit": lambda args, kw, res: {"bytes": os.path.getsize(args[2])},
    **{name: lambda args, kw, res: _scenario_modes(res) for name in BUILDERS},
}


class Tracer:
    """In-memory span recorder; ``install`` wraps the package's public functions."""

    def __init__(self, hooks=None):
        self.hooks = hooks or {}
        self.spans = []      # [id, parent, name, start, end, counts]
        self._stack = []     # (span id, module) of open spans

    def wrap(self, module: str, name: str, fn):
        qual = f"{module}.{name}"
        hook = self.hooks.get(qual)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == module:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1][0] if stack else None, qual, clock(), None, None]
            spans.append(span)
            stack.append((span[0], module))
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                try:
                    span[5] = hook(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    pass
            return result

        return wrapper

    def install(self, package: str = "zpfsim") -> list[str]:
        """Wrap every ``__all__`` function of the loaded package; return their names."""
        namespaces = [mod for key, mod in list(sys.modules.items())
                      if mod is not None and (key == package or key.startswith(package + "."))]
        wrappers = {}    # id(original) -> (original, wrapper)
        for mod in namespaces:
            layer = mod.__name__.rpartition(".")[2]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(layer, name, fn), f"{layer}.{name}")
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
        return sorted(entry[2] for entry in wrappers.values())

    def export(self) -> list[dict]:
        return [{"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4],
                 "counts": s[5] or {}} for s in self.spans]


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, lo_run, hi_run = 0.0, None, None
        for lo, hi in sorted(children[s["id"]]):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], trials: int, mc: bool) -> dict:
    """Per-layer metrics (name -> value) from one traced run's spans.

    ``trials`` and ``mc`` describe the workload: the useful draws are
    points x trials x n_modes when the workload runs Monte Carlo.
    """
    selfs = self_times(spans)
    calls, self_s, total_s = defaultdict(int), defaultdict(float), defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    for s in spans:
        name = s["name"]
        calls[name] += 1
        self_s[name] += selfs[s["id"]]
        total_s[name] += s["end"] - s["start"]
        for key, value in s["counts"].items():
            counts[name][key] += value

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                     if k.partition(".")[0] == layer)
    for fn in FUNCTIONS:
        out[f"{fn}.calls"] = calls[fn]
        out[f"{fn}.self_s"] = self_s[fn]

    chunks = calls["field.sample_vacuum_batch"]
    draws = counts["field.sample_vacuum_batch"]["draws"]
    useful = trials * sum(counts[b]["n_modes"] for b in BUILDERS) if mc else 0
    out["engine.chunks"] = chunks
    out["field.sample_vacuum_batch.draws"] = draws
    out["field.sample_vacuum_batch.ns_per_draw"] = _ratio(
        1e9 * self_s["field.sample_vacuum_batch"], draws)
    out["field.draws_per_useful"] = _ratio(draws, useful)
    rm = counts["detection.response_matrix"]
    out["detection.response_matrix.nnz_per_row"] = _ratio(rm["nnz"], rm["rows"])
    out["detection.intensity_batch.bytes_computed"] = counts["detection.intensity_batch"]["bytes"]
    out["runner.emit.bytes"] = counts["runner.emit"]["bytes"]
    for fn in PER_CHUNK:
        out[f"{fn}.ms_per_chunk"] = _ratio(1e3 * total_s[fn], chunks)
    out["detection.p_joint.ms_per_call"] = _ratio(
        1e3 * total_s["detection.p_joint"], calls["detection.p_joint"])
    return out
