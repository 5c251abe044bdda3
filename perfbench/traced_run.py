"""Run one config in-process with every zpfsim layer traced.

Usage: python perfbench/traced_run.py CONFIG.yaml OUT.json SPANS.json

Does what ``zpfsim run --format json`` does (load the config, run it, emit
JSON), with the tracer installed first. Writes the spans and the names of
the wrapped functions to SPANS.json when the run ends.
"""

import json
import sys

import zpfsim
from tracer import HOOKS, Tracer


def main(config_path: str, out_path: str, spans_path: str) -> None:
    tracer = Tracer(HOOKS)
    wrapped = tracer.install()
    cfg = zpfsim.config.load_config(config_path)
    record = zpfsim.runner.run(cfg)
    zpfsim.runner.emit(record, "json", out_path)
    with open(spans_path, "w") as fh:
        json.dump({"wrapped": wrapped, "spans": tracer.export()}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:4])
