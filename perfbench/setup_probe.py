"""Do only the set-up ``zpfsim run`` pays before its first trial or quadrature.

Usage: python perfbench/setup_probe.py CONFIG.yaml

Imports zpfsim, loads the config, builds the detector specs and calls the
public scenario builder for every sweep point. The caller times the whole
process from spawn to exit.
"""

import copy
import itertools
import sys

from zpfsim import config, scenarios


def build(point: dict):
    specs = config.ExperimentConfig(point).detector_specs()
    kind = point["scenario"]["kind"]
    g = point["scenario"]["g"]
    names = [d["name"] for d in point["detectors"]]
    if kind == "vacuum":
        return scenarios.vacuum_scenario(specs, names, point["scenario"]["n_modes"])
    if kind == "pdc":
        return scenarios.pdc_scenario(specs[0], specs[1], g, (names[0], names[1]))
    return scenarios.chsh_scenario(specs[0], specs[1], g)


def main(path: str) -> None:
    data = config.load_config(path).data
    sweeps = data.get("sweeps") or {}
    for combo in itertools.product(*sweeps.values()):
        point = copy.deepcopy(data)
        for axis, value in zip(sweeps, combo):
            config.set_by_path(point, axis, value)
        build(point)


if __name__ == "__main__":
    main(sys.argv[1])
