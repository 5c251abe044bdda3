"""Rewrite the golden run records in tests/data/golden from their configs.

Each ``<name>.yaml`` there is run on one worker and its record written as
``<name>.json``, and for the configs in ``CSV`` also as ``<name>.csv``.
``MANIFEST.json`` records the numpy version that wrote them and each
record's sha256. ``test_golden.py`` compares fresh runs with these files,
so rewrite them only with a change that is meant to move a record:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from zpfsim.config import load_config
from zpfsim.runner import emit, run

GOLDEN = Path(__file__).parent / "data" / "golden"
MANIFEST = GOLDEN / "MANIFEST.json"
CSV = ("chsh-sweep",)


def records() -> list[tuple[Path, str]]:
    """(config path, format) of every golden record."""
    out = []
    for config in sorted(GOLDEN.glob("*.yaml")):
        out.append((config, "json"))
        if config.stem in CSV:
            out.append((config, "csv"))
    return out


def write_record(config: Path, fmt: str, path: Path) -> None:
    emit(run(load_config(config), workers=1), fmt, path)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    digests = {}
    for config, fmt in records():
        path = config.with_suffix(f".{fmt}")
        write_record(config, fmt, path)
        digests[path.name] = sha256(path)
    MANIFEST.write_text(json.dumps({"numpy": np.__version__, "sha256": digests},
                                   indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
