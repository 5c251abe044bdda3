"""Fresh runs of the golden configs against the records checked in beside them.

Keys, strings, integers (``schema_version``), booleans and ``rng`` must be
equal, and floats equal to 1e-12 relative, so that another numpy or CPU may
sum in another order but a change of stream, seed key or logic fails. Where
the numpy version is the one that wrote the records, each file must also be
byte-identical. ``make_golden.py`` rewrites the records.
"""

import csv
import json
import math

import numpy as np
import pytest

from make_golden import MANIFEST, records, sha256, write_record


def assert_same(got, want, where="record"):
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}.{k}")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def read_csv(path):
    """Header, then rows whose numeric cells are floats."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return [header, *([cell(c) for c in row] for row in rows)]


@pytest.mark.parametrize("config, fmt", records(), ids=lambda v: getattr(v, "stem", v))
def test_record_matches_golden(config, fmt, tmp_path):
    golden = config.with_suffix(f".{fmt}")
    path = tmp_path / golden.name
    write_record(config, fmt, path)
    read = (lambda p: json.loads(p.read_text())) if fmt == "json" else read_csv
    assert_same(read(path), read(golden), golden.name)
    manifest = json.loads(MANIFEST.read_text())
    if manifest["numpy"] == np.__version__:
        assert sha256(path) == manifest["sha256"][golden.name]
