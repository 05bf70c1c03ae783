"""
Golden files for the sweeps of every ``default_grid()`` spec: every row of
``verify-theorem1 --bound 2 --degree 6`` (the reference sweep) and of
``--bound 3 --degree 7`` (the stress grid) with its full verdict, routes
included, must stay unchanged.

Each line of ``data/reference_sweep.json.gz`` and ``data/stress_sweep.json.gz``
is one compact JSON object, ``CheckRow.to_json()`` merged with
``Verdict.to_json()`` (the keys they share hold the same values).  Regenerate
them, only after an intended change of output, with

    PYTHONPATH=src python tests/test_reference_golden.py --write
"""

import gzip
import json
import sys
from pathlib import Path

import pytest

from multfree.classify import default_grid, sweep

DATA = Path(__file__).parent / "data"
# (bound, degree): golden file, row count
GOLDENS = {
    (2, 6): ("reference_sweep.json.gz", 647),
    (3, 7): ("stress_sweep.json.gz", 2077),
}


def _rows(bound, degree):
    for spec in default_grid():
        for row in sweep(spec, bound, degree):
            yield {**row.to_json(), **row.verdict.to_json()}


def _line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("bound, degree", sorted(GOLDENS))
def test_reference_sweep_matches_golden(bound, degree):
    name, count = GOLDENS[bound, degree]
    with gzip.open(DATA / name, "rt", encoding="utf-8") as fh:
        golden = fh.read().splitlines()
    got = [_line(obj) for obj in _rows(bound, degree)]
    for i, (want, have) in enumerate(zip(golden, got)):
        assert have == want, f"row {i} differs:\n golden   {want}\n computed {have}"
    assert len(got) == len(golden) == count


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DATA.mkdir(exist_ok=True)
    for (bound, degree), (name, _) in GOLDENS.items():
        with open(DATA / name, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write("".join(_line(obj) + "\n" for obj in _rows(bound, degree)).encode("utf-8"))
