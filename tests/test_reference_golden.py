"""
Golden file for the reference sweep: every row of ``verify-theorem1 --bound 2
--degree 6`` with its full verdict, routes included, must stay unchanged.

Each line of ``data/reference_sweep.json.gz`` is one compact JSON object,
``CheckRow.to_json()`` merged with ``Verdict.to_json()`` (the keys they share
hold the same values).  Regenerate it, only after an intended change of
output, with

    PYTHONPATH=src python tests/test_reference_golden.py --write
"""

import gzip
import json
import sys
from pathlib import Path

from multfree.classify import default_grid, sweep

GOLDEN = Path(__file__).parent / "data" / "reference_sweep.json.gz"
BOUND, DEGREE = 2, 6


def _rows():
    for spec in default_grid():
        for row in sweep(spec, BOUND, DEGREE):
            yield {**row.to_json(), **row.verdict.to_json()}


def _line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_reference_sweep_matches_golden():
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        golden = fh.read().splitlines()
    got = [_line(obj) for obj in _rows()]
    for i, (want, have) in enumerate(zip(golden, got)):
        assert have == want, f"row {i} differs:\n golden   {want}\n computed {have}"
    assert len(got) == len(golden) == 647


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write("".join(_line(obj) + "\n" for obj in _rows()).encode("utf-8"))
