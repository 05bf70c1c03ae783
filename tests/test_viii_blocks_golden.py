"""
Golden file for specs whose series is a graded product of blocks and which
``default_grid()`` does not hold: family VIII with a u(k) block of k >= 2 or
with two blocks, and family II with k1 != k2 (its two spin(4) halves differ)
or with k1 = 0 (one half has no u-slot).  Every row of the sweeps below at
degree 6, with its full verdict, routes included, must stay unchanged.

Each line of ``data/viii_blocks_sweep.json.gz`` is one compact JSON object,
``CheckRow.to_json()`` merged with ``Verdict.to_json()``, in the same format
as ``data/reference_sweep.json.gz``.  Regenerate it, only after an intended
change of output, with

    PYTHONPATH=src python tests/test_viii_blocks_golden.py --write
"""

import gzip
import json
import sys
from pathlib import Path

from multfree.cases import case_spec
from multfree.classify import sweep

GOLDEN = Path(__file__).parent / "data" / "viii_blocks_sweep.json.gz"
DEGREE = 6
GRID = (
    (case_spec("VIII", m=(), kn=((2, 0),)), 2),
    (case_spec("VIII", m=(3,), kn=((2, 0),)), 1),
    (case_spec("VIII", kn=((2, 0), (1, 1))), 1),
    (case_spec("VIII", m=(3, 3)), 1),
    (case_spec("II", k1=2, k2=1), 1),
    (case_spec("II", k1=0, k2=2), 1),
)


def _rows():
    for spec, bound in GRID:
        for row in sweep(spec, bound, DEGREE):
            yield {**row.to_json(), **row.verdict.to_json()}


def _line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_viii_blocks_sweep_matches_golden():
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        golden = fh.read().splitlines()
    got = [_line(obj) for obj in _rows()]
    for i, (want, have) in enumerate(zip(golden, got)):
        assert have == want, f"row {i} differs:\n golden   {want}\n computed {have}"
    assert len(got) == len(golden) == 192


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write("".join(_line(obj) + "\n" for obj in _rows()).encode("utf-8"))
