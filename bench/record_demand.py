"""
Record the products that the classifier itself decomposes cold: every
``tensor_pair`` memo miss of the reference-sweep and commutative-deep rows.
They make up most of the oracle-cold pool.

    PYTHONPATH=src python3 bench/record_demand.py

Writes ``bench/demand_pairs.json`` (about 25 s).  Run it again only to
redefine the oracle-cold workload on purpose, since its figures are
comparable only on the same pool.
"""

from __future__ import annotations

import json
import sys

from workloads import DEMAND_FILE, WORKLOADS, module


def main() -> int:
    irreps = module("irreps")
    original, memo = irreps.tensor_pair, irreps._PAIR_CACHE
    seen = set()

    def recording(a, b):
        before = len(memo)
        result = original(a, b)
        if len(memo) > before:
            seen.add((a.family, a.rank) + tuple(sorted((a.weight, b.weight))))
        return result

    # every binding, so ``from .irreps import tensor_pair`` is recorded too
    mods = [sys.modules["multfree"]] + [module(m) for m in ("cases", "classify", "irreps")]
    for mod in mods:
        if getattr(mod, "tensor_pair", None) is original:
            mod.tensor_pair = recording
    for name in ("reference-sweep", "commutative-deep"):
        workload = WORKLOADS[name]
        irreps.clear_caches()
        for op in workload.build(0):
            workload.run(op)
    rows = [[f, r, list(wa), list(wb)] for f, r, wa, wb in sorted(seen)]
    text = ",\n".join(json.dumps(row) for row in rows)
    DEMAND_FILE.write_text(
        '{"about": "tensor_pair misses of the reference-sweep and commutative-deep rows,'
        ' written by bench/record_demand.py",\n "pairs": [\n' + text + "\n]}\n"
    )
    print(f"{len(rows)} pairs written to {DEMAND_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
