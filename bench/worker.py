"""
One round of a workload in a fresh interpreter: import multfree, build the
op list, time every op, check every output, and print one JSON line.

    python3 bench/worker.py --workload NAME --seed N [--trace] [--setup-only]

``bench/run.py`` starts this script once per round with ``PYTHONPATH``
pointing at the checkout's ``src``, so every round starts with cold memos.
With ``--setup-only`` the round stops once the op list is built.  Outputs
are checked after the timed loop and after peak memory is read, so the
checks neither warm a cache nor count in the round's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from time import perf_counter


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true", help="report per-layer figures")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import multfree

    from workloads import WORKLOADS, failure, module

    workload = WORKLOADS[args.workload]
    ops = workload.build(args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    irreps = module("irreps")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    times = [0.0] * len(ops)
    outputs: list = [None] * len(ops)
    for i, op in enumerate(ops):
        if workload.cold_ops:
            irreps.clear_caches()
        t0 = perf_counter()
        try:
            outputs[i] = workload.run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            outputs[i] = exc
        times[i] = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer:
        tracer.remove()
        layers = tracer.metrics()
    reasons = [failure(workload, op, out) for op, out in zip(ops, outputs)]

    isolation = []
    if not multfree.__file__.startswith(os.environ["PYTHONPATH"]):
        isolation.append(f"multfree imported from {multfree.__file__}")
    if "multfree.cache" in sys.modules or "MULTFREE_CACHE" in os.environ:
        isolation.append("the persistent pair cache is in use")
    if threading.active_count() != 1:
        isolation.append(f"{threading.active_count()} threads")
    failed = [i for i, r in enumerate(reasons) if r is not None]
    print(
        json.dumps(
            {
                "ready": ready,
                "times": times,
                "peak_rss_mb": peak_rss_mb,
                "failed": len(failed),
                "reasons": [f"op {i}: {reasons[i]}" for i in failed[:5]],
                "isolation": isolation,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
