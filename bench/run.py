"""
Benchmark of the three user paths through multfree.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round is a fresh interpreter
(``bench/worker.py``) that runs every op of the workload once against the
checkout's ``src``; rounds repeat while another one fits in ``--seconds``.  Set-up
time is measured on separate set-up-only rounds.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (and the tracing overhead) with ``--trace 1``.  Raw per-round
figures go to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("reference-sweep", "commutative-deep", "oracle-cold")
# set-up-only rounds per run; one more runs first to compile the sources
SETUP_PROBES = 9
# every run ends within this many seconds or gives up
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def tail_percentile(n_ops: int) -> int:
    """The highest whole percentile with at least ten ops beyond it."""
    return max(p for p in range(50, 100) if n_ops * (100 - p) >= 1000)


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        # no inherited interpreter settings and no persistent pair cache
        self.env = {
            k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "MULTFREE_CACHE"
        }
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def round(self, *extra: str) -> dict:
        """One worker process; returns its report plus its set-up time."""
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload, "--seed", str(self.seed)]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + list(extra), env=self.env, capture_output=True, text=True, timeout=left
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"round exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["ready"] - t0
        if report.get("isolation"):
            raise BenchError("round not isolated: " + "; ".join(report["isolation"]))
        return report


def summarize(rounds: list[dict]) -> dict:
    """End-to-end figures of one run: the median round for wall time and
    memory, and the op times of all its rounds for the latencies."""
    n_ops = len(rounds[0]["times"])
    p = tail_percentile(n_ops)
    times = [t for r in rounds for t in r["times"]]
    return {
        "wall_s": statistics.median(sum(r["times"]) for r in rounds),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_tail_ms": percentile(times, p) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "tail_percentile": p,
        "ops_per_round": n_ops,
    }


UNITS = {"wall_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_figures(traced: list[dict], plain: list[dict]) -> dict:
    """Per-layer figures: medians of the traced rounds, whose counts must
    repeat exactly, plus the tracing overhead on the round's wall time."""
    layers = [r["layers"] for r in traced]
    out = {}
    for name in layers[0]:
        values = [lay[name] for lay in layers]
        if isinstance(values[0], int) and len(set(values)) != 1:
            raise BenchError(f"count {name} differs between traced rounds: {values}")
        out[name] = statistics.median(values)
    out["trace.overhead_s"] = statistics.median(sum(r["times"]) for r in traced) - statistics.median(
        sum(r["times"]) for r in plain
    )
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "multfree" / "__init__.py").is_file():
        print(f"error: no multfree sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def run(args) -> dict:
    runner = Runner(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    probes = [runner.round("--setup-only") for _ in range(SETUP_PROBES + 1)][1:]

    plain: list[dict] = []
    traced: list[dict] = []
    t0 = time.monotonic()
    longest = 0.0
    while True:
        started = time.monotonic()
        if args.trace and len(traced) < len(plain):
            kind, report = "traced", runner.round("--trace")
            traced.append(report)
        else:
            kind, report = "plain", runner.round()
            plain.append(report)
        print(f"{kind} round: {sum(report['times']):.3f} s, {report['failed']} failed", file=sys.stderr)
        now = time.monotonic()
        longest = max(longest, now - started)
        # whole rounds only: stop unless another one fits in the run
        if (traced or not args.trace) and now - t0 + longest > args.seconds:
            break

    rounds = plain + traced
    summary = summarize(plain)
    summary["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "setup_probes_s": [p["setup_s"] for p in probes],
        "summary": summary,
        "rounds": [
            {k: r[k] for k in ("setup_s", "times", "peak_rss_mb", "failed", "reasons", "layers")}
            for r in rounds
        ],
    }
    if args.trace:
        figures = layer_figures(traced, plain)
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in figures.items()}
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in UNITS.items()}
    raw["metrics"] = metrics
    (OUT / f"{stem}.json").write_text(json.dumps(raw))
    return result_line(rounds, metrics)


def result_line(rounds: list[dict], metrics: dict) -> dict:
    """The run's result line.  No op is expected to fail, so one that raised
    or returned a wrong output makes the run incorrect."""
    failed = sum(r["failed"] for r in rounds)
    return {
        "correct": failed == 0,
        "attempted": sum(len(r["times"]) for r in rounds),
        "failed": failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
