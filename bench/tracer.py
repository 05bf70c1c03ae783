"""
Per-layer tracing from outside the program: wrappers around the public
functions of each ``multfree`` module, installed for a traced round and
removed before its checks run.

A call into a layer adds its duration to the child time of the layer that
called it; a layer's self time is its duration minus the time of the traced
calls inside it.  Hot calls (``tensor_pair`` memo hits and ``LaurentPoly``
arithmetic) are only counted, and ``LaurentPoly`` products timed, so their
time stays in the caller's self time.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from workloads import module

# (module, function, layer name): every binding of the function in a loaded
# multfree module is replaced, so ``from .cases import omega_entries`` in
# classify is traced as well
TIMED = (
    ("classify", "classify", "classify.classify"),
    ("cases", "omega_entries", "cases.omega_entries"),
    ("cases", "tau_entries", "cases.tau_entries"),
    ("cases", "production_routes", "cases.production_routes"),
    ("irreps", "weyl_character", "irreps.weyl_character"),
    ("laurent", "exact_divide", "laurent.exact_divide"),
    ("sp_pieri", "pieri_tensor", "sp_pieri.pieri_tensor"),
)
# strip enumeration is traced only as called from sp_pieri
STRIPS = ("strip_predecessors", "strip_successors")
LAURENT_OPS = ("__add__", "__sub__", "shift", "scale")


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        # open calls: [child seconds, layer name], under a root for the op
        self._frames: list[list] = [[0.0, "op"]]
        self._wrapped: list[tuple] = []
        # laurent ops, terms out, product terms, product seconds
        self._laurent = [0, 0, 0, 0.0]
        self._omega_memo = module("cases").omega_entries
        self._build()

    # -- wrappers --------------------------------------------------------

    def _timed(self, name, fn, after=None):
        frames, self_s, calls = self._frames, self.self_s, self.calls

        def wrapper(*args, **kwargs):
            parent = frames[-1]
            frame = [0.0, name]
            frames.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                frames.pop()
            d = t1 - t0
            parent[0] += d
            self_s[name] += d - frame[0]
            calls[name] += 1
            if after is not None:
                after(parent, result)
            return result

        return wrapper

    def _tensor_pair(self, fn):
        """A memo miss is timed; a hit is only counted."""
        frames, self_s, calls = self._frames, self.self_s, self.calls
        # read-only view of the memo: its growth marks a miss
        memo = module("irreps")._PAIR_CACHE
        name = "irreps.tensor_pair"

        def wrapper(a, b):
            parent = frames[-1]
            frame = [0.0, name]
            frames.append(frame)
            before = len(memo)
            t0 = perf_counter()
            try:
                result = fn(a, b)
            finally:
                t1 = perf_counter()
                frames.pop()
            calls[name] += 1
            if len(memo) > before:
                d = t1 - t0
                parent[0] += d
                self_s["irreps.tensor_pair_miss"] += d - frame[0]
                calls["irreps.tensor_pair_miss"] += 1
            return result

        return wrapper

    def _laurent_op(self, fn):
        acc = self._laurent

        def wrapper(*args):
            result = fn(*args)
            acc[0] += 1
            acc[1] += len(result.terms)
            return result

        return wrapper

    def _laurent_mul(self, fn):
        acc = self._laurent

        def wrapper(x, y):
            t0 = perf_counter()
            result = fn(x, y)
            acc[3] += perf_counter() - t0
            n = len(result.terms)
            acc[0] += 1
            acc[1] += n
            acc[2] += n
            return result

        return wrapper

    def _count_terms(self, key):
        counts = self.counts

        def after(parent, result):
            # terms the scan itself walks: calls made directly by classify
            if parent[1] == "classify.classify":
                counts[key] += len(result)

        return after

    def _build(self) -> None:
        after = {
            "cases.omega_entries": self._count_terms("cases.omega_terms"),
            "cases.tau_entries": self._count_terms("cases.tau_terms"),
        }
        mods = [sys.modules["multfree"]] + [
            module(m) for m in ("cases", "classify", "irreps", "laurent", "partitions", "sp_pieri")
        ]
        for mod_name, attr, name in TIMED:
            original = getattr(module(mod_name), attr)
            wrapper = self._timed(name, original, after.get(name))
            for mod in mods:
                if getattr(mod, attr, None) is original:
                    self._wrapped.append((mod, attr, original, wrapper))
        original = module("irreps").tensor_pair
        wrapper = self._tensor_pair(original)
        for mod in mods:
            if getattr(mod, "tensor_pair", None) is original:
                self._wrapped.append((mod, "tensor_pair", original, wrapper))
        sp_pieri = module("sp_pieri")
        for attr in STRIPS:
            original = getattr(sp_pieri, attr)
            self._wrapped.append((sp_pieri, attr, original, self._timed("partitions.strip", original)))
        poly = module("laurent").LaurentPoly
        for attr in LAURENT_OPS:
            original = poly.__dict__[attr]
            self._wrapped.append((poly, attr, original, self._laurent_op(original)))
        original = poly.__dict__["__mul__"]
        self._wrapped.append((poly, "__mul__", original, self._laurent_mul(original)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._wrapped:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._wrapped:
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures of the traced round, by metric name."""
        s, c = self.self_s, self.calls
        pairs = c["irreps.tensor_pair"]
        misses = c["irreps.tensor_pair_miss"]
        ops, terms_out, mul_terms, mul_s = self._laurent
        return {
            "classify.scan_s": s["classify.classify"],
            "cases.omega_entries_s": s["cases.omega_entries"],
            "cases.omega_entries_hits": self._omega_memo.cache_info().hits,
            "cases.omega_terms": self.counts["cases.omega_terms"],
            "cases.tau_entries_s": s["cases.tau_entries"],
            "cases.tau_terms": self.counts["cases.tau_terms"],
            "cases.production_routes_s": s["cases.production_routes"],
            "cases.production_routes_calls": c["cases.production_routes"],
            "irreps.tensor_pair_calls": pairs,
            "irreps.tensor_pair_misses": misses,
            "irreps.tensor_pair_hit_ratio": (pairs - misses) / pairs if pairs else 0.0,
            "irreps.tensor_pair_miss_s": s["irreps.tensor_pair_miss"],
            "irreps.weyl_character_s": s["irreps.weyl_character"],
            "irreps.weyl_character_calls": c["irreps.weyl_character"],
            "laurent.mul_s": mul_s,
            "laurent.mul_terms": mul_terms,
            "laurent.exact_divide_s": s["laurent.exact_divide"],
            "laurent.ops": ops,
            "laurent.terms_out": terms_out,
            "sp_pieri.pieri_tensor_s": s["sp_pieri.pieri_tensor"],
            "partitions.strip_s": s["partitions.strip"],
        }
