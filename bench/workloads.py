"""
The three benchmark workloads: how each builds its op list, how one op runs,
and the check that decides whether an op's output is right.

An op is one call timed from outside.  Every check compares the output with
a computation made apart from the call under test (the published table, the
Weyl dimension formula, Weyl alternants, the closed-form sp(n) rule, a
truncated re-run) or with a property the method must have; none compares
with stored output.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import random
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple


def module(name: str):
    """A ``multfree`` submodule.  The package attribute ``multfree.classify``
    is the ``classify`` function, which shadows the submodule of that name,
    so the submodules are reached through importlib."""
    return importlib.import_module(f"multfree.{name}")


# ---------------------------------------------------------------------------
# reference-sweep: the rows of ``multfree verify-theorem1 --bound 2 --degree 6``

REFERENCE_BOUND = 2
REFERENCE_DEGREE = 6


def reference_ops(seed: int) -> list:
    """Every spec of the default grid times every tau of size <= 2, in the
    order ``classify.sweep`` visits them.  The seed is not used."""
    cls, cases = module("classify"), module("cases")
    return [
        (spec, tau)
        for spec in cls.default_grid()
        for tau in cases.tau_candidates(spec, REFERENCE_BOUND)
    ]


def run_row(op, degree: int):
    spec, tau = op
    return module("classify").cross_check(spec, tau, degree)


def check_reference(op, row) -> str | None:
    """Table agreement, witness multiplicity and degree against the routes,
    and a re-run truncated at the witness degree."""
    cls = module("classify")
    spec, tau = op
    verdict = row.verdict
    if verdict.degree_bound != REFERENCE_DEGREE:
        return f"degree bound {verdict.degree_bound}, asked for {REFERENCE_DEGREE}"
    commutative = cls.expected_verdict(spec, tau).commutative
    if commutative == verdict.multiplicity_found:
        return "verdict disagrees with the reference table"
    if not verdict.multiplicity_found:
        return None
    if verdict.multiplicity < 2:
        return f"witness multiplicity {verdict.multiplicity} < 2"
    if sum(r["mult"] for r in verdict.routes) != verdict.multiplicity:
        return "route multiplicities do not add up to the witness multiplicity"
    reached, acc = None, 0
    for r in sorted(verdict.routes, key=lambda r: r["degree"]):
        acc += r["mult"]
        if acc >= 2:
            reached = r["degree"]
            break
    if reached != verdict.witness_degree:
        return f"witness degree {verdict.witness_degree}, routes reach 2 at degree {reached}"
    again = cls.classify(spec, tau, verdict.witness_degree)
    if (again.witness, again.witness_degree) != (verdict.witness, verdict.witness_degree):
        return "re-run truncated at the witness degree finds another witness"
    return None


# ---------------------------------------------------------------------------
# commutative-deep: bounded certificates far above the reference window

DEEP_DEGREE = 12


def deep_specs() -> list:
    """The default grid plus the two family VIII specs with a k >= 2 block
    that the grid lacks."""
    cls, cases = module("classify"), module("cases")
    return cls.default_grid() + [
        cases.case_spec("VIII", m=(), kn=((2, 0),)),
        cases.case_spec("VIII", m=(3,), kn=((2, 0),)),
    ]


def deep_ops(seed: int) -> list:
    """Every row of size <= 2 that the table calls commutative.  The seed is
    not used."""
    cls, cases = module("classify"), module("cases")
    return [
        (spec, tau)
        for spec in deep_specs()
        for tau in cases.tau_candidates(spec, REFERENCE_BOUND)
        if cls.expected_verdict(spec, tau).commutative
    ]


def check_deep(op, row) -> str | None:
    spec, tau = op
    verdict = row.verdict
    if verdict.multiplicity_found or verdict.degree_bound != DEEP_DEGREE:
        return f"expected MultiplicityFreeUpTo({DEEP_DEGREE}), got {verdict}"
    if not module("classify").expected_verdict(spec, tau).commutative:
        return "the reference table does not call this row commutative"
    return None


# ---------------------------------------------------------------------------
# oracle-cold: one cold ``multfree tensor`` product per op

# the products the two sweeps decompose cold (their ``tensor_pair`` misses),
# as ``bench/record_demand.py`` writes them
DEMAND_FILE = Path(__file__).resolve().with_name("demand_pairs.json")
# the tensor examples of the top-level README
README_PAIRS = (("sp", 2, (2, 1), (2,)), ("u", 2, (1, 0), (1, 0)), ("su", 2, (1,), (1,)))
# algebras that ``multfree tensor`` takes but the sweeps never reach; each
# adds its COVERAGE_PAIRS smallest pairs of non-trivial labels
COVERAGE = (("sp", 4), ("su", 4), ("u", 3), ("so", 3), ("so", 4))
COVERAGE_PAIRS = 8
# share of each stratum that one sample draws
ORACLE_FRACTION = 0.75


def coverage_pairs(family: str, rank: int) -> list:
    """The COVERAGE_PAIRS unordered pairs of non-trivial labels with the
    smallest |a| + |b|, ties in the graded label order."""
    cases, irreps = module("cases"), module("irreps")
    size = 2
    while True:
        labels = [
            irreps.IrrepLabel(family, rank, w)
            for w in cases.factor_weights(family, rank, size - 1)
            if any(w)
        ]
        pairs = sorted(
            (a.weight_size() + b.weight_size(), i, j)
            for i, a in enumerate(labels)
            for j, b in enumerate(labels[i:], i)
            if a.weight_size() + b.weight_size() <= size
        )
        if len(pairs) >= COVERAGE_PAIRS:
            return [(labels[i], labels[j]) for _, i, j in pairs[:COVERAGE_PAIRS]]
        size += 1


def oracle_pairs() -> list:
    """The sweeps' cold products, the README examples and the coverage
    pairs, without repeats."""
    irreps = module("irreps")
    rows = json.loads(DEMAND_FILE.read_text())["pairs"] + list(README_PAIRS)
    pairs = [(irreps.IrrepLabel(f, r, wa), irreps.IrrepLabel(f, r, wb)) for f, r, wa, wb in rows]
    pairs += [pair for f, r in COVERAGE for pair in coverage_pairs(f, r)]
    unique = {}
    for a, b in pairs:
        unique.setdefault((a.family, a.rank) + tuple(sorted((a.weight, b.weight))), (a, b))
    return [unique[key] for key in sorted(unique)]


def oracle_ops(seed: int) -> list:
    """A stratified sample.  A stratum holds the pairs of one algebra whose
    product dimension dim a * dim b has the same bit length; the seed draws
    ceil(0.75 n) of the n pairs of every stratum and shuffles the lot.  So
    the cost profile is nearly the same for every seed while the pairs
    differ, and the few costly pairs of the sparse top strata are nearly
    always drawn."""
    dim = module("irreps").dimension
    strata = defaultdict(list)
    for a, b in oracle_pairs():
        strata[(a.family, a.rank, (dim(a) * dim(b)).bit_length())].append((a, b))
    rng = random.Random(seed)
    ops = []
    for _, pairs in sorted(strata.items()):
        ops += rng.sample(pairs, math.ceil(ORACLE_FRACTION * len(pairs)))
    rng.shuffle(ops)
    return ops


def pieri_row(a, b):
    """The one-row factor the sp closed form takes, as ``multfree tensor sp``
    picks it (first label of length <= 1), or None."""
    if a.family != "sp":
        return None
    for row, other in ((a, b), (b, a)):
        if len(row.weight) <= 1:
            return row, other
    return None


def run_product(op):
    """``decompose_product`` on a pair, plus ``pieri_tensor`` when the sp
    closed form applies; the caller clears the memos first."""
    a, b = op
    oracle = module("irreps").decompose_product([a, b])
    picked = pieri_row(a, b)
    closed = None
    if picked is not None:
        row, other = picked
        s = row.weight[0] if row.weight else 0
        closed = module("sp_pieri").pieri_tensor(other.weight, s, a.rank)
    return oracle, closed


# The character identity chi_a chi_b = sum m chi_lam is checked through Weyl
# alternants A_v = sum over w in W of det(w) x^(w v), with no call into
# multfree: by the Weyl character formula it holds iff
# A_(a+rho) A_(b+rho) = A_rho sum m A_(lam+rho).  Both sides are
# W-invariant, and A_u A_v is the W-symmetrisation of x^u A_v, so the two
# sides agree iff the orbit sums of x^(a+rho) A_(b+rho) and of
# sum m x^(lam+rho) A_rho agree on every W-orbit.  That costs |W| terms per
# constituent instead of a character product.

# Weyl group type and rho of each family; su(m) is checked in m variables
WEYL = {
    "u": ("A", lambda n: tuple(range(n - 1, -1, -1))),
    "su": ("A", lambda n: tuple(range(n - 1, -1, -1))),
    "sp": ("C", lambda n: tuple(range(n, 0, -1))),
    "so": ("D", lambda n: tuple(range(n - 1, -1, -1))),
}


@functools.lru_cache(maxsize=None)
def weyl_group(kind: str, n: int) -> tuple:
    """Elements (perm, signs, det) acting by v -> (signs[i] v[perm[i]]):
    permutations (A), signed permutations (C) or those with an even number
    of sign changes (D)."""
    out = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for signs in itertools.product((1, -1), repeat=n):
            flips = signs.count(-1)
            if (kind == "A" and flips) or (kind == "D" and flips % 2):
                continue
            out.append((perm, signs, (-1) ** (inversions + (flips if kind == "C" else 0))))
    return tuple(out)


def dominant(kind: str, v: tuple) -> tuple:
    """The dominant weight of the W-orbit of v."""
    if kind == "A":
        return tuple(sorted(v, reverse=True))
    d = sorted((abs(x) for x in v), reverse=True)
    if kind == "D" and d[-1] and sum(x < 0 for x in v) % 2:
        d[-1] = -d[-1]
    return tuple(d)


def orbit_sums(family: str, n: int, monomials, v: tuple) -> dict:
    """Orbit sums of sum c x^u A_v over (u, c) in monomials, keyed by the
    orbit's dominant weight.  For su the key is taken on the honest
    (n-1)-torus: the last coordinate is subtracted from every coordinate."""
    kind = WEYL[family][0]
    out: dict = defaultdict(int)
    for perm, signs, det in weyl_group(kind, n):
        wv = [signs[i] * v[perm[i]] for i in range(n)]
        for u, c in monomials:
            d = dominant(kind, tuple(p + q for p, q in zip(u, wv)))
            if family == "su":
                d = tuple(x - d[-1] for x in d)
            out[d] += det * c
    return {k: c for k, c in out.items() if c}


def check_product(op, result) -> str | None:
    """Weyl dimension identity, the character identity through alternants,
    and agreement with the sp closed form where it applies."""
    irreps = module("irreps")
    a, b = op
    oracle, closed = result
    parts = oracle.entries
    if any(m < 1 for m in parts.values()):
        return "non-positive multiplicity"
    if any(lab.family != a.family or lab.rank != a.rank for lab in parts):
        return "constituent of another algebra"
    got = sum(m * irreps.dimension(lab) for lab, m in parts.items())
    if got != irreps.dimension(a) * irreps.dimension(b):
        return "Weyl dimension identity fails"
    n = a.rank
    rho = WEYL[a.family][1](n)

    def shifted(label):
        w = label.weight + (0,) * (n - len(label.weight))
        return tuple(x + r for x, r in zip(w, rho))

    left = orbit_sums(a.family, n, [(shifted(a), 1)], shifted(b))
    right = orbit_sums(a.family, n, [(shifted(lab), m) for lab, m in parts.items()], rho)
    if left != right:
        return "the constituents' characters do not add up to the product's"
    if closed is not None and closed.entries != parts:
        return "oracle and the sp one-row closed form disagree"
    return None


# ---------------------------------------------------------------------------


class Workload(NamedTuple):
    name: str
    build: Callable  # seed -> op list
    run: Callable  # op -> output
    check: Callable  # (op, output) -> None or why the output is wrong
    # clear the pair and character memos before each op
    cold_ops: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reference-sweep",
            reference_ops,
            lambda op: run_row(op, REFERENCE_DEGREE),
            check_reference,
            False,
        ),
        Workload("commutative-deep", deep_ops, lambda op: run_row(op, DEEP_DEGREE), check_deep, False),
        Workload("oracle-cold", oracle_ops, run_product, check_product, True),
    )
}


def failure(workload: Workload, op, output) -> str | None:
    """Why an op failed, or None: it raised, or its output fails the check."""
    if isinstance(output, BaseException):
        return f"raised {type(output).__name__}: {output}"
    try:
        return workload.check(op, output)
    except Exception as exc:  # a check that cannot run counts the op failed
        return f"check raised {type(exc).__name__}: {exc}"
