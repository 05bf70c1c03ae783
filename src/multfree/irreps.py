"""
Irreducible-representation labels for the compact classical groups and their
exact characters on the standard maximal torus.

Families and label conventions
------------------------------
su(m)    partitions of length <= m-1.  Characters are Schur polynomials in m
         variables for the lift with last coordinate 0; torus weights are
         reported as (m-1)-vectors, normalised so that the dropped last
         coordinate is 0 (the honest character of the (m-1)-torus).
sp(n)    partitions of length <= n.  Characters are computed from the
         branching chains behind King's symplectic tableaux: sequences
         {} = u_0 in u_1 in ... in u_{2n} = weight with horizontal-strip
         steps and len(u_t) <= ceil(t/2); step 2i-1 contributes x_i^cells,
         step 2i contributes x_i^-cells.
u(k)     weakly decreasing integer k-tuples (entries may be negative);
         a determinant-power shift reduces to the partition case.
so(2n)   integer tuples a_1 >= ... >= a_{n-1} >= |a_n| (tensor
         representations of the full even orthogonal group; no spin
         weights).  Characters come from the Weyl alternating sum over
         signed permutations with an even number of sign changes, divided
         exactly by the corresponding denominator alternant.
circle   a single integer r; the character is the monomial x^r.

``decompose_product`` is the oracle used to check every closed-form rule in
the package; each pairwise step applies the Brauer-Klimyk rule
(``tensor_pair``).  A negative net coefficient or a dimension leak there is
a hard internal error, never clamped.  The tests keep greedy peeling of the
character product as an independent reference oracle.

All operations are pure functions over immutable values; the in-memory
pairwise tensor memo behaves as if absent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .laurent import LaurentPoly, exact_divide
from .partitions import Partition, canonical

FAMILIES = ("su", "sp", "u", "so", "circle")


class OracleError(RuntimeError):
    """The character oracle reached an impossible state (a genuine bug)."""


@dataclass(frozen=True, order=True)
class IrrepLabel:
    family: str
    rank: int
    weight: tuple[int, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "weight", tuple(int(x) for x in self.weight))
        w = self.weight
        if self.family == "su":
            if self.rank < 2:
                raise ValueError("su rank must be >= 2")
            object.__setattr__(self, "weight", canonical(w))
            if len(self.weight) > self.rank - 1:
                raise ValueError(f"su({self.rank}) weight too long: {w}")
        elif self.family == "sp":
            if self.rank < 1:
                raise ValueError("sp rank must be >= 1")
            object.__setattr__(self, "weight", canonical(w))
            if len(self.weight) > self.rank:
                raise ValueError(f"sp({self.rank}) weight too long: {w}")
        elif self.family == "u":
            if self.rank < 1:
                raise ValueError("u rank must be >= 1")
            if len(w) != self.rank:
                raise ValueError(f"u({self.rank}) weight must have length {self.rank}: {w}")
            if any(a < b for a, b in zip(w, w[1:])):
                raise ValueError(f"u weight not weakly decreasing: {w}")
        elif self.family == "so":
            if self.rank < 2:
                raise ValueError("so rank must be >= 2 (of SO(2n), n = rank)")
            if len(w) != self.rank:
                raise ValueError(f"so weight must have length {self.rank}: {w}")
            if any(a < b for a, b in zip(w[:-1], w[1:-1])):
                raise ValueError(f"so weight not weakly decreasing: {w}")
            if self.rank >= 2 and w[-2] < abs(w[-1]):
                raise ValueError(f"so weight needs a[n-2] >= |a[n-1]|: {w}")
        elif self.family == "circle":
            if self.rank != 1:
                raise ValueError("circle rank is always 1")
            if len(w) != 1:
                raise ValueError("circle weight is a single integer")

    @property
    def is_trivial(self) -> bool:
        return all(x == 0 for x in self.weight)

    def weight_size(self) -> int:
        return sum(abs(x) for x in self.weight)

    def to_json(self) -> dict:
        return {"family": self.family, "rank": self.rank, "weight": list(self.weight)}

    @classmethod
    def from_json(cls, data: dict) -> "IrrepLabel":
        return cls(str(data["family"]).lower(), int(data["rank"]), tuple(data["weight"]))


def trivial(family: str, rank: int) -> IrrepLabel:
    if family in ("su", "sp"):
        return IrrepLabel(family, rank, ())
    if family in ("u", "so"):
        return IrrepLabel(family, rank, (0,) * rank)
    return IrrepLabel("circle", 1, (0,))


def su(rank: int, *weight: int) -> IrrepLabel:
    return IrrepLabel("su", rank, weight)


def sp(rank: int, *weight: int) -> IrrepLabel:
    return IrrepLabel("sp", rank, weight)


def u(rank: int, *weight: int) -> IrrepLabel:
    return IrrepLabel("u", rank, weight)


def so(rank: int, *weight: int) -> IrrepLabel:
    return IrrepLabel("so", rank, weight)


def circle(r: int) -> IrrepLabel:
    return IrrepLabel("circle", 1, (r,))


# ---------------------------------------------------------------------------
# formal sums


def label_to_json(label):
    if isinstance(label, tuple):
        return list(label)
    return label.to_json()


def label_from_json(data):
    if isinstance(data, list):
        return tuple(int(x) for x in data)
    if "torus" in data:
        from .cases import CompositeLabel

        return CompositeLabel.from_json(data)
    return IrrepLabel.from_json(data)


class FormalSum:
    """
    A multiset of labels: mapping label -> multiplicity >= 1.

    ``truncation`` is None for exact decompositions and a degree bound D for
    series cut at total grading degree D.  Iteration, ``to_json`` and
    ``repr`` run in label order: the field order of the label types
    (``IrrepLabel``: family, rank, weight; ``CompositeLabel``: torus, then
    u-labels), or the tuple order of weight vectors.
    """

    __slots__ = ("entries", "truncation")

    def __init__(self, entries=None, truncation: int | None = None):
        self.entries: dict = {}
        if entries:
            for label, mult in dict(entries).items():
                if mult < 0:
                    raise ValueError(f"negative multiplicity for {label}")
                if mult > 0:
                    self.entries[label] = int(mult)
        self.truncation = truncation

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FormalSum)
            and self.entries == other.entries
            and self.truncation == other.truncation
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.items_sorted())

    def __getitem__(self, label) -> int:
        return self.entries.get(label, 0)

    def items_sorted(self) -> list:
        return sorted(self.entries.items())

    def is_multiplicity_free(self) -> bool:
        return all(m == 1 for m in self.entries.values())

    def total(self) -> int:
        return sum(self.entries.values())

    def to_json(self) -> dict:
        return {
            "truncation": "exact" if self.truncation is None else self.truncation,
            "entries": [
                {"label": label_to_json(lab), "mult": m} for lab, m in self.items_sorted()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FormalSum":
        trunc = data.get("truncation", "exact")
        entries = {}
        for row in data["entries"]:
            entries[label_from_json(row["label"])] = int(row["mult"])
        return cls(entries, None if trunc == "exact" else int(trunc))

    def __repr__(self) -> str:
        inner = ", ".join(f"{lab}: {m}" for lab, m in self.items_sorted())
        return f"FormalSum({{{inner}}})"


# ---------------------------------------------------------------------------
# characters

_CHAR_CACHE: dict[IrrepLabel, LaurentPoly] = {}


def _strips_within(base: Partition, bound: Partition, cap: int) -> Iterator[tuple[Partition, int]]:
    """All shapes t with base in t in bound, t/base a horizontal strip and
    len(t) <= cap, together with the number of added cells, in ascending
    lexicographic order: row i of t runs up from base[i] to the lesser of
    bound[i] and base[i-1]."""
    rows = min(cap, len(base) + 1, len(bound))
    if len(base) > rows:
        return
    low = base + (0,) * (rows - len(base))
    ranges = [range(lo, min(hi, up) + 1) for lo, hi, up in zip(low, bound, bound[:1] + low)]
    base_size = sum(base)
    for t in itertools.product(*ranges):
        yield canonical(t), sum(t) - base_size


def _strip_chain(lam: Partition, k: int, steps) -> LaurentPoly:
    """Sum over chains of horizontal strips from () to lam, one per step
    (var, sign, cap): at most cap rows, each cell a factor x_var^sign."""
    if len(lam) > k:
        return LaurentPoly.zero(k)
    state: dict[Partition, LaurentPoly] = {(): LaurentPoly.one(k)}
    for var, sign, cap in steps:
        new: dict[Partition, LaurentPoly] = {}
        for shape, poly in state.items():
            for t, added in _strips_within(shape, lam, cap=cap):
                e = [0] * k
                e[var] = sign * added
                contrib = poly.shift(e)
                new[t] = new[t] + contrib if t in new else contrib
        state = new
    return state.get(lam, LaurentPoly.zero(k))


def _schur_poly(lam: Partition, k: int) -> LaurentPoly:
    """Schur polynomial s_lam(x_1..x_k) via chains of horizontal strips."""
    return _strip_chain(lam, k, [(i, 1, i + 1) for i in range(k)])


def _symplectic_poly(lam: Partition, n: int) -> LaurentPoly:
    """Symplectic character sp_lam(x_1^+-1 .. x_n^+-1) via King chains."""
    return _strip_chain(lam, n, [(i, sign, i + 1) for i in range(n) for sign in (1, -1)])


def _even_signed_perms(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Elements of the D_n Weyl group: (perm, signs, det) with det = sgn(perm)."""
    for perm in itertools.permutations(range(n)):
        sgn = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sgn = -sgn
        for flips in itertools.product((1, -1), repeat=n):
            if flips.count(-1) % 2 == 0:
                yield perm, flips, sgn


def _dn_alternant(v: tuple[int, ...], n: int) -> LaurentPoly:
    terms: dict[tuple[int, ...], int] = {}
    for perm, flips, sgn in _even_signed_perms(n):
        e = tuple(flips[i] * v[perm[i]] for i in range(n))
        terms[e] = terms.get(e, 0) + sgn
    return LaurentPoly(n, terms)


def _dn_character(lam: tuple[int, ...], n: int) -> LaurentPoly:
    rho = tuple(n - 1 - i for i in range(n))
    num = _dn_alternant(tuple(a + b for a, b in zip(lam, rho)), n)
    den = _dn_alternant(rho, n)
    return exact_divide(num, den)


def weyl_character(label: IrrepLabel) -> LaurentPoly:
    """Exact character of the irrep on the standard maximal torus."""
    cached = _CHAR_CACHE.get(label)
    if cached is not None:
        return cached
    fam, rank, w = label.family, label.rank, label.weight
    if fam == "circle":
        poly = LaurentPoly.monomial(w)
    elif fam == "su":
        poly = _schur_poly(w, rank)
    elif fam == "sp":
        poly = _symplectic_poly(w, rank)
    elif fam == "u":
        shift = -w[-1] if w[-1] < 0 else 0
        lam = canonical(tuple(x + shift for x in w))
        poly = _schur_poly(lam, rank)
        if shift:
            poly = poly.shift((-shift,) * rank)
    else:  # so
        poly = _dn_character(w, rank)
    _CHAR_CACHE[label] = poly
    return poly


def dimension(label: IrrepLabel) -> int:
    """Dimension from the Weyl product formula (independent of the character)."""
    fam, rank, w = label.family, label.rank, label.weight
    if fam == "circle":
        return 1
    num = den = 1
    if fam in ("su", "u"):
        lam = w + (0,) * (rank - len(w)) if fam == "su" else w
        for i in range(rank):
            for j in range(i + 1, rank):
                num *= lam[i] - lam[j] + j - i
                den *= j - i
    elif fam == "sp":
        lam = w + (0,) * (rank - len(w))
        l = [lam[i] + rank - i for i in range(rank)]
        m = [rank - i for i in range(rank)]
        for i in range(rank):
            num *= l[i]
            den *= m[i]
            for j in range(i + 1, rank):
                num *= (l[i] - l[j]) * (l[i] + l[j])
                den *= (m[i] - m[j]) * (m[i] + m[j])
    else:  # so
        l = [w[i] + rank - 1 - i for i in range(rank)]
        m = [rank - 1 - i for i in range(rank)]
        for i in range(rank):
            for j in range(i + 1, rank):
                num *= (l[i] - l[j]) * (l[i] + l[j])
                den *= (m[i] - m[j]) * (m[i] + m[j])
    d, rem = divmod(num, den)
    if rem:
        raise OracleError(f"non-integral dimension for {label}")
    return d


def weight_system(label: IrrepLabel) -> FormalSum:
    """
    Restriction of the irrep to the maximal torus, as a multiset of integer
    character vectors.  For su(m) the vectors are the honest characters of
    the (m-1)-torus: the last coordinate of the m-variable weight is
    normalised to 0 and dropped.
    """
    poly = weyl_character(label)
    out: dict[tuple[int, ...], int] = {}
    for e, c in poly.items():
        if label.family == "su":
            v = tuple(x - e[-1] for x in e[:-1])
        else:
            v = e
        out[v] = out.get(v, 0) + c
    return FormalSum(out)


# ---------------------------------------------------------------------------
# the decomposition oracle

# Weyl groups: permutations (A; trivial for the circle, type A of rank 1),
# signed permutations (C), and signed permutations with an even number of
# sign changes (D)
_WEYL_KIND = {"su": "A", "u": "A", "circle": "A", "sp": "C", "so": "D"}


def _reflect(kind: str, v: list[int]) -> tuple[int, tuple[int, ...]] | None:
    """Sign and dominant image of ``v`` under the Weyl group of ``kind``, or
    None when ``v`` lies on a wall."""
    keys = v if kind == "A" else [abs(x) for x in v]
    d = sorted(keys, reverse=True)
    if any(x == y for x, y in zip(d, d[1:])) or (kind == "C" and d[-1] == 0):
        return None
    flips = sum(x < y for i, x in enumerate(keys) for y in keys[i + 1 :])
    negatives = 0 if kind == "A" else sum(x < 0 for x in v)
    if kind == "C":
        flips += negatives
    elif kind == "D" and negatives % 2 and d[-1]:
        d[-1] = -d[-1]
    return (-1) ** flips, tuple(d)


_PAIR_CACHE: dict[tuple, dict[IrrepLabel, int]] = {}


def tensor_pair(a: IrrepLabel, b: IrrepLabel) -> dict[IrrepLabel, int]:
    """
    Decomposition of a (x) b into irreducibles by the Brauer-Klimyk rule:
    the sum over the weights mu of b, with multiplicity, of sign(w) times
    V[w(a + mu + rho) - rho], where w reflects a + mu + rho into the dominant
    chamber and terms on a wall vanish.  b is the factor of smaller Weyl
    dimension, so only its character is built; su works on the u(m) lift, and
    the circle is type A of rank 1, whose Weyl group is trivial.  Memoised on
    sorted weights; the returned dict iterates in label order.
    """
    if a.family != b.family or a.rank != b.rank:
        raise ValueError(f"family/rank mismatch: {a} vs {b}")
    wa, wb = a.weight, b.weight
    key = (a.family, a.rank, wa, wb) if wa <= wb else (a.family, a.rank, wb, wa)
    hit = _PAIR_CACHE.get(key)
    if hit is not None:
        return hit
    fam, rank = a.family, a.rank
    dim_a, dim_b = dimension(a), dimension(b)
    if dim_b > dim_a:
        a, b = b, a
    top = rank if fam == "sp" else rank - 1
    kind, rho = _WEYL_KIND[fam], tuple(range(top, top - rank, -1))
    # su and sp labels are partitions: pad to the rank
    shifted = [x + r for x, r in zip(a.weight + (0,) * (rank - len(a.weight)), rho)]
    net: dict[tuple[int, ...], int] = {}
    for mu, m in weyl_character(b).items():
        image = _reflect(kind, [x + y for x, y in zip(shifted, mu)])
        if image is not None:
            sign, d = image
            lam = tuple(x - r for x, r in zip(d, rho))
            net[lam] = net.get(lam, 0) + sign * m
    result = {}
    for lam, c in net.items():
        if c < 0:
            raise OracleError(f"negative multiplicity {c} at {lam} in {a} (x) {b}")
        if c:
            if fam == "su":
                lam = tuple(x - lam[-1] for x in lam)
            label = IrrepLabel(fam, rank, lam)
            result[label] = result.get(label, 0) + c
    got = sum(m * dimension(lab) for lab, m in result.items())
    if got != dim_a * dim_b:
        raise OracleError(f"dimension leak in {a} (x) {b}: {got} != {dim_a * dim_b}")
    result = dict(sorted(result.items()))
    _PAIR_CACHE[key] = result
    return result


def decompose_product(labels: Iterable[IrrepLabel]) -> FormalSum:
    """
    Exact multiplicities of the irreducible constituents of a tensor product
    of same-family, same-rank irreps.
    """
    labels = list(labels)
    if not labels:
        raise ValueError("need at least one label")
    fam, rank = labels[0].family, labels[0].rank
    for lab in labels[1:]:
        if lab.family != fam or lab.rank != rank:
            raise ValueError(f"family/rank mismatch: {labels[0]} vs {lab}")
    current: dict[IrrepLabel, int] = {labels[0]: 1}
    for nxt in labels[1:]:
        acc: dict[IrrepLabel, int] = {}
        for lab, m in current.items():
            for lab2, m2 in tensor_pair(lab, nxt).items():
                acc[lab2] = acc.get(lab2, 0) + m * m2
        current = acc
    return FormalSum(current)


def is_multiplicity_free(s: FormalSum) -> bool:
    return s.is_multiplicity_free()


# ---------------------------------------------------------------------------
# memo reset (each process starts with empty memos)


def clear_caches() -> None:
    _PAIR_CACHE.clear()
    _CHAR_CACHE.clear()


# ---------------------------------------------------------------------------
# rendering


def render_weight(label: IrrepLabel) -> str:
    w = label.weight
    if label.family == "su":
        if len(w) <= 1:
            return f"ν{w[0] if w else 0}"
        return "ν(" + ",".join(map(str, w)) + ")"
    if label.family == "circle":
        return f"χ{w[0]}"
    return "(" + ",".join(map(str, w)) + ")"


_GLYPH = {"sp": "η", "u": "υ", "su": "ν", "so": "σ"}


def render_label(label: IrrepLabel) -> str:
    if label.family == "circle":
        return f"χ{label.weight[0]}"
    glyph = _GLYPH[label.family]
    return glyph + "(" + ",".join(map(str, label.weight)) + ")"


def render_formal_sum(s: FormalSum) -> str:
    if not s.entries:
        return "0"
    bits = []
    for lab, m in sorted(s.entries.items(), reverse=True):
        txt = render_weight(lab)
        bits.append(txt if m == 1 else f"{m}*{txt}")
    return " + ".join(bits)
