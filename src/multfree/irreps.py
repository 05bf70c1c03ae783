"""
Irreducible-representation labels for the compact classical groups and their
exact characters on the standard maximal torus.

Families and label conventions
------------------------------
su(m)    partitions of length <= m-1, worked on the u(m) lift with last
         coordinate 0; torus weights are reported as (m-1)-vectors,
         normalised so that the dropped last coordinate is 0 (the honest
         character of the (m-1)-torus).
sp(n)    partitions of length <= n.
u(k)     weakly decreasing integer k-tuples (entries may be negative).
so(2n)   integer tuples a_1 >= ... >= a_{n-1} >= |a_n| (tensor
         representations of the full even orthogonal group; no spin
         weights).
circle   a single integer r: type A of rank 1, whose character is x^r.

Every character comes from Freudenthal's formula on the Weyl data of its
family: type A (su, u, circle), C (sp) or D (so), with the integer weights
of the standard torus and rho as in ``_weyl_data``.

``decompose_product`` is the oracle used to check every closed-form rule in
the package; each pairwise step applies the Brauer-Klimyk rule
(``tensor_pair``).  A negative net coefficient or a dimension leak there is
a hard internal error, never clamped.  The tests keep greedy peeling of the
character product as an independent reference oracle.

All operations are pure functions over immutable values.  Two label memos
(pairwise tensor products and characters) behave as if absent, and
``clear_caches`` empties both.  The constants of each algebra (Weyl kind and
rho, positive roots, coordinate index pairs, the denominator of the Weyl
dimension formula) are built once per (kind or family, rank) and
kept for the life of the process; they are not label memos, hold no label,
and ``clear_caches`` does not empty them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod
from operator import add, ge, mul, sub
from typing import Iterable, NamedTuple

from .laurent import LaurentPoly
from .partitions import canonical_ints

FAMILIES = ("su", "sp", "u", "so", "circle")


class OracleError(RuntimeError):
    """The character oracle reached an impossible state (a genuine bug)."""


class ValidatedTuple:
    """The base of a NamedTuple value type that validates in ``__new__``:
    ``_make`` (and through it ``_replace`` and, from Python 3.13,
    ``copy.replace``) and unpickling call the constructor, so no way of
    building a value skips its checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


def json_int(x) -> int:
    """An integer read back from JSON.  A float, a string or a bool (which
    ``int`` would truncate or convert) raises ValueError."""
    if type(x) is not int:
        raise ValueError(f"expected a JSON integer, got {x!r}")
    return x


class _IrrepFields(NamedTuple):
    family: str
    rank: int
    weight: tuple[int, ...]


class IrrepLabel(ValidatedTuple, _IrrepFields):
    """An irreducible label: a tuple (family, rank, weight), validated and
    normalised when built, hashed as that tuple and ordered by family, then
    rank, then weight."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int, weight: Iterable[int]) -> "IrrepLabel":
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        w = tuple(map(int, weight))
        if family == "su":
            if rank < 2:
                raise ValueError("su rank must be >= 2")
            part = canonical_ints(w)
            if len(part) > rank - 1:
                raise ValueError(f"su({rank}) weight too long: {w}")
            w = part
        elif family == "sp":
            if rank < 1:
                raise ValueError("sp rank must be >= 1")
            part = canonical_ints(w)
            if len(part) > rank:
                raise ValueError(f"sp({rank}) weight too long: {w}")
            w = part
        elif family == "u":
            if rank < 1:
                raise ValueError("u rank must be >= 1")
            if len(w) != rank:
                raise ValueError(f"u({rank}) weight must have length {rank}: {w}")
            if not all(map(ge, w, w[1:])):
                raise ValueError(f"u weight not weakly decreasing: {w}")
        elif family == "so":
            if rank < 2:
                raise ValueError("so rank must be >= 2 (of SO(2n), n = rank)")
            if len(w) != rank:
                raise ValueError(f"so weight must have length {rank}: {w}")
            if not all(map(ge, w[:-2], w[1:-1])):
                raise ValueError(f"so weight not weakly decreasing: {w}")
            if w[-2] < abs(w[-1]):
                raise ValueError(f"so weight needs a[n-2] >= |a[n-1]|: {w}")
        elif family == "circle":
            if rank != 1:
                raise ValueError("circle rank is always 1")
            if len(w) != 1:
                raise ValueError("circle weight is a single integer")
        return tuple.__new__(cls, (family, rank, w))

    @property
    def is_trivial(self) -> bool:
        return all(x == 0 for x in self.weight)

    def weight_size(self) -> int:
        return sum(abs(x) for x in self.weight)

    def to_json(self) -> dict:
        return {"family": self.family, "rank": self.rank, "weight": list(self.weight)}

    @classmethod
    def from_json(cls, data: dict) -> "IrrepLabel":
        weight = tuple(map(json_int, data["weight"]))
        return cls(str(data["family"]).lower(), json_int(data["rank"]), weight)


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


class FormalSum:
    """
    An exact decomposition: a mapping from irreducible labels to
    multiplicities >= 1.  A multiplicity that is not an int (a float, a
    string or a bool, which ``int`` would truncate or convert) raises
    ValueError, as a negative one does; zero drops the label.  ``to_json``
    and ``repr`` run in label order (family, rank, weight).
    """

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries: dict = {}
        if entries:
            for label, mult in dict(entries).items():
                if type(mult) is not int:
                    raise ValueError(f"multiplicity for {label} must be an int, got {mult!r}")
                if mult > 0:
                    self.entries[label] = mult
                elif mult < 0:
                    raise ValueError(f"negative multiplicity for {label}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FormalSum) and self.entries == other.entries

    def __getitem__(self, label) -> int:
        return self.entries.get(label, 0)

    def items_sorted(self) -> list:
        return sorted(self.entries.items())

    def is_multiplicity_free(self) -> bool:
        return all(m == 1 for m in self.entries.values())

    def to_json(self) -> dict:
        return {
            "truncation": "exact",
            "entries": [
                {"label": lab.to_json(), "mult": m} for lab, m in self.items_sorted()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FormalSum":
        """The sum a ``to_json`` dict holds.  Two entries that name one label,
        once normalised (``[1, 0]`` and ``[1]`` in sp), raise ValueError, so
        no entry overwrites another or hides a negative multiplicity."""
        trunc = data.get("truncation", "exact")
        if trunc != "exact":
            raise ValueError(f"not an exact decomposition: truncation {trunc!r}")
        entries = {}
        for row in data["entries"]:
            label = IrrepLabel.from_json(row["label"])
            if label in entries:
                raise ValueError(f"two entries for {label}")
            entries[label] = json_int(row["mult"])
        return cls(entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{lab}: {m}" for lab, m in self.items_sorted())
        return f"FormalSum({{{inner}}})"


# ---------------------------------------------------------------------------
# Weyl data
#
# Each ``lru_cache`` table of this module holds constants of one algebra, one
# entry per (kind or family, rank) met (see the module docstring).

# Weyl groups: permutations (A; the circle is A of rank 1), signed
# permutations (C), and those with an even number of sign changes (D)
_WEYL_KIND = {"su": "A", "u": "A", "circle": "A", "sp": "C", "so": "D"}


@lru_cache(maxsize=None)
def _algebra(family: str, rank: int) -> tuple[str, tuple[int, ...]]:
    """Weyl group kind and rho of a family at a rank; su works on the u(m)
    lift, so its rho is that of u(m)."""
    top = rank if family == "sp" else rank - 1
    return _WEYL_KIND[family], tuple(range(top, top - rank, -1))


def _weyl_data(label: IrrepLabel) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """Weyl group kind, rho and the weight padded to the rank: su and sp
    labels are partitions, and su works on the u(m) lift with last entry 0."""
    kind, rho = _algebra(label.family, label.rank)
    w = label.weight
    return kind, rho, w + (0,) * (label.rank - len(w))


@lru_cache(maxsize=None)
def _index_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The coordinate pairs i < j of an n-vector."""
    return tuple(itertools.combinations(range(n), 2))


@lru_cache(maxsize=None)
def _positive_roots(kind: str, n: int) -> tuple[tuple[int, ...], ...]:
    """e_i - e_j for i < j; also e_i + e_j for C and D; also 2e_i for C."""
    pairs = _index_pairs(n)
    signs = (-1,) if kind == "A" else (-1, 1)
    roots = [tuple((k == i) + s * (k == j) for k in range(n)) for s in signs for i, j in pairs]
    if kind == "C":
        roots += [tuple(2 * (k == i) for k in range(n)) for i in range(n)]
    return tuple(roots)


def _is_dominant(kind: str, v: tuple[int, ...]) -> bool:
    """Whether ``v`` lies in the closed dominant chamber: weakly decreasing,
    with a last entry >= 0 (C) or with a[n-2] >= |a[n-1]| (D)."""
    if kind == "D":
        return all(map(ge, v[:-2], v[1:-1])) and v[-2] >= abs(v[-1])
    return all(map(ge, v, v[1:])) and (kind == "A" or v[-1] >= 0)


def _dominant(kind: str, v) -> tuple[int, ...]:
    """The dominant weight in the Weyl orbit of ``v``."""
    if kind == "A":
        return tuple(sorted(v, reverse=True))
    d = sorted(map(abs, v), reverse=True)
    if kind == "D" and d[-1] and sum(x < 0 for x in v) % 2:
        d[-1] = -d[-1]
    return tuple(d)


def _rearrangements(values: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct orderings of a multiset, each once."""
    if len(set(values)) <= 1:
        return [values]
    return [
        (x,) + rest
        for i, x in enumerate(values)
        if x not in values[:i]
        for rest in _rearrangements(values[:i] + values[i + 1 :])
    ]


def _orbit(kind: str, mu: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The Weyl orbit of a dominant weight, each weight once: the distinct
    rearrangements of its entries (A), or of their absolute values with any
    signs on the nonzero ones (C and D).  In D, when no entry is zero, the
    number of minus signs has the parity of mu's own."""
    if kind == "A":
        return _rearrangements(mu)
    orbit = [
        v
        for p in _rearrangements(tuple(map(abs, mu)))
        for v in itertools.product(*[(x, -x) if x else (0,) for x in p])
    ]
    if kind == "D" and 0 not in mu:
        odd = mu[-1] < 0
        orbit = [v for v in orbit if len([x for x in v if x < 0]) % 2 == odd]
    return orbit


# ---------------------------------------------------------------------------
# characters

_CHAR_CACHE: dict[IrrepLabel, LaurentPoly] = {}


def weyl_character(label: IrrepLabel) -> LaurentPoly:
    """
    Exact character of the irrep on the standard maximal torus, by
    Freudenthal's formula (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 22.3):

        ((lam+rho)^2 - (mu+rho)^2) m(mu)
            = 2 sum over alpha > 0, k >= 1 of (mu + k alpha, alpha) m(mu + k alpha)

    The dominant weights are those reached from lam by steps down positive
    roots through dominant weights.  Their multiplicities are computed in
    decreasing (mu+rho)^2, which the dominant image of every mu + k alpha
    exceeds (a type-A rho shifted along (1, ..., 1) changes no difference of
    two norms), and a remainder is an ``OracleError``.  Each dominant weight
    is then spread over its Weyl orbit.
    """
    if label in _CHAR_CACHE:
        return _CHAR_CACHE[label]
    kind, rho, lam = _weyl_data(label)
    roots = _positive_roots(kind, len(lam))
    found, todo = {lam}, [lam]
    while todo:
        mu = todo.pop()
        for a in roots:
            nu = tuple(map(sub, mu, a))
            if nu not in found and _is_dominant(kind, nu):
                found.add(nu)
                todo.append(nu)
    norm = {}
    for mu in found:
        s = tuple(map(add, mu, rho))
        norm[mu] = sum(map(mul, s, s))
    mult = {lam: 1}
    for mu in sorted(found - {lam}, key=lambda mu: (norm[mu], mu), reverse=True):
        total = 0
        for a in roots:
            nu = tuple(map(add, mu, a))
            while m := mult.get(_dominant(kind, nu)):
                total += m * sum(map(mul, nu, a))
                nu = tuple(map(add, nu, a))
        m, rem = divmod(2 * total, norm[lam] - norm[mu])
        if rem:
            raise OracleError(f"non-integral weight multiplicity at {mu} for {label}")
        mult[mu] = m
    poly = LaurentPoly(len(lam), {e: m for mu, m in mult.items() for e in _orbit(kind, mu)})
    _CHAR_CACHE[label] = poly
    return poly


def _weyl_product(family: str, l: tuple[int, ...], pairs: tuple[tuple[int, int], ...]) -> int:
    """The Weyl product of l = w + rho, written out for each family apart
    from the roots and the characters: the product over the index pairs
    i < j of l_i - l_j (su, u) or of l_i^2 - l_j^2 (sp, so), times every l_i
    for sp."""
    num = prod(l) if family == "sp" else 1
    if family in ("sp", "so"):
        l = [x * x for x in l]
    for i, j in pairs:
        num *= l[i] - l[j]
    return num


@lru_cache(maxsize=None)
def _dimension_data(family: str, rank: int) -> tuple[tuple[int, ...], tuple, int]:
    """Rho, the coordinate index pairs and the Weyl product of rho, the
    denominator of the dimension formula."""
    rho = _algebra(family, rank)[1]
    pairs = _index_pairs(rank)
    return rho, pairs, _weyl_product(family, rho, pairs)


def dimension(label: IrrepLabel) -> int:
    """Dimension from the Weyl product formula, independent of the
    characters and of the root table: the Weyl product of the weight over
    that of the trivial weight, a constant of the algebra."""
    fam, rank, w = label
    if fam == "circle":
        return 1
    rho, pairs, den = _dimension_data(fam, rank)
    # su and sp weights are partitions: the missing entries are 0
    d, rem = divmod(_weyl_product(fam, (*map(add, w, rho), *rho[len(w) :]), pairs), den)
    if rem:
        raise OracleError(f"non-integral dimension for {label}")
    return d


def weight_system(label: IrrepLabel) -> dict[tuple[int, ...], int]:
    """
    Restriction of the irrep to the maximal torus: each integer character
    vector with its multiplicity.  For su(m) the vectors are the honest
    characters of the (m-1)-torus: the last coordinate of the m-variable
    weight is normalised to 0 and dropped.
    """
    poly = weyl_character(label)
    out: dict[tuple[int, ...], int] = {}
    for e, c in poly.items():
        if label.family == "su":
            v = tuple(x - e[-1] for x in e[:-1])
        else:
            v = e
        out[v] = out.get(v, 0) + c
    return out


# ---------------------------------------------------------------------------
# the decomposition oracle

_PAIR_CACHE: dict[tuple, dict[IrrepLabel, int]] = {}


def _brauer_klimyk(kind: str, shifted: tuple[int, ...], rho: tuple[int, ...], weights) -> dict:
    """The net coefficient of each dominant lam in the sum over the weights
    (mu, m) of m sign(w) [w(shifted + mu) - rho], where w takes shifted + mu
    into the dominant chamber.  Ordering the entries (A) or their absolute
    values (C, D) decreasingly is w up to signs; a repeated key, or a zero
    one in C, puts the weight on a wall, where its term vanishes.  det(w) is
    the parity of the key inversions, plus the minus signs in C; in D the
    sign changes come in pairs, and an odd number of minus signs leaves the
    last entry negative."""
    n = len(shifted)
    pairs = _index_pairs(n)
    net: dict[tuple[int, ...], int] = {}
    for mu, m in weights:
        v = tuple(map(add, shifted, mu))
        keys = v if kind == "A" else tuple(map(abs, v))
        if len(set(keys)) < n:
            continue
        d = sorted(keys, reverse=True)
        flips = sum([keys[i] < keys[j] for i, j in pairs])
        if kind != "A":
            minus = len([x for x in v if x < 0])
            if kind == "C":
                if not d[-1]:
                    continue
                flips += minus
            elif minus % 2 and d[-1]:
                d[-1] = -d[-1]
        lam = tuple(map(sub, d, rho))
        net[lam] = net.get(lam, 0) + (-m if flips % 2 else m)
    return net


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
    kind, rho, lam_a = _weyl_data(a)
    shifted = tuple(map(add, lam_a, rho))
    result = {}
    for lam, c in _brauer_klimyk(kind, shifted, rho, weyl_character(b).items()).items():
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


# ---------------------------------------------------------------------------
# memo reset (each process starts with empty memos); the per-algebra
# constants of the Weyl data section hold no label and stay


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
