"""
Per-case construction of the degree-truncated metaplectic series
(``omega_entries``), of the torus expansion of a test representation
(``tau_entries``) and of the productions of their product (``product_terms``),
each as a list of entries that the classifier scans.

Every case from the classification list reduces the commutativity question
to multiplicity-freeness of a series over composite labels (an integer
character vector on all circle coordinates, times irreducible labels for the
non-circle intertwiner factors).  The families are:

    I     su(2) x sp(n):      omega = sum_s chi_s (x) eta_(s)
    II    spin(4) x sp(k1) x sp(k2), reduced to two circles:
          omega = sum chi_(r+l1, s+l2) (x) eta_(r) (x) eta_(s), the graded
          product of two halves sum chi_(r+l) (x) eta_(r) on su(2) x sp(k)
    III   sp(2) x sp(n):      omega = sum chi_(r,s) (x) [eta_(r) (x) eta_(s)]
          with the inner product expanded by ``tensor_pair``
    IV    so(2n):             omega = sum over v in Z_{>=0}^n of chi_v
    V/VI  su(n) x circle:     one character per monomial on C^n
    VII   su(2) x u(k) x sp(n):
          omega = sum chi_(r-s+j) (x) [Sym^r (x) Sym^s] (x) eta_(j)
          with the u(k) product expanded by ``tensor_pair``
    VIII  graded products of type-(VI) and type-(VII) blocks
    IX    u(n) on the Heisenberg group: omega = sum_r Sym^r

The block layout is written once, in ``blocks(spec)``: the VI and VII
block specs of family VIII, the two halves of family II, and any other spec
as its own single block.  ``factors`` places every spec's factors block by
block, so each block owns a contiguous run of torus coordinates and of
u-slots.  The split of tau and of labels per block, the whole II and VIII
series (one graded product of the block series) and route recovery (each
block's ``product_terms`` filtered to its cut of the witness, joined) all
derive from it.  The route parameters of
a II term are its halves' (l, r), read as (l1, r) and (l2, s).

Degree truncation bounds the sum of the grading parameters of omega (the
polynomial degrees); the test representation is never truncated.

Torus bookkeeping for the su(m)-plus-circle blocks (V, VI, and the type-(VI)
blocks of VIII): a monomial with exponent vector m on C^n restricts to the
honest character (m_1 - m_n, ..., m_{n-1} - m_n) of the su-torus together
with total degree |m| on the circle, and those coordinates are what the
composite label stores.  Keeping the raw vector instead would identify the
circle direction with the determinant direction of u(n), which both misses
genuine collisions (the su-weight constructions of the source families) and
invents spurious ones.

All builders are pure; factor layouts and block positions are cached per
case, and omega entry lists per (case, degree bound).  Block layouts are
not: their readers are cached themselves or run once per witness.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .irreps import (
    IrrepLabel,
    OracleError,
    ValidatedTuple,
    json_int,
    render_label,
    tensor_pair,
    trivial,
    weight_system,
)

CASE_IDS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX")


@dataclass(frozen=True)
class CaseSpec:
    case_id: str
    params: tuple[tuple[str, object], ...]

    def __getitem__(self, key: str):
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    def to_json(self) -> dict:
        out = {"case": self.case_id}
        for k, v in self.params:
            out[k] = [list(x) if isinstance(x, tuple) else x for x in v] if isinstance(v, tuple) else v
        return out

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.case_id}({inner})"


_CASE_PARAMS = {"II": ("k1", "k2"), "VII": ("k", "n"), "VIII": ("m", "kn")}


def case_spec(case_id: str, **kwargs) -> CaseSpec:
    """Validated entry of the classification list."""
    case_id = case_id.upper()
    if case_id not in CASE_IDS:
        raise ValueError(f"unknown case {case_id!r}")
    names = _CASE_PARAMS.get(case_id, ("n",))
    for key in kwargs:
        if key not in names:
            raise ValueError(f"case {case_id} takes no parameter {key!r}")
    if case_id == "VIII":
        m = tuple(int(x) for x in kwargs.get("m", ()))
        kn = tuple((int(k), int(n)) for k, n in kwargs.get("kn", ()))
        if any(x < 3 for x in m):
            raise ValueError("case VIII needs every m_i >= 3")
        if any(k < 1 or n < 0 for k, n in kn):
            raise ValueError("case VIII needs k_j >= 1 and n_j >= 0")
        if not m and not kn:
            raise ValueError("case VIII needs at least one block")
        return CaseSpec("VIII", (("kn", kn), ("m", m)))
    for key in names:
        if key not in kwargs:
            raise ValueError(f"case {case_id} needs {key}")
    p = {key: int(kwargs[key]) for key in names}
    if case_id == "II":
        ok = p["k1"] >= 0 and p["k2"] >= 0 and p["k1"] + p["k2"] >= 1
        rule = "k1, k2 >= 0 with k1 + k2 >= 1"
    elif case_id == "VII":
        ok, rule = p["k"] >= 1 and p["n"] >= 0, "k >= 1 and n >= 0"
    else:
        least = {"IV": 2, "V": 3, "VI": 3}.get(case_id, 1)
        ok, rule = p["n"] >= least, f"n >= {least}"
    if not ok:
        raise ValueError(f"case {case_id} takes {rule}")
    return CaseSpec(case_id, tuple(p.items()))


# ---------------------------------------------------------------------------
# factor layout


class Factor(NamedTuple):
    key: str
    family: str
    rank: int
    kind: str  # "torus" or "uslot"
    pos: int  # torus offset or u-slot index


# The factors of each single-block kind in block order, as (key, family,
# rank, kind): a rank given as a string is the spec parameter of that name,
# and a factor of rank 0 is left out (a half of family II with k = 0, a
# family VII spec with n = 0).
_BLOCK_FACTORS = {
    "I": (("su2", "su", 2, "torus"), ("sp", "sp", "n", "uslot")),
    "IIh": (("su2", "su", 2, "torus"), ("sp", "sp", "k", "uslot")),
    "III": (("sp2", "sp", 2, "torus"), ("sp", "sp", "n", "uslot")),
    "IV": (("so", "so", "n", "torus"),),
    "V": (("su", "su", "n", "torus"), ("s1", "circle", 1, "torus")),
    "VI": (("su", "su", "n", "torus"), ("s1", "circle", 1, "torus")),
    "VII": (("su2", "su", 2, "torus"), ("u", "u", "k", "uslot"), ("sp", "sp", "n", "uslot")),
    "IX": (("u", "u", "n", "uslot"),),
}


def _block_factors(block: CaseSpec) -> list[tuple[str, str, int, str]]:
    """The (key, family, rank, kind) of each factor of a block, in block order."""
    ranks = dict(block.params)
    found = [(k, fam, ranks.get(r, r), kind) for k, fam, r, kind in _BLOCK_FACTORS[block.case_id]]
    return [f for f in found if f[2]]


def blocks(spec: CaseSpec) -> tuple[tuple[CaseSpec, tuple[str, ...]], ...]:
    """The blocks of a spec in block order, each with the keys its factors
    have in ``spec``: a block's own keys with the block's tag appended.  A
    family VIII spec has ``VI(n=m_i)`` tagged ``.i`` (su.i, s1.i), then
    ``VII(k=k_j, n=n_j)`` tagged ``.j`` (su2.j, u.j[, sp.j]).  A family II
    spec has two halves, su(2) x sp(k1) tagged ``a`` and su(2) x sp(k2)
    tagged ``b``, each a private block kind ``IIh(k)`` that ``case_spec``
    rejects; a half with k = 0 has no sp factor.  A spec of any other family
    is its own single block, untagged."""
    if spec.case_id == "II":
        tagged = [(CaseSpec("IIh", (("k", spec[k]),)), h) for h, k in (("a", "k1"), ("b", "k2"))]
    elif spec.case_id == "VIII":
        tagged = [(case_spec("VI", n=m), f".{i}") for i, m in enumerate(spec["m"], start=1)]
        tagged += [(case_spec("VII", k=k, n=n), f".{j}") for j, (k, n) in enumerate(spec["kn"], start=1)]
    else:
        tagged = [(spec, "")]
    return tuple((b, tuple(f[0] + tag for f in _block_factors(b))) for b, tag in tagged)


@lru_cache(maxsize=None)
def factors(spec: CaseSpec) -> tuple[Factor, ...]:
    """Factors of K in canonical order, with their torus/u-slot placement:
    each block's factors (``blocks``) take the next torus coordinates and
    u-slots, then su factors come first, circles next and u-slots last, each
    in block order."""
    out, next_pos = [], {"torus": 0, "uslot": 0}
    for block, keys in blocks(spec):
        for key, (_, family, rank, kind) in zip(keys, _block_factors(block)):
            out.append(Factor(key, family, rank, kind, next_pos[kind]))
            next_pos[kind] += rank - (family == "su") if kind == "torus" else 1
    return tuple(sorted(out, key=lambda f: (f.kind == "uslot", f.family == "circle")))


@lru_cache(maxsize=None)
def _block_positions(spec: CaseSpec) -> tuple[tuple[CaseSpec, tuple[int, ...]], ...]:
    """The blocks of a spec (``blocks``), each with the positions of its
    factors in ``factors(spec)``."""
    index = {f.key: i for i, f in enumerate(factors(spec))}
    return tuple((b, tuple(index[key] for key in keys)) for b, keys in blocks(spec))


def block_pieces(spec: CaseSpec, tau: TauSpec) -> list[tuple[CaseSpec, TauSpec]]:
    """The blocks of a spec (``blocks``), each with its piece of tau.  A
    spec that is its own single block gets tau itself as its piece."""
    positions = _block_positions(spec)
    if positions[0][0] == spec:
        return [(spec, tau)]
    return [(b, TauSpec(b, tuple(tau.labels[i] for i in pos))) for b, pos in positions]


def cut_label(spec: CaseSpec, label: CompositeLabel) -> list[CompositeLabel]:
    """One label per block of a spec, in block order: each block's run of
    torus coordinates and of u-slots.  ``join_labels`` undoes the cut."""
    out, t, u = [], 0, 0
    for b, _ in _block_positions(spec):
        dt, du = torus_dim(b), sum(f.kind == "uslot" for f in factors(b))
        out.append(CompositeLabel(label.torus[t : t + dt], label.ulabels[u : u + du]))
        t, u = t + dt, u + du
    return out


def join_labels(labels: list[CompositeLabel]) -> CompositeLabel:
    """The composite label of one label per block, in block order."""
    return CompositeLabel(sum((x.torus for x in labels), ()), sum((x.ulabels for x in labels), ()))


def torus_dim(spec: CaseSpec) -> int:
    """Torus coordinates of K: rank - 1 per su factor, the rank otherwise."""
    return sum(f.rank - (f.family == "su") for f in factors(spec) if f.kind == "torus")


class _TauFields(NamedTuple):
    spec: CaseSpec
    labels: tuple[IrrepLabel, ...]


class TauSpec(ValidatedTuple, _TauFields):
    """One irreducible label per factor of K, in canonical factor order: a
    tuple (spec, labels), checked against ``factors(spec)`` when built."""

    __slots__ = ()

    def __new__(cls, spec: CaseSpec, labels: Iterable[IrrepLabel]) -> "TauSpec":
        labels = tuple(labels)
        fs = factors(spec)
        if len(labels) != len(fs):
            raise ValueError(f"expected {len(fs)} factor labels, got {len(labels)}")
        for f, lab in zip(fs, labels):
            if lab.family != f.family or lab.rank != f.rank:
                raise ValueError(f"factor {f.key} needs family {f.family}({f.rank}), got {lab}")
        return super().__new__(cls, spec, labels)

    def label(self, key: str) -> IrrepLabel:
        for f, lab in zip(factors(self.spec), self.labels):
            if f.key == key:
                return lab
        raise KeyError(key)

    @property
    def ulabels(self) -> tuple[IrrepLabel, ...]:
        """The labels of the u-slot factors, in slot order."""
        return tuple(lab for f, lab in zip(factors(self.spec), self.labels) if f.kind == "uslot")

    @property
    def is_trivial(self) -> bool:
        return all(lab.is_trivial for lab in self.labels)

    def weight_size(self) -> int:
        return sum(lab.weight_size() for lab in self.labels)

    def to_json(self) -> dict:
        return {
            f.key: list(lab.weight)
            for f, lab in zip(factors(self.spec), self.labels)
            if not lab.is_trivial
        }

    def __str__(self) -> str:
        nontrivial = [
            f"{f.key}={render_label(lab)}"
            for f, lab in zip(factors(self.spec), self.labels)
            if not lab.is_trivial
        ]
        return "(x)".join(nontrivial) if nontrivial else "trivial"


def tau_spec(spec: CaseSpec, **weights) -> TauSpec:
    """Build a TauSpec from per-factor weights; omitted factors are trivial."""
    fs = factors(spec)
    known = {f.key for f in fs}
    for key in weights:
        if key not in known:
            raise ValueError(f"case {spec.case_id} has no factor {key!r}; expected {sorted(known)}")
    labels = []
    for f in fs:
        if f.key in weights:
            w = weights[f.key]
            if isinstance(w, int):
                w = (w,)
            labels.append(IrrepLabel(f.family, f.rank, tuple(w)))
        else:
            labels.append(trivial(f.family, f.rank))
    return TauSpec(spec, tuple(labels))


# ---------------------------------------------------------------------------
# composite labels


class CompositeLabel(NamedTuple):
    """A torus character and one label per u-slot: a tuple (torus, ulabels),
    hashed as that tuple and ordered by torus, then u-labels."""

    torus: tuple[int, ...]
    ulabels: tuple[IrrepLabel, ...]

    def to_json(self) -> dict:
        return {"torus": list(self.torus), "u": [l.to_json() for l in self.ulabels]}

    @classmethod
    def from_json(cls, data: dict) -> "CompositeLabel":
        return cls(
            tuple(map(json_int, data["torus"])),
            tuple(IrrepLabel.from_json(d) for d in data["u"]),
        )

    def __str__(self) -> str:
        chi = "χ" + (
            f"{self.torus[0]}" if len(self.torus) == 1 else "(" + ",".join(map(str, self.torus)) + ")"
        )
        if not self.ulabels:
            return chi if self.torus else "1"
        return "(" + chi + "; " + ", ".join(render_label(l) for l in self.ulabels) + ")"


class OmegaEntry(NamedTuple):
    degree: int
    torus: tuple[int, ...]
    ulabels: tuple[IrrepLabel, ...]
    params: tuple[tuple[str, object], ...]


class TauEntry(NamedTuple):
    torus: tuple[int, ...]
    mult: int
    weights: tuple[tuple[str, tuple[int, ...]], ...]


# ---------------------------------------------------------------------------
# the metaplectic side


def _vectors_of_degree(n: int, total: int) -> Iterator[tuple[int, ...]]:
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _vectors_of_degree(n - 1, total - first):
            yield (first,) + rest


def _rows(family: str, rank: int, degree: int) -> list[IrrepLabel]:
    """The one-row labels (x) of sp(rank) or u(rank), indexed by x = 0..degree."""
    pad = (0,) * (rank - 1)
    return [IrrepLabel(family, rank, (x,) + pad) for x in range(degree + 1)]


def _sp_slots(n: int, degree: int) -> list[tuple[IrrepLabel, ...]]:
    """The u-slot part of an optional sp(n) factor: the one-row label (x) as
    a 1-tuple, indexed by x = 0..degree, or only the empty tuple when n = 0
    (no sp factor, so no slot)."""
    return [(lab,) for lab in _rows("sp", n, degree)] if n else [()]


def _row_product(a: IrrepLabel, b: IrrepLabel) -> list[IrrepLabel]:
    """Constituents of two one-row labels of sp(n) or u(k), a multiplicity-free product."""
    out = tensor_pair(a, b)
    if any(m != 1 for m in out.values()):
        raise OracleError(f"{a} (x) {b} is not multiplicity free")
    return list(out)


def _graded_product(series: list, degree: int) -> list[tuple[int, tuple]]:
    """Every choice of one item from each list of ``series``, as (degree,
    items in series order), whose degrees (each item's first field) add up
    to at most ``degree``."""
    acc = [(0, ())]
    for items in series:
        acc = [(d + it[0], picked + (it,)) for d, picked in acc for it in items if d + it[0] <= degree]
    return acc


def _joined_params(spec: CaseSpec, parts: tuple) -> tuple[tuple[str, object], ...]:
    """The params of a term of ``spec`` from those of its block terms, for
    the whole series and for joined routes: a VIII term tags each block's
    params with the block's first key, and a II term takes half a's (l, r)
    as (l1, r) and half b's as (l2, s)."""
    if spec.case_id == "II":
        ((_, l1), (_, r)), ((_, l2), (_, s)) = parts
        return (("l1", l1), ("l2", l2), ("r", r), ("s", s))
    if spec.case_id != "VIII":  # its own single block
        return parts[0]
    tags = [(("block", keys[0]),) for _, keys in blocks(spec)]
    return (("blocks", tuple(tag + p for tag, p in zip(tags, parts))),)


@lru_cache(maxsize=128)
def omega_entries(spec: CaseSpec, degree: int) -> tuple[OmegaEntry, ...]:
    """All terms of the metaplectic series with grading degree <= ``degree``.
    Each one-row label is built once, in a table indexed by row length.  The
    II and VIII series are the graded product of their block series
    (``blocks``), their terms named by ``_joined_params``.  Only
    ``verify_witness`` and the tests build them: the classifier scans the
    blocks and recovers routes from them."""
    if degree < 0:
        raise ValueError("degree bound must be nonnegative")
    cid = spec.case_id
    out: list[OmegaEntry] = []
    if cid == "I":
        rows = _rows("sp", spec["n"], degree)
        for s in range(degree + 1):
            out.append(OmegaEntry(s, (s,), (rows[s],), (("s", s),)))
    elif cid == "IIh":  # one half of family II (``blocks``)
        for r, ulabs in enumerate(_sp_slots(spec["k"], degree)):
            for l in range(degree - r + 1):
                out.append(OmegaEntry(r + l, (r + l,), ulabs, (("l", l), ("r", r))))
    elif cid == "III":
        rows = _rows("sp", spec["n"], degree)
        for r in range(degree + 1):
            for s in range(degree - r + 1):
                for lab in _row_product(rows[r], rows[s]):
                    out.append(
                        OmegaEntry(
                            r + s,
                            (r, s),
                            (lab,),
                            (("inner", lab.weight), ("r", r), ("s", s)),
                        )
                    )
    elif cid == "IV":
        n = spec["n"]
        for d in range(degree + 1):
            for vec in _vectors_of_degree(n, d):
                out.append(OmegaEntry(d, vec, (), (("k_vec", vec),)))
    elif cid in ("V", "VI"):
        n = spec["n"]
        for d in range(degree + 1):
            for vec in _vectors_of_degree(n, d):
                torus = tuple(x - vec[-1] for x in vec[:-1]) + (d,)
                out.append(OmegaEntry(d, torus, (), (("m_vec", vec),)))
    elif cid == "VII":
        n = spec["n"]
        rows = _rows("u", spec["k"], degree)
        sp_slots = _sp_slots(n, degree)
        for r in range(degree + 1):
            for s in range(degree - r + 1):
                mus = _row_product(rows[r], rows[s])
                for j, sp_slot in enumerate(sp_slots[: degree - r - s + 1]):
                    jp = (("j", j),) if n > 0 else ()
                    for mu in mus:
                        params = jp + (("r", r), ("s", s), ("u_inner", mu.weight))
                        out.append(OmegaEntry(r + s + j, (r - s + j,), (mu,) + sp_slot, params))
    elif cid == "IX":
        rows = _rows("u", spec["n"], degree)
        for r in range(degree + 1):
            out.append(OmegaEntry(r, (), (rows[r],), (("r", r),)))
    else:  # II and VIII: the graded product of the block series (``blocks``)
        for d, picked in _graded_product([omega_entries(b, degree) for b, _ in blocks(spec)], degree):
            _, torus, ulabels, params = zip(*picked)
            out.append(OmegaEntry(d, sum(torus, ()), sum(ulabels, ()), _joined_params(spec, params)))
    out.sort()
    return tuple(out)


# ---------------------------------------------------------------------------
# the tau side


def tau_entries(spec: CaseSpec, tau: TauSpec) -> tuple[TauEntry, ...]:
    """Torus expansion of tau: every torus-factor label is replaced by its
    weight system.  A u-slot label is not expanded: every entry has tau's
    own (``TauSpec.ulabels``) and only lists its weight."""
    acc: list[tuple[list[int], int, tuple]] = [([0] * torus_dim(spec), 1, ())]
    for f, lab in zip(factors(spec), tau.labels):
        if f.kind == "uslot":
            acc = [(torus, mult, weights + ((f.key, lab.weight),)) for torus, mult, weights in acc]
            continue
        nxt = []
        ws = sorted(weight_system(lab).items())
        for torus, mult, weights in acc:
            for vec, wm in ws:
                t2 = list(torus)
                for i, x in enumerate(vec):
                    t2[f.pos + i] += x
                nxt.append((t2, mult * wm, weights + ((f.key, vec),)))
        acc = nxt
    return tuple(TauEntry(tuple(torus), mult, weights) for torus, mult, weights in acc)


# ---------------------------------------------------------------------------
# the product series


def product_terms(
    spec: CaseSpec, tau: TauSpec, degree: int
) -> Iterator[tuple[OmegaEntry, TauEntry, CompositeLabel, int]]:
    """
    Every production of the truncated series omega (x) tau restricted to the
    torus-times-intertwiner subgroup, as ``(omega entry, tau entry, label,
    multiplicity)``, omega entries in degree order: torus characters add and
    u-slot factors are decomposed by the oracle.  Every tau entry has tau's
    own u-slot labels (``tau_entries``), so the decomposition depends only on
    the omega entry's u-labels, which many entries share: tables local to the
    call ask the oracle once per u-slot label and combine the slots once per
    u-label tuple.
    """
    tentries = tau_entries(spec, tau)
    tau_ulabels = tau.ulabels
    slot_products: list[dict] = [{} for _ in tau_ulabels]
    products: dict[tuple[IrrepLabel, ...], list] = {}
    for oe in omega_entries(spec, degree):
        combos = products.get(oe.ulabels)
        if combos is None:
            per_slot = []
            for a, b, table in zip(oe.ulabels, tau_ulabels, slot_products):
                if a not in table:
                    table[a] = tensor_pair(a, b).items()
                per_slot.append(table[a])
            combos = products[oe.ulabels] = [
                (tuple(lab for lab, _ in combo), math.prod(m for _, m in combo))
                for combo in itertools.product(*per_slot)
            ]
        for te in tentries:
            t = tuple(map(operator.add, oe.torus, te.torus))
            for ulabels, mult in combos:
                yield oe, te, CompositeLabel(t, ulabels), te.mult * mult


def production_routes(
    spec: CaseSpec, tau: TauSpec, degree: int, target: CompositeLabel
) -> list[dict]:
    """
    All (omega term, tau term) productions of ``target``, with
    multiplicities, from the block series alone: ``target`` is cut per
    block, and each block keeps the productions of its series with its piece
    of tau (``product_terms``) that reach its cut of ``target``.
    A production of the whole series is one per block with degrees adding
    up to at most ``degree``; the blocks own disjoint torus coordinates and
    u-slots, so tau weights join and multiplicities multiply.  Params are
    named as in the whole series, tau weights keyed and ordered by
    ``factors(spec)``.  A target of the wrong shape for ``spec`` has no route.
    """
    if len(target.torus) != torus_dim(spec) or len(target.ulabels) != len(tau.ulabels):
        return []
    found = [
        [
            (oe.degree, oe.params, te.weights, mult)
            for oe, te, got, mult in product_terms(b, piece, degree)
            if got == lab
        ]
        for (b, piece), lab in zip(block_pieces(spec, tau), cut_label(spec, target))
    ]
    keys = [key for _, block_keys in blocks(spec) for key in block_keys]
    routes = []
    for d, picked in _graded_product(found, degree):
        _, params, weights, mults = zip(*picked)
        named = dict(zip(keys, (w for block_weights in weights for _, w in block_weights)))
        omega = _joined_params(spec, params)
        tau_weights = {f.key: named[f.key] for f in factors(spec)}
        routes.append({"degree": d, "omega": dict(omega), "tau": tau_weights, "mult": math.prod(mults)})
    return routes


# ---------------------------------------------------------------------------
# tau enumeration for sweeps


def factor_weights(family: str, rank: int, bound: int) -> list[tuple[int, ...]]:
    """All label weights of total size <= bound for one factor, graded order:
    the canonical weights of the integer vectors (of length rank - 1 for su,
    1 for a circle, the rank otherwise) that ``IrrepLabel`` accepts."""
    length = {"su": rank - 1, "circle": 1}.get(family, rank)
    ws = set()
    for vec in itertools.product(range(-bound, bound + 1), repeat=length):
        if sum(map(abs, vec)) <= bound:
            try:
                ws.add(IrrepLabel(family, rank, vec).weight)
            except ValueError:
                pass
    return sorted(ws, key=lambda w: (sum(abs(x) for x in w), w))


def tau_candidates(spec: CaseSpec, bound: int) -> list[TauSpec]:
    """Every TauSpec whose factor weights have size <= bound, graded lex order."""
    fs = factors(spec)
    choices = [
        [IrrepLabel(f.family, f.rank, w) for w in factor_weights(f.family, f.rank, bound)]
        for f in fs
    ]
    taus = [TauSpec(spec, combo) for combo in itertools.product(*choices)]
    taus.sort(key=lambda t: (t.weight_size(), t.labels))
    return taus
