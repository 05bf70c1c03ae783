"""
Commutativity classifier.

A triple (K, N, tau) is decided by scanning the truncated product series
omega (x) tau restricted to the torus-times-intertwiner subgroup:

* a composite label reached with total multiplicity >= 2 is a conclusive
  witness of non-commutativity (it survives every larger truncation);
* absence of such a label up to degree D is only the bounded certificate
  ``MultiplicityFreeUpTo(D)``, never a proof.

A family VIII series is the graded product of its type-(VI) and type-(VII)
blocks, and a family II series that of its two spin(4) halves, on disjoint
torus coordinates and u-slots, and tau splits the same way; a spec of any
other family is its own single block.  Every spec is decided, and its
witness found, from the scans of its blocks (see ``classify``).  The
witness's multiplicity and routes are joined from the block series too
(``cases.production_routes``), on their first read (see ``Verdict``), so a
sweep never recovers them and no reader walks the whole product series;
only ``verify_witness`` does, as the independent check.
Tau's one-dimensional characters of K (circle weights, determinant powers
of u(k)) are split off first: a character only moves every composite label
(see ``_split_characters``).  One memo, ``_decide``, holds the decisions of
character-free rows and of the block pieces they are cut into, on (spec,
tau, degree): rows that differ only by characters are decided once, blocks
that recur across specs and rows are scanned once, and only a row that
carries a character moves the witness.  Its values are immutable, so a
shared entry cannot be changed by a caller; nor can the one verdict that
every multiplicity-free row at a degree shares (``_free_verdict``).

``expected_verdict`` encodes the published classification table for the
nine families; ``cross_check`` compares it against the computed verdict and
reports INCONCLUSIVE when an expected witness was not found below the
truncation degree, or CONTRADICTION when a witness appears where the table
predicts commutativity.  Gaps are reported, never silently passed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, partial

from .cases import (
    CaseSpec,
    CompositeLabel,
    TauSpec,
    block_pieces,
    case_spec,
    _layout,
    factors,
    join_labels,
    product_terms,
    production_routes,
    tau_candidates,
)
from .irreps import IrrepLabel

CONSISTENT = "CONSISTENT"
INCONCLUSIVE = "INCONCLUSIVE"
CONTRADICTION = "CONTRADICTION"


class _OnFirstRead:
    """A dataclass field that holds a value or a zero-argument function.  On
    the first read of a function, its result, a dict from field names to
    values, is stored in the object, so every read sees a plain value and one
    call fills every field that it names."""

    def __init__(self, default):
        self.default = default

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:  # the class: dataclass takes this as the default
            return self.default
        value = obj.__dict__[self.name]
        if callable(value):
            obj.__dict__.update(value())
            value = obj.__dict__[self.name]
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class Verdict:
    """The outcome of ``classify``.  ``multiplicity`` and ``routes`` may be
    given as one zero-argument function that returns both (``_OnFirstRead``):
    ``classify`` passes the recovery of the witness routes, which runs on the
    first read of either.  Every read, comparison, ``dataclasses.replace``
    and output sees plain values."""

    multiplicity_found: bool
    degree_bound: int
    witness: CompositeLabel | None = None
    multiplicity: int = _OnFirstRead(0)
    witness_degree: int | None = None
    routes: tuple = _OnFirstRead(())

    @property
    def outcome(self) -> str:
        return "MultiplicityFound" if self.multiplicity_found else "MultiplicityFreeUpTo"

    def to_json(self) -> dict:
        out = {"verdict": self.outcome, "degree": self.degree_bound}
        if self.multiplicity_found:
            out["witness"] = self.witness.to_json()
            out["multiplicity"] = self.multiplicity
            out["witness_degree"] = self.witness_degree
            out["routes"] = json.loads(json.dumps(self.routes))  # tuples as lists
        return out

    def __str__(self) -> str:
        if self.multiplicity_found:
            return f"MULTIPLICITY at {self.witness} (x{self.multiplicity}, degree {self.witness_degree})"
        return f"multiplicity-free up to degree {self.degree_bound}"


@dataclass(frozen=True)
class ExpectedVerdict:
    commutative: bool

    @property
    def outcome(self) -> str:
        return "Commutative" if self.commutative else "NotCommutative"


def deg_window(spec: CaseSpec, tau: TauSpec) -> int:
    """Default truncation: every known witness construction moves the grading
    parameters by at most 2 in at most two places beyond the tau weights.
    ``classify`` passes tau without its characters, which move no degree."""
    return tau.weight_size() + 4


def _check_tau(spec: CaseSpec, tau: TauSpec) -> None:
    """A tau built for another spec is a ValueError.  Every sweep passes the
    very spec object its taus were built for, so identity is tested first."""
    if tau.spec is not spec and tau.spec != spec:
        raise ValueError(f"tau is built for {tau.spec}, not for {spec}")


def _split_characters(spec: CaseSpec, tau: TauSpec) -> tuple[TauSpec, tuple]:
    """Tau with its one-dimensional characters of K made trivial (tau itself
    when it carries none), and those characters as (factor, c) pairs, read
    from the character slots of the layout record alone (``cases._layout``).

    Such a character is a circle weight c, which shifts the circle's torus
    coordinate by c, or a constant u(k) weight (c, ..., c), a determinant
    power, which shifts every weight on its u-slot by c (every u(1) weight
    is one).  Tensoring with a character maps each production of the
    character-free series, (omega entry, tau entry, label, multiplicity), to
    one of the whole series with the same omega entry and multiplicity and
    the label moved by the shift: the tau entries move their torus vector,
    and tensor_pair(a, b + (c, ..., c)) is tensor_pair(a, b) with every
    constituent moved by (c, ..., c).  So the shift is a bijection on labels
    that keeps multiplicity and degree.  It keeps the label order too: on the
    torus it is a translation, and on each u-slot it adds (c, ..., c) to
    weights of the same rank, which are compared lexicographically.  The
    witness degree and the witness therefore move with it.
    """
    chars, labels = [], list(tau.labels)
    for i, f, trivial in _layout(spec).characters:
        weight = labels[i].weight
        if weight[0] and weight.count(weight[0]) == len(weight):
            chars.append((f, weight[0]))
            labels[i] = trivial
    return (TauSpec(spec, labels) if chars else tau), tuple(chars)


def _shift(lab: CompositeLabel, chars: tuple) -> CompositeLabel:
    """The label moved by the characters that ``_split_characters`` split
    off, one per character slot that carries one: c on a circle's torus
    coordinate, (c, ..., c) on a u-slot."""
    torus, ulabels = list(lab.torus), list(lab.ulabels)
    for f, c in chars:
        if f.family == "circle":
            torus[f.pos] += c
        else:
            ulabels[f.pos] = IrrepLabel("u", f.rank, tuple(x + c for x in ulabels[f.pos].weight))
    return CompositeLabel(tuple(torus), tuple(ulabels))


@lru_cache(maxsize=None)
def _decide(
    spec: CaseSpec, tau: TauSpec, degree: int
) -> tuple[int | None, CompositeLabel | None, CompositeLabel]:
    """
    The witness degree and witness of a character-free row, or (None, None)
    when it is multiplicity-free up to ``degree``, and the least label of
    its series' degree-0 part.  A spec that is not its own single block
    joins its blocks' decisions as ``classify`` sets out (the degree-0 part
    of the product is the product of theirs).  A single block scans its
    series, which comes in degree order, and stops once the first degree at
    which a label reaches multiplicity 2 is complete.  Memoised with no
    bound on (spec, tau, degree), for rows and block pieces alike; every
    value is immutable.
    """
    pieces = block_pieces(spec, tau)
    if pieces[0][0] != spec:
        decided = [_decide(b, t, degree) for b, t in pieces]
        least0 = [z for _, _, z in decided]
        joins = [
            (d, join_labels(least0[:i] + [w] + least0[i + 1 :]))
            for i, (d, w, _) in enumerate(decided)
            if d is not None
        ]
        witness_degree, witness = min(joins, default=(None, None))
        return witness_degree, witness, join_labels(least0)
    counts: dict[CompositeLabel, int] = {}
    witness_degree = witness = least0 = None
    for oe, _, lab, mult in product_terms(spec, tau, degree):
        if witness_degree is not None and oe.degree > witness_degree:
            break
        if oe.degree == 0 and (least0 is None or lab < least0):
            least0 = lab
        c = counts.get(lab, 0) + mult
        counts[lab] = c
        if c >= 2 and c - mult < 2 and (witness is None or lab < witness):
            witness, witness_degree = lab, oe.degree
    return witness_degree, witness, least0


def classify(spec: CaseSpec, tau: TauSpec, degree: int | None = None) -> Verdict:
    """
    Scan omega (x) tau up to the truncation degree and return either the
    first label (by witness degree, then label order) with multiplicity >= 2,
    or the bounded multiplicity-freeness certificate.

    Tau's characters are split off first (``_split_characters``), and the
    character-free row is decided once per (spec, tau, degree) (``_decide``);
    the witness is then moved by the characters (``_shift``), when tau
    carries any.

    Each block series (x) its tau piece is scanned on its own, up to its
    witness degree (``cases.blocks``; a spec outside families II and VIII is
    its own single block).  A composite label (L_1, ..., L_b) of the product
    has multiplicity sum_{d_1 + ... + d_b <= e} prod_i c_i(L_i, d_i) up to
    degree e, where c_i(L_i, d) counts L_i at degree d of block i; let
    A_i(L_i, e) count it up to degree e, and let d be the least block witness
    degree.

    * Below d every A_i is at most 1, so the product multiplicity, at most
      prod_i A_i(L_i, e), is too: the product has no witness below d, and
      none at all when no block has one.
    * At d, a multiplicity >= 2 takes one term with a factor >= 2 or two
      terms that differ in some d_i.  Either way some L_i is counted twice
      within degree d, so block i has witness degree d, L_i is one of its
      first repeated labels, and that term has d_i = d and every other
      d_j = 0.  Conversely such an L_i joined with degree-0 labels of the
      other blocks has multiplicity >= A_i(L_i, d) >= 2.
    * Label order compares the concatenated torus vectors, then the
      concatenated u-labels, and each block has a fixed length in both, so
      the least label of one such product set joins the least label of each
      factor.  The witness is the least of these joins over the blocks i.

    The witness's ``multiplicity`` and ``routes`` count every production of
    the whole series up to the truncation degree D.  They are joined from
    the productions of each block series that reach the witness's label on
    that block, by the formula above at e = D (``cases.production_routes``).
    One recovery fills both on the first read of either, so a caller that
    reads only the verdict, the witness and its degree (``cross_check``,
    ``sweep``) never recovers them.  A tau built for another spec is a
    ``ValueError``.
    """
    _check_tau(spec, tau)
    free, chars = _split_characters(spec, tau)
    if degree is None:
        degree = deg_window(spec, free)
    witness_degree, witness, _ = _decide(spec, free, degree)
    if witness_degree is None:
        return _free_verdict(degree)
    if chars:
        witness = _shift(witness, chars)
    recover = partial(_recover, spec, tau, degree, witness)
    return Verdict(True, degree, witness, recover, witness_degree, recover)


@lru_cache(maxsize=None)
def _free_verdict(degree: int) -> Verdict:
    """The one immutable ``Verdict(False, degree)`` that rows share."""
    return Verdict(False, degree)


def _recover(spec: CaseSpec, tau: TauSpec, degree: int, witness: CompositeLabel) -> dict:
    """The witness's routes, sorted, and their total multiplicity, as the
    ``Verdict`` fields that ``classify`` defers to their first read."""
    routes = production_routes(spec, tau, degree, witness)
    routes.sort(key=lambda r: (r["degree"], json.dumps(r, sort_keys=True)))
    return {"multiplicity": sum(r["mult"] for r in routes), "routes": tuple(routes)}


def verify_witness(spec: CaseSpec, tau: TauSpec, verdict: Verdict) -> bool:
    """Rebuild every production route of the witness from the whole product
    series (``product_terms`` of ``spec``; for II and VIII independent of the
    block cut and join of ``production_routes``), and confirm they reproduce
    the recorded routes and multiplicity.  A tau built for another spec is a
    ``ValueError``."""
    _check_tau(spec, tau)
    if not verdict.multiplicity_found:
        return True
    recomputed = [
        {"degree": oe.degree, "omega": dict(oe.params), "tau": dict(te.weights), "mult": mult}
        for oe, te, lab, mult in product_terms(spec, tau, verdict.degree_bound)
        if lab == verdict.witness
    ]
    total = sum(r["mult"] for r in recomputed)
    canon = {json.dumps(r, sort_keys=True) for r in recomputed}
    recorded = {json.dumps(r, sort_keys=True) for r in verdict.routes}
    return total == verdict.multiplicity >= 2 and recorded == canon


def _is_constant(weight: tuple[int, ...]) -> bool:
    return len(set(weight)) <= 1


_EXPECTED = {ok: ExpectedVerdict(ok) for ok in (False, True)}


def expected_verdict(spec: CaseSpec, tau: TauSpec) -> ExpectedVerdict:
    """The published classification of commutative triples for this family,
    read from tau's labels by position, apart from ``_split_characters``; a
    case with no row (the II half ``IIh``), or a tau built for another spec,
    is a ``ValueError``.  Every row gets one of two shared values."""
    _check_tau(spec, tau)
    cid, labels = spec.case_id, tau.labels
    if cid == "I":  # factors su2, sp
        ok = labels[1].is_trivial or (labels[0].is_trivial and _is_constant(labels[1].weight))
    elif cid in ("II", "III", "IV"):
        ok = tau.is_trivial
    elif cid in ("V", "VI"):  # factors su, s1
        ok = labels[0].is_trivial
    elif cid == "VII":  # factors su2, u, and sp when n > 0
        # the u(k) weight must be a determinant power: for k >= 2 and a
        # non-constant weight mu, the (r, s) = (1, 1) term S^2 + L^2 of the
        # series meets mu + e_1 + e_p (mu_{p-1} > mu_p) twice by Pieri's rule
        ok = labels[0].is_trivial and _is_constant(labels[1].weight) and all(l.is_trivial for l in labels[2:])
    elif cid == "VIII":
        # commutative iff tau lives on the circles and on determinant powers
        # of the u(k_j) factors (the family VII condition, block by block)
        ok = all(
            lab.is_trivial if f.family in ("su", "sp") else _is_constant(lab.weight)
            for f, lab in zip(factors(spec), labels)
            if f.family != "circle"
        )
    elif cid == "IX":
        # every tau: Sym^r (x) tau is multiplicity free by Pieri's rule, and
        # its constituents have weight sum |tau| + r, so distinct r never meet
        ok = True
    else:
        raise ValueError(f"no reference row for case {cid!r}")
    return _EXPECTED[ok]


@dataclass(frozen=True)
class CheckRow:
    spec: CaseSpec
    tau: TauSpec
    verdict: Verdict
    expected: ExpectedVerdict
    consistency: str

    def to_json(self) -> dict:
        out = {
            "case": self.spec.case_id,
            "params": {k: v for k, v in self.spec.to_json().items() if k != "case"},
            "tau": self.tau.to_json(),
            "verdict": self.verdict.outcome,
            "degree": self.verdict.degree_bound,
            "expected": self.expected.outcome,
            "consistency": self.consistency,
        }
        if self.verdict.multiplicity_found:
            out["witness"] = self.verdict.witness.to_json()
        return out


def cross_check(spec: CaseSpec, tau: TauSpec, degree: int | None = None) -> CheckRow:
    """Run the classifier and compare with the reference table."""
    verdict = classify(spec, tau, degree)
    expected = expected_verdict(spec, tau)
    if expected.commutative:
        consistency = CONSISTENT if not verdict.multiplicity_found else CONTRADICTION
    else:
        consistency = CONSISTENT if verdict.multiplicity_found else INCONCLUSIVE
    return CheckRow(spec, tau, verdict, expected, consistency)


def sweep(spec: CaseSpec, bound: int, degree: int) -> list[CheckRow]:
    """Cross-check every tau with factor weights of size <= bound, in
    enumeration order."""
    return [cross_check(spec, t, degree) for t in tau_candidates(spec, bound)]


def default_grid() -> list[CaseSpec]:
    """The small-parameter instantiation of every family used for the
    reference-table verification sweep."""
    return [
        case_spec("I", n=2),
        case_spec("I", n=3),
        case_spec("II", k1=1, k2=1),
        case_spec("III", n=1),
        case_spec("III", n=2),
        case_spec("IV", n=2),
        case_spec("V", n=3),
        case_spec("VI", n=3),
        case_spec("VII", k=1, n=0),
        case_spec("VII", k=1, n=1),
        case_spec("VII", k=2, n=0),
        case_spec("VII", k=2, n=1),
        case_spec("VIII", m=(3,), kn=((1, 0),)),
        case_spec("IX", n=1),
        case_spec("IX", n=2),
    ]
