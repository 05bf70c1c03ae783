"""
Commutativity classifier.

A triple (K, N, tau) is decided by scanning the truncated product series
omega (x) tau restricted to the torus-times-intertwiner subgroup:

* a composite label reached with total multiplicity >= 2 is a conclusive
  witness of non-commutativity (it survives every larger truncation);
* absence of such a label up to degree D is only the bounded certificate
  ``MultiplicityFreeUpTo(D)``, never a proof.

A family VIII series is the graded product of its type-(VI) and type-(VII)
blocks, on disjoint torus coordinates and u-slots, and tau splits the same
way.  A composite label (L_1, ..., L_b) has multiplicity
sum_{d_1 + ... + d_b <= D} prod_i c_i(L_i, d_i), so the product is
multiplicity-free up to D exactly when every block series (x) its tau piece
is: each sum is at most prod_i A_i(L_i) <= 1, and a repeated block label
paired with a degree-0 term of the other blocks stays repeated.  Multi-block
certificates are therefore decided block by block; witnesses, their
multiplicities and their routes still come from the full product scan.

``expected_verdict`` encodes the published classification table for the
nine families; ``cross_check`` compares it against the computed verdict and
reports INCONCLUSIVE when an expected witness was not found below the
truncation degree, or CONTRADICTION when a witness appears where the table
predicts commutativity.  Gaps are reported, never silently passed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cases import (
    CaseSpec,
    CompositeLabel,
    TauSpec,
    blocks,
    case_spec,
    factors,
    product_terms,
    production_routes,
    tau_candidates,
)
from .irreps import label_sort_key

CONSISTENT = "CONSISTENT"
INCONCLUSIVE = "INCONCLUSIVE"
CONTRADICTION = "CONTRADICTION"


@dataclass(frozen=True)
class Verdict:
    multiplicity_found: bool
    degree_bound: int
    witness: CompositeLabel | None = None
    multiplicity: int = 0
    witness_degree: int | None = None
    routes: tuple = ()

    @property
    def outcome(self) -> str:
        return "MultiplicityFound" if self.multiplicity_found else "MultiplicityFreeUpTo"

    def to_json(self) -> dict:
        out = {"verdict": self.outcome, "degree": self.degree_bound}
        if self.multiplicity_found:
            out["witness"] = self.witness.to_json()
            out["multiplicity"] = self.multiplicity
            out["witness_degree"] = self.witness_degree
            out["routes"] = [_route_json(r) for r in self.routes]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Verdict":
        found = data["verdict"] == "MultiplicityFound"
        if not found:
            return cls(False, int(data["degree"]))
        return cls(
            True,
            int(data["degree"]),
            witness=CompositeLabel.from_json(data["witness"]),
            multiplicity=int(data["multiplicity"]),
            witness_degree=int(data["witness_degree"]),
            routes=tuple(data["routes"]),
        )

    def __str__(self) -> str:
        if self.multiplicity_found:
            return f"MULTIPLICITY at {self.witness} (x{self.multiplicity}, degree {self.witness_degree})"
        return f"multiplicity-free up to degree {self.degree_bound}"


def _route_json(route: dict) -> dict:
    def clean(v):
        if isinstance(v, tuple):
            return [clean(x) for x in v]
        if isinstance(v, dict):
            return {k: clean(x) for k, x in v.items()}
        return v

    return clean(route)


@dataclass(frozen=True)
class ExpectedVerdict:
    commutative: bool
    source: str

    @property
    def outcome(self) -> str:
        return "Commutative" if self.commutative else "NotCommutative"

    def to_json(self) -> dict:
        return {"expected": self.outcome, "source": self.source}


def deg_window(spec: CaseSpec, tau: TauSpec) -> int:
    """Default truncation: every known witness construction moves the grading
    parameters by at most 2 in at most two places beyond the tau weights."""
    return tau.weight_size() + 4


def _scan(spec: CaseSpec, tau: TauSpec, degree: int) -> tuple[list[CompositeLabel], int | None]:
    """
    The labels that first reach multiplicity >= 2 at the witness degree, and
    that degree (None when the series is multiplicity-free up to ``degree``).

    Omega terms come in degree order, so the scan stops once the first degree
    at which some label reaches multiplicity 2 is complete: any later witness
    would be reached at a higher degree.
    """
    counts: dict[CompositeLabel, int] = {}
    found: list[CompositeLabel] = []
    witness_degree = None
    for oe, _, lab, mult in product_terms(spec, tau, degree):
        if witness_degree is not None and oe.degree > witness_degree:
            break
        c = counts.get(lab, 0) + mult
        counts[lab] = c
        if c >= 2 and c - mult < 2:
            found.append(lab)
            witness_degree = oe.degree
    return found, witness_degree


def _blocks(spec: CaseSpec, tau: TauSpec) -> list[tuple[CaseSpec, TauSpec]]:
    """The blocks of a family VIII spec (``cases.blocks``), each with its piece of tau."""
    return [(b, TauSpec(b, tuple(tau.label(key) for key in keys))) for b, keys in blocks(spec)]


def classify(spec: CaseSpec, tau: TauSpec, degree: int | None = None) -> Verdict:
    """
    Scan omega (x) tau up to the truncation degree and return either the
    first label (by witness degree, then label order) with multiplicity >= 2,
    or the bounded multiplicity-freeness certificate.

    The scan stops once the witness degree is complete; the witness's
    ``multiplicity`` and ``routes`` still count every production up to the
    truncation degree.  A family VIII spec with two or more blocks is first
    decided block by block: when no block series (x) its tau piece has a
    witness, the certificate is returned without drawing a term of the full
    product series; otherwise the full series is scanned for the witness.
    """
    if degree is None:
        degree = deg_window(spec, tau)
    if spec.case_id == "VIII" and len(spec["m"]) + len(spec["kn"]) > 1:
        if all(_scan(b, t, degree)[1] is None for b, t in _blocks(spec, tau)):
            return Verdict(False, degree)
    found, witness_degree = _scan(spec, tau, degree)
    if not found:
        return Verdict(False, degree)
    witness = min(found, key=label_sort_key)
    routes = production_routes(spec, tau, degree, witness)
    routes.sort(key=lambda r: (r["degree"], json.dumps(_route_json(r), sort_keys=True)))
    return Verdict(
        True,
        degree,
        witness=witness,
        multiplicity=sum(r["mult"] for r in routes),
        witness_degree=witness_degree,
        routes=tuple(routes),
    )


def verify_witness(spec: CaseSpec, tau: TauSpec, verdict: Verdict) -> bool:
    """Recompute every production route of the witness with the
    ``production_routes`` that ``classify`` uses, and confirm they reproduce
    the recorded routes and multiplicity."""
    if not verdict.multiplicity_found:
        return True
    recomputed = production_routes(spec, tau, verdict.degree_bound, verdict.witness)
    total = sum(r["mult"] for r in recomputed)
    canon = {json.dumps(_route_json(r), sort_keys=True) for r in recomputed}
    recorded = {json.dumps(_route_json(r), sort_keys=True) for r in verdict.routes}
    return total == verdict.multiplicity >= 2 and recorded == canon


def _is_constant(weight: tuple[int, ...]) -> bool:
    return len(set(weight)) <= 1


def expected_verdict(spec: CaseSpec, tau: TauSpec) -> ExpectedVerdict:
    """The published classification of commutative triples for this family."""
    cid = spec.case_id
    if cid == "I":
        sp_label = tau.label("sp")
        su2 = tau.label("su2")
        ok = sp_label.is_trivial or (su2.is_trivial and _is_constant(sp_label.weight))
        return ExpectedVerdict(ok, "reference table, family I (H-type)")
    if cid in ("II", "III", "IV"):
        return ExpectedVerdict(tau.is_trivial, f"reference table, family {cid}")
    if cid in ("V", "VI"):
        return ExpectedVerdict(tau.label("su").is_trivial, f"reference table, family {cid}")
    if cid == "VII":
        # the u(k) weight must be a determinant power: for k >= 2 and a
        # non-constant weight mu, the (r, s) = (1, 1) term S^2 + L^2 of the
        # series meets mu + e_1 + e_p (mu_{p-1} > mu_p) twice by Pieri's rule
        ok = (
            tau.label("su2").is_trivial
            and (spec["n"] == 0 or tau.label("sp").is_trivial)
            and _is_constant(tau.label("u").weight)
        )
        return ExpectedVerdict(ok, "reference table, family VII")
    if cid == "VIII":
        # commutative iff tau lives on the circles and on determinant powers
        # of the u(k_j) factors (the family VII condition, block by block)
        ok = all(
            lab.is_trivial if f.family in ("su", "sp") else _is_constant(lab.weight)
            for f, lab in zip(factors(spec), tau.labels)
            if f.family != "circle"
        )
        return ExpectedVerdict(ok, "reference table, family VIII")
    return ExpectedVerdict(True, "reference table, family IX (strong Gelfand pair)")


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
