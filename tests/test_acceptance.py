"""
Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line with its stated tolerance (run with ``pytest -s tests/test_acceptance.py``
to see the lines).  Every tolerance and grid bound is pinned here.
"""

import time

from multfree.cases import CompositeLabel, case_spec, tau_spec
from multfree.classify import CONSISTENT, classify, default_grid, sweep, verify_witness
from multfree.irreps import (
    decompose_product,
    dimension,
    sp,
    trivial,
    weight_system,
    weyl_character,
    IrrepLabel,
)
from multfree.partitions import all_partitions
from multfree.sp_pieri import pieri_tensor, tensor_column_sym, tensor_sym_sym


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail else ""))


def test_criterion_1_row_row_rule_matches_oracle():
    t0 = time.time()
    mismatches = []
    for n in (2, 3):
        for r in range(5):
            for s in range(r + 1):
                rule = tensor_sym_sym(r, s, n)
                oracle = decompose_product(
                    [sp(n, r) if r else trivial("sp", n), sp(n, s) if s else trivial("sp", n)]
                )
                if rule.entries != oracle.entries:
                    mismatches.append((r, s, n))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 10.0
    _report(
        "criterion 1: row-row rule == oracle for 0<=s<=r<=4, n in {2,3}",
        ok,
        f"{elapsed:.1f}s, mismatches={mismatches}",
    )
    assert not mismatches
    assert elapsed < 10.0


def test_criterion_2_column_row_rule_matches_oracle():
    mismatches = []
    for r in (2, 3):
        for s in (2, 3):
            rule = tensor_column_sym(r, s, 4)
            oracle = decompose_product([sp(4, *([1] * r)), sp(4, s)])
            if rule.entries != oracle.entries:
                mismatches.append((r, s))
    _report("criterion 2: column-row rule == oracle for r,s in {2,3}, n=4", not mismatches)
    assert not mismatches


def test_criterion_3_universal_rule_matches_oracle():
    t0 = time.time()
    mismatches = []
    for n in (2, 3):
        for eta in all_partitions(4, n):
            for s in range(4):
                rule = pieri_tensor(eta, s, n)
                oracle = decompose_product(
                    [sp(n, *eta), sp(n, s) if s else trivial("sp", n)]
                )
                if rule.entries != oracle.entries:
                    mismatches.append((eta, s, n))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 60.0
    _report(
        "criterion 3: universal rule == oracle for |eta|<=4, s<=3, n in {2,3}",
        ok,
        f"{elapsed:.1f}s, mismatches={mismatches}",
    )
    assert not mismatches
    assert elapsed < 60.0


def test_criterion_4_self_multiplicity_after_two_box_row():
    failures = []
    for n in (2, 3):
        for eta in all_partitions(5, n):
            if not eta:
                continue  # the empty label has no one-box predecessor
            if pieri_tensor(eta, 2, n)[sp(n, *eta)] < 1:
                failures.append((eta, n))
    _report("criterion 4: eta reappears in eta (x) (2) for 1<=|eta|<=5, n<=3", not failures)
    assert not failures


def test_criterion_5_constant_partitions_iff_free():
    failures = []
    for n in (2, 3):
        for eta in all_partitions(4, n):
            free = all(pieri_tensor(eta, s, n).is_multiplicity_free() for s in range(6))
            if free != (len(set(eta)) <= 1):
                failures.append((eta, n))
    _report(
        "criterion 5: eta (x) (s) free for all s<=5 iff eta constant, |eta|<=4, n in {2,3}",
        not failures,
    )
    assert not failures


def test_criterion_6_reference_table_sweep():
    t0 = time.time()
    rows = []
    for spec in default_grid():
        rows.extend(sweep(spec, 2, 6))
    elapsed = time.time() - t0
    bad = [r for r in rows if r.consistency != CONSISTENT]
    detail = f"{len(rows)} rows in {elapsed:.1f}s; non-consistent: {len(bad)}"
    _report("criterion 6: table sweep, bound 2, degree 6, zero violations", not bad and elapsed < 300, detail)
    for r in bad:
        witness = r.verdict.witness if r.verdict.multiplicity_found else None
        print(f"    {r.spec} tau {r.tau}: computed {r.verdict.outcome}, "
              f"expected {r.expected.outcome} -> {r.consistency}, witness {witness}")
    assert elapsed < 300.0
    assert not bad, f"{len(bad)} rows disagree with the reference table: " + "; ".join(
        f"{r.spec} tau {r.tau} -> {r.consistency}" for r in bad
    )


def test_criterion_7_witness_fidelity_case_i():
    spec = case_spec("I", n=2)
    tau = tau_spec(spec, su2=(1,), sp=(1,))
    v = classify(spec, tau, 4)
    ok = (
        v.multiplicity_found
        and v.witness == CompositeLabel((1,), (sp(2, 1),))
        and {(r["omega"]["s"], (1 - r["tau"]["su2"][0]) // 2) for r in v.routes} == {(0, 0), (2, 1)}
        and verify_witness(spec, tau, v)
    )
    _report("criterion 7: case I witness (chi_1; eta_(1)) via (s=0,i=0) and (s=2,i=1)", ok)
    assert ok


def test_criterion_8_character_oracle_self_consistency():
    from multfree.cases import factor_weights

    labels = []
    for rank in (2, 3):
        labels += [IrrepLabel("su", rank, w) for w in all_partitions(4, rank - 1)]
    for rank in (1, 2, 3):
        labels += [IrrepLabel("sp", rank, w) for w in all_partitions(4, rank)]
    for rank in (1, 2, 3):
        labels += [IrrepLabel("u", rank, w) for w in factor_weights("u", rank, 4)]
    for rank in (2, 3):
        labels += [IrrepLabel("so", rank, w) for w in factor_weights("so", rank, 4)]
    bad_dim = [
        lab for lab in labels if weyl_character(lab).dimension() != dimension(lab)
    ]
    bad_weight = [lab for lab in labels if sum(weight_system(lab).values()) != dimension(lab)]
    # reconstruction: resum a nontrivial decomposition in every family
    recon_ok = True
    for a, b in [
        (sp(3, 2, 1), sp(3, 1, 1)),
        (sp(2, 2), sp(2, 1, 1)),
        (IrrepLabel("u", 2, (1, -1)), IrrepLabel("u", 2, (2, 0))),
    ]:
        prod = weyl_character(a) * weyl_character(b)
        rebuilt = None
        for lab, m in decompose_product([a, b]).entries.items():
            term = weyl_character(lab).scale(m)
            rebuilt = term if rebuilt is None else rebuilt + term
        if rebuilt != prod:
            recon_ok = False
    ok = not bad_dim and not bad_weight and recon_ok
    _report(
        "criterion 8: character sums, weight totals, reconstruction at rank<=3, |weight|<=4",
        ok,
        f"dim mismatches={len(bad_dim)}, weight mismatches={len(bad_weight)}",
    )
    assert ok
