"""
The benchmark's checks can fail: each workload's check passes a true output
and counts a corrupted one as a failed op.

    PYTHONPATH=src python -m pytest -q bench/test_bench_checks.py
"""

from __future__ import annotations

import dataclasses

from workloads import WORKLOADS, failure, module


def _row(workload, spec, **weights):
    op = (spec, module("cases").tau_spec(spec, **weights))
    row = WORKLOADS[workload].run(op)
    assert failure(WORKLOADS[workload], op, row) is None
    return op, row


def _with_verdict(row, **changes):
    return dataclasses.replace(row, verdict=dataclasses.replace(row.verdict, **changes))


def test_reference_check_catches_corrupted_witness():
    wl = WORKLOADS["reference-sweep"]
    op, row = _row("reference-sweep", module("cases").case_spec("I", n=2), su2=1, sp=1)
    verdict = row.verdict
    assert verdict.multiplicity_found
    for wd in (verdict.witness_degree - 1, verdict.witness_degree + 1):
        assert failure(wl, op, _with_verdict(row, witness_degree=wd))
    routes = list(verdict.routes)
    routes[0] = {**routes[0], "mult": routes[0]["mult"] + 1}
    assert failure(wl, op, _with_verdict(row, routes=tuple(routes)))
    assert failure(wl, op, _with_verdict(row, multiplicity=verdict.multiplicity + 1))
    assert failure(wl, op, _with_verdict(row, multiplicity_found=False, witness=None, routes=()))


def test_certificate_turned_into_witness_fails_both_sweeps():
    cls, cases = module("classify"), module("cases")
    spec = cases.case_spec("I", n=2)
    witness = cases.CompositeLabel((1,), (module("irreps").sp(2, 1),))
    for workload in ("reference-sweep", "commutative-deep"):
        op, row = _row(workload, spec, sp=(1, 1))
        assert not row.verdict.multiplicity_found
        fake = cls.Verdict(True, row.verdict.degree_bound, witness, 2, 1, ({"degree": 1, "mult": 2},))
        assert failure(WORKLOADS[workload], op, dataclasses.replace(row, verdict=fake))


def test_deep_check_needs_the_asked_degree():
    op, row = _row("commutative-deep", module("cases").case_spec("IX", n=1), u=(2,))
    assert failure(WORKLOADS["commutative-deep"], op, _with_verdict(row, degree_bound=11))


def test_product_check_catches_a_bumped_multiplicity():
    irreps = module("irreps")
    wl = WORKLOADS["oracle-cold"]
    for op in ((irreps.sp(3, 2), irreps.sp(3, 1)), (irreps.so(3, 1, 1, 0), irreps.so(3, 1, 0, 0))):
        oracle, closed = wl.run(op)
        assert failure(wl, op, (oracle, closed)) is None
        lab, m = oracle.items_sorted()[0]
        bumped = irreps.FormalSum({**oracle.entries, lab: m + 1})
        assert failure(wl, op, (bumped, closed))
        assert failure(wl, op, (bumped, None))


def _swapped(oracle, old, new):
    entries = dict(oracle.entries)
    entries[new] = entries.pop(old)
    return module("irreps").FormalSum(entries)


def test_product_check_catches_a_constituent_of_the_same_dimension():
    irreps = module("irreps")
    wl = WORKLOADS["oracle-cold"]
    # the dual of su(4) (2), and the other half-spin-like so(6) label
    # (2,1,-1) for (2,1,1): same dimension, other characters
    for op, old, new in (
        ((irreps.su(4, 1), irreps.su(4, 1)), irreps.su(4, 2), irreps.su(4, 2, 2, 2)),
        ((irreps.so(3, 1, 1, 1), irreps.so(3, 1, 0, 0)), irreps.so(3, 2, 1, 1), irreps.so(3, 2, 1, -1)),
    ):
        oracle, closed = wl.run(op)
        assert closed is None and failure(wl, op, (oracle, None)) is None
        assert irreps.dimension(old) == irreps.dimension(new)
        assert failure(wl, op, (_swapped(oracle, old, new), None))


def test_product_check_does_not_call_the_character_code(monkeypatch):
    irreps = module("irreps")
    wl = WORKLOADS["oracle-cold"]
    op = (irreps.sp(3, 2, 1), irreps.sp(3, 1, 1))
    result = wl.run(op)

    def broken(label):
        raise AssertionError("the check used weyl_character")

    monkeypatch.setattr(irreps, "weyl_character", broken)
    assert failure(wl, op, result) is None


def test_an_op_that_raised_makes_the_run_incorrect(monkeypatch, capsys):
    import json
    import sys

    import multfree
    import run
    import worker
    import workloads

    irreps = module("irreps")
    good = (irreps.u(3, 1, 0, 0), irreps.u(3, 1, 0, 0))
    bad = (irreps.u(3, 1, 1, 0), irreps.u(3, 1, 0, 0))

    def leaky(op):
        if op == bad:
            raise irreps.OracleError("dimension leak")
        return workloads.run_product(op)

    wl = WORKLOADS["oracle-cold"]._replace(build=lambda seed: [good, bad], run=leaky)
    monkeypatch.setitem(WORKLOADS, "oracle-cold", wl)
    monkeypatch.setenv("PYTHONPATH", multfree.__file__.rsplit("multfree", 1)[0])
    monkeypatch.setattr(sys, "argv", ["worker.py", "--workload", "oracle-cold", "--seed", "1"])
    assert worker.main() == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["failed"] == 1 and "OracleError" in report["reasons"][0]
    line = run.result_line([report], {})
    assert line == {"correct": False, "attempted": 2, "failed": 1, "metrics": {}}


def test_reported_metrics_match_benchmark_json():
    import json
    from pathlib import Path

    import run
    from tracer import Tracer

    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    layers = list(Tracer().metrics()) + ["trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.layer_unit(n) for n in layers}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
