import json
import subprocess
import sys

import pytest

import multfree.classify as classify_mod
from multfree.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pieri_basic(capsys):
    code, out, _ = run_cli(capsys, "pieri", "1", "--s", "1", "--n", "2")
    assert code == 0
    assert out.strip() == "(2) + (1,1) + ()"


def test_pieri_s_zero(capsys):
    code, out, _ = run_cli(capsys, "pieri", "2", "1", "--s", "0", "--n", "3")
    assert code == 0
    assert out.strip() == "(2,1)"


def test_pieri_json_matches_oracle(capsys):
    code, out, _ = run_cli(capsys, "pieri", "2", "1", "--s", "2", "--n", "2", "--json")
    assert code == 0
    got = json.loads(out)
    code, out, _ = run_cli(capsys, "tensor", "sp", "2", "--oracle-only", "--json", "--", "2", "1", "--", "2")
    assert code == 0
    assert json.loads(out) == got


def test_pieri_rejects_non_partition(capsys):
    code, _, err = run_cli(capsys, "pieri", "1", "2", "--s", "1", "--n", "2")
    assert code == 2
    assert "decreasing" in err


def test_pieri_rejects_overlong(capsys):
    code, _, err = run_cli(capsys, "pieri", "1", "1", "1", "--s", "1", "--n", "2")
    assert code == 2


@pytest.mark.parametrize("rank", ["0", "-1"])
def test_pieri_rejects_rank_below_one(capsys, rank):
    code, out, err = run_cli(capsys, "pieri", "--s", "1", "--n", rank)
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: sp rank must be >= 1, got {rank}"


def test_tensor_sp(capsys):
    code, out, _ = run_cli(capsys, "tensor", "sp", "2", "--", "1", "--", "1")
    assert code == 0
    assert out.strip() == "(2) + (1,1) + ()"


def test_tensor_su(capsys):
    code, out, _ = run_cli(capsys, "tensor", "su", "2", "--", "1", "--", "1")
    assert code == 0
    assert out.strip() == "ν2 + ν0"


def test_tensor_u(capsys):
    code, out, _ = run_cli(capsys, "tensor", "u", "2", "--", "1,0", "--", "1,0")
    assert code == 0
    assert out.strip() == "(2,0) + (1,1)"


def test_tensor_bad_weight_exits_2(capsys):
    code, _, err = run_cli(capsys, "tensor", "sp", "2", "--", "1,2", "--", "1")
    assert code == 2


def test_tensor_needs_two_weights(capsys):
    code, _, err = run_cli(capsys, "tensor", "sp", "2", "--", "1")
    assert code == 2


def test_classify_case_i_witness(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "I", "--n", "2", "--tau", "su2=1,sp=1", "--degree", "4"
    )
    assert code == 0  # consistent with the reference table
    assert "MULTIPLICITY" in out
    assert "not commutative" in out
    assert "CONSISTENT" in out


def test_classify_case_i_constant_partition(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "I", "--n", "2", "--tau", "sp=1,1", "--degree", "6"
    )
    assert code == 0
    assert "multiplicity-free up to degree 6" in out
    assert "commutative" in out
    assert "bounded certificate" in out  # never claims more than the truncation


def test_classify_case_ix(capsys):
    code, out, _ = run_cli(capsys, "classify", "IX", "--n", "1", "--tau", "u=3", "--degree", "6")
    assert code == 0
    assert "multiplicity-free up to degree 6" in out


def test_classify_witness_routes(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify", "I", "--n", "2", "--tau", "su2=1,sp=1", "--degree", "4", "--witness",
    )
    assert code == 0
    assert out.count("route degree") == 2


def test_classify_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify", "I", "--n", "2", "--tau", "su2=1,sp=1", "--degree", "4", "--json",
    )
    data = json.loads(out)
    assert data["verdict"] == "MultiplicityFound"
    assert data["consistency"] == "CONSISTENT"
    assert data["witness"] == {"torus": [1], "u": [{"family": "sp", "rank": 2, "weight": [1]}]}


def test_classify_contradiction_exits_1(capsys, monkeypatch):
    argv = ("classify", "VII", "--k", "2", "--n", "1", "--tau", "u=1,0", "--degree", "5")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "CONSISTENT" in out
    # a table that wrongly claims this known-witness triple commutative
    monkeypatch.setattr(
        classify_mod,
        "expected_verdict",
        lambda spec, tau: classify_mod.ExpectedVerdict(True, "patched"),
    )
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert "CONTRADICTION" in out


def test_classify_bad_case_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "XI", "--n", "2")
    assert code == 2


def test_classify_bad_tau_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "I", "--n", "2", "--tau", "sp=1,2")
    assert code == 2


def test_verify_small_grid(capsys):
    code, out, _ = run_cli(
        capsys, "verify-theorem1", "--bound", "1", "--degree", "4", "--cases", "I,IV"
    )
    assert code == 0
    assert "0 contradictions" in out


def test_verify_bound_zero(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem1", "--bound", "0", "--degree", "2", "--cases", "I,III,IX")
    assert code == 0
    for line in out.splitlines()[:-1]:
        assert "MultiplicityFreeUpTo" in line


def test_verify_json_has_no_prose(capsys):
    code, out, _ = run_cli(
        capsys, "verify-theorem1", "--bound", "1", "--degree", "4", "--cases", "IX", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"rows", "summary"}
    for row in data["rows"]:
        assert set(row) <= {"case", "params", "tau", "verdict", "degree", "expected", "consistency", "witness"}


def test_verify_cases_keep_order_and_duplicates(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem1", "--bound", "0", "--degree", "1", "--cases", "IX,I,ix")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[:-1]] == [
        "IX(n=1)", "IX(n=2)", "I(n=2)", "I(n=3)", "IX(n=1)", "IX(n=2)"
    ]


def test_verify_unknown_case_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify-theorem1", "--cases", "I,X")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: unknown case 'X'"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "I", "--n", "2", "--tau", "sp=1", "--degree", "-1"),
        ("verify-theorem1", "--degree", "-1"),
        ("verify-theorem1", "--bound", "-1"),
        ("pieri", "1", "--s", "-1", "--n", "2"),
    ],
)
def test_negative_count_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith("must be >= 0, got -1")


@pytest.mark.parametrize(
    "target, argv",
    [
        ("decompose_product", ("tensor", "u", "2", "--", "1,0", "--", "1,0")),
        ("cross_check", ("classify", "I", "--n", "2", "--tau", "sp=1", "--degree", "2")),
        ("sweep", ("verify-theorem1", "--bound", "0", "--degree", "1")),
    ],
)
def test_internal_failure_exits_3(capsys, monkeypatch, target, argv):
    import multfree.cli as cli_mod
    from multfree.irreps import OracleError

    def broken(*args, **kwargs):
        raise OracleError("dimension leak in a (x) b: 80 != 64")

    monkeypatch.setattr(cli_mod, target, broken)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "error: internal: OracleError: dimension leak in a (x) b: 80 != 64\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "multfree.cli", "pieri", "1", "--s", "1", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(2) + (1,1) + ()"
