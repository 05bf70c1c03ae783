import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import multfree.classify as classify_mod
from multfree.cases import CompositeLabel, case_spec, factor_weights, factors, tau_spec
from multfree.classify import cross_check
from multfree.cli import main
from multfree.irreps import FormalSum, IrrepLabel, decompose_product
from multfree.sp_pieri import pieri_tensor

README = Path(__file__).resolve().parents[1] / "README.md"


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
    code, out, _ = run_cli(capsys, "tensor", "sp", "2", "--json", "--", "2", "1", "--", "2")
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


@pytest.mark.parametrize(
    "argv",
    [
        ("--", "--", "1"),  # argparse strips the first ``--``
        ("--json", "--", "--", "1"),  # argparse keeps the first ``--``
        ("--", "1", "--"),
    ],
)
def test_tensor_empty_group_is_zero_weight(capsys, argv):
    code, out, err = run_cli(capsys, "tensor", "sp", "2", *argv)
    assert (code, err) == (0, "")
    want = decompose_product([IrrepLabel("sp", 2, ()), IrrepLabel("sp", 2, (1,))])
    if "--json" in argv:
        assert json.loads(out) == want.to_json()
    else:
        assert out.strip() == "(1)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--",), "need at least two weights"),
        (("--json", "--", "1"), "need at least two weights"),
        (("--json", "--"), "need at least two weights"),
        (("--oracle-only", "--", "1", "--", "2"), "not an integer: '--oracle-only'"),
    ],
)
def test_tensor_rejects_missing_weight(capsys, argv, message):
    code, out, err = run_cli(capsys, "tensor", "sp", "2", *argv)
    assert (code, out) == (2, "")
    assert message in err


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


# the whole --witness text of a family II row and a family VIII row: the
# golden files write JSON with sorted keys, so only this text pins the key
# order of the omega and tau dicts of each route
WITNESS_TEXTS = [
    (
        ("II", "--k1", "1", "--k2", "1", "--tau", "su2a=1,spb=1"),
        [
            "MULTIPLICITY at (χ(-1,2); η(), η(1)) (x2) - not commutative",
            "  route degree 2: omega {'l1': 0, 'l2': 0, 'r': 0, 's': 2}, "
            "tau {'su2a': (-1,), 'su2b': (0,), 'spa': (), 'spb': (1,)}, mult 1",
            "  route degree 2: omega {'l1': 0, 'l2': 2, 'r': 0, 's': 0}, "
            "tau {'su2a': (-1,), 'su2b': (0,), 'spa': (), 'spb': (1,)}, mult 1",
            "expected: NotCommutative - CONSISTENT",
        ],
    ),
    (
        ("VIII", "--m", "3", "--kn", "1,0", "--tau", "su2.1=1"),
        [
            "MULTIPLICITY at (χ(0,0,0,0); υ(1)) (x2) - not commutative",
            "  route degree 1: omega {'blocks': ((('block', 'su.1'), ('m_vec', (0, 0, 0))), "
            "(('block', 'su2.1'), ('r', 0), ('s', 1), ('u_inner', (1,))))}, "
            "tau {'su.1': (0, 0), 'su2.1': (1,), 's1.1': (0,), 'u.1': (0,)}, mult 1",
            "  route degree 1: omega {'blocks': ((('block', 'su.1'), ('m_vec', (0, 0, 0))), "
            "(('block', 'su2.1'), ('r', 1), ('s', 0), ('u_inner', (1,))))}, "
            "tau {'su.1': (0, 0), 'su2.1': (-1,), 's1.1': (0,), 'u.1': (0,)}, mult 1",
            "expected: NotCommutative - CONSISTENT",
        ],
    ),
]


@pytest.mark.parametrize("argv, lines", WITNESS_TEXTS, ids=["II", "VIII"])
def test_classify_witness_text_of_block_families(capsys, argv, lines):
    code, out, _ = run_cli(capsys, "classify", *argv, "--degree", "4", "--witness")
    assert code == 0
    assert out == "".join(line + "\n" for line in lines)


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
        lambda spec, tau: classify_mod.ExpectedVerdict(True),
    )
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert "CONTRADICTION" in out


def test_classify_bad_case_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "XI", "--n", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["I"], "case I needs n"),
        (["VII", "--k", "2"], "case VII needs n"),
        (["II", "--k1", "1"], "case II needs k2"),
        (["I", "--n", "2", "--k", "3"], "case I takes no parameter 'k'"),
        (["VIII", "--m", "3", "--n", "2"], "case VIII takes no parameter 'n'"),
    ],
)
def test_classify_names_missing_or_extra_parameter(capsys, argv, message):
    code, out, err = run_cli(capsys, "classify", *argv)
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: {message}"


def test_classify_help_lists_the_tau_factor_keys(capsys, monkeypatch):
    # the epilog names VIII's keys with block indices i and j; a spec with
    # one block of each kind numbers both 1
    monkeypatch.setenv("COLUMNS", "1000")  # the epilog fills one line
    with pytest.raises(SystemExit):
        main(["classify", "--help"])
    epilog = capsys.readouterr().out.splitlines()[-1]
    listed = epilog.split("tau factor keys per case: ", 1)[1].split(". ")[0]
    specs = {
        "I": case_spec("I", n=2),
        "II": case_spec("II", k1=1, k2=1),
        "III": case_spec("III", n=2),
        "IV": case_spec("IV", n=2),
        "V": case_spec("V", n=3),
        "VI": case_spec("VI", n=3),
        "VII": case_spec("VII", k=2, n=1),
        "VIII": case_spec("VIII", m=(3,), kn=((1, 1),)),
        "IX": case_spec("IX", n=2),
    }
    seen = []
    for item in listed.split("; "):
        cids, keys = item.split(": ")
        keys = keys.replace(".i", ".1").replace(".j", ".1").split(",")
        for cid in cids.split("/"):
            seen.append(cid)
            assert keys == [f.key for f in factors(specs[cid])], cid
    assert seen == list(specs)


def test_classify_bad_tau_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "I", "--n", "2", "--tau", "sp=1,2")
    assert code == 2


@pytest.mark.parametrize(
    "tau, key", [("su2=1,su2=2", "su2"), ("sp=1,sp=2", "sp"), ("sp=1,2,su2=1, sp =0", "sp")]
)
def test_classify_repeated_tau_factor_exits_2(capsys, tau, key):
    # the second value must not silently replace the first
    code, out, err = run_cli(capsys, "classify", "I", "--n", "2", "--tau", tau)
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: tau factor {key!r} given twice"


@pytest.mark.parametrize(
    "argv, option",
    [
        (("classify", "I", "--n", "2", "--tau", "su2=1", "--tau", "sp=1"), "--tau"),
        (("classify", "I", "--n", "2", "--n", "3", "--tau", "sp=1"), "--n"),
        (("verify-theorem1", "--bound", "1", "--bound", "0"), "--bound"),
    ],
)
def test_repeated_single_valued_option_exits_2(capsys, argv, option):
    # argparse would keep the last value: ``--tau su2=1 --tau sp=1`` would
    # drop su2=1 and call the row commutative
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[-1].endswith(f"argument {option}: given more than once")


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


def test_verify_cases_keep_order(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem1", "--bound", "0", "--degree", "1", "--cases", "IX,i")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[:-1]] == [
        "IX(n=1)", "IX(n=2)", "I(n=2)", "I(n=3)"
    ]


@pytest.mark.parametrize("cases, cid", [("I,I", "I"), ("i,,I", "I"), ("IX,I,ix", "IX")])
def test_verify_repeated_case_exits_2(capsys, cases, cid):
    # a repeated case would sweep its rows twice
    code, out, err = run_cli(capsys, "verify-theorem1", "--cases", cases)
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: case {cid!r} given twice"


def test_verify_unknown_case_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify-theorem1", "--cases", "I,X")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: unknown case 'X'"


@pytest.mark.parametrize("cases", [",", "", " , ,"])
def test_verify_cases_naming_no_case_exits_2(capsys, cases):
    # an empty sweep would report success on zero rows
    code, out, err = run_cli(capsys, "verify-theorem1", "--cases", cases)
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: --cases {cases!r} names no case"


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


def test_import_loads_neither_fractions_nor_decimal():
    # the arithmetic is in ints; either module would add its import time to every run
    probe = "import sys, multfree; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv, first_line",
    [
        # the reader takes one line and closes the pipe; a one-page pipe keeps
        # most of the 60 kB of output unwritten, so the writer meets the closed end
        (["verify-theorem1", "--bound", "1", "--degree", "2", "--json"], b"{\n"),
        # the reader is gone before the one line, held in the stdout buffer, is written
        (["pieri", "1", "--s", "1", "--n", "2"], None),
    ],
    ids=["after-one-line", "before-output"],
)
def test_closed_stdout_exits_141(argv, first_line):
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs a resizable pipe")
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    if first_line is None:
        os.close(read_fd)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "multfree.cli", *argv],
        stdout=write_fd,
        stderr=subprocess.PIPE,
        env=env,
    )
    os.close(write_fd)
    if first_line is not None:
        with os.fdopen(read_fd, "rb") as out:
            assert out.readline() == first_line
    _, err = proc.communicate()
    assert proc.returncode == 141
    assert err == b""


def _readme_commands():
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        if line.startswith("multfree "):
            cmd, _, want = line.partition("# ->")
            yield shlex.split(cmd, comments=True)[1:], want.strip() or None


def test_readme_commands_hold(capsys):
    commands = list(_readme_commands())
    assert len(commands) >= 8
    for argv, want in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        if want is not None:
            assert out.strip() == want, argv


def _json_of(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) in (0, 1), argv
    return json.loads(buf.getvalue())


_FAMILY_RANKS = [
    ("sp", 1), ("sp", 2), ("u", 1), ("u", 2), ("su", 2), ("su", 3), ("so", 2), ("so", 3)
]


@st.composite
def _small_pair(draw):
    family, rank = draw(st.sampled_from(_FAMILY_RANKS))
    weights = st.sampled_from(factor_weights(family, rank, 2))
    return family, rank, draw(weights), draw(weights)


def _arg(weight):
    return ",".join(map(str, weight))


@settings(max_examples=30, deadline=None)
@given(_small_pair())
@example(("sp", 2, (), (1,)))
@example(("su", 3, (1,), ()))
@example(("sp", 1, (), ()))
@example(("so", 3, (1, 1, -1), (1, 0, 0)))
def test_tensor_json_reads_back_as_formal_sum(pair):
    family, rank, a, b = pair
    # the empty su/sp weight is written as an empty group, with no token
    groups = [tok for w in (a, b) for tok in ("--", _arg(w)) if tok]
    data = _json_of("tensor", family, str(rank), "--json", *groups)
    got = FormalSum.from_json(data)
    assert got == decompose_product([IrrepLabel(family, rank, a), IrrepLabel(family, rank, b)])
    assert got.to_json() == data
    assert FormalSum.from_json({"entries": data["entries"]}) == got
    with pytest.raises(ValueError):
        FormalSum.from_json({**data, "truncation": 6})


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_pieri_json_reads_back_as_formal_sum(n, s, data):
    eta = data.draw(st.sampled_from(factor_weights("sp", n, 3)))
    out = _json_of("pieri", *map(str, eta), "--s", str(s), "--n", str(n), "--json")
    got = FormalSum.from_json(out)
    assert got == pieri_tensor(eta, s, n)
    assert got.to_json() == out


VIII_3_1 = case_spec("VIII", m=(3,), kn=((1, 0),))


@pytest.mark.parametrize(
    "argv, spec, weights",
    [
        (("I", "--n", "2"), case_spec("I", n=2), {"su2": (1,), "sp": (1,)}),
        (("I", "--n", "2"), case_spec("I", n=2), {"sp": (1, 1)}),
        (("VII", "--k", "2", "--n", "1"), case_spec("VII", k=2, n=1), {"u": (1, 0)}),
        (("VIII", "--m", "3", "--kn", "1,0"), VIII_3_1, {"su2.1": (1,)}),
        (("VIII", "--m", "3", "--kn", "1,0"), VIII_3_1, {"s1.1": (2,), "u.1": (-1,)}),
        (("II", "--k1", "2", "--k2", "1"), case_spec("II", k1=2, k2=1), {"su2a": (1,), "spb": (1,)}),
    ],
)
def test_classify_json_witness_reads_back_as_label(argv, spec, weights):
    tau_arg = ",".join(f"{key}={_arg(w)}" for key, w in weights.items())
    data = _json_of("classify", *argv, "--tau", tau_arg, "--degree", "5", "--json")
    verdict = cross_check(spec, tau_spec(spec, **weights), 5).verdict
    assert ("witness" in data) == verdict.multiplicity_found
    if verdict.multiplicity_found:
        assert CompositeLabel.from_json(data["witness"]) == verdict.witness
        assert verdict.witness.to_json() == data["witness"]


def test_verify_json_witness_reads_back_as_label():
    data = _json_of("verify-theorem1", "--bound", "1", "--degree", "4", "--cases", "I,VIII", "--json")
    specs = [s for s in classify_mod.default_grid() if s.case_id in ("I", "VIII")]
    rows = [row for spec in specs for row in classify_mod.sweep(spec, 1, 4)]
    assert len(data["rows"]) == len(rows)
    found = 0
    for got, row in zip(data["rows"], rows):
        assert ("witness" in got) == row.verdict.multiplicity_found
        if row.verdict.multiplicity_found:
            found += 1
            assert CompositeLabel.from_json(got["witness"]) == row.verdict.witness
    assert 0 < found < len(rows)
