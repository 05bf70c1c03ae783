"""
Command-line front end.

    multfree pieri 2 1 --s 2 --n 2          universal one-row rule (closed form)
    multfree tensor sp 2 -- 2 1 -- 2        tensor decomposition (Brauer-Klimyk)
    multfree classify I --n 2 --tau su2=1,sp=1 --degree 4
    multfree verify-theorem1 --bound 2 --degree 6 --cases I,VII

Exit codes: 0 success/consistent, 1 inconsistency or bounded-certificate
gap, 2 malformed input, 3 internal failure (an ``OracleError`` or any other
uncaught exception, reported as one ``error: internal:`` line), 141 stdout
closed by its reader (the code of ``yes | head -1``, with no stderr line).  ``--json``
switches every command to a machine-readable rendering with no prose fields.
In ``tensor`` an empty weight group is the zero weight of su or sp (``tensor sp 2 -- -- 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cases import CaseSpec, case_spec, tau_spec
from .classify import (
    CONSISTENT,
    CONTRADICTION,
    INCONCLUSIVE,
    cross_check,
    default_grid,
    sweep,
)
from .irreps import IrrepLabel, decompose_product, render_formal_sum
from .sp_pieri import pieri_tensor


class InputError(Exception):
    pass


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(f"not an integer: {text!r}") from exc


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class _Once(argparse.Action):
    """Store an option's value, and refuse the option given twice: argparse
    would keep the last value and silently drop the first (exit 2)."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given_once", set())
        if self.dest in given:
            parser.error(f"argument {option_string}: given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def _parse_weight_groups(raw: list[str]) -> list[tuple[int, ...]]:
    """Weights separated by ``--``; an empty group is the empty weight."""
    groups: list[list[int]] = [[]]
    for tok in raw:
        if tok == "--":
            groups.append([])
        else:
            for piece in tok.split(","):
                piece = piece.strip()
                if piece:
                    groups[-1].append(_parse_int(piece))
    return [tuple(g) for g in groups]


def parse_tau(spec: CaseSpec, text: str | None):
    """
    Mini-grammar: comma-separated ``factor=entries`` in the case's canonical
    factor order; a comma-separated segment without ``=`` continues the
    previous factor's weight, so ``su2=1,sp=2,1`` reads as su2=(1), sp=(2,1).
    A factor named twice is an input error.
    """
    weights: dict[str, list[int]] = {}
    if text:
        current: str | None = None
        for seg in text.split(","):
            seg = seg.strip()
            if not seg:
                continue
            if "=" in seg:
                key, val = seg.split("=", 1)
                current = key.strip()
                if current in weights:
                    raise InputError(f"tau factor {current!r} given twice")
                weights[current] = []
                if val.strip():
                    weights[current].append(_parse_int(val))
            elif current is None:
                raise InputError(f"tau segment {seg!r} appears before any factor=...")
            else:
                weights[current].append(_parse_int(seg))
    try:
        return tau_spec(spec, **{k: tuple(v) for k, v in weights.items()})
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _case_kwargs(args) -> dict:
    kwargs = {}
    for key in ("n", "k", "k1", "k2"):
        val = getattr(args, key, None)
        if val is not None:
            kwargs[key] = val
    if getattr(args, "m", None):
        kwargs["m"] = tuple(args.m)
    if getattr(args, "kn", None):
        pairs = []
        for item in args.kn:
            bits = [b for b in item.replace(",", " ").split() if b]
            if len(bits) != 2:
                raise InputError(f"--kn expects 'k,n', got {item!r}")
            pairs.append((_parse_int(bits[0]), _parse_int(bits[1])))
        kwargs["kn"] = tuple(pairs)
    return kwargs


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# commands


def cmd_pieri(args) -> int:
    try:
        result = pieri_tensor(args.parts, args.s, args.n)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.json:
        _print_json(result.to_json())
    else:
        print(render_formal_sum(result))
    return 0


def cmd_tensor(args) -> int:
    family = args.family.lower()
    if family not in ("su", "sp", "u", "so"):
        raise InputError(f"unsupported family {args.family!r}")
    tokens = args.weights
    # REMAINDER swallows trailing flags, so pick them out by hand; argparse
    # strips the ``--`` right after the rank but keeps one after a flag
    args.json = args.json or "--json" in tokens
    raw = [tok for tok in tokens if tok != "--json"]
    if tokens[:1] == ["--json"] and raw[:1] == ["--"]:
        raw = raw[1:]
    groups = _parse_weight_groups(raw)
    if len(groups) < 2:
        raise InputError("need at least two weights separated by --")
    try:
        labels = [IrrepLabel(family, args.rank, w) for w in groups]
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    result = decompose_product(labels)
    if args.json:
        _print_json(result.to_json())
    else:
        print(render_formal_sum(result))
    return 0


def _build_case(args) -> CaseSpec:
    try:
        return case_spec(args.case, **_case_kwargs(args))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cmd_classify(args) -> int:
    spec = _build_case(args)
    tau = parse_tau(spec, args.tau)
    row = cross_check(spec, tau, args.degree)
    verdict, expected = row.verdict, row.expected
    if args.json:
        payload = row.to_json()
        if args.witness and verdict.multiplicity_found:
            payload["routes"] = verdict.to_json()["routes"]
        _print_json(payload)
    else:
        if verdict.multiplicity_found:
            print(f"MULTIPLICITY at {verdict.witness} (x{verdict.multiplicity}) - not commutative")
            if args.witness:
                for route in verdict.routes:
                    print(f"  route degree {route['degree']}: omega {route['omega']}, tau {route['tau']}, mult {route['mult']}")
        else:
            d = verdict.degree_bound
            if expected.commutative:
                print(
                    f"multiplicity-free up to degree {d} - commutative per the reference table "
                    f"(bounded certificate only)"
                )
            else:
                print(
                    f"multiplicity-free up to degree {d} - INCONCLUSIVE: the reference table "
                    f"expects non-commutativity; raise --degree"
                )
        print(f"expected: {expected.outcome} - {row.consistency}")
    return 0 if row.consistency == CONSISTENT else 1


def cmd_verify(args) -> int:
    specs = default_grid()
    if args.cases is not None:
        wanted = [c.strip().upper() for c in args.cases.split(",") if c.strip()]
        if not wanted:
            raise InputError(f"--cases {args.cases!r} names no case")
        for cid in wanted:
            if all(s.case_id != cid for s in specs):
                raise InputError(f"unknown case {cid!r}")
            if wanted.count(cid) > 1:
                raise InputError(f"case {cid!r} given twice")
        specs = [s for cid in wanted for s in specs if s.case_id == cid]
    rows = [row for spec in specs for row in sweep(spec, args.bound, args.degree)]
    bad = [r for r in rows if r.consistency != CONSISTENT]
    summary = {
        "rows": len(rows),
        "consistent": sum(r.consistency == CONSISTENT for r in rows),
        "inconclusive": sum(r.consistency == INCONCLUSIVE for r in rows),
        "contradictions": sum(r.consistency == CONTRADICTION for r in rows),
    }
    if args.json:
        _print_json({"rows": [r.to_json() for r in rows], "summary": summary})
    else:
        for r in rows:
            mark = "   " if r.consistency == CONSISTENT else "!! "
            witness = f"  witness {r.verdict.witness}" if r.verdict.multiplicity_found else ""
            print(
                f"{mark}{str(r.spec):24s} tau {str(r.tau):42s} {r.verdict.outcome:22s} "
                f"expected {r.expected.outcome:16s} {r.consistency}{witness}"
            )
        print(
            f"{summary['rows']} rows: {summary['consistent']} consistent, "
            f"{summary['inconclusive']} inconclusive, {summary['contradictions']} contradictions"
        )
    return 0 if not bad else 1


# ---------------------------------------------------------------------------
# plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multfree",
        description="Exact tensor decompositions and the multiplicity-freeness classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pieri", help="decompose eta (x) eta_(s) in sp(n)")
    p.add_argument("parts", nargs="*", type=int, help="parts of eta")
    p.add_argument("--s", type=_nonnegative, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pieri)

    p = sub.add_parser("tensor", help="decompose a tensor product of same-family irreps")
    p.add_argument("family", help="su | sp | u | so")
    p.add_argument("rank", type=int)
    p.add_argument("weights", nargs=argparse.REMAINDER, help="weights separated by --")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser(
        "classify",
        help="decide a triple by truncated multiplicity-freeness",
        epilog=(
            "tau factor keys per case: I: su2,sp; II: su2a,su2b,spa,spb; III: sp2,sp; "
            "IV: so; V/VI: su,s1; VII: su2,u,sp; VIII: su.i,su2.j,s1.i,u.j,sp.j; IX: u. "
            "Example: --tau su2=1,sp=2,1 sets su2=(1) and sp=(2,1); omitted factors are trivial."
        ),
    )
    p.add_argument("case", help="I..IX")
    p.add_argument("--n", type=int, action=_Once)
    p.add_argument("--k", type=int, action=_Once)
    p.add_argument("--k1", type=int, action=_Once)
    p.add_argument("--k2", type=int, action=_Once)
    p.add_argument("--m", type=int, action="append", help="su-block size (repeatable, case VIII)")
    p.add_argument("--kn", action="append", help="su2-block 'k,n' (repeatable, case VIII)")
    p.add_argument("--tau", action=_Once, help="factor=weights,... in canonical factor order")
    p.add_argument("--degree", type=_nonnegative, action=_Once, default=None)
    p.add_argument("--witness", action="store_true", help="print production routes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "verify-theorem1",
        help="cross-check the classifier against the reference table on a small grid",
    )
    p.add_argument("--bound", type=_nonnegative, action=_Once, default=2, help="max weight size per tau factor")
    p.add_argument("--degree", type=_nonnegative, action=_Once, default=6, help="truncation degree (default 6)")
    p.add_argument("--cases", action=_Once, help="comma-separated subset of I..IX")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone; let the flush at exit write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:  # a bug, never a verdict: keep it off exit 1
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
