"""
Reference tensor-product oracle for the tests: multiply the two characters
exactly and peel irreducible characters off the product from the top.

It shares no code with the Brauer-Klimyk rule in ``irreps.tensor_pair``
beyond ``weyl_character`` and ``LaurentPoly``, so the two can check each
other.  It is slow: every constituent's full character is built.
"""

from __future__ import annotations

from multfree.irreps import IrrepLabel, OracleError, weyl_character
from multfree.laurent import LaurentPoly


def dominant_label(family: str, rank: int, e: tuple[int, ...]) -> IrrepLabel:
    if family == "sp":
        if any(a < b for a, b in zip(e, e[1:])) or (e and e[-1] < 0):
            raise OracleError(f"leading weight {e} is not sp-dominant")
        return IrrepLabel("sp", rank, e)
    if family == "u":
        if any(a < b for a, b in zip(e, e[1:])):
            raise OracleError(f"leading weight {e} is not u-dominant")
        return IrrepLabel("u", rank, e)
    if family == "so":
        if any(a < b for a, b in zip(e[:-1], e[1:-1])) or (len(e) >= 2 and e[-2] < abs(e[-1])):
            raise OracleError(f"leading weight {e} is not so-dominant")
        return IrrepLabel("so", rank, e)
    raise OracleError(f"greedy decomposition does not handle family {family!r}")


def greedy_decompose(poly: LaurentPoly, family: str, rank: int) -> dict[IrrepLabel, int]:
    """
    Peel irreducible characters off ``poly`` from the top.

    The lex-largest exponent of any nonnegative combination of irreducible
    characters is the highest weight of a constituent, hence dominant; a
    non-dominant leader or a negative coefficient raises ``OracleError``.
    """
    parts: dict[IrrepLabel, int] = {}
    rem = poly
    while rem:
        e = rem.leading_exponent()
        label = dominant_label(family, rank, e)
        c = rem.terms[e]
        if c < 1:
            raise OracleError(f"negative multiplicity {c} at weight {e}")
        rem = rem - weyl_character(label).scale(c)
        parts[label] = c
    return parts


def reference_tensor_pair(a: IrrepLabel, b: IrrepLabel) -> dict[IrrepLabel, int]:
    """a (x) b by greedy peeling, in label order like
    ``tensor_pair``; su runs on the u(m) lifts and renormalises labels."""
    fam, rank = a.family, a.rank
    if fam == "su":
        lifts = [IrrepLabel("u", rank, x.weight + (0,) * (rank - len(x.weight))) for x in (a, b)]
        prod = weyl_character(lifts[0]) * weyl_character(lifts[1])
        result: dict[IrrepLabel, int] = {}
        for lab, m in greedy_decompose(prod, "u", rank).items():
            w = lab.weight
            key = IrrepLabel("su", rank, tuple(x - w[-1] for x in w))
            result[key] = result.get(key, 0) + m
    else:
        result = greedy_decompose(weyl_character(a) * weyl_character(b), fam, rank)
    return dict(sorted(result.items()))
