"""
Sparse multivariate Laurent polynomials over the integers.

Terms are kept in a dict mapping integer exponent tuples to nonzero int
coefficients, e.g. the symplectic rank-1 character x + x^-1 is

    LaurentPoly(1, {(1,): 1, (-1,): 1})

Coefficients are exact Python ints throughout; torus characters of
irreducible representations have all coefficients >= 1 and their value at
the identity (sum of coefficients) equals the dimension.  Instances are
treated as immutable after construction.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

Exponent = tuple[int, ...]


class LaurentPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, int] | None = None):
        self.nvars = nvars
        # the one zero filter: the arithmetic below leaves zero sums in place
        clean: dict[Exponent, int] = {}
        if terms:
            for e, c in terms.items():
                if c != 0:
                    if len(e) != nvars:
                        raise ValueError(f"exponent {e} has wrong arity for {nvars} variables")
                    clean[tuple(e)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff: int = 1) -> "LaurentPoly":
        e = tuple(exps)
        return cls(len(e), {e: coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(self.nvars, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(self.nvars, out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[Exponent, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(self.nvars, out)

    def scale(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly.zero(self.nvars)
        return LaurentPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def shift(self, exps: Iterable[int]) -> "LaurentPoly":
        """Multiply by the monomial with the given exponent vector."""
        d = tuple(exps)
        return LaurentPoly(
            self.nvars, {tuple(a + b for a, b in zip(e, d)): c for e, c in self.terms.items()}
        )

    def coeff(self, exps: Iterable[int]) -> int:
        return self.terms.get(tuple(exps), 0)

    def items(self) -> Iterator[tuple[Exponent, int]]:
        return iter(self.terms.items())

    def dimension(self) -> int:
        """Value at the identity of the torus: the sum of all coefficients."""
        return sum(self.terms.values())

    def leading_exponent(self) -> Exponent:
        """Lexicographically largest exponent; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading exponent")
        return max(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(f"x{i}^{p}" for i, p in enumerate(e) if p != 0) or "1"
            bits.append(f"{c}*{mono}" if c != 1 or mono == "1" else mono)
        return " + ".join(bits)


def exact_divide(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """
    Quotient of an exact division num / den in the Laurent ring.

    Requires the division to be exact and the lex-leading coefficient of den
    to be a unit (+-1); both hold for Weyl-type alternants.  Each step strips
    the current lex-leading term of the remainder, so the loop runs once per
    quotient term.
    """
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    lead = den.leading_exponent()
    lead_c = den.terms[lead]
    if lead_c not in (1, -1):
        raise ValueError("leading coefficient of divisor must be a unit")
    quo: dict[Exponent, int] = {}
    rem = num
    # an exact division emits one quotient term per round; a generous cap
    # turns the otherwise endless descent of an inexact one into an error
    budget = 1000 + 50 * (len(num.terms) + 1) * (len(den.terms) + 1)
    while rem:
        budget -= 1
        if budget < 0:
            raise ValueError("division is not exact")
        e = rem.leading_exponent()
        c = rem.terms[e]
        q = c // lead_c
        if q * lead_c != c:
            raise ValueError("division is not exact")
        qe = tuple(a - b for a, b in zip(e, lead))
        quo[qe] = q
        rem = rem - den.shift(qe).scale(q)
    return LaurentPoly(num.nvars, quo)
