"""
Closed-form tensor rules for sp(n) against a one-row or one-column factor.

Three rules are implemented, each a closed form on its whole domain:

* row (x) row:      eta_(r) (x) eta_(s) = sum over 0<=j<=s, 0<=i<=j of
                    eta_(r+s-j-i, j-i)                   (r, s >= 0, n >= 1;
                    at n = 1 only the one-row terms i = j remain)
* column (x) row:   eta_(1^r) (x) eta_(s), four terms    (2 <= r <= n, s >= 2;
                    at r = n the term (s, 1^r) has too many rows and drops)
* universal rule:   eta (x) eta_(s) = sum over sigma of M * eta_sigma, where
                    M counts partitions c such that eta/c and sigma/c are
                    horizontal strips with |eta/c| + |sigma/c| = s, sigma of
                    length at most n                     (n >= 1, s >= 0).

Outside its domain a rule raises ``ValueError``.  The rules are checked
against the character oracle ``irreps.decompose_product``, which makes every
decomposition of the classifier and of ``multfree tensor``; only
``multfree pieri`` and the tests call them.
"""

from __future__ import annotations

from .irreps import FormalSum, IrrepLabel
from .partitions import (
    Partition,
    canonical,
    size,
    strip_predecessors,
    strip_successors,
)


def _row_label(n: int, *parts: int) -> IrrepLabel:
    return IrrepLabel("sp", n, canonical(parts))


def _check_rank(n: int) -> None:
    if n < 1:
        raise ValueError(f"sp rank must be >= 1, got {n}")


def tensor_sym_sym(r: int, s: int, n: int) -> FormalSum:
    """Decompose eta_(r) (x) eta_(s) in sp(n), n >= 1."""
    if r < 0 or s < 0 or n < 1:
        raise ValueError("need r, s >= 0 and n >= 1")
    if r < s:
        r, s = s, r
    return FormalSum(
        {
            _row_label(n, r + s - j - i, j - i): 1
            for j in range(s + 1)
            for i in range(j + 1)
            if n > 1 or i == j
        }
    )


def tensor_column_sym(r: int, s: int, n: int) -> FormalSum:
    """Decompose eta_(1^r) (x) eta_(s) in sp(n), 2 <= r <= n and s >= 2."""
    if not (2 <= r <= n and s >= 2):
        raise ValueError(f"need 2 <= r <= n and s >= 2, got r={r}, s={s}, n={n}")
    ones = (1,) * (r - 1)
    parts = [(s + 1, *ones), (s - 1, *ones), (s, *ones[1:])]
    if r < n:  # (s, 1^r) has r + 1 rows
        parts.append((s, 1, *ones))
    return FormalSum({_row_label(n, *p): 1 for p in parts})


def pieri_coefficient(eta: Partition, s: int, sigma: Partition, n: int) -> int:
    """
    The strip-counting coefficient: the number of partitions c with eta/c and
    sigma/c horizontal strips and |eta/c| + |sigma/c| = s.
    """
    _check_rank(n)
    eta = canonical(eta)
    sigma = canonical(sigma)
    if len(eta) > n or len(sigma) > n:
        raise ValueError("labels too long for the rank")
    if s < 0:
        raise ValueError("s must be nonnegative")
    total = size(eta) + size(sigma) - s
    if total < 0 or total % 2:
        return 0
    want = total // 2
    preds = set(strip_predecessors(eta, s))
    count = 0
    for c in strip_predecessors(sigma, s):
        if size(c) == want and c in preds:
            count += 1
    return count


def pieri_tensor(eta: Partition, s: int, n: int) -> FormalSum:
    """
    Decompose eta (x) eta_(s) in sp(n) by the universal strip rule: walk down
    a horizontal strip from eta, then up a strip of the complementary size,
    never exceeding n rows.
    """
    _check_rank(n)
    eta = canonical(eta)
    if len(eta) > n:
        raise ValueError(f"partition {eta} is longer than the rank {n}")
    if s < 0:
        raise ValueError("s must be nonnegative")
    counts: dict[IrrepLabel, int] = {}
    for c in strip_predecessors(eta, s):
        up = s - (size(eta) - size(c))
        for sigma in strip_successors(c, up, n):
            lab = IrrepLabel("sp", n, sigma)
            counts[lab] = counts.get(lab, 0) + 1
    return FormalSum(counts)
