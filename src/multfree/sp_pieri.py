"""
Closed-form tensor rules for sp(n) against a one-row or one-column factor.

Three rules are implemented:

* row (x) row:      eta_(r) (x) eta_(s) = sum over 0<=j<=s, 0<=i<=j of
                    eta_(r+s-j-i, j-i)                   (valid for n >= 2)
* column (x) row:   eta_(1^r) (x) eta_(s), four terms    (valid for r+1 <= n,
                    r > 1, s > 1)
* universal rule:   eta (x) eta_(s) = sum over sigma of M * eta_sigma, where
                    M counts partitions c such that eta/c and sigma/c are
                    horizontal strips with |eta/c| + |sigma/c| = s, sigma of
                    length at most n.

Outside their validity windows the first two delegate to the character
oracle and tag the result "via-oracle".  The rules are checked against that
oracle, which makes every decomposition of the classifier and of
``multfree tensor``; only ``multfree pieri`` and the tests call them.
"""

from __future__ import annotations

from .irreps import FormalSum, IrrepLabel, decompose_product, sp
from .partitions import (
    Partition,
    canonical,
    size,
    strip_predecessors,
    strip_successors,
)


def _row_label(n: int, *parts: int) -> IrrepLabel:
    return IrrepLabel("sp", n, canonical(parts))


def tensor_sym_sym(r: int, s: int, n: int) -> FormalSum:
    """Decompose eta_(r) (x) eta_(s) in sp(n)."""
    if r < 0 or s < 0 or n < 1:
        raise ValueError("need r, s >= 0 and n >= 1")
    if r < s:
        r, s = s, r
    if n < 2:
        out = decompose_product([sp(n, r) if r else sp(n), sp(n, s) if s else sp(n)])
        return FormalSum(out.entries, note="via-oracle")
    entries: dict[IrrepLabel, int] = {}
    for j in range(s + 1):
        for i in range(j + 1):
            entries[_row_label(n, r + s - j - i, j - i)] = 1
    return FormalSum(entries, note="closed-form")


def tensor_column_sym(r: int, s: int, n: int) -> FormalSum:
    """Decompose eta_(1^r) (x) eta_(s) in sp(n)."""
    if r < 0 or s < 0 or n < 1:
        raise ValueError("need r, s >= 0 and n >= 1")
    if not (r > 1 and s > 1 and r + 1 <= n):
        col = canonical((1,) * r)
        row = canonical((s,))
        out = decompose_product([IrrepLabel("sp", n, col), IrrepLabel("sp", n, row)])
        return FormalSum(out.entries, note="via-oracle")
    entries = {
        _row_label(n, s + 1, *([1] * (r - 1))): 1,
        _row_label(n, s, *([1] * r)): 1,
        _row_label(n, s - 1, *([1] * (r - 1))): 1,
        _row_label(n, s, *([1] * (r - 2))): 1,
    }
    return FormalSum(entries, note="closed-form")


def pieri_coefficient(eta: Partition, s: int, sigma: Partition, n: int) -> int:
    """
    The strip-counting coefficient: the number of partitions c with eta/c and
    sigma/c horizontal strips and |eta/c| + |sigma/c| = s.
    """
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
    eta = canonical(eta)
    if len(eta) > n:
        raise ValueError("label too long for the rank")
    if s < 0:
        raise ValueError("s must be nonnegative")
    counts: dict[IrrepLabel, int] = {}
    for c in strip_predecessors(eta, s):
        up = s - (size(eta) - size(c))
        for sigma in strip_successors(c, up, n):
            lab = IrrepLabel("sp", n, sigma)
            counts[lab] = counts.get(lab, 0) + 1
    return FormalSum(counts, note="closed-form")
