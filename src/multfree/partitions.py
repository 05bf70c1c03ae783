"""
Partitions and Young-diagram combinatorics.

A partition is stored as a plain tuple of positive integers in weakly
decreasing order; trailing zeros are stripped so that equality is
structural ((3, 1, 0) and (3, 1) denote the same diagram).  All functions
are pure and all values immutable.

The horizontal-strip test is the workhorse: a skew diagram outer/inner is a
horizontal strip iff it has at most one cell per column, equivalently iff

    outer[0] >= inner[0] >= outer[1] >= inner[1] >= ...
"""

from __future__ import annotations

from typing import Iterable, Iterator

Partition = tuple[int, ...]


def canonical(parts: Iterable[int]) -> Partition:
    """Validate an int sequence as a partition and strip trailing zeros."""
    t = tuple(int(x) for x in parts)
    for a, b in zip(t, t[1:]):
        if a < b:
            raise ValueError(f"not weakly decreasing: {t}")
    if t and t[-1] < 0:
        raise ValueError(f"negative part: {t}")
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def size(p: Partition) -> int:
    return sum(p)


def conjugate(p: Partition) -> Partition:
    """Reflect the diagram along the main diagonal."""
    if not p:
        return ()
    cols = [0] * p[0]
    for row in p:
        for j in range(row):
            cols[j] += 1
    return tuple(cols)


def contains(outer: Partition, inner: Partition) -> bool:
    """True iff inner fits inside outer cell-wise (missing parts read as 0)."""
    if len(inner) > len(outer):
        return False
    return all(i <= o for o, i in zip(outer, inner))


def is_horizontal_strip(outer: Partition, inner: Partition) -> bool:
    """True iff outer/inner is a skew diagram with at most one cell per column."""
    if not contains(outer, inner):
        return False
    padded = inner + (0,) * (len(outer) - len(inner))
    for i in range(len(outer) - 1):
        if padded[i] < outer[i + 1]:
            return False
    return True


def strip_predecessors(eta: Partition, max_size: int) -> list[Partition]:
    """
    All partitions s with s inside eta, eta/s a horizontal strip and
    |eta/s| <= max_size, in descending lexicographic order.
    """
    if max_size < 0:
        raise ValueError("max_size must be nonnegative")
    results: list[Partition] = []
    n = len(eta)

    def fill(i: int, acc: list[int], removed: int) -> None:
        if i == n:
            results.append(canonical(acc))
            return
        lo = eta[i + 1] if i + 1 < n else 0
        hi = eta[i]
        for v in range(hi, lo - 1, -1):
            r = removed + (hi - v)
            if r > max_size:
                break
            acc.append(v)
            fill(i + 1, acc, r)
            acc.pop()

    fill(0, [], 0)
    return sorted(results, reverse=True)


def strip_successors(base: Partition, strip_size: int, max_length: int) -> list[Partition]:
    """
    All partitions t of length <= max_length with base inside t, t/base a
    horizontal strip and |t/base| == strip_size, descending lex order.
    """
    if strip_size < 0:
        raise ValueError("strip_size must be nonnegative")
    rows = min(max_length, len(base) + 1)
    if len(base) > max_length:
        return []
    padded = base + (0,) * (rows - len(base))
    results: list[Partition] = []

    def fill(i: int, acc: list[int], added: int) -> None:
        if i == rows:
            if added == strip_size:
                results.append(canonical(acc))
            return
        lo = padded[i]
        # interlacing: row i of t may not exceed row i-1 of base
        hi = padded[i - 1] if i > 0 else lo + (strip_size - added)
        hi = min(hi, lo + (strip_size - added))
        for v in range(hi, lo - 1, -1):
            acc.append(v)
            fill(i + 1, acc, added + (v - lo))
            acc.pop()

    fill(0, [], 0)
    return sorted(results, reverse=True)


def partitions_of(n: int, max_length: int | None = None, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, optionally bounded in length and largest part."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    if max_length is not None and max_length <= 0:
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        sub_len = None if max_length is None else max_length - 1
        for rest in partitions_of(n - first, sub_len, first):
            yield (first,) + rest


def all_partitions(max_size: int, max_length: int | None = None) -> list[Partition]:
    """All partitions of size <= max_size (length-bounded), graded lex order."""
    out: list[Partition] = []
    for n in range(max_size + 1):
        out.extend(sorted(partitions_of(n, max_length), reverse=True))
    return out

