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

import itertools
from operator import ge
from typing import Iterable, Iterator

Partition = tuple[int, ...]


def canonical(parts: Iterable[int]) -> Partition:
    """Validate an int sequence as a partition and strip trailing zeros."""
    return canonical_ints(tuple(int(x) for x in parts))


def canonical_ints(t: tuple[int, ...]) -> Partition:
    """``canonical`` of a tuple that already holds ints, which it does not
    convert again."""
    if not all(map(ge, t, t[1:])):
        raise ValueError(f"not weakly decreasing: {t}")
    if t and t[-1] < 0:
        raise ValueError(f"negative part: {t}")
    return _trim(t)


def _trim(t: tuple[int, ...]) -> Partition:
    """Strip the trailing zeros of a tuple the strip walks yield: their
    interlacing ranges already make it weakly decreasing and nonnegative."""
    n = len(t)
    while n and not t[n - 1]:
        n -= 1
    return t[:n]


def size(p: Partition) -> int:
    return sum(p)


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
    |eta/s| <= max_size, in descending lexicographic order: row i of s runs
    down from eta[i] to eta[i+1], and to at most max_size below eta[i].
    """
    if max_size < 0:
        raise ValueError("max_size must be nonnegative")
    rows = [range(hi, max(lo, hi - max_size) - 1, -1) for hi, lo in zip(eta, eta[1:] + (0,))]
    least = size(eta) - max_size
    return [_trim(s) for s in itertools.product(*rows) if sum(s) >= least]


def strip_successors(base: Partition, strip_size: int, max_length: int) -> list[Partition]:
    """
    All partitions t of length <= max_length with base inside t, t/base a
    horizontal strip and |t/base| == strip_size, in descending lexicographic
    order: row i of t runs down from base[i-1] (the first row from
    base[0] + strip_size) to base[i].
    """
    if strip_size < 0:
        raise ValueError("strip_size must be nonnegative")
    if len(base) > max_length:
        return []
    low = base + (0,) if len(base) < max_length else base
    target = size(base) + strip_size
    # target caps no row, so only the strip size bounds the first row
    rows = [range(min(hi, lo + strip_size), lo - 1, -1) for lo, hi in zip(low, (target,) + low)]
    return [_trim(t) for t in itertools.product(*rows) if sum(t) == target]


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

