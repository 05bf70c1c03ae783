from hypothesis import given, strategies as st

from multfree.partitions import (
    all_partitions,
    canonical,
    contains,
    is_horizontal_strip,
    partitions_of,
    size,
    strip_predecessors,
    strip_successors,
)


def partition_strategy(max_size=8):
    return st.lists(st.integers(min_value=1, max_value=max_size), max_size=max_size).map(
        lambda xs: canonical(sorted(xs, reverse=True))
    ).filter(lambda p: size(p) <= max_size)


def test_canonical_strips_zeros():
    assert canonical((3, 1, 0, 0)) == (3, 1)
    assert canonical(()) == ()
    assert canonical((0,)) == ()


def test_canonical_rejects_bad_input():
    import pytest

    with pytest.raises(ValueError):
        canonical((1, 2))
    with pytest.raises(ValueError):
        canonical((2, -1))


def test_contains_examples():
    assert contains((2, 1), (1, 1))
    assert not contains((2, 1), (3,))
    for a in range(6):
        assert contains(canonical((a,)), ())


def test_horizontal_strip_examples():
    assert is_horizontal_strip((2, 1), (1, 1))
    assert not is_horizontal_strip((2, 2), (1,))
    for s in range(5):
        assert is_horizontal_strip(canonical((s,)), ())


def _skew_cells(outer, inner):
    """Cells (row, col) of outer not in inner; assumes containment."""
    padded = inner + (0,) * (len(outer) - len(inner))
    return [(i, j) for i, row in enumerate(outer) for j in range(padded[i], row)]


def _strip_by_column_count(outer, inner):
    # direct definition: containment plus at most one skew cell per column
    if not contains(outer, inner):
        return False
    cols = {}
    for _, j in _skew_cells(outer, inner):
        cols[j] = cols.get(j, 0) + 1
    return all(c <= 1 for c in cols.values())


def test_horizontal_strip_matches_column_count_exhaustive():
    smalls = all_partitions(8)
    for outer in smalls:
        for inner in smalls:
            assert is_horizontal_strip(outer, inner) == _strip_by_column_count(outer, inner)


def _subpartitions(eta):
    out = []

    def rec(i, acc):
        if i == len(eta):
            out.append(canonical(acc))
            return
        hi = min(eta[i], acc[-1]) if acc else eta[i]
        for v in range(hi + 1):
            rec(i + 1, acc + [v])

    rec(0, [])
    return set(out)


def test_strip_predecessors_examples():
    assert strip_predecessors((2, 1), 1) == [(2, 1), (2,), (1, 1)]
    for k in range(6):
        assert strip_predecessors((), k) == [()]
    # removing a strip from a rectangle only ever shortens the last row
    for a in (1, 2, 3):
        for m in (1, 2, 3):
            rect = (a,) * m
            for b in range(a + 1):
                expect = {(a,) * (m - 1) + (a - j,) for j in range(b + 1)}
                expect = {canonical(p) for p in expect}
                assert set(strip_predecessors(rect, b)) == expect


def test_strip_predecessors_equals_filtered_subpartitions():
    for eta in all_partitions(8):
        full = strip_predecessors(eta, size(eta))
        expect = sorted(
            (s for s in _subpartitions(eta) if is_horizontal_strip(eta, s)), reverse=True
        )
        assert full == expect
        limited = strip_predecessors(eta, 2)
        assert limited == [s for s in expect if size(eta) - size(s) <= 2]


def test_strip_successors_inverse_of_predecessors():
    # max_length runs from 0 past the longest t, through len(base) itself
    for base in all_partitions(5):
        for up in range(4):
            for max_length in range(7):
                got = strip_successors(base, up, max_length)
                expect = [
                    t
                    for t in all_partitions(size(base) + up, max_length)
                    if size(t) - size(base) == up and is_horizontal_strip(t, base)
                ]
                assert got == sorted(expect, reverse=True)
                for t in got:
                    assert base in strip_predecessors(t, up)


def test_strip_successors_respects_length():
    assert strip_successors((1, 1), 1, max_length=2) == [(2, 1)]
    assert strip_successors((1, 1), 1, max_length=3) == [(2, 1), (1, 1, 1)]
    # a base of the full length can only lengthen the rows it has
    assert strip_successors((2, 1), 2, max_length=2) == [(4, 1), (3, 2)]
    assert strip_successors((1,), 3, max_length=1) == [(4,)]
    # no rows at all: only the empty strip on the empty base
    assert strip_successors((), 0, max_length=0) == [()]
    for base, up in [((), 1), ((), 3), ((1,), 0), ((2, 1), 1)]:
        assert strip_successors(base, up, max_length=0) == []


@given(partition_strategy(), partition_strategy())
def test_strip_test_matches_oracle_property(outer, inner):
    assert is_horizontal_strip(outer, inner) == _strip_by_column_count(outer, inner)


def test_partitions_of_counts():
    # partition numbers p(0..8) = 1 1 2 3 5 7 11 15 22
    expect = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, c in enumerate(expect):
        assert len(list(partitions_of(n))) == c
