import pytest

from multfree.irreps import decompose_product, dimension, sp, trivial
from multfree.partitions import all_partitions, canonical
from multfree.sp_pieri import (
    pieri_coefficient,
    pieri_tensor,
    tensor_column_sym,
    tensor_sym_sym,
)


def _w(fs):
    return {tuple(lab.weight): m for lab, m in fs.entries.items()}


def test_sym_sym_examples():
    assert _w(tensor_sym_sym(1, 1, 2)) == {(2,): 1, (1, 1): 1, (): 1}
    assert _w(tensor_sym_sym(2, 1, 2)) == {(3,): 1, (2, 1): 1, (1,): 1}
    for r in range(5):
        assert _w(tensor_sym_sym(r, 0, 3)) == {canonical((r,)): 1}


def test_sym_sym_swaps_arguments():
    assert tensor_sym_sym(1, 2, 2).entries == tensor_sym_sym(2, 1, 2).entries


def test_sym_sym_rank_one_keeps_the_one_row_terms():
    out = tensor_sym_sym(1, 1, 1)
    assert _w(out) == {(2,): 1, (): 1}


def test_column_sym_examples():
    assert _w(tensor_column_sym(2, 2, 4)) == {(3, 1): 1, (2, 1, 1): 1, (1, 1): 1, (2,): 1}
    assert _w(tensor_column_sym(3, 2, 4)) == {
        (3, 1, 1): 1,
        (2, 1, 1, 1): 1,
        (1, 1, 1): 1,
        (2, 1): 1,
    }


def test_column_sym_at_full_rank_drops_the_long_term():
    out = tensor_column_sym(2, 2, 2)
    assert _w(out) == {(3, 1): 1, (2,): 1, (1, 1): 1}
    assert out.entries == decompose_product([sp(2, 1, 1), sp(2, 2)]).entries


def test_closed_forms_match_oracle_on_their_whole_domain():
    def oracle(a, b, n):
        return decompose_product([sp(n, *a), sp(n, *b)]).entries

    for n in (1, 2, 3):
        for r in range(5):
            for s in range(5):
                assert tensor_sym_sym(r, s, n).entries == oracle((r,), (s,), n), (r, s, n)
    for n in (2, 3, 4):
        for r in range(2, n + 1):
            for s in (2, 3, 4):
                assert tensor_column_sym(r, s, n).entries == oracle((1,) * r, (s,), n), (r, s, n)
    for r, s, n in ((0, 2, 3), (1, 2, 3), (2, 0, 3), (2, 1, 3), (3, 2, 2), (2, 2, 1)):
        with pytest.raises(ValueError):
            tensor_column_sym(r, s, n)


def test_pieri_coefficient_examples():
    for n in (2, 3, 5):
        assert pieri_coefficient((2, 1), 2, (2, 1), n) == 2
    assert pieri_coefficient((1,), 1, (2,), 2) == 1
    assert pieri_coefficient((1,), 1, (3,), 2) == 0
    # rectangles never produce coefficients above 1
    for a in (1, 2):
        for m in (1, 2, 3):
            rect = (a,) * m
            for s in range(4):
                for sigma in all_partitions(sum(rect) + s, 3):
                    assert pieri_coefficient(rect, s, sigma, 3) in (0, 1)


def test_pieri_tensor_examples():
    assert _w(pieri_tensor((1,), 1, 2)) == {(2,): 1, (1, 1): 1, (): 1}
    assert _w(pieri_tensor((1,), 1, 5)) == {(2,): 1, (1, 1): 1, (): 1}
    for eta in all_partitions(4, 3):
        assert _w(pieri_tensor(eta, 0, 3)) == {eta: 1}
    # frozen from the oracle: (2,1) (x) (2) at rank 2
    assert _w(pieri_tensor((2, 1), 2, 2)) == {(4, 1): 1, (3, 2): 1, (3,): 1, (2, 1): 2, (1,): 1}


def test_pieri_tensor_matches_coefficient():
    for eta in all_partitions(3, 2):
        for s in range(4):
            fs = pieri_tensor(eta, s, 2)
            for lab, m in fs.entries.items():
                assert m == pieri_coefficient(eta, s, lab.weight, 2)


def test_rule_oracle_equivalence_sample():
    for n in (2, 3):
        for eta in all_partitions(3, n):
            for s in range(3):
                rule = pieri_tensor(eta, s, n)
                oracle = decompose_product(
                    [sp(n, *eta), sp(n, s) if s else trivial("sp", n)]
                )
                assert rule.entries == oracle.entries, (eta, s, n)


def test_eq1_eq3_consistency_sample():
    for n in (2, 3):
        for r in range(4):
            for s in range(r + 1):
                assert tensor_sym_sym(r, s, n).entries == pieri_tensor((r,) if r else (), s, n).entries


def test_self_multiplicity_after_two_box_row():
    # every nonempty label reappears in itself tensor the two-box row
    for n in (2, 3):
        for eta in all_partitions(4, n):
            if not eta:
                continue
            assert pieri_tensor(eta, 2, n)[sp(n, *eta)] >= 1


def test_constant_partitions_are_exactly_the_free_ones():
    for n in (2, 3):
        for eta in all_partitions(3, n):
            free = all(pieri_tensor(eta, s, n).is_multiplicity_free() for s in range(6))
            assert free == (len(set(eta)) <= 1), (eta, n)


def test_dimension_conservation():
    for n in (2, 3):
        for eta in all_partitions(3, n):
            for s in range(3):
                fs = pieri_tensor(eta, s, n)
                total = sum(m * dimension(lab) for lab, m in fs.entries.items())
                assert total == dimension(sp(n, *eta)) * dimension(sp(n, s) if s else trivial("sp", n))


def test_input_validation():
    with pytest.raises(ValueError, match=r"partition \(1, 1, 1\) is longer than the rank 2"):
        pieri_tensor((1, 1, 1), 1, 2)
    with pytest.raises(ValueError):
        pieri_tensor((1,), -1, 2)
    with pytest.raises(ValueError):
        tensor_sym_sym(-1, 0, 2)
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"sp rank must be >= 1, got {n}"):
            pieri_tensor((), 1, n)
        with pytest.raises(ValueError, match=f"sp rank must be >= 1, got {n}"):
            pieri_coefficient((), 0, (), n)
