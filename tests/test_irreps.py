import copy
import itertools
import pickle

import pytest

from multfree import irreps
from multfree.irreps import (
    FormalSum,
    IrrepLabel,
    OracleError,
    circle,
    clear_caches,
    decompose_product,
    dimension,
    render_formal_sum,
    so,
    sp,
    su,
    tensor_pair,
    trivial,
    u,
    weight_system,
    weyl_character,
)
from multfree.cases import CompositeLabel, factor_weights
from multfree.partitions import all_partitions


def test_label_validation():
    with pytest.raises(ValueError):
        IrrepLabel("sp", 2, (1, 2))
    with pytest.raises(ValueError):
        IrrepLabel("sp", 1, (1, 1))
    with pytest.raises(ValueError):
        IrrepLabel("su", 2, (1, 1))  # length must be <= rank - 1
    with pytest.raises(ValueError):
        IrrepLabel("u", 2, (1,))  # u weights have length exactly rank
    with pytest.raises(ValueError):
        IrrepLabel("so", 2, (0, 1))  # needs a[0] >= |a[1]|
    with pytest.raises(ValueError):
        IrrepLabel("bogus", 2, ())
    assert IrrepLabel("sp", 3, (2, 1, 0)).weight == (2, 1)


def test_labels_are_validated_tuples():
    # labels are tuples of their fields: hashed, compared and ordered as the
    # field tuple, printed as before, immutable, and pickled through the
    # constructor
    lab = sp(2, 1, 0)
    comp = CompositeLabel((1, -2), (lab, u(2, 1, -1)))
    assert repr(lab) == str(lab) == "IrrepLabel(family='sp', rank=2, weight=(1,))"
    assert repr(comp) == (
        "CompositeLabel(torus=(1, -2), ulabels=(IrrepLabel(family='sp', rank=2, weight=(1,)), "
        "IrrepLabel(family='u', rank=2, weight=(1, -1))))"
    )
    assert hash(lab) == hash(("sp", 2, (1,)))
    assert hash(comp) == hash(((1, -2), (lab, u(2, 1, -1))))
    labels = [u(2, 1, 0), sp(2, 1), sp(1, 2), circle(3), su(3, 1), so(2, 1, -1), sp(2, 1, 1)]
    assert sorted(labels) == sorted(labels, key=lambda x: (x.family, x.rank, x.weight))
    comps = [
        CompositeLabel((0, 1), (sp(2, 2),)),
        CompositeLabel((1, 0), (sp(2),)),
        CompositeLabel((0, 1), (sp(2, 1),)),
    ]
    assert sorted(comps) == sorted(comps, key=lambda x: (x.torus, x.ulabels))
    for obj, attr in ((lab, "weight"), (comp, "torus")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, (2,))
        with pytest.raises(AttributeError):
            obj.extra = 1
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(obj, proto))
            assert back == obj and type(back) is type(obj)
        assert copy.deepcopy(obj) == obj and type(copy.deepcopy(obj)) is type(obj)


def test_every_label_construction_path_validates():
    bad = [
        lambda: IrrepLabel("u", 2, (0, 1)),
        lambda: IrrepLabel._make(("u", 2, (0, 1))),
        lambda: u(2, 1, 0)._replace(weight=(0, 1)),
        lambda: sp(2, 1)._replace(rank=0),
    ]
    if hasattr(copy, "replace"):  # Python 3.13
        bad.append(lambda: copy.replace(u(2, 1, 0), weight=(0, 1)))
    for make in bad:
        with pytest.raises(ValueError):
            make()
    # and normalises as the constructor does
    assert IrrepLabel._make(("sp", 2, [1, 0])) == sp(2)._replace(weight=(1, 0)) == sp(2, 1)
    assert sp(2)._replace(weight=(1, 0)).weight == (1,)


def test_label_json_roundtrip():
    for lab in (sp(2, 2, 1), su(3, 1), u(2, 1, -1), so(2, 1, -1), circle(-3)):
        assert IrrepLabel.from_json(lab.to_json()) == lab


# values that int() would truncate or convert: read back, they raise
NOT_JSON_INTS = (2.0, 2.7, "2", True, False, None)


def test_label_json_reads_integers_only():
    good = {"family": "sp", "rank": 2, "weight": [1, 1]}
    assert IrrepLabel.from_json(good) == sp(2, 1, 1)
    for bad in NOT_JSON_INTS:
        for data in ({**good, "rank": bad}, {**good, "weight": [1, bad]}, {**good, "weight": [bad]}):
            with pytest.raises(ValueError):
                IrrepLabel.from_json(data)
    # a weight must be a list of integers, not a string of digits
    with pytest.raises(ValueError):
        IrrepLabel.from_json({**good, "weight": "11"})


def test_formal_sum_json_reads_integer_multiplicities_only():
    out = decompose_product([sp(2, 1), sp(2, 1)])
    data = out.to_json()
    assert FormalSum.from_json(data) == out
    for bad in NOT_JSON_INTS:
        entries = [dict(row, mult=bad) for row in data["entries"]]
        with pytest.raises(ValueError):
            FormalSum.from_json({**data, "entries": entries})
    # a label inside an entry is read the same way
    row = data["entries"][0]
    bad_label = {**row, "label": {**row["label"], "rank": 2.0}}
    with pytest.raises(ValueError):
        FormalSum.from_json({**data, "entries": [bad_label]})


def test_formal_sum_json_refuses_two_entries_for_one_label():
    def entry(weight, mult):
        return {"label": {"family": "sp", "rank": 2, "weight": weight}, "mult": mult}

    # [1, 0] and [1] normalise to one label: the second entry would overwrite
    # the first, or hide its negative multiplicity
    for first, second in ((1, 5), (-1, 1), (1, 1)):
        data = {"entries": [entry([1, 0], first), entry([1], second)]}
        with pytest.raises(ValueError, match="two entries"):
            FormalSum.from_json(data)
    assert FormalSum.from_json({"entries": [entry([1, 0], 5)]}) == FormalSum({sp(2, 1): 5})


def test_defining_characters():
    assert weyl_character(sp(1, 1)).terms == {(1,): 1, (-1,): 1}
    assert weyl_character(circle(5)).terms == {(5,): 1}
    # su(2) degree-k representation restricted to the torus: chi_{k-2i}
    for k in range(5):
        ws = weight_system(su(2, k) if k else trivial("su", 2))
        assert ws == {(k - 2 * i,): 1 for i in range(k + 1)}


def test_sp2_11_dimension_is_5():
    assert weyl_character(sp(2, 1, 1)).dimension() == 5
    assert dimension(sp(2, 1, 1)) == 5


def test_character_sum_equals_weyl_dimension():
    labels = []
    for rank in (2, 3):
        labels += [IrrepLabel("su", rank, w) for w in all_partitions(4, rank - 1)]
    for rank in (1, 2, 3):
        labels += [IrrepLabel("sp", rank, w) for w in all_partitions(4, rank)]
    labels += [u(2, *w) for w in [(1, 0), (1, 1), (2, -1), (0, -3), (2, 2)]]
    labels += [so(2, *w) for w in [(0, 0), (1, 0), (1, 1), (1, -1), (2, 0), (2, -2)]]
    labels += [so(3, *w) for w in [(1, 0, 0), (1, 1, 0), (1, 1, -1), (2, 1, 0)]]
    for lab in labels:
        assert weyl_character(lab).dimension() == dimension(lab), lab


def test_u_negative_weights_shift_consistently():
    # tensoring with a determinant power shifts every exponent uniformly
    base = weyl_character(u(2, 2, 0))
    shifted = weyl_character(u(2, 1, -1))
    assert shifted.terms == {(a - 1, b - 1): c for (a, b), c in base.terms.items()}


def test_weight_system_totals_and_examples():
    assert weight_system(circle(7)) == {(7,): 1}
    assert weight_system(sp(2, 1)) == {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
    assert weight_system(su(2, 2)) == {(2,): 1, (0,): 1, (-2,): 1}
    for lab in (sp(3, 2, 1), su(3, 2, 1), u(2, 1, -1), so(2, 2, 0)):
        assert sum(weight_system(lab).values()) == dimension(lab)


def test_weight_system_weyl_invariance():
    # u: invariant under coordinate permutations
    ws = weight_system(u(3, 2, 1, 0))
    for perm in itertools.permutations(range(3)):
        permuted = {}
        for vec, m in ws.items():
            key = tuple(vec[p] for p in perm)
            permuted[key] = permuted.get(key, 0) + m
        assert permuted == ws
    # sp: invariant under signed coordinate permutations
    ws = weight_system(sp(2, 2, 1))
    for perm in itertools.permutations(range(2)):
        for signs in itertools.product((1, -1), repeat=2):
            mapped = {}
            for vec, m in ws.items():
                key = tuple(signs[i] * vec[perm[i]] for i in range(2))
                mapped[key] = mapped.get(key, 0) + m
            assert mapped == ws


def test_su_weight_normalisation_third_weight():
    # standard su(3) representation: weights of the 3 under the 2-torus
    assert weight_system(su(3, 1)) == {(1, 0): 1, (0, 1): 1, (-1, -1): 1}


def test_oracle_eq1_small():
    out = decompose_product([sp(2, 1), sp(2, 1)])
    assert out.entries == {sp(2, 2): 1, sp(2, 1, 1): 1, trivial("sp", 2): 1}


def test_oracle_su2_clebsch_gordan():
    out = decompose_product([su(2, 1), su(2, 1)])
    assert out.entries == {su(2, 2): 1, trivial("su", 2): 1}
    out = decompose_product([su(2, 2), su(2, 3)])
    assert out.entries == {su(2, 5): 1, su(2, 3): 1, su(2, 1): 1}


def test_oracle_u2_pieri():
    out = decompose_product([u(2, 1, 0), u(2, 1, 0)])
    assert out.entries == {u(2, 2, 0): 1, u(2, 1, 1): 1}


def test_oracle_u2_with_negative_weights():
    out = decompose_product([u(2, 1, 0), u(2, 0, -1)])
    assert out.entries == {u(2, 1, -1): 1, u(2, 0, 0): 1}


def test_oracle_triple_product_multiplicity():
    # std (x) std (x) std for u(2): one cubic row plus two mixed tableaux
    out = decompose_product([u(2, 1, 0)] * 3)
    assert out.entries == {u(2, 3, 0): 1, u(2, 2, 1): 2}


def test_oracle_circle():
    assert decompose_product([circle(2), circle(-5)]).entries == {circle(-3): 1}


def test_oracle_rejects_mixed_families():
    with pytest.raises(ValueError):
        decompose_product([sp(2, 1), su(2, 1)])
    with pytest.raises(ValueError):
        decompose_product([sp(2, 1), sp(3, 1)])
    with pytest.raises(ValueError):
        decompose_product([])


def test_oracle_reconstruction_exact():
    pairs = [
        (sp(2, 2, 1), sp(2, 2)),
        (sp(3, 1, 1), sp(3, 2)),
        (u(2, 2, -1), u(2, 1, 1)),
        (su(3, 2, 1), su(3, 1, 1)),
    ]
    for a, b in pairs:
        out = decompose_product([a, b])
        if a.family == "su":
            # su constituents are defined modulo the determinant direction,
            # so compare weight systems rather than raw polynomials
            lhs = {}
            for vec, m in weight_system(a).items():
                for vec2, m2 in weight_system(b).items():
                    key = tuple(x + y for x, y in zip(vec, vec2))
                    lhs[key] = lhs.get(key, 0) + m * m2
            rhs = {}
            for lab, m in out.entries.items():
                for vec, m2 in weight_system(lab).items():
                    rhs[vec] = rhs.get(vec, 0) + m * m2
            assert lhs == rhs
        else:
            prod = weyl_character(a) * weyl_character(b)
            rebuilt = None
            for lab, m in out.entries.items():
                term = weyl_character(lab).scale(m)
                rebuilt = term if rebuilt is None else rebuilt + term
            assert rebuilt == prod


def test_oracle_symmetry():
    groups = []
    for rank in (1, 2, 3):
        groups.append([IrrepLabel("sp", rank, w) for w in all_partitions(3, rank)])
    for rank in (2, 3):
        groups.append([IrrepLabel("su", rank, w) for w in all_partitions(3, rank - 1)])
    for rank in (1, 2):
        groups.append([IrrepLabel("u", rank, w) for w in factor_weights("u", rank, 3)])
    for labels in groups:
        for a, b in itertools.combinations(labels, 2):
            assert decompose_product([a, b]).entries == decompose_product([b, a]).entries, (a, b)


def test_oracle_dimension_conservation():
    for a, b in [(sp(3, 2, 1), sp(3, 1, 1)), (u(2, 2, 0), u(2, 1, -1)), (su(3, 2), su(3, 1, 1))]:
        out = decompose_product([a, b])
        assert sum(m * dimension(l) for l, m in out.entries.items()) == dimension(a) * dimension(b)


def test_greedy_rejects_garbage_polynomial():
    from multfree.laurent import LaurentPoly
    from reference_oracle import greedy_decompose

    # a bare non-dominant monomial can never come from characters
    with pytest.raises(OracleError):
        greedy_decompose(LaurentPoly(2, {(0, 1): 1}), "sp", 2)
    with pytest.raises(OracleError):
        greedy_decompose(LaurentPoly(2, {(1, 0): -1}), "sp", 2)


def test_formal_sum_basics():
    s = FormalSum({sp(2, 2): 1, trivial("sp", 2): 1})
    assert s.is_multiplicity_free()
    assert not FormalSum({sp(2, 1): 2}).is_multiplicity_free()
    assert s[sp(2, 2)] == 1 and s[sp(2, 1)] == 0
    with pytest.raises(ValueError):
        FormalSum({sp(2, 1): -1})


def test_formal_sum_refuses_a_multiplicity_that_is_not_an_int():
    # int() would truncate 2.5 to 2 and read True as 1
    for bad in (2.5, True, "2"):
        with pytest.raises(ValueError, match="must be an int"):
            FormalSum({sp(2, 1): bad})
    assert FormalSum({sp(2, 1): 2})[sp(2, 1)] == 2
    assert FormalSum({sp(2, 1): 0}) == FormalSum()


def test_formal_sum_multiplicity_example():
    # a repeated constituent shows up when tensoring (2,1) with the 2-row
    out = decompose_product([sp(2, 2, 1), sp(2, 2)])
    assert not out.is_multiplicity_free()
    assert out[sp(2, 2, 1)] == 2


def test_formal_sum_json_roundtrip():
    out = decompose_product([sp(2, 2, 1), sp(2, 2)])
    assert FormalSum.from_json(out.to_json()) == out


def test_render():
    out = decompose_product([sp(2, 1), sp(2, 1)])
    assert render_formal_sum(out) == "(2) + (1,1) + ()"
    cg = decompose_product([su(2, 1), su(2, 1)])
    assert render_formal_sum(cg) == "ν2 + ν0"


def _alternant(v, kind):
    # independent route: the Weyl alternating sum over permutations (A),
    # signed permutations (C) or those with an even number of sign changes (D)
    from multfree.laurent import LaurentPoly

    n = len(v)
    terms = {}
    for perm in itertools.permutations(range(n)):
        sgn = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sgn = -sgn
        flip_choices = itertools.product((1, -1), repeat=n) if kind != "A" else [(1,) * n]
        for flips in flip_choices:
            negatives = flips.count(-1)
            if kind == "D" and negatives % 2:
                continue
            det = -sgn if kind == "C" and negatives % 2 else sgn
            e = tuple(flips[i] * v[perm[i]] for i in range(n))
            terms[e] = terms.get(e, 0) + det
    return LaurentPoly(n, terms)


def _alternant_character(family, lam, n):
    from multfree.laurent import exact_divide

    lam = lam + (0,) * (n - len(lam))
    kind = {"su": "A", "u": "A", "sp": "C", "so": "D"}[family]
    top = n if family == "sp" else n - 1
    rho = tuple(range(top, top - n, -1))
    num = _alternant(tuple(a + b for a, b in zip(lam, rho)), kind)
    return exact_divide(num, _alternant(rho, kind))


def test_characters_match_alternant_quotients():
    # the shipped characters come from Freudenthal's formula; re-derive them
    # from the Weyl character formula and demand exact polynomial equality,
    # on u weights with negative entries and so(2n) weights of either sign
    labels = (
        [IrrepLabel("su", n, lam) for n in (2, 3, 4, 5) for lam in all_partitions(4, n - 1)]
        + [IrrepLabel("sp", n, lam) for n in (1, 2, 3, 4) for lam in all_partitions(4, n)]
        + [IrrepLabel("u", n, w) for n in (1, 2, 3, 4) for w in factor_weights("u", n, 3)]
        + [IrrepLabel("so", n, w) for n in (2, 3, 4) for w in factor_weights("so", n, 3)]
    )
    for label in labels:
        expect = _alternant_character(label.family, label.weight, label.rank)
        assert weyl_character(label) == expect, label


# the three kinds of positive root: e_i - e_j, e_i + e_j and 2e_i
_ROOT_KINDS = {
    "e_i-e_j": lambda r: -1 in r,
    "e_i+e_j": lambda r: r.count(1) == 2,
    "2e_i": lambda r: 2 in r,
}


@pytest.fixture
def cold_memos():
    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize(
    "label, dropped",
    [
        (su(3, 2, 1), "e_i-e_j"),
        (u(2, 1, -1), "e_i-e_j"),
        (sp(2, 2, 1), "e_i-e_j"),
        (sp(2, 2, 1), "e_i+e_j"),
        (sp(2, 2, 1), "2e_i"),
        (so(3, 1, 1, 0), "e_i-e_j"),
        (so(3, 1, 1, 0), "e_i+e_j"),
    ],
    ids=lambda v: v if isinstance(v, str) else f"{v.family}{v.rank}{v.weight}".replace(" ", ""),
)
def test_a_missing_root_kind_is_caught(monkeypatch, cold_memos, label, dropped):
    # with one kind of positive root left out, Freudenthal's formula either
    # meets a remainder or builds a wrong character, which a cold tensor_pair
    # then reports as a negative multiplicity or a dimension leak
    full = irreps._positive_roots
    drop = _ROOT_KINDS[dropped]
    assert any(drop(r) for r in full(irreps._WEYL_KIND[label.family], label.rank))
    monkeypatch.setattr(
        irreps, "_positive_roots", lambda kind, n: [r for r in full(kind, n) if not drop(r)]
    )
    with pytest.raises(OracleError):
        weyl_character(label)
        tensor_pair(label, label)


def test_high_rank_orbits_are_enumerated_without_repeats():
    # 12! orderings would never finish; the distinct ones are few
    assert weyl_character(su(12, 1)).terms == {
        tuple(int(i == j) for j in range(12)): 1 for i in range(12)
    }
    assert weyl_character(trivial("su", 12)).terms == {(0,) * 12: 1}
    assert weyl_character(su(12, 2, 1)).dimension() == dimension(su(12, 2, 1)) == 572
    assert tensor_pair(su(12, 1), su(12, 1)) == {su(12, 2): 1, su(12, 1, 1): 1}
    assert weyl_character(so(6, 1, 1, 1, 1, 1, -1)).dimension() == dimension(
        so(6, 1, 1, 1, 1, 1, -1)
    )


def test_label_order_is_the_field_order():
    # labels are built by keyword, so a reordering of the dataclass fields
    # changes the order below instead of the meaning of the arguments
    def lab(family, rank, *weight):
        return IrrepLabel(family=family, rank=rank, weight=weight)

    # family, then rank, then weight: every other order of the three fields
    # sorts these six labels differently
    want = [
        lab("circle", 1, 5),
        lab("so", 2, 0, 0),
        lab("sp", 1, 3),
        lab("sp", 2, 1),
        lab("su", 3, 2),
        lab("u", 1, 0),
    ]
    assert sorted(reversed(want)) == want
    # torus, then u-labels
    x = CompositeLabel(torus=(0, 1), ulabels=(sp(2, 2),))
    y = CompositeLabel(torus=(1, 0), ulabels=(sp(2),))
    z = CompositeLabel(torus=(0, 1), ulabels=(sp(2, 1),))
    assert sorted([x, y, z]) == [z, x, y]
    # a tie on the torus goes to the u-labels
    assert min(x, z) == min(z, x) == z


def test_tensor_pair_memo_transparent():
    from multfree.irreps import _PAIR_CACHE

    a, b = sp(2, 2), sp(2, 1, 1)
    fresh = tensor_pair(a, b)
    key_hits = [k for k in _PAIR_CACHE if k[0] == "sp" and {a.weight, b.weight} == {k[2], k[3]}]
    assert key_hits
    assert tensor_pair(a, b) == fresh
    # stored once in label order, so scans iterate it without sorting
    for x, y in ((a, b), (su(3, 2, 1), su(3, 1)), (u(2, 1, 0), u(2, 1, -1))):
        labels = list(tensor_pair(x, y))
        keys = [(lab.family, lab.rank, lab.weight) for lab in labels]
        assert keys == sorted(keys), (x, y)
