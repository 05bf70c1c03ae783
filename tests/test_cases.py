import copy
import itertools
import math
import pickle
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from multfree.cases import (
    CaseSpec,
    CompositeLabel,
    Factor,
    TauSpec,
    case_spec,
    factor_weights,
    factors,
    omega_entries,
    product_terms,
    production_routes,
    tau_candidates,
    tau_entries,
    tau_spec,
    torus_dim,
)
from multfree import cases
from multfree.classify import Verdict, verify_witness
from multfree.irreps import IrrepLabel, dimension, sp, u
from multfree.sp_pieri import tensor_sym_sym


ALL_SPECS = [
    case_spec("I", n=2),
    case_spec("II", k1=1, k2=1),
    case_spec("II", k1=0, k2=1),
    case_spec("III", n=1),
    case_spec("III", n=2),
    case_spec("IV", n=2),
    case_spec("V", n=3),
    case_spec("VI", n=3),
    case_spec("VII", k=1, n=1),
    case_spec("VII", k=2, n=0),
    case_spec("VIII", m=(3,), kn=((1, 0),)),
    case_spec("VIII", m=(), kn=((1, 1),)),
    case_spec("IX", n=2),
]


def test_case_spec_validation():
    with pytest.raises(ValueError):
        case_spec("I", n=0)
    with pytest.raises(ValueError):
        case_spec("II", k1=0, k2=0)
    with pytest.raises(ValueError):
        case_spec("IV", n=1)
    with pytest.raises(ValueError):
        case_spec("V", n=2)
    with pytest.raises(ValueError):
        case_spec("VII", k=0, n=1)
    with pytest.raises(ValueError):
        case_spec("VIII", m=(2,), kn=())
    with pytest.raises(ValueError):
        case_spec("VIII", m=(), kn=())
    with pytest.raises(ValueError):
        case_spec("X", n=1)
    with pytest.raises(ValueError, match="^case I needs n$"):
        case_spec("I")
    with pytest.raises(ValueError, match="^case I takes no parameter 'k'$"):
        case_spec("I", n=2, k=3)


@pytest.mark.parametrize(
    "case_id, kwargs",
    [
        ("I", {"n": 2.9}),
        ("I", {"n": "3"}),
        ("I", {"n": True}),
        ("VIII", {"m": (3.7,)}),
        ("VIII", {"kn": ((1.2, 0),)}),
    ],
)
def test_case_spec_refuses_a_parameter_that_is_not_an_int(case_id, kwargs):
    # int() would truncate or convert these: I(n=2.9) would be I(n=2)
    with pytest.raises(ValueError, match="must be an int"):
        case_spec(case_id, **kwargs)


def test_every_case_spec_construction_path_validates():
    spec = case_spec("VIII", m=(3,), kn=((1, 0),))
    assert repr(spec) == "CaseSpec(case_id='VIII', params=(('kn', ((1, 0),)), ('m', (3,))))"
    assert str(spec) == "VIII(kn=((1, 0),), m=(3,))" and spec["m"] == (3,)
    assert hash(spec) == hash(("VIII", (("kn", ((1, 0),)), ("m", (3,)))))
    bad = [
        lambda: CaseSpec("I", (("n", 2.0),)),
        lambda: CaseSpec._make(("I", (("n", "2"),))),
        lambda: spec._replace(params=(("kn", ((1, False),)), ("m", (3,)))),
        lambda: spec._replace(params=(("kn", ()), ("m", [3]))),
    ]
    if hasattr(copy, "replace"):  # Python 3.13
        bad.append(lambda: copy.replace(spec, params=(("m", (3.5,)),)))
    for make in bad:
        with pytest.raises(ValueError, match="must be an int"):
            make()
    # the private II half is built directly, and every copy is a CaseSpec
    half = CaseSpec("IIh", (("k", 1),))
    for back in (CaseSpec._make(half), half._replace(), copy.deepcopy(half), pickle.loads(pickle.dumps(half))):
        assert back == half and type(back) is CaseSpec and back["k"] == 1


def test_factor_layout():
    spec = case_spec("VIII", m=(3,), kn=((2, 1),))
    keys = [f.key for f in factors(spec)]
    assert keys == ["su.1", "su2.1", "s1.1", "u.1", "sp.1"]
    assert torus_dim(spec) == 4  # 2 su-torus + 1 circle + 1 su2-torus
    spec2 = case_spec("II", k1=0, k2=2)
    assert [f.key for f in factors(spec2)] == ["su2a", "su2b", "spb"]
    # two blocks of each type: torus offsets run over the su(3) block
    # (coordinates 0-2), the su(4) block (3-6) and the two su(2) blocks (7, 8);
    # u-slots run over u.1, sp.1, u.2
    spec3 = case_spec("VIII", m=(3, 4), kn=((2, 1), (1, 0)))
    assert factors(spec3) == (
        Factor("su.1", "su", 3, "torus", 0),
        Factor("su.2", "su", 4, "torus", 3),
        Factor("su2.1", "su", 2, "torus", 7),
        Factor("su2.2", "su", 2, "torus", 8),
        Factor("s1.1", "circle", 1, "torus", 2),
        Factor("s1.2", "circle", 1, "torus", 6),
        Factor("u.1", "u", 2, "uslot", 0),
        Factor("sp.1", "sp", 1, "uslot", 1),
        Factor("u.2", "u", 1, "uslot", 2),
    )
    assert torus_dim(spec3) == 9


def test_single_block_factor_layouts():
    # every single-block kind, as (key, family, rank, kind, pos): torus
    # offsets and u-slot indices count from 0 in factor order, and a factor
    # of rank 0 (a II half with k = 0, VII with n = 0) is left out
    layouts = {
        case_spec("I", n=2): [("su2", "su", 2, "torus", 0), ("sp", "sp", 2, "uslot", 0)],
        CaseSpec("IIh", (("k", 0),)): [("su2", "su", 2, "torus", 0)],
        CaseSpec("IIh", (("k", 1),)): [("su2", "su", 2, "torus", 0), ("sp", "sp", 1, "uslot", 0)],
        case_spec("III", n=2): [("sp2", "sp", 2, "torus", 0), ("sp", "sp", 2, "uslot", 0)],
        case_spec("IV", n=3): [("so", "so", 3, "torus", 0)],
        case_spec("V", n=3): [("su", "su", 3, "torus", 0), ("s1", "circle", 1, "torus", 2)],
        case_spec("VI", n=4): [("su", "su", 4, "torus", 0), ("s1", "circle", 1, "torus", 3)],
        case_spec("VII", k=2, n=0): [("su2", "su", 2, "torus", 0), ("u", "u", 2, "uslot", 0)],
        case_spec("VII", k=2, n=1): [
            ("su2", "su", 2, "torus", 0),
            ("u", "u", 2, "uslot", 0),
            ("sp", "sp", 1, "uslot", 1),
        ],
        case_spec("IX", n=2): [("u", "u", 2, "uslot", 0)],
    }
    for spec, want in layouts.items():
        assert [tuple(f) for f in factors(spec)] == want, str(spec)


def test_tau_spec_construction():
    spec = case_spec("I", n=2)
    tau = tau_spec(spec, su2=(1,), sp=(2, 1))
    assert tau.label("su2").weight == (1,)
    assert tau.label("sp").weight == (2, 1)
    assert tau.weight_size() == 4
    assert tau_spec(spec).is_trivial
    with pytest.raises(ValueError):
        tau_spec(spec, bogus=(1,))
    with pytest.raises(ValueError):
        tau_spec(spec, sp=(1, 1, 1))  # too long for sp(2)


def test_tau_spec_is_a_validated_tuple():
    spec = case_spec("I", n=2)
    tau = tau_spec(spec, su2=(1,), sp=(1,))
    assert repr(tau) == (
        "TauSpec(spec=CaseSpec(case_id='I', params=(('n', 2),)), "
        "labels=(IrrepLabel(family='su', rank=2, weight=(1,)), "
        "IrrepLabel(family='sp', rank=2, weight=(1,))))"
    )
    assert hash(tau) == hash((spec, tau.labels))
    taus = tau_candidates(spec, 2)
    assert sorted(reversed(taus)) == sorted(taus, key=lambda t: (t.spec, t.labels))
    with pytest.raises(AttributeError):
        tau.labels = ()
    with pytest.raises(AttributeError):
        tau.extra = 1
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(tau, proto))
        assert back == tau and type(back) is TauSpec


def test_every_tau_spec_construction_path_validates():
    spec = case_spec("I", n=2)
    tau = tau_spec(spec, sp=(1,))
    wrong = (sp(2, 1), sp(2, 1))  # su2's label has the wrong family
    bad = [
        lambda: TauSpec(spec, wrong),
        lambda: TauSpec(spec, tau.labels[:1]),
        lambda: TauSpec._make((spec, wrong)),
        lambda: tau._replace(labels=wrong),
        lambda: tau._replace(spec=case_spec("I", n=3)),
    ]
    if hasattr(copy, "replace"):  # Python 3.13
        bad.append(lambda: copy.replace(tau, labels=wrong))
    for make in bad:
        with pytest.raises(ValueError):
            make()
    assert TauSpec._make(tau) == tau._replace(labels=list(tau.labels)) == tau


@pytest.mark.parametrize(
    "spec, weights",
    [(case_spec("VII", k=2, n=1), {"u": (1, 0)}), (case_spec("III", n=2), {"sp": (1,)})],
    ids=str,
)
def test_product_terms_ask_the_oracle_once_per_slot_label(monkeypatch, spec, weights):
    # omega entries share u-labels: one scan decomposes each (u-slot, omega
    # label) pair with tau's label once, whatever the number of entries
    tau = tau_spec(spec, **weights)
    entries = omega_entries(spec, 8)  # built (and memoised) before counting
    want = {(a, b) for oe in entries for a, b in zip(oe.ulabels, tau.ulabels)}
    asked = Counter()
    pair = cases.tensor_pair

    def counting(a, b):
        asked[a, b] += 1
        return pair(a, b)

    monkeypatch.setattr(cases, "tensor_pair", counting)
    n_terms = sum(1 for _ in product_terms(spec, tau, 8))
    assert n_terms > len(entries) > len(want)
    assert set(asked) == want
    assert set(asked.values()) == {1}


def test_omega_case_i_example():
    spec = case_spec("I", n=2)
    got = Counter(CompositeLabel(e.torus, e.ulabels) for e in omega_entries(spec, 2))
    expect = {
        CompositeLabel((0,), (sp(2),)): 1,
        CompositeLabel((1,), (sp(2, 1),)): 1,
        CompositeLabel((2,), (sp(2, 2),)): 1,
    }
    assert got == expect


def test_omega_case_iv_example():
    spec = case_spec("IV", n=2)
    assert sorted(e.torus for e in omega_entries(spec, 1)) == [(0, 0), (0, 1), (1, 0)]


def test_omega_case_iii_inner_expansion():
    # at rank 1 the inner product collapses to the two-term branching
    spec = case_spec("III", n=1)
    slot = {e.ulabels for e in omega_entries(spec, 2) if e.torus == (1, 1)}
    assert slot == {(sp(1, 2),), (sp(1),)}
    # at rank >= 2 the same slot carries the full three-term decomposition
    spec2 = case_spec("III", n=2)
    slot2 = {e.ulabels for e in omega_entries(spec2, 2) if e.torus == (1, 1)}
    assert slot2 == {(sp(2, 2),), (sp(2, 1, 1),), (sp(2),)}
    # every (r, s) slice is the closed row (x) row rule of sp_pieri
    for n in (1, 2, 3):
        slices: dict = {}
        for oe in omega_entries(case_spec("III", n=n), 6):
            slices.setdefault(oe.torus, Counter())[oe.ulabels[0]] += 1
        assert set(slices) == {(r, s) for r in range(7) for s in range(7 - r)}
        for (r, s), got in slices.items():
            assert dict(got) == tensor_sym_sym(r, s, n).entries, (n, r, s)


def test_omega_case_vii_row_product():
    # each (r, s) slice carries Sym^r (x) Sym^s of u(k): the labels
    # (r+s-c, c, 0, ...) for c <= min(r, s), each once; u(1) has c = 0 only
    for k in (1, 2, 3):
        slices: dict = {}
        for oe in omega_entries(case_spec("VII", k=k, n=0), 6):
            p = dict(oe.params)
            slices.setdefault((p["r"], p["s"]), Counter())[oe.ulabels[0]] += 1
        assert set(slices) == {(r, s) for r in range(7) for s in range(7 - r)}
        for (r, s), got in slices.items():
            cs = range(min(r, s) + 1) if k > 1 else (0,)
            want = {IrrepLabel("u", k, ((r + s - c, c) + (0,) * k)[:k]): 1 for c in cs}
            assert dict(got) == want, (k, r, s)


def test_omega_multiplicity_free_everywhere():
    for spec in ALL_SPECS:
        entries = omega_entries(spec, 6 if spec.case_id != "VIII" else 4)
        counts = Counter((e.torus, e.ulabels) for e in entries)
        assert max(counts.values()) == 1, spec


def test_omega_truncation_monotone():
    for spec in ALL_SPECS:
        small = Counter((e.torus, e.ulabels) for e in omega_entries(spec, 3))
        big = Counter((e.torus, e.ulabels) for e in omega_entries(spec, 4))
        assert small <= big, spec


def test_omega_degree_grading_case_i():
    spec = case_spec("I", n=3)
    for e in omega_entries(spec, 5):
        s = e.torus[0]
        assert e.ulabels[0].weight in ((s,), ())
        assert sum(e.ulabels[0].weight) == s


def test_omega_degree_grading_case_v():
    # last torus coordinate of every entry is the polynomial degree
    spec = case_spec("V", n=3)
    degrees = {e.torus[-1] for e in omega_entries(spec, 4)}
    assert degrees == set(range(5))


def test_tau_restriction_case_i():
    spec = case_spec("I", n=2)
    tau = tau_spec(spec, su2=(1,), sp=(1,))
    got = [(te.torus, tau.ulabels, te.mult) for te in tau_entries(spec, tau)]
    assert got == [((-1,), (sp(2, 1),), 1), ((1,), (sp(2, 1),), 1)]


def test_tau_restriction_case_vii_trivial_parts():
    spec = case_spec("VII", k=2, n=1)
    tau = tau_spec(spec, u=(1, 0))
    got = [(te.torus, tau.ulabels, te.mult) for te in tau_entries(spec, tau)]
    assert got == [((0,), (u(2, 1, 0), sp(1)), 1)]


def test_tau_restriction_case_v_standard():
    spec = case_spec("V", n=3)
    tau = tau_spec(spec, su=(1,), s1=(7,))
    got = [(te.torus, te.mult) for te in tau_entries(spec, tau)]
    assert sorted(got) == [((-1, -1, 7), 1), ((0, 1, 7), 1), ((1, 0, 7), 1)]


def test_omega_tensor_tau_with_trivial_tau_is_omega():
    for spec in ALL_SPECS:
        tau = tau_spec(spec)
        got = Counter()
        for _, _, lab, mult in product_terms(spec, tau, 4):
            got[lab] += mult
        assert got == Counter(CompositeLabel(e.torus, e.ulabels) for e in omega_entries(spec, 4))


def test_omega_tensor_tau_case_i_witness_multiplicity():
    spec = case_spec("I", n=2)
    tau = tau_spec(spec, su2=(1,), sp=(1,))
    target = CompositeLabel((1,), (sp(2, 1),))
    assert sum(mult for _, _, lab, mult in product_terms(spec, tau, 2) if lab == target) >= 2


def test_omega_tensor_tau_case_i_constant_partition_free():
    spec = case_spec("I", n=2)
    got = Counter()
    for _, _, lab, mult in product_terms(spec, tau_spec(spec, sp=(1, 1)), 4):
        got[lab] += mult
    assert max(got.values()) == 1


def test_omega_tensor_tau_case_ix_free():
    spec = case_spec("IX", n=1)
    got = Counter()
    for _, _, lab, mult in product_terms(spec, tau_spec(spec, u=(5,)), 3):
        got[lab] += mult
    assert max(got.values()) == 1


@st.composite
def _small_tau_and_degree(draw):
    spec = draw(st.sampled_from(ALL_SPECS))
    labels = tuple(
        IrrepLabel(f.family, f.rank, draw(st.sampled_from(factor_weights(f.family, f.rank, 2))))
        for f in factors(spec)
    )
    return TauSpec(spec, labels), draw(st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(_small_tau_and_degree())
# a slot product with a multiplicity: u(3) (2,1,0) (x) adjoint holds (2,1,0) twice
@example((tau_spec(case_spec("VII", k=3, n=0), u=(1, 0, -1)), 3))
def test_product_terms_conserve_dimension(tau_and_degree):
    # within each degree slice, dim(omega_d (x) tau) computed term by term
    # with the Weyl dimension formula equals dim(omega_d) * dim(tau)
    tau, degree = tau_and_degree
    spec = tau.spec
    dim_tau = math.prod(dimension(lab) for lab in tau.labels)
    got = [0] * (degree + 1)
    for oe, _, label, mult in product_terms(spec, tau, degree):
        got[oe.degree] += mult * math.prod(dimension(lab) for lab in label.ulabels)
    want = [0] * (degree + 1)
    for oe in omega_entries(spec, degree):
        want[oe.degree] += math.prod(dimension(lab) for lab in oe.ulabels) * dim_tau
    assert got == want, str(tau)


def _route_multiset(routes):
    return Counter(
        (r["degree"], tuple(r["omega"].items()), tuple(r["tau"].items()), r["mult"]) for r in routes
    )


def _beyond(lab):
    w = lab.weight or (0,)
    return IrrepLabel(lab.family, lab.rank, (w[0] + 99,) + w[1:])


@settings(max_examples=40, deadline=None)
@given(_small_tau_and_degree(), st.integers(0, 10**6))
@example((tau_spec(case_spec("IX", n=2), u=(1, -1)), 3), 0)
@example((tau_spec(case_spec("VII", k=2, n=0), su2=(1,), u=(1, 0)), 3), 1)
@example((tau_spec(case_spec("VIII", m=(3,), kn=((1, 0),)), **{"su.1": (1,), "su2.1": (2,)}), 3), 4)
# torus vectors that hold several omega entries, each with a route to the target
@example((tau_spec(case_spec("III", n=2), sp2=(1,), sp=(1,)), 4), 17)
@example((tau_spec(case_spec("II", k1=1, k2=1), su2a=(1,), spb=(1,)), 4), 5)
@example((tau_spec(case_spec("VIII", m=(3,), kn=((1, 0),)), **{"su2.1": (1,)}), 6), 14)
# tau weights on two blocks, so each partner torus spans both blocks'
# coordinates; each target has 6 routes from 4 tau entries
@example((tau_spec(case_spec("II", k1=2, k2=1), su2a=(1,), spa=(1, 0), su2b=(1,)), 4), 113)
@example(
    (
        tau_spec(
            case_spec("VIII", kn=((2, 0), (1, 1))),
            **{"su2.1": (1,), "u.1": (1, 0), "su2.2": (1,), "sp.2": (1,)},
        ),
        3,
    ),
    95,
)
def test_production_routes_match_product_terms(tau_and_degree, pick):
    # the routes of a target are exactly its unfiltered productions
    tau, degree = tau_and_degree
    spec = tau.spec
    everything = list(product_terms(spec, tau, degree))
    labels = sorted({label for _, _, label, _ in everything})
    target = labels[pick % len(labels)]
    want = Counter(
        (oe.degree, oe.params, te.weights, mult) for oe, te, label, mult in everything if label == target
    )
    routes = production_routes(spec, tau, degree, target)
    assert _route_multiset(routes) == want, (str(tau), str(target))
    total = sum(r["mult"] for r in routes)
    verdict = Verdict(True, degree, target, total, 0, tuple(routes))
    assert verify_witness(spec, tau, verdict) == (total >= 2)
    # a target on no production, and targets one entry too long or short
    misfits = [
        CompositeLabel(tuple(x + 99 for x in target.torus), tuple(map(_beyond, target.ulabels))),
        CompositeLabel(target.torus + (0,), target.ulabels),
        CompositeLabel(target.torus, target.ulabels + (sp(1),)),
    ]
    if target.torus:
        misfits.append(CompositeLabel(target.torus[:-1], target.ulabels))
    if target.ulabels:
        misfits.append(CompositeLabel(target.torus, target.ulabels[:-1]))
    for bad in misfits:
        assert production_routes(spec, tau, degree, bad) == [], (str(tau), str(bad))
        assert not verify_witness(spec, tau, Verdict(True, degree, bad, total, 0, tuple(routes)))


def test_factor_weight_enumeration():
    assert factor_weights("su", 2, 2) == [(), (1,), (2,)]
    # graded: size-0 weight first, then size-1 weights in lex order
    assert factor_weights("circle", 1, 1) == [(0,), (-1,), (1,)]
    assert (1, -1) in factor_weights("u", 2, 2)
    assert (1, 0) in factor_weights("so", 2, 2)
    assert all(sum(abs(x) for x in w) <= 2 for w in factor_weights("u", 2, 2))


def test_tau_candidates_graded_order():
    spec = case_spec("I", n=2)
    taus = tau_candidates(spec, 2)
    sizes = [t.weight_size() for t in taus]
    assert sizes == sorted(sizes)
    assert taus[0].is_trivial
    assert len({str(t.spec) + str(t.to_json()) for t in taus}) == len(taus)


def test_composite_label_json_roundtrip():
    lab = CompositeLabel((1, -2), (sp(2, 1), u(2, 1, -1)))
    assert CompositeLabel.from_json(lab.to_json()) == lab


def test_composite_label_json_reads_integers_only():
    # int() would read this back as (χ(1,2); η(1,1))
    with pytest.raises(ValueError):
        CompositeLabel.from_json(
            {"torus": [1.9, "2"], "u": [{"family": "SP", "rank": 2.7, "weight": [1.5, True]}]}
        )
    good = {"torus": [1, 2], "u": [{"family": "sp", "rank": 2, "weight": [1, 1]}]}
    assert CompositeLabel.from_json(good) == CompositeLabel((1, 2), (sp(2, 1, 1),))
    (ulab,) = good["u"]
    for bad in (2.0, 1.5, "2", True, False, None):
        for data in (
            {**good, "torus": [1, bad]},
            {**good, "u": [{**ulab, "rank": bad}]},
            {**good, "u": [{**ulab, "weight": [1, bad]}]},
        ):
            with pytest.raises(ValueError):
                CompositeLabel.from_json(data)


def _fock_dimension(spec):
    # complex dimension of the underlying polynomial variables per case
    cid = spec.case_id
    if cid == "I":
        return 2 * spec["n"]
    if cid == "II":
        return 2 * spec["k1"] + 2 + 2 * spec["k2"]
    if cid == "III":
        return 4 * spec["n"]
    if cid in ("IV", "V", "VI", "IX"):
        return spec["n"]
    if cid == "VII":
        return 2 * spec["k"] + 2 * spec["n"]
    return sum(spec["m"]) + sum(2 * k + 2 * n for k, n in spec["kn"])


def _binom(n, k):
    from math import comb

    return comb(n, k)


def test_omega_graded_dimension_conservation():
    # the degree-d slice of the series must carry exactly the dimension of
    # the degree-d polynomials on the underlying complex variables
    from multfree.cases import omega_entries
    from multfree.irreps import dimension

    for spec in ALL_SPECS:
        top = 5 if spec.case_id != "VIII" else 4
        m = _fock_dimension(spec)
        by_degree = {}
        for e in omega_entries(spec, top):
            d = 1
            for lab in e.ulabels:
                d *= dimension(lab)
            by_degree[e.degree] = by_degree.get(e.degree, 0) + d
        for d in range(top + 1):
            assert by_degree.get(d, 0) == _binom(m + d - 1, d), (spec, d)


def test_tau_restriction_total_dimension():
    from multfree.irreps import dimension

    probes = [
        (case_spec("I", n=2), {"su2": (2,), "sp": (2, 1)}),
        (case_spec("II", k1=1, k2=1), {"su2a": (1,), "spb": (2,)}),
        (case_spec("III", n=2), {"sp2": (1, 1), "sp": (1,)}),
        (case_spec("IV", n=2), {"so": (2, 0)}),
        (case_spec("V", n=3), {"su": (2, 1), "s1": (-3,)}),
        (case_spec("VII", k=2, n=1), {"su2": (3,), "u": (1, -1), "sp": (2,)}),
        (case_spec("VIII", m=(3,), kn=((1, 0),)), {"su.1": (1, 1), "su2.1": (2,)}),
    ]
    for spec, weights in probes:
        tau = tau_spec(spec, **weights)
        expect = 1
        for lab in tau.labels:
            expect *= dimension(lab)
        total = 0
        for te in tau_entries(spec, tau):
            d = te.mult
            for lab in tau.ulabels:
                d *= dimension(lab)
            total += d
        assert total == expect, (spec, weights)


def _exponent_vectors(m, d):
    return [v for v in itertools.product(range(d + 1), repeat=m) if sum(v) == d]


def test_omega_case_vii_matches_monomial_model():
    # first-principles check of the family VII series: polynomials on
    # C^2 (x) C^k + C^2n, graded by the row-1 degree r, the row-2 degree s and
    # the sp degree j, as T x U(k) x Sp(n) characters.  Row-1 variables carry
    # torus weight +1, row-2 variables -1, sp variables +1; the u(k) weight of
    # a variable is its column, the sp(n) weight is +-e_i.
    from multfree.cases import omega_entries
    from multfree.irreps import weyl_character

    top = 4
    for k, n in ((1, 0), (2, 0), (2, 1), (3, 0)):
        model = {}
        for r in range(top + 1):
            for s in range(top - r + 1):
                for j in range(top - r - s + 1) if n else (0,):
                    terms = model.setdefault((r, s, j), {})
                    for a in _exponent_vectors(k, r):
                        for b in _exponent_vectors(k, s):
                            for c in _exponent_vectors(2 * n, j):
                                uw = tuple(x + y for x, y in zip(a, b))
                                spw = tuple(c[2 * i] - c[2 * i + 1] for i in range(n))
                                e = (r - s + j,) + uw + spw
                                terms[e] = terms.get(e, 0) + 1
        series = {}
        for oe in omega_entries(case_spec("VII", k=k, n=n), top):
            p = dict(oe.params)
            terms = series.setdefault((p["r"], p["s"], p.get("j", 0)), {})
            parts = [weyl_character(lab).terms for lab in oe.ulabels]
            for combo in itertools.product(*[list(t.items()) for t in parts]):
                e = oe.torus + tuple(x for exps, _ in combo for x in exps)
                coeff = 1
                for _, c in combo:
                    coeff *= c
                terms[e] = terms.get(e, 0) + coeff
        assert series == model, (k, n)


def test_omega_case_vi_matches_monomial_model():
    # first-principles check of the family VI series (the type-(VI) block of
    # family VIII): polynomials on C^n, graded by degree, as characters of
    # the su(n)-torus times the circle.  The variable x_i has u(n) weight e_i,
    # so a monomial with exponent vector a has the honest su(n)-torus
    # character (a_1 - a_n, ..., a_{n-1} - a_n); the circle scales every
    # variable, so it acts by the degree.  Degree d is Sym^d of the standard
    # su(n) representation, so its torus part is that irrep's weight system.
    from multfree.irreps import su, weight_system

    top = 5
    for n in (3, 4):
        model = {}
        for d in range(top + 1):
            terms = model.setdefault(d, {})
            for a in _exponent_vectors(n, d):
                e = tuple(x - a[-1] for x in a[:-1]) + (d,)
                terms[e] = terms.get(e, 0) + 1
            sym = weight_system(su(n, d) if d else su(n))
            assert {e[:-1]: c for e, c in terms.items()} == sym, (n, d)
        series = {}
        for oe in omega_entries(case_spec("VI", n=n), top):
            assert oe.ulabels == ()
            terms = series.setdefault(oe.degree, {})
            terms[oe.torus] = terms.get(oe.torus, 0) + 1
        assert series == model, n


def test_omega_case_ix_matches_monomial_model():
    # first-principles check of the family IX series: Sym^r of C^n, that is
    # the degree-r polynomials, as u(n) characters; the variable x_i has
    # weight e_i, so a monomial's weight is its exponent vector
    from multfree.irreps import weyl_character

    top = 5
    for n in (1, 2, 3):
        model = {}
        for r in range(top + 1):
            terms = model.setdefault(r, {})
            for a in _exponent_vectors(n, r):
                terms[a] = terms.get(a, 0) + 1
        series = {}
        for oe in omega_entries(case_spec("IX", n=n), top):
            assert oe.torus == ()
            terms = series.setdefault(oe.degree, {})
            for lab in oe.ulabels:
                for e, c in weyl_character(lab).items():
                    terms[e] = terms.get(e, 0) + c
        assert series == model, n


@pytest.mark.parametrize(
    "spec",
    [
        case_spec("VIII", m=(3,), kn=((2, 1),)),
        case_spec("VIII", kn=((2, 0), (1, 1))),
        case_spec("VIII", m=(3, 3)),
    ],
    ids=str,
)
def test_omega_case_viii_matches_monomial_model(spec):
    # first-principles check of the family VIII series: polynomials on the
    # sum of C^{m_i} and C^2 (x) C^{k_j} + C^{2n_j}, graded by total degree.
    # The torus holds, block after block, the su(m_i)-torus character
    # (a_1 - a_m, ..., a_{m-1} - a_m) and the degree |a| of the C^{m_i}
    # exponents a, then r - s + j for each su(2) block (row-1 degree r,
    # row-2 degree s, sp degree j); the u-slots hold, block after block, the
    # u(k_j) weight (column sums of both rows) and the sp(n_j) weight.
    top = 3
    ms, kns = spec["m"], spec["kn"]
    nvars = sum(ms) + sum(2 * k + 2 * n for k, n in kns)
    model = {}
    for d in range(top + 1):
        terms = model.setdefault(d, {})
        for v in _exponent_vectors(nvars, d):
            torus, uweights, at = (), (), 0
            for m in ms:
                a = v[at : at + m]
                at += m
                torus += tuple(x - a[-1] for x in a[:-1]) + (sum(a),)
            for k, n in kns:
                row1, row2, c = v[at : at + k], v[at + k : at + 2 * k], v[at + 2 * k : at + 2 * k + 2 * n]
                at += 2 * k + 2 * n
                torus += (sum(row1) - sum(row2) + sum(c),)
                uweights += tuple(x + y for x, y in zip(row1, row2))
                uweights += tuple(c[2 * i] - c[2 * i + 1] for i in range(n))
            e = torus + uweights
            terms[e] = terms.get(e, 0) + 1
    assert _characters_by_degree(spec, top) == model


def _characters_by_degree(spec, top):
    # the series up to degree top as one character per degree: torus vector
    # followed by the u-slot weights, with multiplicities
    from multfree.irreps import weyl_character

    series = {}
    for oe in omega_entries(spec, top):
        terms = series.setdefault(oe.degree, {})
        parts = [weyl_character(lab).terms for lab in oe.ulabels]
        for combo in itertools.product(*[list(t.items()) for t in parts]):
            e = oe.torus + tuple(x for exps, _ in combo for x in exps)
            coeff = 1
            for _, c in combo:
                coeff *= c
            terms[e] = terms.get(e, 0) + coeff
    return series


@pytest.mark.parametrize("k1, k2", [(1, 1), (2, 1), (0, 2), (1, 0)])
def test_omega_case_ii_matches_monomial_model(k1, k2):
    # first-principles check of the family II series: polynomials on
    # C^{2k1} + C^2 + C^{2k2} (variables x, y, z), graded by total degree.
    # The two circles act by |x| + y_1 and |z| + y_2; the u-slots hold the
    # sp(k1) weight (x_{2i} - x_{2i+1}) and the sp(k2) weight
    # (z_{2i} - z_{2i+1}).  A slot is absent when its k is 0.
    top = 3
    model = {}
    for d in range(top + 1):
        terms = model.setdefault(d, {})
        for v in _exponent_vectors(2 * k1 + 2 + 2 * k2, d):
            x, (y1, y2), z = v[: 2 * k1], v[2 * k1 : 2 * k1 + 2], v[2 * k1 + 2 :]
            e = (sum(x) + y1, sum(z) + y2)
            e += tuple(x[2 * i] - x[2 * i + 1] for i in range(k1))
            e += tuple(z[2 * i] - z[2 * i + 1] for i in range(k2))
            terms[e] = terms.get(e, 0) + 1
    assert _characters_by_degree(case_spec("II", k1=k1, k2=k2), top) == model
