import copy
import dataclasses
import gzip
import itertools
import json
import pickle
from collections import Counter
from pathlib import Path

import pytest

import multfree.cases as cases_mod
import multfree.classify as classify_mod
import multfree.irreps as irreps_mod
from multfree.cases import (
    CompositeLabel,
    TauSpec,
    block_pieces,
    blocks,
    case_spec,
    cut_label,
    factor_weights,
    factors,
    join_labels,
    omega_entries,
    product_terms,
    tau_candidates,
    tau_entries,
    tau_spec,
    torus_dim,
)
from multfree.classify import (
    CONSISTENT,
    CONTRADICTION,
    INCONCLUSIVE,
    ExpectedVerdict,
    Verdict,
    classify,
    cross_check,
    default_grid,
    deg_window,
    expected_verdict,
    sweep,
    verify_witness,
)
from multfree.irreps import decompose_product, sp, u


@pytest.fixture
def cold_scans():
    # row and block decisions are memoised across calls; a test that records
    # the terms a scan draws starts from an empty memo, so that every row is
    # decided and every block scan runs
    classify_mod._decide.cache_clear()


def test_classify_case_i_witness_and_routes():
    spec = case_spec("I", n=2)
    tau = tau_spec(spec, su2=(1,), sp=(1,))
    v = classify(spec, tau, 4)
    assert v.multiplicity_found
    assert v.witness == CompositeLabel((1,), (sp(2, 1),))
    assert v.multiplicity == 2
    assert v.witness_degree == 2
    # the two production routes: degree 0 with the +1 torus weight of the
    # su(2) factor, and degree 2 with the -1 weight
    routes = {(r["degree"], r["omega"]["s"], r["tau"]["su2"]) for r in v.routes}
    assert routes == {(0, 0, (1,)), (2, 2, (-1,))}
    assert verify_witness(spec, tau, v)


def test_classify_monotone_in_degree():
    probes = [
        (case_spec("I", n=2), {"su2": (1,), "sp": (1,)}),
        (case_spec("III", n=1), {"sp": (1,)}),
        (case_spec("IV", n=2), {"so": (1, 0)}),
        (case_spec("V", n=3), {"su": (1,)}),
        (case_spec("VII", k=1, n=1), {"su2": (1,)}),
    ]
    for spec, weights in probes:
        tau = tau_spec(spec, **weights)
        small = classify(spec, tau, 4)
        assert small.multiplicity_found, (spec, weights)
        for d in (5, 6):
            bigger = classify(spec, tau, d)
            assert bigger.multiplicity_found
            assert bigger.witness_degree <= small.witness_degree


def _full_scan_witnesses(spec, tau, degree):
    # the rule without the stop, at every truncation e = 0..degree from one
    # scan: count every production up to e and take the smallest
    # (degree reached, label)
    counts, reached, out = {}, {}, []

    def witness():
        if not reached:
            return None
        lab = min(reached, key=lambda x: (reached[x], x))
        return lab, reached[lab], counts[lab]

    for oe, _, lab, mult in product_terms(spec, tau, degree):
        while len(out) < oe.degree:
            out.append(witness())
        counts[lab] = counts.get(lab, 0) + mult
        if counts[lab] >= 2:
            reached.setdefault(lab, oe.degree)
    while len(out) <= degree:
        out.append(witness())
    return out


def _full_scan_witness(spec, tau, degree):
    return _full_scan_witnesses(spec, tau, degree)[degree]


def test_classify_witness_monotone_and_minimal():
    # a witness is conclusive: a larger truncation keeps it, and one degree
    # below its witness degree there is none
    checked = 0
    for spec in default_grid():
        for tau in tau_candidates(spec, 1):
            v = classify(spec, tau, 4)
            if not v.multiplicity_found:
                assert _full_scan_witness(spec, tau, 4) is None, (str(spec), str(tau))
                continue
            checked += 1
            assert _full_scan_witness(spec, tau, 4) == (v.witness, v.witness_degree, v.multiplicity)
            bigger = classify(spec, tau, 6)
            assert (bigger.witness, bigger.witness_degree) == (v.witness, v.witness_degree)
            if v.witness_degree > 0:
                assert not classify(spec, tau, v.witness_degree - 1).multiplicity_found
    assert checked >= 50


@pytest.mark.parametrize(
    "spec, weights",
    [
        (case_spec("I", n=2), {"su2": (1,), "sp": (1,)}),
        (case_spec("IV", n=2), {"so": (1, 0)}),
        (case_spec("VII", k=2, n=0), {"u": (1, 0)}),
        (case_spec("VIII", m=(3,), kn=((1, 0),)), {"su2.1": (1,)}),
    ],
)
def test_classify_stops_after_the_witness_degree(monkeypatch, cold_scans, spec, weights):
    tau = tau_spec(spec, **weights)
    # the block holding the witness: the one with a nontrivial tau piece (a
    # trivial piece leaves its block multiplicity-free); a spec outside
    # families II and VIII is its own single block
    (holder,) = [b for b, t in block_pieces(spec, tau) if not t.is_trivial]
    drawn = {}

    def recording(scanned, *args, **kwargs):
        for term in product_terms(scanned, *args, **kwargs):
            drawn.setdefault(scanned, []).append(term[0])
            yield term

    monkeypatch.setattr(classify_mod, "product_terms", recording)
    v = classify(spec, tau, 6)
    assert v.multiplicity_found
    # only the blocks are scanned: a multi-block VIII spec never is
    assert set(drawn) == {b for b, _ in block_pieces(spec, tau)}
    assert holder in drawn
    later = [oe for oe in omega_entries(holder, 6) if oe.degree > v.witness_degree]
    assert len(later) > 1
    # above the witness degree the scan draws from the first omega entry
    # only, and none of the entries after it
    past = list(dict.fromkeys(oe for oe in drawn[holder] if oe.degree > v.witness_degree))
    assert past == later[:1]
    # routes and multiplicity still cover every degree up to 6
    assert max(r["degree"] for r in v.routes) >= v.witness_degree
    assert verify_witness(spec, tau, v)
    # the memo serves a second classify of the row: no omega entry is drawn
    drawn.clear()
    assert classify(spec, tau, 6) == v and not drawn


BLOCK_SPECS = (
    case_spec("VIII", m=(3,), kn=((1, 0),)),
    case_spec("VIII", m=(3,), kn=((2, 0),)),
    case_spec("VIII", kn=((2, 0), (1, 1))),
    case_spec("VIII", m=(3, 3)),
)
# family II specs, the graded product of two spin(4) halves: equal halves,
# unequal halves, and a half with no sp factor
II_SPECS = (
    case_spec("II", k1=1, k2=1),
    case_spec("II", k1=2, k2=1),
    case_spec("II", k1=0, k2=2),
)
# the nine-factor VIII spec of four blocks that stands at the frontier of
# row sweeps: 2,592 rows at bound 1
FRONTIER_SPEC = case_spec("VIII", m=(3, 4), kn=((2, 1), (1, 0)))


def test_viii_block_decision_matches_full_series():
    # the verdict of a multi-block VIII spec against the full product series,
    # and its witness degree against the scans of its blocks
    rows = 0
    for spec in BLOCK_SPECS:
        for tau in tau_candidates(spec, 1):
            rows += 1
            v = classify(spec, tau, 6)
            full = Counter()
            for _, _, lab, mult in product_terms(spec, tau, 6):
                full[lab] += mult
            assert v.multiplicity_found == (max(full.values()) > 1), (str(spec), str(tau))
            scans = [classify_mod._decide(b, t, 6)[0] for b, t in block_pieces(spec, tau)]
            block_degree = min((d for d in scans if d is not None), default=None)
            assert v.witness_degree == block_degree, (str(spec), str(tau))
    assert rows == 180


def test_block_pieces_match_the_factor_keys():
    # each block's piece of tau, cut by position, is the label of each of
    # its factor keys in the whole spec
    specs = tuple(default_grid()) + (
        case_spec("VIII", kn=((2, 0),)),
        case_spec("VIII", m=(3,), kn=((2, 0),)),
        case_spec("II", k1=2, k2=1),
    )
    for spec in specs:
        for tau in tau_candidates(spec, 1):
            want = [(b, TauSpec(b, tuple(tau.label(key) for key in keys))) for b, keys in blocks(spec)]
            assert block_pieces(spec, tau) == want, (str(spec), str(tau))


def _block_runs(spec):
    # the torus coordinates and u-slots of each block, in block order, read
    # off the factor placement: a torus factor covers rank - 1 coordinates
    # (su) or its rank from its offset, a u-slot factor its one slot
    where = {f.key: f for f in factors(spec)}
    runs = []
    for _, keys in blocks(spec):
        coords, slots = [], []
        for key in keys:
            f = where[key]
            if f.kind == "torus":
                coords += range(f.pos, f.pos + f.rank - (f.family == "su"))
            else:
                slots.append(f.pos)
        runs.append((sorted(coords), sorted(slots)))
    return runs


def test_blocks_tile_the_torus_and_u_slots():
    # the layout that the block scans, the tau split and route recovery rely
    # on: the blocks' torus coordinates tile range(torus_dim) and their
    # u-slots tile the slot range, each block owning one contiguous run of
    # each, in block order; cutting a label at those runs and joining the
    # pieces gives the label back
    specs = default_grid() + list(BEYOND_GRID_SPECS) + list(BLOCK_SPECS + II_SPECS)
    specs += [FRONTIER_SPEC]
    for spec in specs:
        runs = _block_runs(spec)
        coords = [c for run, _ in runs for c in run]
        slots = [s for _, run in runs for s in run]
        n_slots = sum(f.kind == "uslot" for f in factors(spec))
        assert coords == list(range(torus_dim(spec))), str(spec)
        assert slots == list(range(n_slots)), str(spec)
        # a label with a distinct value on every coordinate and u-slot
        label = CompositeLabel(
            tuple(range(10, 10 + len(coords))), tuple(u(1, i) for i in range(n_slots))
        )
        pieces = [
            CompositeLabel(tuple(label.torus[c] for c in run), tuple(label.ulabels[s] for s in srun))
            for run, srun in runs
        ]
        assert CompositeLabel(
            sum((p.torus for p in pieces), ()), sum((p.ulabels for p in pieces), ())
        ) == label, str(spec)


def test_cut_label_cuts_at_the_block_runs():
    # cases.cut_label is the cut of test_blocks_tile_the_torus_and_u_slots,
    # and join_labels undoes it
    specs = default_grid() + list(BEYOND_GRID_SPECS) + list(BLOCK_SPECS + II_SPECS)
    for spec in specs:
        runs = _block_runs(spec)
        n_slots = sum(f.kind == "uslot" for f in factors(spec))
        label = CompositeLabel(
            tuple(range(10, 10 + torus_dim(spec))), tuple(u(1, i) for i in range(n_slots))
        )
        pieces = cut_label(spec, label)
        assert [(p.torus, p.ulabels) for p in pieces] == [
            (tuple(label.torus[c] for c in run), tuple(label.ulabels[s] for s in srun))
            for run, srun in runs
        ], str(spec)
        assert join_labels(pieces) == label, str(spec)


def test_tau_ulabels_are_the_uslot_labels_in_slot_order():
    # product_terms and production_routes pair every tau entry with
    # tau.ulabels, so it must list the u-slot labels by slot position; each
    # u-slot gets a label of its own, so a wrong order shows
    specs = (
        tuple(default_grid())
        + II_SPECS
        + BLOCK_SPECS
        + (
            case_spec("VIII", m=(3,), kn=((1, 0), (1, 0))),
            case_spec("VIII", m=(4,), kn=((1, 2), (2, 1))),
        )
    )
    for spec in specs:
        slots = [f for f in factors(spec) if f.kind == "uslot"]
        # factor order is slot order
        assert [f.pos for f in slots] == list(range(len(slots))), str(spec)
        weights = {f.key: (i + 1,) + (0,) * (f.rank - 1) for i, f in enumerate(slots)}
        for tau in (tau_spec(spec), tau_spec(spec, **weights)):
            assert tau.ulabels == tuple(tau.label(f.key) for f in slots), (str(spec), str(tau))


# rows whose witness sits at degree 0: the adjoint weight (2,1) of su(3)
# repeats its zero weight, so the degree-0 term of a type-(VI) block repeats;
# VIII(m=(3,3)) with su.1 = su.2 = (2,1) has two blocks repeating at degree 0
DEGREE_ZERO_ROWS = (
    (case_spec("VIII", m=(3, 3)), {"su.1": (2, 1), "su.2": (2, 1)}),
    (case_spec("VIII", m=(3, 3)), {"su.1": (1, 1), "su.2": (2, 1), "s1.1": -1}),
    (case_spec("VIII", m=(3, 3)), {"su.1": (2, 1), "s1.2": 1}),
    (case_spec("VIII", m=(3,), kn=((1, 0),)), {"su.1": (2, 1), "su2.1": (1,)}),
    (case_spec("VIII", m=(3,), kn=((2, 0),)), {"su.1": (2, 1), "u.1": (1, 0)}),
    (case_spec("VIII", m=(3, 4), kn=((1, 0),)), {"su.2": (2, 1), "su2.1": (1,)}),
)


def test_block_witness_matches_full_series():
    # the witness joined from the block scans against the full product scan:
    # witness, witness degree and multiplicity
    spec2 = case_spec("VIII", m=(3,), kn=((1, 0), (1, 0)))
    specs = BLOCK_SPECS + (spec2, II_SPECS[0], II_SPECS[2])
    rows = [(spec, tau) for spec in specs for tau in tau_candidates(spec, 1)]
    rows += [(spec, tau_spec(spec, **weights)) for spec, weights in DEGREE_ZERO_ROWS]
    found = zero = 0
    for spec, tau in rows:
        for degree, full in enumerate(_full_scan_witnesses(spec, tau, 4)):
            v = classify(spec, tau, degree)
            if full is None:
                assert not v.multiplicity_found, (str(spec), str(tau), degree)
                continue
            assert (v.witness, v.witness_degree, v.multiplicity) == full, (str(spec), str(tau), degree)
            found += 1
            zero += v.witness_degree == 0
    # every degree-0 row has its witness at degree 0 at every truncation
    assert found > 1000 and zero == 5 * len(DEGREE_ZERO_ROWS)


def _graded_product(series, degree):
    # series: one Counter per block of (degree, torus, u-labels); the product
    # concatenates torus vectors and u-labels and adds degrees
    out = Counter({(0, (), ()): 1})
    for block in series:
        nxt = Counter()
        for (d, t, u), c in out.items():
            for (d2, t2, u2), c2 in block.items():
                if degree is None or d + d2 <= degree:
                    nxt[(d + d2, t + t2, u + u2)] += c * c2
        out = nxt
    return out


@pytest.mark.parametrize(
    "spec",
    BLOCK_SPECS + (case_spec("VIII", m=(4,), kn=((1, 2), (2, 1))),) + II_SPECS,
    ids=str,
)
def test_viii_series_is_the_graded_product_of_its_blocks(spec):
    # the omega half checks VIII only: omega_entries builds the whole II series
    # as this very product of its halves, so for II it would compare the
    # product with itself (test_omega_case_ii_matches_monomial_model in
    # test_cases.py is II's independent series reference); the tau split is
    # checked for both
    degree = 4
    if spec.case_id == "VIII":
        omega = Counter((oe.degree, oe.torus, oe.ulabels) for oe in omega_entries(spec, degree))
        blocks = [
            Counter((oe.degree, oe.torus, oe.ulabels) for oe in omega_entries(b, degree))
            for b, _ in block_pieces(spec, tau_spec(spec))
        ]
        assert omega == _graded_product(blocks, degree)
    for tau in tau_candidates(spec, 1):
        whole = Counter()
        for te in tau_entries(spec, tau):
            whole[(0, te.torus, tau.ulabels)] += te.mult
        pieces = []
        for b, t in block_pieces(spec, tau):
            piece = Counter()
            for te in tau_entries(b, t):
                piece[(0, te.torus, t.ulabels)] += te.mult
            pieces.append(piece)
        assert whole == _graded_product(pieces, None), str(tau)


def test_viii_certificate_draws_no_term_of_the_full_series(monkeypatch, cold_scans):
    spec = case_spec("VIII", m=(3,), kn=((2, 0),))
    scanned = []

    def recording(s, *args, **kwargs):
        scanned.append(s)
        return product_terms(s, *args, **kwargs)

    monkeypatch.setattr(classify_mod, "product_terms", recording)
    v = classify(spec, tau_spec(spec, **{"s1.1": 2, "u.1": (1, 1)}), 12)
    assert v == Verdict(False, 12)
    assert scanned and spec not in scanned
    # a witness row, too, takes its witness from the block scans alone
    scanned.clear()
    tau = tau_spec(spec, **{"su.1": (1,), "u.1": (1, 0)})
    v = classify(spec, tau, 6)
    assert scanned and spec not in scanned
    assert v.multiplicity_found and verify_witness(spec, tau, v)
    # so does a family II row, from its two spin(4) halves
    spec = case_spec("II", k1=2, k2=1)
    scanned.clear()
    assert classify(spec, tau_spec(spec), 12) == Verdict(False, 12)
    assert scanned and spec not in scanned
    scanned.clear()
    tau = tau_spec(spec, su2a=(1,), spb=(1,))
    v = classify(spec, tau, 6)
    assert scanned and spec not in scanned
    assert v.multiplicity_found and verify_witness(spec, tau, v)


# VIII rows whose blocks are grid specs in their own right, so a sweep meets
# the same block scans again in the VIII rows
MEMO_SPECS = (
    case_spec("VI", n=3),
    case_spec("VII", k=1, n=0),
    case_spec("VII", k=2, n=0),
    case_spec("VIII", m=(3,), kn=((1, 0),)),
    case_spec("VIII", kn=((2, 0),)),
)


def test_scan_memo_is_transparent():
    # every verdict is the same whether each row starts from an empty memo or
    # one warm pass runs the rows backwards: VIII rows before their blocks'
    # own rows, and higher degrees first.  A scan stops at its witness degree,
    # and every witness of these rows sits at degree 1 or 2, so degrees 2 and
    # 6 draw the same terms; at degree 0 each of those rows is a certificate
    rows = [
        (spec, tau, degree)
        for spec in MEMO_SPECS
        for degree in (0, 2, 6)
        for tau in tau_candidates(spec, 1)
    ]
    cold = []
    for spec, tau, degree in rows:
        classify_mod._decide.cache_clear()
        cold.append(classify(spec, tau, degree).to_json())
    classify_mod._decide.cache_clear()
    warm = [classify(spec, tau, degree).to_json() for spec, tau, degree in reversed(rows)]
    assert warm[::-1] == cold
    assert any(v["verdict"] == "MultiplicityFound" for v in cold)


# the grid specs and the two VIII specs with a k >= 2 block that the
# commutative-deep benchmark adds to the grid
CHARACTER_SPECS = tuple(default_grid()) + (
    case_spec("VIII", kn=((2, 0),)),
    case_spec("VIII", m=(3,), kn=((2, 0),)),
)


def _character_taus(spec):
    # the first factor that is not a circle or u(k) at its first fundamental
    # weight, times every circle weight and determinant power (c, ..., c) in
    # -2..2; a u(k) factor with k >= 2 also takes (c + 1, c, ..., c), which
    # is no character and stays in the scanned piece
    fs = factors(spec)
    base = next((f for f in fs if f.family not in ("circle", "u")), None)
    choices = []
    for f in fs:
        if f.family == "circle":
            ws = [(c,) for c in range(-2, 3)]
        elif f.family == "u":
            ws = [(c,) * f.rank for c in range(-2, 3)]
            if f.rank > 1:
                ws += [(c + 1,) + (c,) * (f.rank - 1) for c in range(-2, 3)]
        elif f is base:
            ws = [(1,) + (0,) * (f.rank - 1) if f.family == "so" else (1,)]
        else:
            ws = [None]
        choices.append([(f.key, w) for w in ws])
    for combo in itertools.product(*choices):
        yield tau_spec(spec, **{key: w for key, w in combo if w is not None})


@pytest.mark.parametrize("spec", CHARACTER_SPECS, ids=str)
def test_character_shift_matches_full_series(cold_scans, spec):
    # a tau piece with circle weights or determinant powers is scanned as its
    # character-free piece and the result moved by the characters; checked
    # against the unmemoised scan of the whole series with the real tau
    degree = 8
    moved = 0
    for tau in _character_taus(spec):
        v = classify(spec, tau, degree)
        full = _full_scan_witness(spec, tau, degree)
        if full is None:
            assert not v.multiplicity_found, str(tau)
            continue
        assert (v.witness, v.witness_degree, v.multiplicity) == full, str(tau)
        assert verify_witness(spec, tau, v), str(tau)
        moved += any(
            f.family in ("circle", "u") and len(set(lab.weight)) == 1 and not lab.is_trivial
            for f, lab in zip(factors(spec), tau.labels)
        )
    if spec.case_id in ("V", "VI", "VII", "VIII"):
        # these specs have both a character factor and a witness-making base
        assert moved, str(spec)


def test_scan_draws_one_series_per_tau_modulo_characters(monkeypatch, cold_scans):
    # two witness rows that differ only by the circle weight of the block
    # that holds the witness draw each block's omega series once
    spec = case_spec("VIII", m=(3,), kn=((1, 0),))
    first = tau_spec(spec, **{"su.1": (1,)})
    second = tau_spec(spec, **{"su.1": (1,), "s1.1": 2})
    drawn = Counter()
    pieces = []

    def recording(scanned, piece, *args, **kwargs):
        drawn[scanned] += 1
        pieces.append(piece)
        return product_terms(scanned, piece, *args, **kwargs)

    monkeypatch.setattr(classify_mod, "product_terms", recording)
    v1, v2 = classify(spec, first, 6), classify(spec, second, 6)
    assert drawn == Counter(b for b, _ in block_pieces(spec, first))
    # only character-free pieces are scanned: s1 of the VI block stays trivial
    assert all(p.label("s1").is_trivial for p in pieces if p.spec.case_id == "VI")
    assert v1.multiplicity_found and v2.multiplicity_found
    s1 = next(f.pos for f in factors(spec) if f.key == "s1.1")
    moved = tuple(x + 2 * (i == s1) for i, x in enumerate(v1.witness.torus))
    assert v2.witness == CompositeLabel(moved, v1.witness.ulabels)
    assert (v2.witness_degree, v2.multiplicity) == (v1.witness_degree, v1.multiplicity)
    assert verify_witness(spec, second, v2)


def test_row_with_a_character_adds_no_block_scan(cold_scans):
    # classify splits tau's characters off before deciding the row, so rows
    # that differ from a decided one only by a circle weight or a determinant
    # power meet the decision memo once each and never reach a block: no
    # miss, no new entry, one hit per row
    spec = case_spec("VIII", m=(3,), kn=((1, 0),))
    classify(spec, tau_spec(spec, **{"su.1": (1,)}), 6)
    decided = classify_mod._decide.cache_info()
    for characters in ({"s1.1": 2}, {"s1.1": 2, "u.1": (-1,)}):
        classify(spec, tau_spec(spec, **{"su.1": (1,)}, **characters), 6)
    now = classify_mod._decide.cache_info()
    assert (now.misses, now.currsize) == (decided.misses, decided.currsize)
    assert now.hits == decided.hits + 2


def _tau_characters(spec, tau):
    # (factor, c) for every circle weight and determinant power (c, ..., c)
    # with c != 0 that tau carries
    return [
        (f, lab.weight[0])
        for f, lab in zip(factors(spec), tau.labels)
        if f.family in ("circle", "u")
        and lab.weight[0] != 0
        and all(x == lab.weight[0] for x in lab.weight)
    ]


def test_reference_rows_with_characters_move_the_character_free_row():
    # every bound-2 grid row whose tau carries characters classifies, at
    # degree 6, as the row with those factors trivial, with the witness
    # moved by each character on its torus coordinate or u-slot, each route's
    # tau weight at that factor moved by c, and the routes in the same order
    rows = moved = 0
    for spec in default_grid():
        for tau in tau_candidates(spec, 2):
            chars = _tau_characters(spec, tau)
            if not chars:
                continue
            rows += 1
            keys = {f.key for f, _ in chars}
            kept = {k: tuple(w) for k, w in tau.to_json().items() if k not in keys}
            want = classify(spec, tau_spec(spec, **kept), 6).to_json()
            moved += "witness" in want
            for f, c in chars if "witness" in want else ():
                if f.family == "circle":
                    want["witness"]["torus"][f.pos] += c
                else:
                    slot = want["witness"]["u"][f.pos]
                    slot["weight"] = [x + c for x in slot["weight"]]
                for r in want["routes"]:
                    r["tau"][f.key] = [x + c for x in r["tau"][f.key]]
            got = classify(spec, tau, 6).to_json()
            same = json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
            assert same, (str(spec), str(tau))
    assert rows == 398 and moved


def test_classify_case_iv_standard_rep():
    spec = case_spec("IV", n=2)
    tau = tau_spec(spec, so=(1, 0))
    v = classify(spec, tau, 2)
    assert v.multiplicity_found
    # the scan returns the earliest witness; the balanced label chi_(1,1)
    # from the max-coordinate construction is repeated as well
    assert v.witness == CompositeLabel((0, 0), ())
    assert verify_witness(spec, tau, v)
    target = CompositeLabel((1, 1), ())
    assert sum(mult for _, _, lab, mult in product_terms(spec, tau, 2) if lab == target) >= 2


def test_classify_case_vii_k1_unitary_free():
    spec = case_spec("VII", k=1, n=1)
    tau = tau_spec(spec, u=(1,))
    v = classify(spec, tau, 5)
    assert not v.multiplicity_found
    assert v.degree_bound == 5


def test_classify_case_vii_k2_unitary_finds_multiplicity():
    # a non-constant u(2) weight is not commutative: the inner
    # Sym^1 (x) Sym^1 = (2,0) + (1,1) block meets (2,1) twice after
    # tensoring with the standard u(2) weight (Pieri's rule)
    spec = case_spec("VII", k=2, n=1)
    tau = tau_spec(spec, u=(1, 0))
    v = classify(spec, tau, 5)
    assert v.multiplicity_found
    assert v.witness == CompositeLabel((0,), (u(2, 2, 1), sp(1)))
    assert v.witness_degree == 2
    inner = {r["omega"]["u_inner"] for r in v.routes}
    assert inner == {(2, 0), (1, 1)}
    assert verify_witness(spec, tau, v)


def test_classify_trivial_tau_always_free():
    grid = [
        case_spec("I", n=2),
        case_spec("II", k1=1, k2=1),
        case_spec("III", n=1),
        case_spec("IV", n=2),
        case_spec("V", n=3),
        case_spec("VI", n=3),
        case_spec("VII", k=2, n=1),
        case_spec("VIII", m=(3,), kn=((1, 0),)),
        case_spec("IX", n=2),
    ]
    for spec in grid:
        v = classify(spec, tau_spec(spec), 6)
        assert not v.multiplicity_found, spec


def test_classify_case_i_constant_partitions_free():
    for n in (2, 3):
        spec = case_spec("I", n=n)
        for a in (1, 2):
            for m in range(1, n + 1):
                tau = tau_spec(spec, sp=(a,) * m)
                assert not classify(spec, tau, 6).multiplicity_found, (n, a, m)


def test_deg_window():
    spec = case_spec("I", n=2)
    assert deg_window(spec, tau_spec(spec, sp=(2, 1))) == 7
    assert classify(spec, tau_spec(spec, sp=(2, 1))).degree_bound == 7
    # a character moves no witness degree, so the default window counts only
    # the character-free weights: these two rows run at the same degree
    spec = case_spec("VIII", m=(3,), kn=((2, 0),))
    a = classify(spec, tau_spec(spec, **{"u.1": (1, 0)}))
    b = classify(spec, tau_spec(spec, **{"s1.1": 2, "u.1": (1, 0)}))
    assert a.degree_bound == b.degree_bound == 5
    s1 = next(f.pos for f in factors(spec) if f.key == "s1.1")
    moved = [x + 2 * (i == s1) for i, x in enumerate(a.witness.torus)]
    assert list(b.witness.torus) == moved
    assert b.witness.ulabels == a.witness.ulabels


def test_expected_verdict_table():
    s1 = case_spec("I", n=2)
    assert expected_verdict(s1, tau_spec(s1, sp=(2, 2))).commutative
    assert expected_verdict(s1, tau_spec(s1, su2=(3,))).commutative
    assert not expected_verdict(s1, tau_spec(s1, sp=(2, 1))).commutative
    assert not expected_verdict(s1, tau_spec(s1, su2=(1,), sp=(1, 1))).commutative

    s3 = case_spec("III", n=2)
    assert expected_verdict(s3, tau_spec(s3)).commutative
    assert not expected_verdict(s3, tau_spec(s3, sp=(1,))).commutative

    s5 = case_spec("V", n=3)
    assert expected_verdict(s5, tau_spec(s5, s1=(4,))).commutative
    assert not expected_verdict(s5, tau_spec(s5, su=(1,))).commutative

    s7 = case_spec("VII", k=2, n=1)
    assert not expected_verdict(s7, tau_spec(s7, u=(2, 1))).commutative
    assert expected_verdict(s7, tau_spec(s7, u=(1, 1))).commutative
    s7k1 = case_spec("VII", k=1, n=1)
    assert expected_verdict(s7k1, tau_spec(s7k1, u=(3,))).commutative
    assert not expected_verdict(s7, tau_spec(s7, su2=(1,))).commutative
    assert not expected_verdict(s7, tau_spec(s7, sp=(1,))).commutative

    s8 = case_spec("VIII", m=(3,), kn=((1, 0),))
    assert expected_verdict(s8, tau_spec(s8, **{"s1.1": (3,), "u.1": (-2,)})).commutative
    assert not expected_verdict(s8, tau_spec(s8, **{"su.1": (1,)})).commutative
    s8k2 = case_spec("VIII", m=(3,), kn=((2, 0),))
    assert expected_verdict(s8k2, tau_spec(s8k2, **{"s1.1": (1,), "u.1": (-1, -1)})).commutative
    assert not expected_verdict(s8k2, tau_spec(s8k2, **{"u.1": (1, 0)})).commutative

    s9 = case_spec("IX", n=2)
    assert expected_verdict(s9, tau_spec(s9, u=(1, -1))).commutative


def test_expected_verdict_refuses_a_case_without_a_row():
    # the table has a row per family and none for the private II half: a
    # half must not pass as commutative, which would flag its witnesses as
    # contradictions
    for half, _ in blocks(case_spec("II", k1=1, k2=1)):
        assert half.case_id == "IIh"
        with pytest.raises(ValueError, match="IIh"):
            expected_verdict(half, tau_spec(half))


def test_cross_check_examples():
    s1 = case_spec("I", n=2)
    row = cross_check(s1, tau_spec(s1, su2=(2,)), 6)
    assert row.consistency == CONSISTENT and not row.verdict.multiplicity_found

    s5 = case_spec("V", n=3)
    row = cross_check(s5, tau_spec(s5, su=(1,)), 6)
    assert row.consistency == CONSISTENT and row.verdict.multiplicity_found

    s2 = case_spec("II", k1=1, k2=0)
    row = cross_check(s2, tau_spec(s2, su2a=(1,)), 4)
    assert row.consistency == CONSISTENT and row.verdict.multiplicity_found

    s8 = case_spec("VIII", m=(), kn=((2, 0),))
    row = cross_check(s8, tau_spec(s8, **{"u.1": (1, 0)}), 6)
    assert row.consistency == CONSISTENT and row.verdict.multiplicity_found

    # an artificially small window turns an expected witness into a gap
    row = cross_check(s5, tau_spec(s5, su=(1,)), 0)
    assert row.consistency == INCONCLUSIVE


def test_cross_check_contradiction_row(monkeypatch):
    s7 = case_spec("VII", k=2, n=0)
    tau = tau_spec(s7, u=(1, 0))
    assert cross_check(s7, tau, 5).consistency == CONSISTENT
    # a table that wrongly claims this known-witness triple commutative must
    # be reported as a contradiction
    monkeypatch.setattr(
        classify_mod, "expected_verdict", lambda spec, tau: ExpectedVerdict(True)
    )
    row = cross_check(s7, tau, 5)
    assert row.consistency == CONTRADICTION
    assert row.verdict.multiplicity_found
    assert verify_witness(s7, row.tau, row.verdict)


def test_sweep_case_i_consistent():
    spec = case_spec("I", n=2)
    rows = sweep(spec, 2, 6)
    assert all(r.consistency == CONSISTENT for r in rows)
    assert rows[0].tau.is_trivial


def test_sweep_case_ix_all_free():
    spec = case_spec("IX", n=2)
    rows = sweep(spec, 2, 6)
    for r in rows:
        assert r.consistency == CONSISTENT
        assert not r.verdict.multiplicity_found
        assert r.expected.commutative


def test_sweep_case_iv_nontrivial_all_found():
    spec = case_spec("IV", n=2)
    rows = sweep(spec, 1, 4)
    for r in rows:
        assert r.consistency == CONSISTENT
        assert r.verdict.multiplicity_found == (not r.tau.is_trivial)


def test_a_tau_for_another_spec_is_refused():
    # a tau names its factors by the spec it was built for: read against
    # another spec, a row was classified silently, or died on a missing
    # factor key; an equal spec built apart is the same spec
    vii, ix = case_spec("VII", k=1, n=0), case_spec("IX", n=1)
    tau = tau_spec(ix, u=(1,))
    i2, i3 = case_spec("I", n=2), case_spec("I", n=3)
    witness_tau = tau_spec(i2, su2=(1,), sp=(1,))
    verdict = classify(i2, witness_tau, 4)
    assert verdict.multiplicity_found
    refused = [
        lambda: classify(vii, tau, 4),
        lambda: cross_check(vii, tau, 4),
        lambda: expected_verdict(vii, tau),
        lambda: verify_witness(i3, witness_tau, verdict),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="tau is built for"):
            call()
    same = case_spec("IX", n=1)
    assert same is not ix and cross_check(same, tau, 4).consistency == CONSISTENT
    assert verify_witness(case_spec("I", n=2), witness_tau, verdict)


def test_witness_degree_within_default_window():
    # empirical bound behind the default truncation window: every witness on
    # the verification grid appears within the weight size of tau, without
    # its circle weights and determinant powers, plus 4
    from multfree.classify import default_grid

    for spec in default_grid():
        for row in sweep(spec, 1, 6):
            if row.verdict.multiplicity_found and row.consistency == CONSISTENT:
                size = row.tau.weight_size() - sum(
                    abs(c) * len(row.tau.label(f.key).weight)
                    for f, c in _tau_characters(spec, row.tau)
                )
                assert row.verdict.witness_degree <= size + 4, (spec, row.tau)


def test_sweep_viii_unitary_blocks_consistent():
    # default_grid() has no family VIII block with k >= 2, so the reference
    # sweep cannot see a fault in the u(k) condition of the VIII row
    for spec, bound, rows in (
        (case_spec("VIII", m=(), kn=((2, 0),)), 2, 24),
        (case_spec("VIII", m=(3,), kn=((2, 0),)), 1, 36),
    ):
        checked = sweep(spec, bound, 6)
        assert len(checked) == rows
        bad = [str(r.tau) for r in checked if r.consistency != CONSISTENT]
        assert not bad, (spec, bad)


def test_stress_grid_consistent():
    # the bound-3, degree-7 sweep of every default_grid() spec, read from the
    # golden rows that test_reference_golden.py checks against a fresh sweep
    with gzip.open(Path(__file__).parent / "data" / "stress_sweep.json.gz", "rt") as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == 2077
    bad = [(r["case"], r["params"], r["tau"]) for r in rows if r["consistency"] != CONSISTENT]
    assert not bad, bad[:5]


# shapes default_grid() leaves out: so(6) and so(8), su(4) blocks, u(3),
# VII with sp(2), II with k1 = 0 and VIII with a k >= 2 block
BEYOND_GRID_SPECS = (
    case_spec("I", n=4),
    case_spec("II", k1=2, k2=1),
    case_spec("II", k1=0, k2=2),
    case_spec("III", n=3),
    case_spec("IV", n=3),
    case_spec("IV", n=4),
    case_spec("V", n=4),
    case_spec("VI", n=4),
    case_spec("VII", k=3, n=0),
    case_spec("VII", k=3, n=2),
    case_spec("VII", k=2, n=2),
    case_spec("VIII", m=(3,), kn=((2, 1),)),
    case_spec("VIII", kn=((2, 0), (1, 1))),
    case_spec("IX", n=3),
    case_spec("IX", n=4),
)


def test_expected_verdict_ignores_characters():
    # the table reads circle weights and determinant powers of u(k) as
    # characters, on its own: every bound-2 row of the grid and the shapes
    # beyond it (2,596 of the 3,619 carry a character) gets the answer of
    # its row with those factors trivial
    rows = 0
    for spec in default_grid() + list(BEYOND_GRID_SPECS):
        for tau in tau_candidates(spec, 2):
            keys = {f.key for f, _ in _tau_characters(spec, tau)}
            kept = {k: tuple(w) for k, w in tau.to_json().items() if k not in keys}
            free = tau_spec(spec, **kept)
            assert expected_verdict(spec, tau) == expected_verdict(spec, free), (str(spec), str(tau))
            rows += free != tau
    assert rows == 2596


def test_beyond_grid_consistent():
    # the bound-2, degree-6 sweep of shapes outside default_grid(); a row that
    # is not CONSISTENT is a finding to derive, never a spec to drop
    rows = [row for spec in BEYOND_GRID_SPECS for row in sweep(spec, 2, 6)]
    assert len(rows) == 2972
    bad = [(str(r.spec), str(r.tau), r.consistency) for r in rows if r.consistency != CONSISTENT]
    assert not bad, bad[:5]


# rank ladders: the paper classifies every n, the grids stop at rank 4
RANK_LADDERS = {
    "I": range(1, 7),
    "III": range(1, 7),
    "IX": range(1, 7),
    "IV": range(2, 7),
    "V": range(3, 7),
    "VI": range(3, 7),
}


def test_rank_ladders_settle_the_witness_degree():
    # the bound-3, degree-7 sweep of each ladder is CONSISTENT, and the
    # witness degree of a tau depends only on its pattern, each weight with
    # its zero entries dropped, not on n.  IV has two exceptions.  At n = 2,
    # so(4) = su(2) x su(2) is not simple: so=(1,1) has witness degree 2
    # there, and 0 from n = 3 on.  And a weight with a_n != 0 is half of a
    # form, whose other half a_n -> -a_n is a distinct label only at that n:
    # so=(1,1,1) has witness degree 1 at n = 3, but (1,1,1,0,...) has degree
    # 0 for n >= 4.  So IV is compared from n = 3, on the weights whose last
    # entry is 0.  A pattern whose degree moves with n is a finding to
    # derive, never a rank to drop.
    for n, weight, degree in (
        (2, (1, 1), 2),
        (3, (1, 1, 0), 0),
        (3, (1, 1, 1), 1),
        (4, (1, 1, 1, 0), 0),
    ):
        spec = case_spec("IV", n=n)
        assert classify(spec, tau_spec(spec, so=weight), 7).witness_degree == degree, (n, weight)
    rows, patterns = 0, {}
    for cid, ranks in RANK_LADDERS.items():
        degrees = {}
        for n in ranks:
            spec = case_spec(cid, n=n)
            for row in sweep(spec, 3, 7):
                rows += 1
                assert row.consistency == CONSISTENT, (str(spec), str(row.tau))
                if cid == "IV" and (n == 2 or row.tau.label("so").weight[-1]):
                    continue
                pattern = tuple(tuple(x for x in lab.weight if x) for lab in row.tau.labels)
                degrees.setdefault(pattern, {})[n] = row.verdict.witness_degree
        moved = {p: d for p, d in degrees.items() if len(set(d.values())) > 1}
        assert not moved, (cid, moved)
        patterns[cid] = len(degrees)
    assert rows == 888
    assert patterns == {"I": 28, "III": 42, "IX": 18, "IV": 7, "V": 49, "VI": 49}


def test_frontier_sweep_decides_each_key_once(monkeypatch):
    # the decision memo has no bound, so a multi-block grid never decides a
    # key twice: the bound-1 sweep of the nine-factor frontier spec holds 96
    # distinct character-free rows, cut into 18 distinct block pieces, and
    # from an empty memo each of the 114 keys is cut and decided once
    calls = Counter()
    real = classify_mod.block_pieces

    def counted(spec, tau):
        calls[spec, tau] += 1
        return real(spec, tau)

    monkeypatch.setattr(classify_mod, "block_pieces", counted)
    classify_mod._decide.cache_clear()
    rows = sweep(FRONTIER_SPEC, 1, 6)
    assert len(rows) == 2592
    bad = [(str(r.tau), r.consistency) for r in rows if r.consistency != CONSISTENT]
    assert not bad, bad[:5]
    info = classify_mod._decide.cache_info()
    assert info.misses == info.currsize == 114
    assert sum(calls.values()) == len(calls) == 114
    assert sum(spec == FRONTIER_SPEC for spec, _ in calls) == 96


def test_tau_entries_have_distinct_torus_vectors():
    # tau_entries puts each torus factor's weight system, which folds equal
    # weights into one multiplicity, on coordinates that factor alone owns,
    # so no two entries of one tau share a torus vector: 3,619 rows of the
    # grid and the shapes beyond.  Route recovery filters product_terms and
    # does not rely on it
    for spec in default_grid() + list(BEYOND_GRID_SPECS):
        for tau in tau_candidates(spec, 2):
            tori = [te.torus for te in tau_entries(spec, tau)]
            assert len(set(tori)) == len(tori), (str(spec), str(tau))


def test_classify_is_the_submodule():
    import multfree

    assert multfree.classify is classify_mod
    assert callable(multfree.classify.verify_witness)
    assert callable(multfree.classify.classify)


def test_verdict_json():
    spec = case_spec("I", n=2)
    tau = tau_spec(spec, su2=(1,), sp=(1,))
    v = classify(spec, tau, 4)
    data = v.to_json()
    assert data["verdict"] == "MultiplicityFound"
    assert data["witness"] == {"torus": [1], "u": [{"family": "sp", "rank": 2, "weight": [1]}]}
    free = Verdict(False, 6)
    assert free.to_json() == {"verdict": "MultiplicityFreeUpTo", "degree": 6}


def _count_routes(monkeypatch):
    calls = []
    real = classify_mod.production_routes

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(classify_mod, "production_routes", counted)
    return calls


def test_sweep_recovers_no_routes(monkeypatch):
    # verdict, witness and witness degree come from the block scans alone
    calls = _count_routes(monkeypatch)
    rows = [row for spec in default_grid() for row in sweep(spec, 2, 6)]
    assert len(rows) == 647 and any(r.verdict.multiplicity_found for r in rows)
    assert calls == []


@pytest.mark.parametrize(
    "spec, weights, degree",
    [
        # the frontier row: four blocks, and tau weights on three of them
        (FRONTIER_SPEC, {"s1.1": 2, "u.1": (1, 0), "sp.1": (1,)}, 6),
        (case_spec("II", k1=2, k2=1), {"su2a": (1,), "spa": (1, 0), "su2b": (1,)}, 6),
    ],
    ids=str,
)
def test_multi_block_routes_read_only_block_series(monkeypatch, spec, weights, degree):
    # reading a II or VIII witness's routes and multiplicity builds no term
    # of the whole series: every omega series and product series drawn is a
    # block's
    tau = tau_spec(spec, **weights)
    v = classify(spec, tau, degree)
    assert v.multiplicity_found
    drawn = Counter()

    def counting(name, real):
        def wrapper(s, *args, **kwargs):
            drawn[name, s] += 1
            return real(s, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(cases_mod, "omega_entries", counting("omega", cases_mod.omega_entries))
    for mod in (cases_mod, classify_mod):
        monkeypatch.setattr(mod, "product_terms", counting("product", product_terms))
    routes, mult = v.routes, v.multiplicity
    assert mult >= 2 and routes
    blocks_of = {b for b, _ in blocks(spec)}
    assert {s for _, s in drawn} == blocks_of, drawn
    monkeypatch.undo()
    # the whole series, walked by verify_witness, agrees with the join
    assert verify_witness(spec, tau, v)


def test_witness_routes_are_recovered_once_on_first_read(monkeypatch):
    calls = _count_routes(monkeypatch)
    spec = case_spec("I", n=2)
    tau = tau_spec(spec, su2=(1,), sp=(1,))
    readers = (
        lambda v: v.multiplicity,
        lambda v: v.routes,
        lambda v: v.to_json(),
        str,
    )
    seen = None
    for order in itertools.permutations(readers):
        calls.clear()
        v = classify(spec, tau, 6)
        assert calls == []
        out = [read(v) for read in order for _ in range(2)]
        assert len(calls) == 1
        assert seen is None or sorted(map(repr, out)) == seen
        seen = sorted(map(repr, out))
    # one recovery fills both fields, whichever is read first
    for read in readers:
        v = classify(spec, tau, 6)
        read(v)
        assert not any(callable(v.__dict__[name]) for name in ("multiplicity", "routes"))
    eager = Verdict(True, 6, v.witness, v.multiplicity, v.witness_degree, v.routes)
    assert classify(spec, tau, 6) == eager and eager.multiplicity == 2
    assert dataclasses.replace(classify(spec, tau, 6)) == eager
    bumped = dataclasses.replace(classify(spec, tau, 6), multiplicity=3)
    assert (bumped.multiplicity, bumped.routes) == (3, eager.routes)
    # a copy of an unread verdict recovers on its own, once
    calls.clear()
    v = classify(spec, tau, 6)
    c = copy.copy(v)
    assert (c.routes, c.multiplicity, v.multiplicity, v.routes) == (eager.routes, 2, 2, eager.routes)
    assert len(calls) == 2


def test_unread_witness_verdicts_pickle(monkeypatch):
    # an unread verdict carries its deferred recovery through a pickle round
    # trip; the copy recovers on its own first read, once
    calls = _count_routes(monkeypatch)
    spec = case_spec("I", n=2)
    tau = tau_spec(spec, su2=(1,), sp=(1,))
    v = classify(spec, tau, 6)
    eager = Verdict(True, 6, v.witness, v.multiplicity, v.witness_degree, v.routes)
    calls.clear()
    unread = classify(spec, tau, 6)
    clone = pickle.loads(pickle.dumps(unread))
    assert calls == []
    assert clone == eager and (clone.multiplicity, clone.routes) == (2, eager.routes)
    assert len(calls) == 1
    assert callable(unread.__dict__["routes"])
    rows = sweep(spec, 2, 6)
    assert any(r.verdict.multiplicity_found for r in rows)
    assert pickle.loads(pickle.dumps(rows)) == rows


def test_sweep_reads_block_layouts_per_spec_not_per_row(monkeypatch):
    # cases.blocks is not memoised: the layout record (cases._layout) that
    # reads it is, per spec, so a sweep reads each spec's blocks once, never
    # per row; the layouts read are the swept specs' and, through the factors
    # of each block's piece of tau, their blocks'
    calls = Counter()
    real = cases_mod.blocks

    def counted(spec):
        calls[spec] += 1
        return real(spec)

    monkeypatch.setattr(cases_mod, "blocks", counted)
    memos = (cases_mod._layout, omega_entries, classify_mod._decide)
    for memo in memos:
        memo.cache_clear()
    rows = [row for spec in CHARACTER_SPECS for row in sweep(spec, 2, 6)]
    assert len(rows) == 1151
    swept = {b for spec in CHARACTER_SPECS for b, _ in real(spec)} | set(CHARACTER_SPECS)
    assert set(calls) == swept and max(calls.values()) == 1


def test_reference_sweep_decides_each_character_free_row_once(monkeypatch):
    # the 647 rows of the reference sweep hold 249 distinct (spec,
    # character-free tau, degree) keys, which with their block pieces make
    # 258 distinct decisions: each is cut into its blocks once and decided
    # once, from empty memos, and the 165 of them that are single blocks
    # each scan their series once; one layout record is built per swept
    # spec and one for the II half su(2) x sp(1), the one block that is not
    # a swept spec itself
    calls = Counter()
    real = classify_mod.block_pieces
    scans = Counter()
    real_terms = classify_mod.product_terms

    def counted(spec, tau):
        calls[spec, tau] += 1
        return real(spec, tau)

    def counted_terms(spec, tau, degree):
        scans[spec, tau, degree] += 1
        return real_terms(spec, tau, degree)

    monkeypatch.setattr(classify_mod, "block_pieces", counted)
    monkeypatch.setattr(classify_mod, "product_terms", counted_terms)
    memos = (cases_mod._layout, omega_entries, classify_mod._decide)
    for memo in memos:
        memo.cache_clear()
    irreps_mod.clear_caches()
    rows = [row for spec in default_grid() for row in sweep(spec, 2, 6)]
    assert len(rows) == 647
    assert sum(calls.values()) == len(calls) == 258
    info = classify_mod._decide.cache_info()
    assert info.misses == info.currsize == 258
    assert sum(scans.values()) == len(scans) == 165
    layouts = cases_mod._layout.cache_info()
    assert layouts.misses == layouts.currsize == len(default_grid()) + 1


def test_multiplicity_free_rows_share_one_verdict_per_degree():
    # every multiplicity-free row at one degree returns the same immutable
    # Verdict, and dataclasses.replace still makes an equal copy of it and
    # of its row; a row with no character is decided with tau itself
    spec, other = case_spec("IX", n=2), case_spec("I", n=2)
    a = cross_check(spec, tau_spec(spec, u=(1, 0)), 6)
    b = cross_check(other, tau_spec(other, sp=(1, 1)), 6)
    assert a.verdict is b.verdict == Verdict(False, 6)
    assert classify(spec, tau_spec(spec, u=(1, 0)), 7) == Verdict(False, 7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.verdict.degree_bound = 7
    for value in (a.verdict, a):
        copied = dataclasses.replace(value)
        assert copied == value and copied is not value
    tau = tau_spec(other, sp=(1,))
    assert classify_mod._split_characters(other, tau) == (tau, ())
    assert classify_mod._split_characters(other, tau)[0] is tau


def test_vii_u_condition_derivation():
    # independent of the reference table: the (1,1) term of the family VII
    # series is std (x) std in one complex picture and std (x) dual in the
    # other; tensored with a u(k) label mu it is multiplicity-free exactly
    # when mu is a determinant power
    for k in (2, 3):
        std = u(k, 1, *([0] * (k - 1)))
        dual = u(k, *([0] * (k - 1)), -1)
        for mu in factor_weights("u", k, 2):
            constant = len(set(mu)) == 1
            label = u(k, *mu)
            for other in (std, dual):
                free = decompose_product([std, other, label]).is_multiplicity_free()
                assert free == constant, (k, mu, other)
