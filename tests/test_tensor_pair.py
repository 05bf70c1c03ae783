"""
The Brauer-Klimyk ``tensor_pair`` against the greedy reference oracle in
``reference_oracle``, and the hard errors of the rule.
"""

import itertools
import json
import math
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import multfree.irreps as irreps
from multfree.cases import factor_weights
from multfree.irreps import IrrepLabel, OracleError, circle, dimension, so, sp, su, tensor_pair, u
from multfree.laurent import LaurentPoly
from reference_oracle import reference_tensor_pair

DEMAND_PAIRS = Path(__file__).resolve().parents[1] / "bench" / "demand_pairs.json"
# the three `multfree tensor` examples of the README
README_PAIRS = [(sp(2, 2, 1), sp(2, 2)), (u(2, 1, 0), u(2, 1, 0)), (su(2, 1), su(2, 1))]


@contextmanager
def _cold_pair_memo():
    """Run with an empty pair memo, so every ``tensor_pair`` call computes;
    the character memo stays warm."""
    saved = irreps._PAIR_CACHE
    irreps._PAIR_CACHE = {}
    try:
        yield irreps._PAIR_CACHE
    finally:
        irreps._PAIR_CACHE = saved


def _cold(a, b):
    with _cold_pair_memo():
        return list(tensor_pair(a, b).items())


def test_tensor_pair_matches_reference_on_sweep_demand():
    data = json.loads(DEMAND_PAIRS.read_text())
    pairs = [
        (IrrepLabel(fam, rank, tuple(x)), IrrepLabel(fam, rank, tuple(y)))
        for fam, rank, x, y in data["pairs"]
    ]
    assert len(pairs) > 500
    with _cold_pair_memo():
        for a, b in pairs + README_PAIRS:
            got = list(tensor_pair(a, b).items())
            assert got == list(reference_tensor_pair(a, b).items()), (a, b)


GROUPS = [("sp", 1), ("sp", 2), ("sp", 3), ("u", 1), ("u", 2), ("u", 3)]
GROUPS += [("su", 2), ("su", 3), ("su", 4), ("so", 2), ("so", 3)]


@st.composite
def _pairs(draw):
    fam, rank = draw(st.sampled_from(GROUPS))
    weights = st.sampled_from(factor_weights(fam, rank, 3))
    return IrrepLabel(fam, rank, draw(weights)), IrrepLabel(fam, rank, draw(weights))


@settings(max_examples=80, deadline=None)
@given(_pairs())
@example((so(2, 1, -1), so(2, 1, 1)))
@example((so(3, 1, 1, -1), so(3, 1, 0, 0)))
@example((so(3, 2, 1, -1), so(3, 1, 1, 1)))
# the larger factor second: the rule must swap it out of the weight loop
@example((so(3, 1, 0, 0), so(3, 1, 1, -1)))
@example((sp(3, 1), sp(3, 2, 1)))
@example((su(4, 1), su(4, 2, 1)))
def test_brauer_klimyk_matches_reference(pair):
    a, b = pair
    got = _cold(a, b)
    assert got == list(reference_tensor_pair(a, b).items()), (a, b)
    assert _cold(b, a) == got, (a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        (sp(3, 1), sp(3, 2, 1)),
        (sp(3, 2, 1), sp(3, 1)),
        (su(4, 1), su(4, 2, 1)),
        (u(3, 1, 0, -1), u(3, 2, 1, 1)),
        (so(3, 1, 0, 0), so(3, 1, 1, -1)),
    ],
)
def test_tensor_pair_builds_only_the_smaller_character(monkeypatch, a, b):
    built = []
    original = irreps.weyl_character

    def recording(label):
        built.append(label)
        return original(label)

    monkeypatch.setattr(irreps, "weyl_character", recording)
    _cold(a, b)
    assert built == [min(a, b, key=dimension)]


@pytest.mark.parametrize(
    "stray, coeff",
    [
        ((0, 0), 1),  # adds a (2,1) the dimensions cannot account for
        ((1, 0), -2),  # drives the (3,1) coefficient to -1
    ],
)
def test_tensor_pair_rejects_a_corrupted_character(monkeypatch, stray, coeff):
    a, b = sp(2, 2, 1), sp(2, 1)
    original = irreps.weyl_character

    def corrupted(label):
        poly = original(label)
        return poly + LaurentPoly.monomial(stray, coeff) if label == b else poly

    monkeypatch.setattr(irreps, "weyl_character", corrupted)
    with _cold_pair_memo() as memo:
        with pytest.raises(OracleError, match="negative multiplicity|dimension leak"):
            tensor_pair(a, b)
        assert memo == {}


def _weyl_group(kind, n):
    """Every element of the Weyl group of a kind at rank n, as (perm, signs,
    det) acting by v -> (signs[i] * v[perm[i]]): all signed permutations,
    kept when they change no sign (A) or an even number of signs (D)."""
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        for signs in itertools.product((1, -1), repeat=n):
            minus = signs.count(-1)
            if (kind == "A" and minus) or (kind == "D" and minus % 2):
                continue
            yield perm, signs, (-1) ** (inversions + minus)


def _in_chamber(kind, v):
    """v is weakly decreasing, with v[-1] >= 0 (C) or v[-2] >= |v[-1]| (D)."""
    head = v[:-1] if kind == "D" else v
    if any(x < y for x, y in zip(head, head[1:])):
        return False
    return kind == "A" or (v[-1] >= 0 if kind == "C" else v[-2] >= abs(v[-1]))


@pytest.mark.parametrize(
    "kind, n",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("C", 1), ("C", 2), ("C", 3), ("D", 2), ("D", 3)],
)
def test_brauer_klimyk_reflection_matches_the_weyl_group(kind, n):
    # one weight v with rho = 0: the rule's only term is sign(w) at w(v), the
    # one point of v's orbit in the dominant chamber, and none when v lies on
    # a wall, that is when more than one w takes v there
    group = list(_weyl_group(kind, n))
    assert len(group) == {"A": math.factorial(n), "C": 2**n * math.factorial(n)}.get(
        kind, 2 ** (n - 1) * math.factorial(n)
    )
    zero, pairs = (0,) * n, tuple(itertools.combinations(range(n), 2))
    for v in itertools.product(range(-2, 3), repeat=n):
        images = [(tuple(s * v[p] for s, p in zip(signs, perm)), det) for perm, signs, det in group]
        landed = [(w, det) for w, det in images if _in_chamber(kind, w)]
        assert len({w for w, _ in landed}) == 1, (kind, v)
        want = {} if len(landed) > 1 else dict(landed)
        assert irreps._brauer_klimyk(kind, pairs, v, zero, [(zero, 1)]) == want, (kind, v)


def test_clear_caches_leaves_only_per_algebra_constants(monkeypatch):
    # the per-algebra record is the one lru_cache table of irreps; it outlives
    # clear_caches, so after it every pair is cold again and builds its
    # character anew; the record holds at most one entry per algebra met, and
    # new labels of the same algebras add none
    tables = {name: f for name, f in vars(irreps).items() if hasattr(f, "cache_info")}
    assert tables.keys() == {"_algebra"}
    for table in tables.values():
        table.cache_clear()
    original, built = irreps.weyl_character, []

    def counting(label):
        if label not in irreps._CHAR_CACHE:
            built.append(label)
        return original(label)

    monkeypatch.setattr(irreps, "weyl_character", counting)
    pairs = [
        (sp(2, 2, 1), sp(2, 1)),
        (su(3, 2), su(3, 1)),
        (u(2, 1, 0), u(2, 1, -1)),
        (so(3, 1, 1, 0), so(3, 1, 0, 0)),
        (circle(2), circle(-1)),
    ]
    others = [
        (sp(2, 3), sp(2, 1, 1)),
        (su(3, 3, 1), su(3, 2, 2)),
        (u(2, 2, -1), u(2, 0, 0)),
        (so(3, 2, 1, -1), so(3, 1, 1, 1)),
        (circle(4), circle(1)),
    ]
    algebras = {(a.family, a.rank) for a, _ in pairs}
    runs, sizes = [], []
    for batch in (pairs, pairs, others):
        irreps.clear_caches()
        built.clear()
        runs.append([tensor_pair(a, b) for a, b in batch])
        # on a tie of dimensions, b is the factor whose character is built
        assert built == [b if dimension(b) <= dimension(a) else a for a, b in batch]
        sizes.append({name: f.cache_info().currsize for name, f in tables.items()})
    assert runs[0] == runs[1]
    assert sizes[0] == sizes[1] == sizes[2]
    assert all(0 < size <= len(algebras) for size in sizes[0].values()), sizes[0]
