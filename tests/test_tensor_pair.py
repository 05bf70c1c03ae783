"""
The Brauer-Klimyk ``tensor_pair`` against the greedy reference oracle in
``reference_oracle``, and the hard errors of the rule.
"""

import json
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import multfree.irreps as irreps
from multfree.cases import factor_weights
from multfree.irreps import IrrepLabel, OracleError, dimension, so, sp, su, tensor_pair, u
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
