"""The engine against changes of coordinates, an oracle it does not share.

An automorphism of the plane that fixes the origin (GL2(Q), then
y -> y + c x^j or x -> x + c y^j) changes neither the threshold of a germ,
nor its class, nor the multiset of (k, m) over its minimal log resolution
(oracles.point_multiset), and a germ that is rejected stays rejected with
the same typed error; nor, moving every branch by the same map, the
threshold and the multiset of a weighted union of branches.  The move is computed in tests/oracles.py with plain
Fractions, and it moves points between the chart x = u, y = u v and the
origin of the chart x = u v, y = v, so it drives _strict2, _shift_y over Q
and over Q[t]/(g), and the line step of the engine.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo1.blowup import blowup_tree
from delpezzo1.errors import DelPezzoError, InvalidGermError
from delpezzo1.germs import CurveGerm, classify_germ
from delpezzo1.lct import _germs_of, germ_blowup_tree, lct_germ, lct_weighted_germs
from tests.oracles import change_coordinates, germ_text, point_multiset

CORPUS = Path(__file__).parent / "data" / "resolution_corpus.jsonl"
LINES = [json.loads(line) for line in CORPUS.open()][1:]


def _outcome(call, text):
    """call(text), or the name of the typed error it raises."""
    try:
        return call(text)
    except DelPezzoError as exc:
        return type(exc).__name__


def invariants(text: str) -> tuple:
    """The lct, the class and the (k, m) multiset of a germ, each or its typed error."""
    return (_outcome(lct_germ, text), _outcome(classify_germ, text),
            _outcome(lambda t: point_multiset(germ_blowup_tree(t)), text))


def random_change(rng: random.Random) -> tuple:
    """A matrix in GL2(Q) with small entries, and c, j for y -> y + c x^j."""
    while True:
        matrix = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        if matrix[0][0] * matrix[1][1] != matrix[0][1] * matrix[1][0]:
            break
    return matrix, Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(1, 3)


def _germs(group: str, degree: int) -> list[str]:
    """The distinct one-germ texts of a corpus group that parse, of degree at most degree."""
    texts = []
    for line in LINES:
        if line["group"] != group or line["kind"] not in ("lct_germ", "classify_germ"):
            continue
        try:
            d = CurveGerm(line["args"][0]).native_dict
        except InvalidGermError:
            continue
        if max(a + b for a, b in d) <= degree and line["args"][0] not in texts:
            texts.append(line["args"][0])
    return texts


TACNODES = _germs("algebraic", 9)  # (y^2 - a x^2)^2 - c x^k with a not a square
RATIONAL = _germs("rational", 10)[::3]


def test_the_tacnodes_have_real_and_non_real_tangents():
    # (y^2 - a x^2)^2 has x^2 y^2 coefficient -2a
    signs = {CurveGerm(t).native_dict[2, 2] < 0 for t in TACNODES}
    assert len(TACNODES) >= 40 and signs == {True, False}
    assert len(RATIONAL) >= 60


def _check(text: str, seed: int, variable: str = "y") -> None:
    matrix, c, j = random_change(random.Random(seed))
    moved = germ_text(change_coordinates(CurveGerm(text).native_dict, matrix, c, j, variable))
    assert invariants(moved) == invariants(text), (text, matrix, c, j, variable, moved)


@pytest.mark.parametrize("index", range(len(TACNODES)))
def test_a_tacnode_keeps_its_invariants_under_a_change_of_coordinates(index):
    _check(TACNODES[index], index)


@pytest.mark.parametrize("index", range(len(RATIONAL)))
def test_a_rational_germ_keeps_its_invariants_under_a_change_of_coordinates(index):
    _check(RATIONAL[index], 1000 + index)


@pytest.mark.parametrize("index", range(len(TACNODES + RATIONAL)))
def test_a_germ_keeps_its_invariants_when_x_moves_by_a_power_of_y(index):
    _check((TACNODES + RATIONAL)[index], 2000 + index, "x")


def test_a_tangent_moved_onto_the_chart_2_origin():
    # each germ is tangent to y = 0; x <-> y turns that direction into [0:1],
    # which y -> y + x^2 keeps, so the first chart-2 origin carries the germ
    for text in ("y^2 - x^3", "(y^2 - x^3)*(y^2 + x^3)", "y*(y - x^2)*(y + x^3)",
                 "(y - x^2)^2 - x^5", "y^3 - x^7"):
        moved = germ_text(change_coordinates(CurveGerm(text).native_dict, ((0, 1), (1, 0)),
                                             Fraction(1), 2))
        assert invariants(moved) == invariants(text), (text, moved)


# y^b + c x^a and up to three more monomials, so that most draws are reduced
small = st.integers(-4, 4).filter(bool)
exponents = st.tuples(st.integers(1, 6), st.integers(1, 5)).filter(lambda ab: sum(ab) >= 2)
germs = st.builds(lambda b, a, c, rest: {**rest, (0, b): 1, (a, 0): c},
                  st.integers(2, 5), st.integers(2, 7), small,
                  st.dictionaries(exponents, small, max_size=3))


@settings(deadline=None, max_examples=60)
@given(germs, st.integers(0, 2**32), st.sampled_from("yx"))
def test_a_sum_of_monomials_keeps_its_invariants_under_a_change_of_coordinates(d, seed, variable):
    text = germ_text(d)
    matrix, c, j = random_change(random.Random(seed))
    moved = germ_text(change_coordinates(d, matrix, c, j, variable))
    assert invariants(moved) == invariants(text), (text, matrix, c, j, variable, moved)


def union_invariants(branches: list) -> tuple:
    """The threshold and the (k, m) multiset of a weighted union, each or its typed error."""
    return (_outcome(lct_weighted_germs, branches),
            _outcome(lambda b: point_multiset(blowup_tree(
                [(g.nums, w) for g, w in _germs_of(b)])), branches))


# branches through the origin: lines, smooth curves tangent to them, nodes,
# cusps and a tacnode, so that a union has common tangents and contacts
BRANCHES = ["y", "x", "y - x", "y + 2*x", "y - x^2", "y + x^2", "x - y^3", "y^2 - x^3",
            "y^2 - x^5", "y^3 - x^4", "y^2 - x^2 - x^3", "(y - x^2)^2 - x^5",
            "(y^2 - 2*x^2)^2 - x^7", *RATIONAL[:6]]


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from(BRANCHES), min_size=2, max_size=3, unique=True),
       st.lists(st.integers(1, 4), min_size=3, max_size=3),
       st.integers(0, 2**32), st.sampled_from("yx"))
def test_a_weighted_union_keeps_its_invariants_when_every_branch_moves(texts, weights, seed,
                                                                      variable):
    matrix, c, j = random_change(random.Random(seed))
    union = list(zip(texts, weights))
    moved = [(germ_text(change_coordinates(CurveGerm(t).native_dict, matrix, c, j, variable)), w)
             for t, w in union]
    assert union_invariants(moved) == union_invariants(union), (union, matrix, c, j, variable)
