"""The toric chain of blowup._chain against the generic step, and its closed form.

A toric centre (one object f with the single Newton edge y^p ... x^q,
every other term on or above it, and divisors on the axes only) resolves
by Euclid's algorithm on (p, q).  The reference is the engine with
blowup._toric patched to return None, so that every centre takes the
generic step (blowup._step); the two trees must agree node for node, in
engine order, with the number of points of each node, and so must the
typed errors.
"""

import math
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo1 import blowup
from delpezzo1.blowup import DEPTH_CAP, Q
from delpezzo1.errors import DelPezzoError, DepthExceededError
from delpezzo1.lct import germ_blowup_tree, lct_germ
from delpezzo1.numberfield import Element, NumberField
from tests.data.make_resolution_corpus import entry
from tests.test_resolution_corpus import LINES
from tests.test_small_scope import GERMS, _text


def _form(node):
    return [node.k, node.m, node.points, [_form(c) for c in node.children]]


def _outcome(call, *args):
    """The forms of the roots a call returns, or the name of the DelPezzoError it raises."""
    try:
        result = call(*args)
    except DelPezzoError as exc:
        return type(exc).__name__
    return [_form(r) for r in result] if isinstance(result, list) else (
        None if result is None else _form(result))


def _generic(call, *args):
    """call(*args) with every centre taken by the generic step."""
    toric = blowup._toric
    blowup._toric = lambda objects: None
    try:
        return call(*args)
    finally:
        blowup._toric = toric


@pytest.fixture
def chains(monkeypatch):
    """The number of toric chains entered, counted as the engine runs."""
    chain, entered = blowup._chain, []

    def counted(*args):
        entered.append(args[1:3])
        return chain(*args)

    monkeypatch.setattr(blowup, "_chain", counted)
    return entered


def test_the_small_scope_germs_resolve_as_by_the_generic_step(chains):
    wrong = [d for d in GERMS
             if _outcome(germ_blowup_tree, _text(d))
             != _generic(_outcome, germ_blowup_tree, _text(d))]
    assert not wrong, wrong[:5]
    assert len(chains) > 1000


def test_the_germ_rational_texts_resolve_as_by_the_generic_step(chains):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import corpus

    ops = list(islice(corpus.rational_ops(11), 5000))
    wrong = []
    for op in ops:
        now, reference = entry(op.kind, op.args), _generic(entry, op.kind, op.args)
        if now != reference:
            wrong.append((op, now, reference))
    assert not wrong, wrong[:3]
    assert len(chains) > 1000
    # y^2 = c x^b with b in 141..159 runs past the cap in the chain, as before
    deep = [op for op in ops if op.expect == "DepthExceededError"]
    assert deep and all(entry(op.kind, op.args)["error"] == "DepthExceededError" for op in deep)


def test_the_corpus_algebraic_group_resolves_as_by_the_generic_step(chains):
    algebraic = [line for line in LINES if line["group"] == "algebraic"]
    for line in algebraic:
        text = line["args"][0] if line["kind"] == "lct_germ" else line["args"][0][0][0]
        assert _outcome(germ_blowup_tree, text) == _generic(_outcome, germ_blowup_tree, text), text
    assert len(chains) >= len(algebraic)


def _quotient_sum(a, b):
    """The sum of the partial quotients of b/a: the nodes of the chain of y^a - x^b."""
    total = 0
    while a:
        total += b // a
        a, b = b % a, a
    return total


def test_a_binomial_threshold_is_its_closed_form_up_to_the_cap():
    wrong = []
    for a in range(2, 6):
        for b in range(a + 1, 257):
            if math.gcd(a, b) > 1:
                continue
            text = f"y^{a} - x^{b}"
            try:
                value = lct_germ(text)
            except DepthExceededError:
                value = "DepthExceededError"
            nodes = _quotient_sum(a, b)
            want = (min(Fraction(1), Fraction(1, a) + Fraction(1, b)) if nodes <= DEPTH_CAP
                    else "DepthExceededError")
            if value != want:
                wrong.append((text, nodes, value, want))
    assert not wrong, wrong[:5]
    assert lct_germ("y^2 - x^125") == Fraction(127, 250)
    assert lct_germ("y^5 - x^256") == Fraction(261, 1280)
    for text in ("y^2 - x^127", "y^3 - x^190"):
        with pytest.raises(DepthExceededError):
            lct_germ(text)


# the fields of a picture: Q, and Q[t]/(t^2 - a) for a non-square a
_FIELDS = [Q] + [NumberField((Fraction(-a), Fraction(0), Fraction(1)))
                 for a in (2, -2, 3, -1, Fraction(3, 2))]


@st.composite
def _pictures(draw):
    """A toric centre: (objects, K, depth), with f first and the axis divisors after it.

    f has the vertex terms y^p and x^q, p != q <= 40, up to three more
    terms on or above the edge between them, and up to two of the edge's
    inner lattice points, or all of them as a g-th power, g = gcd(p, q);
    it has weight 1 to 4, and each divisor a random (k, m).
    """
    K = draw(st.one_of(st.just(Q), st.sampled_from(_FIELDS[1:])))
    p, q = draw(st.tuples(st.integers(1, 40), st.integers(1, 40)).filter(
        lambda pq: pq[0] != pq[1]))
    above = st.tuples(st.integers(0, q + 2), st.integers(0, p + 2)).filter(
        lambda ab: ab[0] * p + ab[1] * q >= p * q)
    keys = {(0, p), (q, 0)} | draw(st.sets(above, max_size=3))
    g = math.gcd(p, q)  # the edge's inner lattice points, which the chain hands back
    inner = [(j * q // g, p - j * p // g) for j in range(1, g)]
    if inner:
        keys |= draw(st.sets(st.sampled_from(inner), max_size=2))
    one = 1 if K is Q else K.one
    coeff = st.integers(-5, 5).filter(bool)
    f = {key: draw(coeff) * (one if K is Q else Element(K, [1, draw(st.integers(-3, 3))]))
         for key in keys}
    if inner and draw(st.booleans()):  # the edge (y^(p/g) + r x^(q/g))^g, a g-fold root
        r = draw(coeff) * one
        f.update({(j * q // g, p - j * p // g): math.comb(g, j) * r**j for j in range(g + 1)})
    if K is Q:
        content = math.gcd(*f.values())
        f = {key: c // content for key, c in f.items()}
    axes = draw(st.permutations([(1, 0), (0, 1)]))[:draw(st.integers(0, 2))]
    divisors = [({axis: one}, draw(st.integers(1, 30)), draw(st.integers(1, 60)))
                for axis in axes]
    objects = [(f, 0, draw(st.integers(1, 4)))] + divisors
    return objects, K, draw(st.integers(0, DEPTH_CAP))


@settings(deadline=None, max_examples=300)
@given(_pictures())
def test_a_toric_picture_resolves_as_by_the_generic_step(picture):
    objects, K, depth = picture
    assert blowup._toric(objects) is not None
    assert _outcome(blowup._resolve, objects, K, depth) == _generic(
        _outcome, blowup._resolve, objects, K, depth)
