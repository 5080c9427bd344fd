import functools
import math
import time
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import QQ, Poly, Symbol

from delpezzo1 import bivariate, blowup, numberfield, univariate
from delpezzo1.blowup import (
    Q,
    BlowupNode,
    _cluster_point,
    _factor_on_line,
    _line_clusters,
    _shift_y,
    _strict1,
    _strict2,
    blowup_tree,
    lct_of_branches,
    multiplicity,
)
from delpezzo1.errors import DelPezzoError, DepthExceededError, InvalidGermError
from delpezzo1.germs import CurveGerm
from delpezzo1.lct import germ_blowup_tree, lct_germ, lct_weighted_germs
from delpezzo1.numberfield import Element, NumberField
from tests.data.make_resolution_corpus import canonical_form, engine_form, entry
from tests.test_numberfield import candidates, watch_towers
from tests.test_resolution_corpus import LINES


def nd(text):
    return CurveGerm(text).native_dict


def test_strict_transform_charts():
    cusp = nd("y^2 - x^3")
    assert _strict1(cusp, 2) == nd("y^2 - x")  # v^2 - u up to renaming
    assert _strict2(cusp, 2) == {(0, 0): QQ(1), (3, 1): QQ(-1)}


def _shifted_primitive(d, r):
    """The oracle: f(x, y + r) by Fraction substitution, made a primitive dict of ints."""
    out = {}
    for (a, b), c in d.items():
        for j in range(b + 1):
            out[a, j] = out.get((a, j), 0) + c * math.comb(b, j) * Fraction(r) ** (b - j)
    out = {k: c for k, c in out.items() if c}
    nums, _ = univariate.integral(list(out.values()))
    g = math.gcd(*nums)
    return {k: n // g for k, n in zip(out, nums)}


def test_shift_y_exact():
    # over Q an object is a primitive dict of ints, and so is its shift:
    # (y + 3)^2 - x = y^2 + 6y + 9 - x, and (y + 1/2)^2 - x times 4
    f = {(0, 2): 1, (1, 0): -1}
    assert _shift_y(f, Fraction(3), Q) == {(0, 2): 1, (0, 1): 6, (0, 0): 9, (1, 0): -1}
    assert _shift_y(f, Fraction(1, 2), Q) == {(0, 2): 4, (0, 1): 4, (0, 0): 1, (1, 0): -4}
    assert _shift_y({(1, 1): 1}, Fraction(0), Q) == {(1, 1): 1}
    d = {(0, 3): 6, (1, 1): -4, (2, 0): 9, (1, 2): 3}
    for r in (Fraction(3), Fraction(1, 2), Fraction(-5, 6)):
        assert _shift_y(d, r, Q) == _shifted_primitive(d, r)
    # rationals shifted by theta in Q[t]/(t^2 - 2) become elements, as the
    # rationals embedded first do: the engine maps no coefficient from Q
    K = NumberField((Fraction(-2), Fraction(0), Fraction(1)))
    d = nd("y^3 - 2*x*y^2 + x^2*y/3 - 5*x^4 + 7*x*y")
    theta = K.gen * Fraction(3, 2) - 1
    shifted = _shift_y(d, theta, K)
    assert shifted == _shift_y({key: K.convert(c) for key, c in d.items()}, theta, K)
    assert all(type(c) is Element for c in shifted.values())
    # (y + theta)^3 = y^3 + 3 theta y^2 + 3 theta^2 y + theta^3
    assert [shifted[0, j] for j in range(4)] == [theta**3, 3 * theta**2, 3 * theta, K.one]


_small = st.integers(-30, 30).filter(bool)


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 5)), _small,
                       min_size=1, max_size=8),
       st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40)))
def test_shift_y_over_q_is_the_primitive_multiple_of_the_substitution(d, r):
    g = math.gcd(*d.values())
    d = {k: c // g for k, c in d.items()}  # primitive, as every object over Q
    shifted = _shift_y(d, r, Q)
    assert shifted == _shifted_primitive(d, r)
    assert all(type(c) is int for c in shifted.values())


def test_cluster_keys_over_q_are_fractions(monkeypatch):
    # the objects over Q are integral, and a key is the monic factor over Q:
    # Fraction(a, b), where a / b of two ints would be a float
    clusters, keys = blowup._line_clusters, []

    def checked(lines, K):
        found = clusters(lines, K)
        if K is Q:
            assert all(type(c) is int for ud in lines for c in ud.values())
            keys.extend(found)
        return found

    monkeypatch.setattr(blowup, "_line_clusters", checked)
    # every centre by the generic line step: a toric chain finds no clusters
    monkeypatch.setattr(blowup, "_toric", lambda objects: None)
    for line in LINES:
        if line["group"] == "rational":
            assert entry(line["kind"], line["args"]) == {
                k: v for k, v in line.items() if k != "group"}
    assert len(keys) > 500
    assert all(type(p) is tuple and all(type(c) is Fraction for c in p) for p in keys)


def _line_of(*factors):
    """A restriction as the engine builds it over Q: the product of int factors, as a dict."""
    return dict(enumerate(univariate.trim(reduce(univariate.mul, factors))))


def test_cluster_keys_over_q_are_the_fractions_of_the_monic_factors():
    # each line holds its repeated factor twice: the gcds run in Z[v], and
    # the keys are the monic factors over Q, with Fraction coefficients
    F = Fraction
    cases = [
        ([-2, 3], {(F(-2, 3), F(1)): [0]}),  # a linear cluster, 3v - 2
        ([-4, 5, 6], {(F(-1, 2), F(1)): [0], (F(4, 3), F(1)): [0]}),  # (2v - 1)(3v + 4)
        ([-3, 0, 5], {(F(-3, 5), F(0), F(1)): [0]}),  # irreducible, 5v^2 - 3
    ]
    for repeated, keys in cases:
        found = _line_clusters([_line_of(repeated, repeated, [7, 1])], Q)
        assert found == keys
        assert all(type(c) is Fraction for p in found for c in p)


def test_a_product_of_128_rational_lines_resolves_in_seconds():
    # lines of slopes p/q, 0 < q <= 10, |p| <= 12: the restriction to the
    # first exceptional line has coefficients of 377 bits.  Its gcd with its
    # derivative takes minutes by Euclid over Q in Fractions, and
    # milliseconds in Z[v]
    slopes = sorted({Fraction(p, q) for q in range(1, 11) for p in range(-12, 13)})[:128]
    text = "*".join(f"({r.denominator}*y - {r.numerator}*x)" for r in slopes)
    start = time.perf_counter()
    assert lct_germ(text) == Fraction(2, 128)
    assert time.perf_counter() - start < 10


def test_multiplicity_helper():
    assert multiplicity(nd("x + y^2")) == 1
    assert multiplicity(nd("x*y*(x+y)")) == 3


def test_cusp_tree_bookkeeping():
    (root,) = blowup_tree([(nd("y^2 - x^3"), 1)])
    chain = [root]
    while chain[-1].children:
        (child,) = chain[-1].children
        chain.append(child)
    assert [(n.k, n.m) for n in chain] == [(1, 2), (2, 3), (4, 6)]
    assert [n.ratio for n in chain] == [Fraction(1), Fraction(1), Fraction(5, 6)]


def test_smooth_branch_has_empty_tree():
    assert blowup_tree([(nd("x"), 1)]) == []
    assert blowup_tree([(nd("x*y"), 1)]) == []  # node is already SNC


def test_weighted_node():
    # transverse branches of weights 2 and 3: threshold 1/3, no blowup needed
    assert lct_of_branches([(nd("x"), 2), (nd("y"), 3)]) == Fraction(1, 3)


def test_weighted_tangency():
    # tangential contact with weights 1,1 gives 3/4; heavier weights scale it down
    assert lct_of_branches([(nd("y"), 1), (nd("y - x^2"), 1)]) == Fraction(3, 4)
    assert lct_of_branches([(nd("y"), 2), (nd("y - x^2"), 1)]) == Fraction(1, 2)


def test_irrational_cluster_resolves_in_extension():
    # (y^2 - 2x^2)^2 = x^6 has two conjugate tacnodal directions at slope
    # +-sqrt(2); the engine must extend to Q(sqrt 2) to separate them
    assert lct_of_branches([(nd("(y^2 - 2*x^2)^2 - x^6"), 1)]) == Fraction(1, 2)


def test_terminal_shortcut_avoids_extension():
    # y^2 = 2 x^4: branches split at +-sqrt(2) v^2 but each crossing is simple,
    # so no extension is needed; value matches the quasi-homogeneous formula
    assert lct_of_branches([(nd("y^2 - 2*x^4"), 1)]) == Fraction(3, 4)


# -- the threshold's minimum, compared in integers, against Fractions -------


def _ratios(branches, roots):
    """The reference's candidates: each 1/w and each (k + 1)/m, as Fractions."""
    return [Fraction(1, w) for _, w in branches] + [n.ratio for r in roots for n in r.walk()]


def _pinned_roots(tree):
    return [BlowupNode(k, m, _pinned_roots(children)) for k, m, children in tree]


def test_lct_of_branches_is_the_fraction_minimum_over_the_corpus_trees(monkeypatch):
    # each pinned tree stands in for the engine's, so that only the minimum runs
    checked = 0
    for line in LINES:
        if line["kind"] not in ("lct_germ", "lct_weighted_germs") or "value" not in line:
            continue
        germs = [line["args"][0]] if line["kind"] == "lct_germ" else line["args"][0]
        branches = [(CurveGerm(g).nums, 1) if isinstance(g, str) else (CurveGerm(g[0]).nums, g[1])
                    for g in germs]
        roots = _pinned_roots(line["tree"])
        monkeypatch.setattr(blowup, "blowup_tree", lambda _, roots=roots: roots)
        value = lct_of_branches(branches)
        assert value == min(_ratios(branches, roots)) == Fraction(line["value"]), line
        assert type(value) is Fraction
        checked += 1
    assert checked > 300


_COPRIME = ["x", "y", "y - x", "y + 2*x", "y - x^2", "y + x^2", "y^2 - x^3", "y^2 - 2*x^4",
            "x^2 - y^5", "y - x^3"]


@settings(deadline=None, max_examples=150)
@given(st.lists(st.sampled_from(_COPRIME), min_size=1, max_size=4, unique=True),
       st.lists(st.integers(1, 4), min_size=4, max_size=4))
def test_lct_of_branches_is_the_fraction_minimum_of_weighted_unions(germs, weights):
    branches = [(nd(g), w) for g, w in zip(germs, weights)]
    assert lct_of_branches(branches) == min(_ratios(branches, blowup_tree(branches)))


@pytest.mark.parametrize("branches, value", [
    ([("x", 2), ("y", 2)], Fraction(1, 2)),  # 1/w twice, no blowup
    ([("x", 2), ("y", 1), ("y - x", 1)], Fraction(1, 2)),  # 1/w and 2/m
    ([("x", 3), ("y", 2), ("y - x", 1)], Fraction(1, 3)),
    ([("y^2 - x^3", 1)], Fraction(5, 6)),  # (k + 1)/m = 1 twice above the least
])
def test_lct_of_branches_keeps_the_value_of_a_tie(branches, value):
    branches = [(nd(g), w) for g, w in branches]
    ratios = _ratios(branches, blowup_tree(branches))
    assert lct_of_branches(branches) == min(ratios) == value
    assert len(set(ratios)) < len(ratios)


def test_extend_tower_finds_exact_root():
    # over K = Q[t]/(t^2 - 2), T^2 + t has a root theta in a field L of
    # degree 4, an engine NumberField again, into which K maps
    K = NumberField((Fraction(-2), Fraction(0), Fraction(1)))
    p = (K.gen, K.zero, K.one)  # T^2 + t, constant term first
    theta, L, conv = K.extend(p)
    assert isinstance(L, NumberField) and L.degree == 4 and L.modulus[-1] == 1
    assert theta.field is L
    assert not sum((conv(c) * theta**i for i, c in enumerate(p)), L.zero)
    assert conv(K.gen) ** 2 == L.one * 2 and theta**4 == L.one * 2


def test_imaginary_tangent_directions():
    # tangent cone (y^2 + 2x^2)^2 has no rational (or real) roots, so the
    # second blowup lives over Q(sqrt(-2)); combinatorics match the real twin
    assert lct_of_branches([(nd("(y^2 + 2*x^2)^2 - x^6"), 1)]) == Fraction(1, 2)


def test_cluster_point_rational():
    # the key of v - 1/2 is (-1/2, 1)
    theta, K2, conv = _cluster_point((Fraction(-1, 2), Fraction(1)), Q)
    assert K2 is Q and theta == Fraction(1, 2)


def test_depth_cap():
    with pytest.raises(DepthExceededError):
        lct_of_branches([(nd("y^2 - x^141"), 1)])


def test_input_validation():
    with pytest.raises(InvalidGermError):
        lct_of_branches([])
    with pytest.raises(InvalidGermError):
        lct_of_branches([({}, 1)])
    with pytest.raises(InvalidGermError):
        lct_of_branches([({(0, 0): QQ(1), (1, 0): QQ(1)}, 1)])
    with pytest.raises(InvalidGermError):
        lct_of_branches([(nd("x"), 0)])


@pytest.mark.parametrize("weight", [True, False, 1.0, Fraction(2)])
def test_weights_must_be_integers_and_not_bools(weight):
    # bool is an int subclass; True must not pass as the weight 1
    with pytest.raises(InvalidGermError):
        lct_of_branches([(nd("y"), weight)])
    with pytest.raises(InvalidGermError):
        lct_weighted_germs([("y", weight)])


# -- line factorisation: the squarefree part of a line, against factor_list --
#
# The engine factors only a squarefree part prime to v, over Q or over a
# number field K; sympy's factor_list over the same field (over K's sympy
# image) is the oracle.  The lines over K are built in the engine's form,
# elements of K, and a sparse one is padded with int zeros.

V = Symbol("_v")
SQRT2 = NumberField((Fraction(-2), Fraction(0), Fraction(1)))
GAUSS = NumberField((Fraction(1), Fraction(0), Fraction(1)))
# (field, its generator) for Q, Q[t]/(t^2 - 2) and Q[t]/(t^2 + 1)
FIELDS = [(Q, None), (SQRT2, SQRT2.gen), (GAUSS, GAUSS.gen)]
_fields = st.sampled_from(FIELDS)


def _element(field, a, b=0, den=1):
    """(a + b gen)/den as the engine holds it: a Fraction over Q, else an element of K."""
    K, gen = field
    return Fraction(a, den) if K is Q else K.one * Fraction(a, den) + gen * Fraction(b, den)


def _domain(K):
    """The sympy domain of a field of the engine."""
    return QQ if K is Q else K.sympy_field


def _sympy_element(c, K):
    return QQ(c.numerator, c.denominator) if K is Q else K.to_anp(c)


def _poly(coeffs, K):
    """A sympy Poly over K from engine elements, constant term first."""
    return Poly([_sympy_element(c, K) for c in reversed(coeffs)], V, domain=_domain(K))


def _line(poly, K=Q):
    """A univariate dict as the engine builds it: integral over Q, else elements of K."""
    items = poly.as_dict(native=True).items()
    if K is not Q:
        return {b: K.from_anp(c) for (b,), c in items}
    return dict(zip((b for (b,), _ in items), univariate.integral([c for _, c in items])[0]))


def _sympy_factors(ud, K=Q):
    """The oracle: factor_list over K, as {monic coefficients, constant first: multiplicity}."""
    p = Poly.from_dict({(b,): _sympy_element(c, K) for b, c in ud.items() if c}, V,
                       domain=_domain(K))
    return {tuple(reversed(f.monic().all_coeffs())): e
            for f, e in p.factor_list()[1] if f.degree() >= 1}


def _key_coeffs(p, K=Q):
    """A cluster key, the monic factor's coefficients constant term first, as sympy numbers."""
    return tuple(sympy.Rational(c.numerator, c.denominator) if K is Q
                 else K.sympy_field.to_sympy(K.to_anp(c)) for c in p)


def _assert_keys_typed(keys, K):
    """Each key is a monic dense tuple of elements of K, Fractions over Q."""
    for p in keys:
        assert len(p) >= 2 and p[-1] == K.one
        assert all(type(c) is type(K.one) for c in p)


def _check_against_sympy(p, K=Q):
    keys = _factor_on_line(p, K)
    _assert_keys_typed(keys, K)
    found = [_key_coeffs(key, K) for key in keys]
    assert len(set(found)) == len(found)
    assert dict.fromkeys(found, 1) == _sympy_factors(dict(enumerate(p)), K)


_nonzero = st.integers(-9, 9).filter(bool)
_scalar = st.builds(Fraction, _nonzero, st.integers(1, 9))


# Q[t]/(t^2 - 2), a modulus with a denominator, t^2 + t + 3/2, and a cubic
_SHIFT_FIELDS = [SQRT2, NumberField((Fraction(3, 2), Fraction(1), Fraction(1))),
                 NumberField((Fraction(-2), Fraction(0), Fraction(0), Fraction(1)))]


def _shifted_by_elements(d, theta, K):
    """y -> y + theta term by term in element arithmetic: the reference for _shift_y over K."""
    out = {}
    for (a, b), c in d.items():
        for j in range(b + 1):
            out[a, j] = out.get((a, j), K.zero) + K.one * c * math.comb(b, j) * theta ** (b - j)
    return {key: c for key, c in out.items() if c}


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(_SHIFT_FIELDS), st.data())
def test_shift_y_over_a_number_field_agrees_with_element_arithmetic(K, data):
    # coefficients of all three kinds the engine hands over, on mixed denominators
    def element():
        den = data.draw(st.integers(1, 6))
        return Element(K, [Fraction(data.draw(st.integers(-9, 9)), den) for _ in range(K.degree)])

    kinds = {"int": lambda: data.draw(st.integers(-9, 9)), "fraction": lambda: data.draw(_scalar),
             "element": element}
    keys = data.draw(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 4)), min_size=1,
                             max_size=6))
    d = {key: c for key in keys if (c := kinds[data.draw(st.sampled_from(sorted(kinds)))]())}
    theta = element()
    assume(d and theta)
    shifted = _shift_y(d, theta, K)
    assert shifted == _shifted_by_elements(d, theta, K)
    assert all(type(c) is Element for c in shifted.values())


# fields of degree 2 to 4: t^4 - 2, and (t^4 - 10 t^2 + 1) at t -> 2t, whose
# modulus t^4 - 5/2 t^2 + 1/16 has denominators
_QUARTICS = [NumberField((Fraction(-2), Fraction(0), Fraction(0), Fraction(0), Fraction(1))),
             NumberField((Fraction(1, 16), Fraction(0), Fraction(-5, 2), Fraction(0),
                          Fraction(1)))]


@functools.cache
def _tower_shifts():
    """(d, theta, K) of every shift over a tower that the two cusp-product fixtures make."""
    calls, shift = [], blowup._shift_y

    def recorded(d, theta, K):
        if K is not Q and K.degree > 2:
            calls.append((d, theta, K))
        return shift(d, theta, K)

    blowup._shift_y = recorded
    try:
        for text in (CUSP_PRODUCT, CONJUGATE_CUSPS):
            germ_blowup_tree(text)
    finally:
        blowup._shift_y = shift
    return calls


def test_shift_y_over_the_corpus_towers_agrees_with_element_arithmetic():
    calls = _tower_shifts()
    assert {K.degree for _, _, K in calls} == {4}
    for d, theta, K in calls:
        shifted = _shift_y(d, theta, K)
        if theta:
            assert shifted == _shifted_by_elements(d, theta, K)
        else:
            assert shifted == d and shifted is not d


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_shift_y_at_zero_at_t_and_anywhere_agrees_with_element_arithmetic(data):
    K = data.draw(st.sampled_from(_SHIFT_FIELDS + _QUARTICS + [K for _, _, K in _tower_shifts()]))

    def element():
        den = data.draw(st.integers(1, 6))
        return Element(K, [Fraction(data.draw(st.integers(-9, 9)), den) for _ in range(K.degree)])

    kinds = [lambda: data.draw(st.integers(-9, 9)), lambda: data.draw(_scalar), element]
    keys = data.draw(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 5)), min_size=1,
                             max_size=6))
    d = {key: c for key in keys if (c := data.draw(st.sampled_from(kinds))())}
    assume(d)
    # the dense theta = 1/3 - 2t + 5/7 t^2 + t^3, whose powers in a quartic
    # field pass the field's degree before the one reduction of each sum
    dense = Element(K, [Fraction(1, 3), Fraction(-2), Fraction(5, 7), Fraction(1)])
    theta = data.draw(st.sampled_from([K.zero, K.gen, K.gen * -3, dense, "random"]))
    theta = element() if theta == "random" else theta
    shifted = _shift_y(d, theta, K)
    if theta:
        assert shifted == _shifted_by_elements(d, theta, K)
        assert all(type(c) is Element for c in shifted.values())
    else:
        assert shifted == d and shifted is not d


@settings(deadline=None, max_examples=150)
@given(_fields, _scalar, _nonzero, _nonzero, st.integers(-9, 9), st.integers(1, 9))
def test_factor_on_line_peels_a_linear_remainder_exactly(field, c, a, b, b_gen, den):
    # c (a v + (b + b_gen gen)/den), read off without sympy over every field
    _check_against_sympy([_element(field, b, b_gen, den) * c, _element(field, a) * c], field[0])


_coefficient = st.tuples(st.integers(-4, 4), st.integers(-2, 2))
_factor = st.lists(_coefficient, min_size=2, max_size=4).filter(
    lambda cs: cs[0][0] and cs[-1][0])


@settings(deadline=None, max_examples=150)
@given(_fields, _scalar, st.lists(st.tuples(_factor, st.integers(1, 3)), min_size=1, max_size=3))
def test_factor_on_line_agrees_with_sympy_on_higher_degree_lines(field, c, factors):
    # c times the squarefree part of a product of factors prime to v
    K = field[0]
    poly = _poly([Fraction(1)], K)
    for coeffs, e in factors:
        poly *= _poly([_element(field, a, b) for a, b in coeffs], K) ** e
    part = _line(poly.sqf_part(), K)
    _check_against_sympy(univariate.from_dict({b: x * c for b, x in part.items()}), K)


_quadratic = st.tuples(_nonzero, st.integers(-12, 12), _nonzero)


@settings(deadline=None, max_examples=150)
@given(_scalar, _quadratic, st.sampled_from([1, 4, 9, 25]))
def test_factor_on_line_splits_a_quadratic_by_its_discriminant(c, abc, den):
    # a v^2 + b v + c0 over den, squarefree: rational roots exactly when
    # b^2 - 4 a c0 is a square, else one irreducible key
    a, b, c0 = abc
    assume(b * b != 4 * a * c0)
    _check_against_sympy([c * Fraction(x, den) for x in (c0, b, a)])


def test_factor_on_line_quadratic_cases():
    assert _factor_on_line([Fraction(2), Fraction(-3), Fraction(1)], Q) == [(-1, 1), (-2, 1)]
    (p,) = _factor_on_line([Fraction(-2), 0, Fraction(1)], Q)
    assert p == (-2, 0, 1) and _key_coeffs(p) == (-2, 0, 1)
    (p,) = _factor_on_line([Fraction(3), 0, Fraction(6)], Q)
    assert p == (Fraction(1, 2), 0, 1) and all(type(c) is Fraction for c in p)
    # over Q(sqrt 2), v^2 - 2 splits into v - sqrt 2 and v + sqrt 2
    (K, root2), (G, i) = FIELDS[1:]
    assert set(_factor_on_line([K.one * -2, 0, K.one], K)) == {(-root2, K.one), (root2, K.one)}
    # over Q(i), v^2 + 1 splits and v^2 - 2 does not
    assert set(_factor_on_line([G.one, 0, G.one], G)) == {(-i, G.one), (i, G.one)}
    assert _factor_on_line([G.one * -2, 0, G.one], G) == [(G.one * -2, G.zero, G.one)]


def test_factor_on_line_keeps_constants_out():
    for K, _ in FIELDS:
        assert _factor_on_line([], K) == []
        assert _factor_on_line([K.one * 3], K) == []
    assert _factor_on_line([Fraction(2), Fraction(4)], Q) == [(Fraction(1, 2), 1)]


def test_cluster_found_by_both_routes_is_one_cluster():
    # y = x is split off exactly, (y - x - x^2)(y^2 - 2x^2) goes through sympy;
    # both give the point v = 1 on the first exceptional line, where y = x,
    # y = x + x^2 and that line form a triple point: a second blowup with
    # k = 2 and m = w + 1 + (w + 3).  Had the routes given two keys, each
    # branch would cross the line alone and no second blowup would happen.
    line, rest = nd("y - x"), nd("(y - x - x^2)*(y^2 - 2*x^2)")
    (root,) = blowup_tree([(line, 1), (rest, 1)])
    assert (root.k, root.m) == (1, 4)
    assert [(c.k, c.m, c.children) for c in root.children] == [(2, 6, [])]
    for w in range(1, 5):
        closed_form = min(Fraction(1, w), Fraction(2, w + 3), Fraction(3, 2 * w + 4))
        assert lct_of_branches([(line, w), (rest, 1)]) == closed_form


# Siblings are blown up in (degree, coefficients) order of their keys, so the
# point v = 3 (key (-3, 1)) comes before v = 1, and v^2 - 3 before v^2 - 2.
# The canonical tree and the lct do not depend on that order, so they are
# pinned beside the engine-order tree.
_SIBLING_ORDER = [
    ("((y-x)^2-x^3)*((y-3*x)^2-x^5)", Fraction(1, 2),
     [1, 4, [[2, 6, [[3, 7, [[6, 14, []]]]]], [2, 5, [[4, 10, []]]]]],
     [1, 4, [[2, 5, [[4, 10, []]]], [2, 6, [[3, 7, [[6, 14, []]]]]]]]),
    ("((y-x/2)^2-x^3)*((y+2*x)^2-x^5)", Fraction(1, 2),
     [1, 4, [[2, 5, [[4, 10, []]]], [2, 6, [[3, 7, [[6, 14, []]]]]]]],
     [1, 4, [[2, 5, [[4, 10, []]]], [2, 6, [[3, 7, [[6, 14, []]]]]]]]),
    ("((y^2-2*x^2)^2-x^7)*((y^2-3*x^2)^2-x^9)", Fraction(1, 4),
     [1, 8, [[2, 10, [[3, 12, [[4, 13, [[8, 26, []]]]]]]], [2, 10, [[3, 11, [[6, 22, []]]]]]]],
     [1, 8, [[2, 10, [[3, 11, [[6, 22, []]]]]], [2, 10, [[3, 12, [[4, 13, [[8, 26, []]]]]]]]]]),
]


@pytest.mark.parametrize("text, lct, engine, canonical", _SIBLING_ORDER,
                         ids=[t for t, *_ in _SIBLING_ORDER])
def test_siblings_are_blown_up_in_key_order(text, lct, engine, canonical):
    (root,) = germ_blowup_tree(text)
    assert engine_form(root) == engine
    assert canonical_form(root) == canonical
    assert lct_germ(text) == lct


def test_coefficients_are_taken_as_fractions():
    assert lct_of_branches([({(0, 2): 1, (3, 0): -1}, 1)]) == Fraction(5, 6)
    assert lct_of_branches([({(0, 2): Fraction(1, 2), (3, 0): QQ(-7, 3)}, 1)]) == Fraction(5, 6)
    with pytest.raises(InvalidGermError):
        lct_of_branches([({(0, 2): 0.5, (3, 0): -1}, 1)])


# -- the line step over Q and over K against factor_list and the skip rule ---


def _oracle_clusters(lines, K):
    """Every line factored by sympy; a cluster one line crosses simply is skipped."""
    clusters = {}
    for i, ud in enumerate(lines):
        for key, e in _sympy_factors(ud, K).items():
            clusters.setdefault(key, []).append((i, e))
    return {p: [i for i, _ in t] for p, t in clusters.items() if len(t) > 1 or t[0][1] > 1}


_linear_or_quadratic = st.lists(_coefficient, min_size=2, max_size=3).filter(lambda cs: cs[-1][0])
_object = st.tuples(
    _scalar, st.integers(0, 3),
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 2)), max_size=3),
)


@settings(deadline=None, max_examples=200)
@given(_fields, st.lists(_linear_or_quadratic, min_size=1, max_size=4),
       st.lists(_object, min_size=1, max_size=4))
def test_line_clusters_agree_with_factor_list_and_the_skip_rule(field, pool, objects):
    # each restriction is c v^k times factors drawn from one shared pool, so
    # that objects meet at points of the field and at conjugate points; a
    # zero coefficient leaves the line sparse
    K = field[0]
    lines = []
    for c, k, picks in objects:
        poly = _poly([0] * k + [_element(field, c.numerator, 0, c.denominator)], K)
        for j, e in picks:
            poly *= _poly([_element(field, a, b) for a, b in pool[j % len(pool)]], K) ** e
        lines.append(_line(poly, K))
    found = _line_clusters(lines, K)
    _assert_keys_typed(found, K)
    assert {_key_coeffs(p, K): t for p, t in found.items()} == _oracle_clusters(lines, K)


def test_line_clusters_factor_only_the_points_blown_up(monkeypatch):
    def no_factor_list(ud, K):
        raise AssertionError("factor_list called")

    monkeypatch.setattr(numberfield, "_sympy_factors", no_factor_list)
    # five distinct simple points and one double one: only v = 1 is a key,
    # and the irreducible quadratic met once is never factored
    lines = [_line(Poly((V - 1) * (V**2 - 2), V)), _line(Poly((V - 1) * (V + 3), V)),
             _line(Poly(V - 5, V))]
    assert _line_clusters(lines, Q) == {(-1, 1): [0, 1]}
    assert _line_clusters([_line(Poly(V**2 * (V**2 + 1) ** 2, V))], Q) == {
        (0, 1): [0], (1, 0, 1): [0]}
    # gcd(P, P') = (v - 1)^3 (v - 2)^2 has degree 5; its squarefree part
    # (v - 1)(v - 2) is a quadratic, split without factor_list
    quintic = _line(Poly((V - 1) ** 4 * (V - 2) ** 3 * (V + 5), V))
    assert _line_clusters([quintic], Q) == {(-1, 1): [0], (-2, 1): [0]}


def test_small_lines_over_a_number_field_take_no_gcd_and_no_inverse(monkeypatch):
    def refuse(*args):
        raise AssertionError("a small line took the general route")

    K = NumberField((Fraction(-2), Fraction(0), Fraction(1)))
    t, one = K.gen, K.one
    monkeypatch.setattr(univariate, "gcd", refuse)
    # (v + t)^2: its discriminant vanishes, and v = -t is on it by Horner's rule
    assert _line_clusters([{0: t * t, 1: 2 * t, 2: one}, {0: one}], K) == {(t, one): [0]}
    monkeypatch.setattr(Element, "_inverse", refuse)
    # a quadratic restriction with two simple points (v^2 + 1, discriminant
    # -4), and a lone line t v + 1, whose point lies on nothing else: no cluster
    assert _line_clusters([{0: one, 2: one}, {0: one}], K) == {}
    assert _line_clusters([{0: one, 1: t}, {0: one}], K) == {}
    # v^2 and v (v + 1): v = 0 lies on both, and v = -1 on one only
    assert _line_clusters([{2: one}, {1: one, 2: one}], K) == {(K.zero, one): [0, 1]}


def test_a_line_of_monomials_reads_its_one_cluster_off_the_orders(monkeypatch):
    def refuse(*args):
        raise AssertionError("a line of monomials took the general route")

    monkeypatch.setattr(univariate, "from_dict", refuse)
    monkeypatch.setattr(blowup, "_through", refuse)
    K = NumberField((Fraction(-2), Fraction(0), Fraction(1)))
    for field, c in [(Q, 3), (K, K.gen)]:
        zero = field.zero, field.one
        assert _line_clusters([{0: c}, {1: c}], field) == {}  # one object through v = 0, simply
        assert _line_clusters([{0: c}, {0: c}], field) == {}
        assert _line_clusters([{2: c}], field) == {zero: [0]}  # one object, twice
        assert _line_clusters([{1: c}, {0: c}, {3: c}], field) == {zero: [0, 2]}


# -- a quadratic repeated part, and a quadratic over Q, in integers ----------


def _engine_line(expr, K):
    """An integer polynomial in V as the engine holds a restriction: ints over Q, else elements."""
    coeffs = [int(c) for c in reversed(Poly(expr, V).all_coeffs())]
    return {b: c if K is Q else K.one * c for b, c in enumerate(coeffs) if c}


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(sqrt 2)", "Q(i)"])
@pytest.mark.parametrize("restrictions", [
    ["(V - 1)**3"],  # gcd(P, P') = (v - 1)^2: discriminant zero
    ["(2*V - 3)**3*(V + 5)"],
    ["(V**2 - 2)**2"],  # discriminant 8, not a square over Q
    ["(V**2 + 1)**2"],  # discriminant -4
    ["(V**2 - 1)**2"],  # discriminant 4: two rational points
    ["(3*V**2 - V - 1)**2*(V + 2)"],
    ["(V**2 - 2)*(V + 1)", "V**2 - 2"],  # the repeated part of the product of two objects
    ["(V - 4)**2", "(V - 4)*(V**2 + 1)", "V + 7"],
], ids=lambda r: " & ".join(r))
def test_a_quadratic_repeated_part_is_squarefree_unless_its_discriminant_vanishes(
        monkeypatch, field, restrictions):
    # one gcd finds the repeated part; a quadratic one takes no second gcd
    K, calls = field[0], []
    gcd_name, module = ("gcd_z", bivariate) if K is Q else ("gcd", univariate)
    gcd = getattr(module, gcd_name)

    def counted(p, q):
        calls.append(len(p))
        return gcd(p, q)

    def squarefree_only(p, factor=K.factor):  # the precondition of K.factor
        assert _poly(p, K).is_sqf, p
        return factor(p)

    monkeypatch.setattr(module, gcd_name, counted)
    if K is Q:
        monkeypatch.setattr(blowup._Rationals, "factor", staticmethod(squarefree_only))
    else:
        monkeypatch.setattr(K, "factor", squarefree_only)
    lines = [_engine_line(sympy.sympify(r, locals={"V": V}), K) for r in restrictions]
    found = _line_clusters(lines, K)
    _assert_keys_typed(found, K)
    assert {_key_coeffs(p, K): t for p, t in found.items()} == _oracle_clusters(lines, K)
    assert len(calls) == 1


@settings(deadline=None, max_examples=200)
@given(_nonzero, st.integers(-12, 12), st.integers(-12, 12).filter(bool))
def test_an_integral_quadratic_splits_by_its_integer_discriminant(a, b, c):
    # c + b v + a v^2 in ints, as the engine's lines over Q are: the keys are
    # Fractions, and sympy's factor_list over Q is the oracle
    assume(b * b - 4 * a * c)
    keys = Q.factor([c, b, a])
    _assert_keys_typed(keys, Q)
    assert dict.fromkeys(map(_key_coeffs, keys), 1) == _sympy_factors({0: c, 1: b, 2: a})


def test_integral_quadratic_cases():
    assert Q.factor([2, -3, 1]) == [(-1, 1), (-2, 1)]  # a square discriminant, 1
    assert Q.factor([-1, 0, 4]) == [(Fraction(1, 2), 1), (Fraction(-1, 2), 1)]
    assert Q.factor([1, 1, 1]) == [(1, 1, 1)]  # discriminant -3
    assert Q.factor([-2, 0, 6]) == [(Fraction(-1, 3), 0, 1)]  # 48, not a square
    assert Q.factor([Fraction(-1, 4), 0, Fraction(1, 9)]) == [(Fraction(3, 2), 1),
                                                             (Fraction(-3, 2), 1)]


# Germs whose tacnodal points are irrational: after one extension by a
# quadratic split exactly, every later line over Q(sqrt 2) or Q(sqrt -2) is
# resolved by gcds alone.  The lct and the tree are those of the corpus.
_IRRATIONAL_TACNODES = [
    ("(y^2-2*x^2)^2 - x^7", Fraction(1, 2), [1, 4, [[2, 6, [[3, 7, [[6, 14, []]]]]]]]),
    ("(y^2+2*x^2)^2 - x^6", Fraction(1, 2), [1, 4, [[2, 6, []]]]),
    ("((y^2-2*x^2)^2-x^7)*((y^2-2*x^2)^2-3*x^7)", Fraction(1, 4),
     [1, 8, [[2, 12, [[3, 14, [[6, 28, []]]]]]]]),
]


@pytest.mark.parametrize("text, lct, tree", _IRRATIONAL_TACNODES,
                         ids=[t for t, *_ in _IRRATIONAL_TACNODES])
def test_irrational_tacnodes_call_no_factor_list(monkeypatch, text, lct, tree):
    def no_factor_list(p, K):
        raise AssertionError("factor_list called")

    monkeypatch.setattr(numberfield, "_sympy_factors", no_factor_list)
    assert lct_germ(text) == lct
    assert [engine_form(root) for root in germ_blowup_tree(text)] == [tree]


# a product of four conjugate cusps, (y -+ sqrt(2) x -+ sqrt(3) x^2)^2 - x^5:
# its points lie in Q(sqrt 2, sqrt 3), a tower over Q(sqrt 2)
CUSP_PRODUCT = (
    "y^8 - 8*x^2*y^6 + 24*x^4*y^4 - 32*x^6*y^2 + 16*x^8 - 12*x^4*y^6 + 24*x^6*y^4"
    " + 48*x^8*y^2 - 96*x^10 - 4*x^5*y^6 + 8*x^7*y^4 + 16*x^9*y^2 - 32*x^11 + 54*x^8*y^4"
    " + 72*x^10*y^2 + 216*x^12 + 12*x^9*y^4 - 240*x^11*y^2 + 48*x^13 + 6*x^10*y^4"
    " - 100*x^12*y^2 - 192*x^14 + 36*x^13*y^2 + 72*x^15 + 12*x^14*y^2 + 105*x^16"
    " - 4*x^15*y^2 - 116*x^17 + 54*x^18 - 12*x^19 + x^20"
)

# the four conjugate cusps (y - t x - theta x^2)^2 - x^5 over t^2 = 2 and
# theta^2 = 3 + t: the second extension, by v^2 - (3 + t) over Q(t), meets a
# root of the conjugate v^2 - (3 - t) first
CONJUGATE_CUSPS = (
    "y^8 - 8*x^2*y^6 + 24*x^4*y^4 - 32*x^6*y^2 + 16*x^8 - 12*x^4*y^6 - 16*x^5*y^5"
    " + 24*x^6*y^4 + 64*x^7*y^3 + 48*x^8*y^2 - 64*x^9*y - 96*x^10 - 4*x^5*y^6"
    " + 8*x^7*y^4 + 16*x^9*y^2 - 32*x^11 + 50*x^8*y^4 + 96*x^9*y^3 + 152*x^10*y^2"
    " + 192*x^11*y + 200*x^12 + 12*x^9*y^4 - 32*x^10*y^3 - 240*x^11*y^2 - 64*x^12*y"
    " + 48*x^13 + 6*x^10*y^4 - 76*x^12*y^2 - 112*x^13*y - 144*x^14 + 12*x^13*y^2"
    " - 96*x^14*y + 24*x^15 + 12*x^14*y^2 + 48*x^15*y + 73*x^16 - 4*x^15*y^2"
    " - 92*x^17 + 50*x^18 - 12*x^19 + x^20"
)


def test_objects_over_a_number_field_hold_elements_only(monkeypatch):
    # the cluster keys and the Counter of _line_clusters compare coefficients:
    # over a NumberField every one must be an Element, as none is mapped from Q
    resolve, fields = blowup._resolve, []

    def checked(objects, K, depth):
        if isinstance(K, NumberField):
            fields.append(K)
            assert all(type(c) is Element for d, _, _ in objects for c in d.values())
        return resolve(objects, K, depth)

    monkeypatch.setattr(blowup, "_resolve", checked)
    # every centre by the generic step, which calls _resolve at each point
    monkeypatch.setattr(blowup, "_toric", lambda objects: None)
    tacnodes = [line for line in LINES if line["group"] == "algebraic"]
    for line in tacnodes:
        assert entry(line["kind"], line["args"])["value"] == line["value"]
    assert len(tacnodes) == 72 and len(fields) > 2 * len(tacnodes)

    # again with the toric chain on: the objects a chain over a NumberField
    # is given, and every list it tests for SNC, its {axis: one} divisors and
    # strict transforms of f among them; a list handed back to the generic
    # step is tested for SNC there first
    monkeypatch.undo()
    chain, is_snc, seen, running = blowup._chain, blowup._is_snc, Counter(), []

    def elements_only(where, objects):
        assert all(type(c) is Element for d, _, _ in objects for c in d.values())
        seen[where] += 1

    def chained(objects, p, q, K, depth):
        running.append(K)
        try:
            if isinstance(K, NumberField):
                elements_only("chain", objects)
            return chain(objects, p, q, K, depth)
        finally:
            running.pop()

    def tested(objects, mults):
        if running and isinstance(running[-1], NumberField):
            elements_only("snc", objects)
        return is_snc(objects, mults)

    monkeypatch.setattr(blowup, "_chain", chained)
    monkeypatch.setattr(blowup, "_is_snc", tested)
    for line in tacnodes:
        assert entry(line["kind"], line["args"])["value"] == line["value"]
    assert seen["chain"] >= len(tacnodes) and seen["snc"] > seen["chain"], seen


def test_objects_enter_a_tower_monic_in_y(monkeypatch):
    # a primitive object over Q carries the germ's common denominator in
    # every coefficient; sympy's embedding into a tower slows as numbers
    # grow, so each object is divided by its leading coefficient in y first
    cluster_point, shift_y, entered = blowup._cluster_point, blowup._shift_y, []

    def point(p, K):
        theta, K2, conv = cluster_point(p, K)
        if conv is not None:
            entered.append(K2)
        return theta, K2, conv

    def shift(d, theta, K):
        if entered and K is entered[-1]:
            assert d[max(d, key=lambda ab: (ab[1], ab[0]))] == K.one
        return shift_y(d, theta, K)

    monkeypatch.setattr(blowup, "_cluster_point", point)
    monkeypatch.setattr(blowup, "_shift_y", shift)
    # the corpus's cusp product with c = 97/89: its primitive form is 89^4 y^8 + ...
    (line,) = [line for line in LINES if "388/89*x^5*y^6" in line["args"][0]]
    assert lct_germ(line["args"][0]) == Fraction(line["value"]) and entered


def test_nodes_count_their_conjugate_points():
    # the tacnode's root is the origin; each node below it stands for the two
    # conjugate points over Q(sqrt 2), and the cusp product's deepest for four
    # over Q(sqrt 2, sqrt 3), a tower read back as a NumberField
    (root,) = germ_blowup_tree("(y^2-2*x^2)^2 - x^7")
    assert [node.points for node in root.walk()] == [1, 2, 2, 2]
    (root,) = germ_blowup_tree(CUSP_PRODUCT)
    assert [(node.k, node.m, node.points) for node in root.walk()] == [
        (1, 8, 1), (2, 12, 2), (3, 13, 4), (6, 26, 4)]
    # points leaves the corpus form and the count of nodes as they were
    assert engine_form(root) == [1, 8, [[2, 12, [[3, 13, [[6, 26, []]]]]]]]
    assert sum(1 for _ in root.walk()) == 4
    assert [node.points for node in blowup_tree([(nd("y^2 - x^3"), 1)])[0].walk()] == [1, 1, 1]


def test_a_tower_that_meets_a_conjugates_root_first_resolves_exactly(monkeypatch):
    x, y = sympy.symbols("x y")
    product = 1
    for t in (sympy.sqrt(2), -sympy.sqrt(2)):
        for theta in (sympy.sqrt(3 + t), -sympy.sqrt(3 + t)):
            product *= (y - t * x - theta * x**2) ** 2 - x**5
    assert sympy.expand(product - sympy.sympify(CONJUGATE_CUSPS.replace("^", "**"))) == 0
    builds = watch_towers(monkeypatch)
    assert lct_germ(CONJUGATE_CUSPS) == Fraction(1, 4)
    # the root of the conjugate is built, rejected exactly, and the next one kept
    assert [c[1:] for c in candidates(builds)] == [("T**4 - 6*T**2 + 7", j) for j in (0, 1)]
    (root,) = germ_blowup_tree(CONJUGATE_CUSPS)
    assert [(node.k, node.m, node.points) for node in root.walk()] == [
        (1, 8, 1), (2, 12, 2), (3, 13, 4), (6, 26, 4)]


# -- chart symmetry: exchanging x and y moves chart-1 points to chart 2 -----
#
# The direction [0:1], the origin of the chart x = u v, y = v, is the one
# centre the engine does not find among the clusters of the chart x = u,
# y = u v.  Exchanging x and y maps it to v = 0 and each direction v != 0 to
# 1/v, so the resolution is the same as an unordered tree and the lct is
# unchanged; this checks chart 2 against chart 1.


def _text(d):
    return " + ".join(f"({c})*x^{a}*y^{b}" for (a, b), c in sorted(d.items()))


def _times(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            out[a1 + a2, b1 + b2] = out.get((a1 + a2, b1 + b2), 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _resolution(d):
    """lct and the resolution tree with sorted siblings, or the error's name."""
    text = _text(d)
    try:
        return lct_germ(text), sorted(canonical_form(r) for r in germ_blowup_tree(text))
    except DelPezzoError as exc:
        return type(exc).__name__


def _check_symmetric(d):
    assume(CurveGerm(_text(d)).is_squarefree)
    assert _resolution(d) == _resolution({(b, a): c for (a, b), c in d.items()}), _text(d)


_exponents = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: e != (0, 0))


@settings(deadline=None, max_examples=60)
@given(st.dictionaries(_exponents, _scalar, min_size=1, max_size=5))
def test_exchanging_x_and_y_keeps_monomial_sums(d):
    _check_symmetric(d)


_lines = st.one_of(st.just({(1, 0): 1}), st.builds(lambda s: {(0, 1): 1, (1, 0): -s}, _scalar))
_binomials = st.builds(lambda a, b, c: {(0, a): 1, (b, 0): -c},
                       st.integers(1, 5), st.integers(1, 5), _scalar)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.one_of(_lines, _binomials), min_size=1, max_size=4, unique_by=str))
def test_exchanging_x_and_y_keeps_products_of_lines_and_binomials(factors):
    d = factors[0]
    for f in factors[1:]:
        d = _times(d, f)
    _check_symmetric(d)


@settings(deadline=None, max_examples=12)
@given(st.sampled_from([2, 3, -1, -2, Fraction(5, 3)]), _scalar, st.integers(5, 9))
def test_exchanging_x_and_y_keeps_conjugate_tacnodes(a, c, k):
    # (y^2 - a x^2)^2 - c x^k: two tangent directions conjugate over Q(sqrt a)
    d = {(0, 4): 1, (2, 2): -2 * a, (4, 0): a * a, (k, 0): -c}
    _check_symmetric(d)
