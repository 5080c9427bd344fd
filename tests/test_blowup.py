from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import QQ, CRootOf, Poly, Symbol

from delpezzo1 import blowup
from delpezzo1.blowup import (
    Q,
    _cluster_point,
    _extend_tower,
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
from tests.data.make_resolution_corpus import canonical_form, engine_form

z = Symbol("z")
T = Symbol("T")


def nd(text):
    return CurveGerm(text).native_dict


def test_strict_transform_charts():
    cusp = nd("y^2 - x^3")
    assert _strict1(cusp, 2) == nd("y^2 - x")  # v^2 - u up to renaming
    assert _strict2(cusp, 2) == {(0, 0): QQ(1), (3, 1): QQ(-1)}


def test_shift_y_exact():
    # (y+3)^2 - x = y^2 + 6y + 9 - x, over Q with the germ's Fractions and
    # over sympy's QQ with the same coefficients as QQ elements
    shifted = {(0, 2): QQ(1), (0, 1): QQ(6), (0, 0): QQ(9), (1, 0): QQ(-1)}
    assert _shift_y(nd("y^2 - x"), Fraction(3), Q) == shifted
    as_qq = {k: QQ(c.numerator, c.denominator) for k, c in nd("y^2 - x").items()}
    assert _shift_y(as_qq, QQ(3), QQ) == shifted
    assert _shift_y(nd("x*y"), Fraction(0), Q) == nd("x*y")
    assert _shift_y(nd("x*y"), QQ(0), QQ) == nd("x*y")


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


def test_extend_tower_finds_exact_root():
    gamma = CRootOf(z**2 - 2, 1)  # +sqrt(2)
    K = QQ.algebraic_field(gamma)
    p = (-K.from_sympy(gamma), K.zero, K.one)  # T^2 - sqrt(2), constant term first
    theta, K2, conv = _extend_tower(p, K)
    value = K2.zero
    for i, c in enumerate(p):
        value = value + conv(c) * theta**i
    assert not value  # theta is an exact root of p over K2


def test_imaginary_tangent_directions():
    # tangent cone (y^2 + 2x^2)^2 has no rational (or real) roots, so the
    # second blowup lives over Q(sqrt(-2)); combinatorics match the real twin
    assert lct_of_branches([(nd("(y^2 + 2*x^2)^2 - x^6"), 1)]) == Fraction(1, 2)


def test_cluster_point_rational():
    # the key of v - 1/2 is (-1/2, 1), over Q and over sympy's QQ alike
    theta, K2, conv = _cluster_point((Fraction(-1, 2), Fraction(1)), Q)
    assert K2 is Q and theta == Fraction(1, 2)
    theta, K2, conv = _cluster_point((QQ(-1, 2), QQ(1)), QQ)
    assert K2 == QQ and theta == QQ(1, 2)


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


# -- line factorisation over Q: exact peeling against sympy's factor_list ----

V = Symbol("_v")


def _line(poly):
    """A univariate dict with Fraction coefficients, as the engine builds them."""
    return {b: Fraction(int(c.numerator), int(c.denominator))
            for (b,), c in poly.as_dict(native=True).items()}


def _sympy_factors(ud):
    """The oracle: sympy's factor_list over QQ, as {monic expression: multiplicity}."""
    p = Poly.from_dict({(b,): QQ(c.numerator, c.denominator) for b, c in ud.items()},
                       V, domain=QQ)
    return {f.monic().as_expr(): e for f, e in p.factor_list()[1] if f.degree() >= 1}


def _key_expr(p):
    """A cluster key, the monic factor's coefficients constant term first, as an expression."""
    return sum(sympy.Rational(c.numerator, c.denominator) * V**i for i, c in enumerate(p))


def _check_against_sympy(ud):
    factors = _factor_on_line(ud, Q)
    exprs = {}
    for p, e in factors:
        # a dense tuple of Fractions, monic, whichever route found it
        assert all(type(c) is Fraction for c in p) and len(p) >= 2 and p[-1] == 1
        exprs[_key_expr(p)] = e
    assert len(exprs) == len(factors)
    assert exprs == _sympy_factors(ud)


_nonzero = st.integers(-9, 9).filter(bool)
_scalar = st.builds(Fraction, _nonzero, st.integers(1, 9))


@settings(deadline=None, max_examples=150)
@given(_scalar, st.integers(0, 4), _nonzero, st.integers(-9, 9), st.integers(1, 9))
def test_factor_on_line_peels_a_linear_remainder_exactly(c, k, a, b, den):
    # c * v^k * (a v + b/den); b = 0 makes it c * v^(k+1)
    scalar = sympy.Rational(c.numerator, c.denominator)
    _check_against_sympy(_line(Poly(scalar * V**k * (a * V + sympy.Rational(b, den)), V)))


_factor = st.lists(st.integers(-4, 4), min_size=2, max_size=4).filter(lambda cs: cs[-1])


@settings(deadline=None, max_examples=150)
@given(_scalar, st.integers(0, 3),
       st.lists(st.tuples(_factor, st.integers(1, 3)), min_size=1, max_size=3))
def test_factor_on_line_agrees_with_sympy_on_higher_degree_lines(c, k, factors):
    poly = Poly(V**k, V, domain=QQ) * sympy.Rational(c.numerator, c.denominator)
    for coeffs, e in factors:
        poly *= Poly(list(reversed(coeffs)), V, domain=QQ) ** e
    _check_against_sympy(_line(poly))


_quadratic = st.tuples(_nonzero, st.integers(-12, 12), st.integers(-12, 12))


@settings(deadline=None, max_examples=150)
@given(_scalar, st.integers(0, 3), _quadratic, st.sampled_from([1, 4, 9, 25]))
def test_factor_on_line_splits_a_quadratic_by_its_discriminant(c, k, abc, den):
    # a v^2 + b v + c0 over den: rational roots exactly when b^2 - 4 a c0 is a
    # square, a double root when it is 0, else one irreducible key
    a, b, c0 = abc
    scalar = sympy.Rational(c.numerator, c.denominator)
    quadratic = (a * V**2 + b * V + c0) / den
    _check_against_sympy(_line(Poly(scalar * V**k * quadratic, V)))


def test_factor_on_line_quadratic_cases():
    assert _factor_on_line({0: Fraction(2), 1: Fraction(-3), 2: Fraction(1)}, Q) == [
        ((-1, 1), 1), ((-2, 1), 1)]
    assert _factor_on_line({0: Fraction(1, 4), 1: Fraction(-1), 2: Fraction(1)}, Q) == [
        ((Fraction(-1, 2), 1), 2)]
    ((p, e),) = _factor_on_line({0: Fraction(-2), 2: Fraction(1)}, Q)
    assert (p, e) == ((-2, 0, 1), 1) and _key_expr(p) == V**2 - 2
    ((p, e),) = _factor_on_line({0: Fraction(3), 2: Fraction(6)}, Q)
    assert (p, e) == ((Fraction(1, 2), 0, 1), 1) and _key_expr(p) == V**2 + sympy.Rational(1, 2)


def test_factor_on_line_keeps_constants_out():
    assert _factor_on_line({}, Q) == []
    assert _factor_on_line({0: Fraction(3)}, Q) == []
    assert _factor_on_line({2: Fraction(-1, 2)}, Q) == [((0, 1), 2)]
    assert _factor_on_line({1: Fraction(2), 2: Fraction(4)}, Q) == [
        ((0, 1), 1), ((Fraction(1, 2), 1), 1)]


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


# -- the line step over Q against factor_list and the skip rule -------------


def _oracle_clusters(lines):
    """Every line factored by sympy; a cluster one line crosses simply is skipped."""
    clusters = {}
    for i, ud in enumerate(lines):
        for expr, e in _sympy_factors(ud).items():
            clusters.setdefault(expr, []).append((i, e))
    return {p: t for p, t in clusters.items() if len(t) > 1 or t[0][1] > 1}


_linear_or_quadratic = st.lists(st.integers(-4, 4), min_size=2, max_size=3).filter(lambda cs: cs[-1])
_object = st.tuples(
    _scalar, st.integers(0, 3),
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 2)), max_size=3),
)


@settings(deadline=None, max_examples=200)
@given(st.lists(_linear_or_quadratic, min_size=1, max_size=4),
       st.lists(_object, min_size=1, max_size=4))
def test_line_clusters_agree_with_factor_list_and_the_skip_rule(pool, objects):
    # each restriction is c v^k times factors drawn from one shared pool, so
    # that objects meet at rational and at conjugate irrational points
    lines = []
    for c, k, picks in objects:
        poly = Poly(V**k, V, domain=QQ) * sympy.Rational(c.numerator, c.denominator)
        for j, e in picks:
            poly *= Poly(list(reversed(pool[j % len(pool)])), V, domain=QQ) ** e
        lines.append(_line(poly))
    found = _line_clusters(lines, Q)
    for p in found:  # every key over Q is a tuple of Fractions
        assert isinstance(p, tuple) and all(type(c) is Fraction for c in p)
    oracle = {p: [i for i, _ in t] for p, t in _oracle_clusters(lines).items()}
    assert {_key_expr(p): t for p, t in found.items()} == oracle


def test_line_clusters_factor_only_the_points_blown_up(monkeypatch):
    def no_factor_list(ud, K):
        raise AssertionError("factor_list called")

    monkeypatch.setattr(blowup, "_sympy_factors", no_factor_list)
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
