"""NumberField against sympy's AlgebraicField, which serves as the oracle.

Each field is Q[t]/(g) for a monic g of degree 2 to 4, checked irreducible
by sympy; its sympy image is QQ(CRootOf(g, 0)), whose generator is t.
Arithmetic, order and equality must agree with the image element for
element, and the translation both ways must be exact.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import QQ, CRootOf, Poly, Symbol

from delpezzo1.errors import InvalidGermError
from delpezzo1.numberfield import Element, NumberField

V, T = Symbol("v"), Symbol("T")
_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _fields(draw):
    n = draw(st.integers(2, 4))
    g = tuple(draw(st.lists(_rationals, min_size=n, max_size=n))) + (Fraction(1),)
    assume(Poly([QQ(c.numerator, c.denominator) for c in reversed(g)], V).is_irreducible)
    return NumberField(g)


@st.composite
def _field_and_elements(draw, count):
    K = draw(_fields())
    coeffs = st.lists(_rationals, min_size=K.degree, max_size=K.degree)
    # a third of the elements are rationals, so that leading zeros occur
    rational = st.builds(K.convert, _rationals)
    return K, [draw(st.one_of(rational, coeffs.map(lambda c: Element(K, tuple(c)))))
               for _ in range(count)]


_settings = settings(deadline=None, max_examples=60)


@_settings
@given(_field_and_elements(2), _rationals)
def test_arithmetic_agrees_with_the_sympy_image(field_elements, r):
    K, (a, b) = field_elements
    A, B = K.to_anp(a), K.to_anp(b)
    assert K.to_anp(a + b) == A + B
    assert K.to_anp(a - b) == A - B
    assert K.to_anp(a * b) == A * B
    assert K.to_anp(-a) == -A
    assert K.to_anp(a ** 3) == A ** 3
    if b:
        assert K.to_anp(a / b) == A / B
        assert K.to_anp(b ** -1) == B ** -1
        assert K.to_anp(b ** -2) == B ** -2
    else:
        with pytest.raises(ZeroDivisionError):
            b ** -1
    # rationals mix in as in the dense polynomials of univariate
    R = K.to_anp(K.convert(r))
    assert K.to_anp(0 + a) == A and not 0 * a and K.to_anp(3 * a) == 3 * A
    assert K.to_anp(r * a) == R * A and K.to_anp(a * r) == R * A
    assert K.to_anp(a - r) == A - R and K.to_anp(r - a) == R - A
    if r:
        assert K.to_anp(a / r) == A / R
    if b:
        assert K.to_anp(r / b) == R / B

@_settings
@given(_field_and_elements(3))
def test_order_equality_and_hash_agree_with_the_sympy_image(field_elements):
    K, elements = field_elements
    images = [K.to_anp(e) for e in elements]
    a, b, c = elements
    A, B, C = images
    assert (a < b) == (A < B) and (a > b) == (A > B) and (a <= b) == (A <= B)
    assert (a == b) == (A == B) and (a != b) == (A != B)
    assert bool(a) == bool(A)
    by_sympy = sorted(range(3), key=lambda i: images[i])
    assert [images[i] for i in sorted(range(3), key=lambda i: elements[i])] == [
        images[i] for i in by_sympy]
    # the cluster keys: tuples of elements, sorted by (length, coefficients)
    keys = [(a, K.one), (b, c, K.one), (c, K.one)]
    as_sympy = [tuple(map(K.to_anp, key)) for key in keys]
    assert [as_sympy[keys.index(k)] for k in sorted(keys, key=lambda p: (len(p), p))] == sorted(
        as_sympy, key=lambda p: (len(p), p))
    # equal elements reached from rationals, from sympy and by arithmetic are
    # one canonical form: equal, hashed alike, in lowest terms over den > 0
    same = [a, Element(K, a.coeffs), K.from_anp(A), a + K.zero, a * 1, 3 * a / 3,
            a * Fraction(2, 7) / Fraction(2, 7), (a + K.gen) - K.gen,
            a - Fraction(1, 3) + 1 - Fraction(2, 3)]
    if b:
        same += [a * b * b ** -1, a * b / b]
    assert len(set(same)) == 1 and all(e == a and hash(e) == hash(a) for e in same)
    three = [K.convert(3), K.convert(Fraction(6, 2)), Element(K, (3,) + (0,) * (K.degree - 1)),
             K.one * 3, 3 * K.one, K.one + 2, Fraction(9, 2) - K.one * Fraction(3, 2)]
    assert len(set(three)) == 1 and all(e == three[0] for e in three)
    for e in same + three + elements + [b * c, b + c, -b]:
        assert e.den > 0 and math.gcd(e.den, *e.nums) == 1
        assert all(type(x) is int for x in e.nums)


@_settings
@given(_field_and_elements(1))
def test_translation_to_the_sympy_image_and_back_is_exact(field_elements):
    K, (a,) = field_elements
    A = K.to_anp(a)
    back = K.from_anp(A)
    assert back == a and hash(back) == hash(a)
    assert all(type(c) in (int, Fraction) for c in back.coeffs)  # exact
    assert K.to_anp(back) == A
    # t is the generator of sympy's image, CRootOf(g, 0), and a root of g
    g_expr = sum(QQ(c.numerator, c.denominator) * V**i for i, c in enumerate(K.modulus))
    assert K.to_anp(K.gen).to_list() == [1, 0]
    assert K.sympy_field.ext.rep.to_list() == [1, 0]
    assert K.sympy_field.ext.as_expr() == CRootOf(g_expr, 0)
    value = K.zero
    for c in reversed(K.modulus):
        value = value * K.gen + c
    assert not value
    # one image per field
    assert K.sympy_field is K.sympy_field


def test_inverse_of_a_quadratic_element_by_hand():
    K = NumberField((Fraction(-2), Fraction(0), Fraction(1)))  # Q(sqrt 2)
    t = K.gen
    assert (1 + t) ** -1 == t - 1  # (1 + sqrt 2)(sqrt 2 - 1) = 1
    assert t * t == K.convert(2) and (t / 2) ** -1 == t
    # a rational over an element, as a rational times one
    assert 2 / t == t and Fraction(1, 3) / t == t / 6 and 1 / (1 + t) == t - 1
    with pytest.raises(ZeroDivisionError):
        1 / K.zero
    # highest power first: (), (-1), (-1, 0), (1), (1, 0)
    assert sorted([t, -t, K.one, K.zero, K.convert(-1)]) == [
        K.zero, K.convert(-1), -t, K.one, t]
    assert repr(K) == "NumberField(-2 + 1*t^2)"
    assert repr((1 + t) / 3) == "Element(1/3 + 1/3*t mod -2 + 1*t^2)"


@_settings
@given(_fields(), _rationals)
def test_a_rational_element_is_inverted_as_a_rational(K, r):
    # one leads every monic cluster factor; a rational (negative, non-integral
    # or zero) skips the elimination and agrees with what it gives for r t,
    # times t: (r t)^-1 t = 1/r
    a = K.convert(r)
    if not r:
        with pytest.raises(ZeroDivisionError):
            a ** -1
        return
    inverse = a ** -1
    assert inverse == K.convert(1 / r) == (a * K.gen) ** -1 * K.gen
    assert K.to_anp(inverse) == K.to_anp(a) ** -1
    assert K.one ** -1 == K.one and 1 / a == inverse


def test_coefficients_of_any_length_are_reduced_modulo_g():
    K = NumberField((Fraction(-2), Fraction(0), Fraction(1)))  # Q(sqrt 2)
    short, long = Element(K, (1,)), Element(K, (0, 0, 1))
    # a short tuple is padded: the sum keeps t, and 1 is K.one
    assert short + K.gen == K.one + K.gen and hash(short + K.gen) == hash(K.one + K.gen)
    assert short == K.one and hash(short) == hash(K.one)
    # a long one is reduced: t^2 = 2, and t^5 - t^3 = 4 t - 2 t
    assert long == K.convert(2) and hash(long) == hash(K.convert(2))
    assert Element(K, (0, 0, 0, -1, 0, 1)) == 2 * K.gen and Element(K, ()) == K.zero


@pytest.mark.parametrize("other", ["t", 1.5], ids=["str", "float"])
def test_an_element_refuses_what_is_not_a_rational(other):
    # each operator returns NotImplemented, so Python falls back or raises
    K = NumberField((Fraction(-2), Fraction(0), Fraction(1)))  # Q(sqrt 2)
    t = K.gen
    assert t != other and not t == other
    for op in (lambda: t < other, lambda: t + other, lambda: other + t, lambda: t * other,
               lambda: t / other, lambda: other / t):
        with pytest.raises(TypeError):
            op()


# A tower: K = Q[t]/(t^2 - a) extended by a root of v^2 - (b + c t), checked
# irreducible over K by sympy.  Its field L has degree 4, and the map of K
# into L must be a ring homomorphism that sends t to a root of t^2 - a and
# the cluster's factor to one with the root theta.  The draws keep to points
# that are real where t is sympy's CRootOf(t^2 - a, 0) = -sqrt a: at a point
# that is not real, sympy's tower refines complex roots for minutes.  At
# the pinned point sympy gives the root as 2*CRootOf(T^4 - 2 T^2 - 1, 0), a
# scaled root, as it does for a norm that is a polynomial in 2T.
_pair = st.tuples(*[_rationals] * 4)


@settings(deadline=None, max_examples=12)
@given(st.sampled_from([2, 3, 5, 6, 7]), _rationals, _rationals.filter(bool),
       st.lists(_pair, min_size=3, max_size=3))
@example(a=2, b=Fraction(4), c=Fraction(-4), pairs=[(1, 2, Fraction(-1, 2), 3)] * 3)
def test_a_tower_embeds_its_field_exactly(a, b, c, pairs):
    K = NumberField((Fraction(-a), Fraction(0), Fraction(1)))
    radicand = K.one * b + K.gen * c
    assume(b > 0 > c or b > 0 and b * b > a * c * c or b < 0 > c and b * b < a * c * c)
    assume(Poly([1, 0, -K.to_anp(radicand)], V, domain=K.sympy_field).is_irreducible)
    p = (-radicand, K.zero, K.one)
    theta, L, phi = K.extend(p)
    assert isinstance(L, NumberField) and L.degree == 4 and L.modulus[-1] == 1
    assert not sum((phi(pi) * theta**i for i, pi in enumerate(p)), L.zero)
    image = L.zero
    for coeff in reversed(K.modulus):
        image = image * phi(K.gen) + coeff
    assert not image
    for x0, x1, y0, y1 in pairs:
        x, y = K.one * x0 + K.gen * x1, K.one * y0 + K.gen * y1
        assert phi(x * y) == phi(x) * phi(y) and phi(x + y) == phi(x) + phi(y)


def watch_towers(monkeypatch, failing=()):
    """The (gamma, theta) of each tower QQ.algebraic_field builds, in order.

    The builds whose indices are in failing raise NotImplementedError, as
    sympy's primitive element search may.
    """
    builds, algebraic_field = [], type(QQ).algebraic_field

    def build(self, *gens, **kw):
        if len(gens) == 2:
            builds.append(gens)
            if len(builds) - 1 in failing:
                raise NotImplementedError
        return algebraic_field(self, *gens, **kw)

    monkeypatch.setattr(type(QQ), "algebraic_field", build)
    return builds


def candidates(builds):
    """(gamma, theta's polynomial in T, theta's index) of each build.

    The polynomial is written in T: a CRootOf that sympy hands back from its
    cache keeps the symbol of the first polynomial equal to it up to renaming.
    """
    return [(g, str(r.poly.as_expr(T)), r.index) for g, r in builds]


def test_a_tower_builds_and_rejects_a_root_of_a_conjugate_first(monkeypatch):
    # over K = Q[t]/(t^2 - 2), t = -sqrt 2, the first real root of the norm
    # T^4 - 6 T^2 + 7 of v^2 - (t + 3) is -sqrt(3 + sqrt 2), a root of the
    # conjugate factor: its field is built and the exact check rejects it;
    # the second, -sqrt(3 - sqrt 2), is kept
    K = NumberField((Fraction(-2), Fraction(0), Fraction(1)))
    gamma = K.sympy_field.ext.as_expr()
    builds = watch_towers(monkeypatch)
    p = (-K.gen - 3, K.zero, K.one)
    theta, L, phi = K.extend(p)
    assert candidates(builds) == [(gamma, "T**4 - 6*T**2 + 7", j) for j in (0, 1)]
    assert not sum((phi(pi) * theta**i for i, pi in enumerate(p)), L.zero)


def test_a_tower_passes_over_a_root_whose_field_sympy_cannot_build(monkeypatch):
    # v^2 - 3 over Q(sqrt 2): both roots of the norm (T^2 - 3)^2 are p's, and
    # when the first one's field cannot be built, the second one's is returned
    K = NumberField((Fraction(-2), Fraction(0), Fraction(1)))
    gamma = K.sympy_field.ext.as_expr()
    builds = watch_towers(monkeypatch, failing={0})
    p = (K.one * -3, K.zero, K.one)
    theta, L, phi = K.extend(p)
    assert candidates(builds) == [(gamma, "T**2 - 3", j) for j in (0, 1)]
    assert not sum((phi(pi) * theta**i for i, pi in enumerate(p)), L.zero)


def test_a_tower_that_sympy_cannot_build_is_a_typed_error(monkeypatch):
    K = NumberField((Fraction(-2), Fraction(0), Fraction(1)))
    builds = watch_towers(monkeypatch, failing={0, 1})
    with pytest.raises(InvalidGermError, match="could not realize"):
        K.extend((K.one * -3, K.zero, K.one))
    assert len(builds) == 2
