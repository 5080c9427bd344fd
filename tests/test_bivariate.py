"""The exact gcd over Z[x][y] and the repeated factor, against sympy as an oracle."""

import inspect
import sys
import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, ZZ, Poly

from delpezzo1 import bivariate, univariate
from delpezzo1.errors import NonSquarefreeError
from delpezzo1.germs import CurveGerm, ensure_squarefree, x, y

WIDE = 2**100  # coefficients wider than one 61-bit prime, so that the CRT runs


def columns(poly):
    """A Poly over QQ as columns: from_dict takes ints, so its denominators are cleared."""
    coeffs = poly.as_dict(native=True)
    return bivariate.from_dict(dict(zip(coeffs, univariate.integral(list(coeffs.values()))[0])))


def as_poly(cols):
    return Poly.from_dict(bivariate.to_dict(cols), x, y, domain=QQ)


def associated(p, q):
    """Equal up to a nonzero constant factor."""
    return p.monic() == q.monic()


def repeated_by_factor_list(poly):
    """The product of the irreducible factors of multiplicity >= 2, by sympy's factor_list."""
    product = Poly(1, x, y, domain=QQ)
    for factor, e in poly.factor_list()[1]:
        if e > 1:
            product *= factor
    return product


coefficients = st.one_of(st.integers(-5, 5), st.integers(-WIDE, WIDE)).filter(bool)
polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients,
                        min_size=1, max_size=4).map(lambda d: Poly.from_dict(d, x, y, domain=QQ))
contents = st.lists(coefficients, min_size=1, max_size=3).map(
    lambda cs: Poly(sum(c * x**i for i, c in enumerate(cs)), x, y, domain=QQ))


@settings(deadline=None, max_examples=120)
@given(polys, polys, polys, contents)
def test_gcd_agrees_with_poly_gcd(f, g, h, c):
    for p, q in [(f * g, f * h), (f**2 * g, f * h), (c * f * g, c**2 * h),
                 (c * f, x * c * g), (f**2 * g, (f**2 * g).diff(y))]:
        if p.is_zero or q.is_zero:
            continue
        assert associated(as_poly(bivariate.gcd(columns(p), columns(q))), p.gcd(q)), (p, q)


@settings(deadline=None, max_examples=100)
@given(polys, polys, contents)
def test_repeated_factor_agrees_with_factor_list(f, g, c):
    for p in [f * g, f**2 * g, c**2 * f, c * f**3 * g**2, x**2 * f]:
        if p.is_zero:
            continue
        found = as_poly(bivariate.repeated_factor(columns(p)))
        assert associated(found, repeated_by_factor_list(p)), p


@pytest.mark.parametrize("text,repeated", [
    ("x*y^2 + y + x", None),  # the leading coefficient in y vanishes at x = 0
    ("(x - 1)*y^2 + y + x", None),  # ... and at x = 1, the first point tried
    ("((x - 1)*y^2 + x)^2", "x*y**2 + x - y**2"),
    ("y^2 - 2305843009213693951*x^2", None),  # y^2 modulo the first prime 2^61 - 1
    ("(y^2 - 2305843009213693951*x^2)^2*x", "2305843009213693951*x**2 - y**2"),
    ("(y - 3^50*x^2)^2*(y + x)", "717897987691852588770249*x**2 - y"),
    ("(x^2 + 1)^2*y + x^3*(x^2 + 1)^2", "x**2 + 1"),  # repeated in the content
    ("x^3*(y - x)^2", "x**2 - x*y"),
])
def test_repeated_factor_examples(text, repeated):
    germ = CurveGerm(text)
    assert germ.is_squarefree == (repeated is None)
    if repeated is None:
        assert germ.repeated_factor is None
    else:
        assert as_poly(bivariate.from_dict(germ.repeated_factor)) == Poly(repeated, x, y, domain=QQ)
        assert associated(as_poly(bivariate.from_dict(germ.repeated_factor)),
                          repeated_by_factor_list(germ.poly))


def test_a_divisor_of_higher_degree_in_y_does_not_divide():
    line = bivariate.from_dict({(1, 0): 1, (0, 1): 1})  # x + y
    conic = bivariate.from_dict({(0, 2): 1, (1, 0): 1})  # y^2 + x
    product = bivariate.from_dict({(1, 2): 1, (2, 0): 1, (0, 3): 1, (1, 1): 1})
    assert bivariate.divide(line, conic) is None
    assert bivariate.divide(product, conic) == line


def test_primes_follow_the_mersenne_prime_downwards():
    primes = bivariate._primes()
    expected = [2**61 - 1]
    for _ in range(4):
        expected.append(sympy.prevprime(expected[-1]))
    assert [next(primes) for _ in expected] == expected


def _lines_run(call):
    """The result of call() and the line numbers of _gcd_primitive it ran."""
    code, seen, previous = bivariate._gcd_primitive.__code__, set(), sys.gettrace()

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        return call(), seen
    finally:
        sys.settrace(previous)


def _line_of(comment):
    lines, start = inspect.getsourcelines(bivariate._gcd_primitive)
    return start + next(i for i, text in enumerate(lines) if text.endswith(f"# {comment}\n"))


# Primes in the hundreds, so that one prime cannot hold the gcd's
# coefficients and a prime can divide what the inputs differ by.  They stay
# above the number of points taken, so that no two points coincide modulo one.
SMALL_PRIMES = [101, 103, 107, 109, 113, 127, 131, 137, 139, 149]


@pytest.mark.parametrize("p, q, branch", [
    # at x = 2 both cofactors are y - 2: the second point's image has degree 2
    ("(y - x^3 - 200*x)*(y - x)", "(y - x^3 - 200*x)*(y - 2*x + 2)", "an unlucky point"),
    # modulo 103, the second prime, y - 103 is y: its first image has degree 2
    ("(y - 1000*x)*y", "(y - 1000*x)*(y - 103)", "an unlucky prime"),
])
def test_unlucky_points_and_primes_cost_another_one(monkeypatch, p, q, branch):
    monkeypatch.setattr(bivariate, "_primes", lambda: iter(SMALL_PRIMES))
    p, q = CurveGerm(p).poly, CurveGerm(q).poly
    found, lines = _lines_run(lambda: bivariate.gcd(columns(p), columns(q)))
    assert _line_of(branch) in lines
    assert associated(as_poly(found), sympy.gcd(p, q))


def test_a_long_repeated_factor_is_rejected_fast():
    germ = CurveGerm("(x+y)^128*(x-y)")
    start = time.perf_counter()
    with pytest.raises(NonSquarefreeError, match=r"has the repeated factor x \+ y$"):
        ensure_squarefree(germ)
    # 10.6 s with sympy's dense gcd; about 1 s on a 2-vCPU VM
    assert time.perf_counter() - start < 5


# -- gcd_z: the gcd in Z[x] of contents here, and of the engine's lines over Q --


def dense(poly):
    """A Poly over ZZ in x as a dense list of ints, constant term first."""
    return univariate.trim([int(c) for c in reversed(poly.all_coeffs())])


def normalized(poly):
    """The primitive part with a positive leading coefficient, dense."""
    part = poly.primitive()[1]
    return dense(-part if part.LC() < 0 else part)


factors = st.lists(coefficients, min_size=1, max_size=4).map(
    lambda cs: Poly(list(reversed(cs)), x, domain=ZZ))
scalars = st.integers(-30, 30).filter(bool)


@settings(deadline=None, max_examples=150)
@given(factors, factors, factors, scalars, scalars, st.integers(1, 3))
def test_gcd_z_and_the_squarefree_part_agree_with_sympy_over_zz(f, g, h, c, d, e):
    # contents c and d, leading coefficients of either sign, constants (a
    # one-term f, g or h), a shared factor repeated e times, and coefficients
    # wider than one prime
    for p, q in [(c * f**e * g, d * f * h), (c * f**(e + 1) * g, d * f**e * g**2),
                 (c * g, d * h), (c * f**e * g**2, (f**e * g**2).diff(x))]:
        if p.is_zero or q.is_zero:
            continue
        assert bivariate.gcd_z(dense(p), dense(q)) == normalized(sympy.gcd(p, q)), (p, q)
        if p.degree() > 0:  # the squarefree part as the engine takes it, p / gcd(p, p')
            part = univariate.exact_quotient(dense(p), bivariate.gcd_z(dense(p), dense(p.diff(x))))
            assert normalized(Poly(list(reversed(part)), x, domain=ZZ)) == normalized(p.sqf_part())


# (x - 1000) x against (x - 1000) times a second factor: modulo 101 or 103
# the second factor can be x, and 1000 needs the CRT of two primes
SMALL_PRIME_CASES = [
    # modulo 101, x - 101 is x: that image has degree 2, and 103's discards it
    ([0, -1000, 1], [101000, -1101, 1], [(True, 101), (True, 103), (False, 107)]),
    # modulo 103, x - 103 is x: an unlucky prime between two lucky ones
    ([0, -1000, 1], [103000, -1103, 1], [(True, 101), (False, 107)]),
    # 101 divides a leading coefficient, so it is passed over
    ([0, -101000, 101], [7000, -1007, 1], [(True, 103), (False, 107)]),
]


@pytest.mark.parametrize("p, q, combined", SMALL_PRIME_CASES)
def test_gcd_z_passes_over_unlucky_primes(monkeypatch, p, q, combined):
    monkeypatch.setattr(bivariate, "_primes", lambda: iter(SMALL_PRIMES))
    crt, calls = bivariate._crt, []

    def watched(acc, ell, cols):
        calls.append((acc is None, ell))
        return crt(acc, ell, cols)

    monkeypatch.setattr(bivariate, "_crt", watched)
    assert bivariate.gcd_z(p, q) == [-1000, 1]
    assert calls == combined


def test_gcd_z_of_constants_and_coprime_polynomials_is_one():
    assert bivariate.gcd_z([6], [-4]) == [1]
    assert bivariate.gcd_z([0, 0, 3], [-2, 1]) == [1]
    assert bivariate.gcd_z([-6, 0, -3], [4, 0, 2]) == [2, 0, 1]  # x^2 + 2, made positive
