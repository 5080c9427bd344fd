"""The exact gcd over Z[x][y] and the repeated factor, against sympy as an oracle."""

import inspect
import sys
import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, Poly

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
