import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, Poly
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    rationalize,
    standard_transformations,
)

from delpezzo1.errors import (
    InvalidGermError,
    NonSquarefreeError,
    NotAtOriginError,
    NotQuasihomogeneousError,
)
from delpezzo1.germs import (
    CUSP,
    MAX_BITS,
    MAX_DEGREE,
    MAX_NESTING,
    MAX_TERMS,
    NODE,
    OTHER,
    SMOOTH,
    CurveGerm,
    _Parser,
    classify_germ,
    ensure_squarefree,
    lct_quasihomogeneous,
    x,
    y,
)
from delpezzo1.lct import lct_germ

# texts that are not germs in the grammar; each must raise InvalidGermError
MALFORMED = [
    "z", "x + w", "sin(x)", "1/x", "x^(1/2)", "x +* y", "",
    "y^2-(x", "(x", "x)", "x +", "x *", "x^", "x/0", "x/(y-y)", "x^-1", "x**+2",
    "x/y", "2^x", "x!", "x^2.0", "1e3*x", "2x", "x y", "xy", "X", "1_000*x",
    "(x)(y)", "E1", "id", "delpezzo1.germs", "()", "x^2^3^4",
]


def test_parse_spec_grammar():
    g = CurveGerm("y^2 - x^3")
    assert g.expr == y**2 - x**3
    assert CurveGerm("x*y*(x+y)").poly.total_degree() == 3
    assert CurveGerm("1/2*x*y - x^3").native_dict[(1, 1)] == sympy.QQ(1, 2)
    assert CurveGerm("y**2 - x**3") == g  # ** synonym
    assert CurveGerm("y^2 − x^3") == g  # unicode minus


def test_parse_accepts_expressions_and_polys():
    assert CurveGerm(y**2 - x**3) == CurveGerm("y^2 - x^3")
    assert CurveGerm(CurveGerm("x*y")) == CurveGerm("x*y")


def test_parse_rejects_garbage():
    for bad in MALFORMED:
        with pytest.raises(InvalidGermError):
            CurveGerm(bad)


@pytest.mark.parametrize("bad", MALFORMED)
def test_malformed_text_is_invalid_germ_everywhere(bad):
    for call in (lct_germ, classify_germ, lct_quasihomogeneous):
        with pytest.raises(InvalidGermError) as info:
            call(bad)
        assert type(info.value) is InvalidGermError, bad


def test_parse_grammar_details():
    assert CurveGerm("0.1*x") == CurveGerm("x/10")  # decimals are exact
    assert CurveGerm(".5*x + 1.*y") == CurveGerm("1/2*x + y")
    assert CurveGerm("x^2^3") == CurveGerm("x^8")  # right-associative
    assert CurveGerm("-x^2 + y") == CurveGerm("y - (x^2)")  # - binds looser than ^
    assert CurveGerm("2*-x - - y") == CurveGerm("y - 2*x")
    assert CurveGerm("x/2/3") == CurveGerm("x/6")
    assert CurveGerm("x/(2/3)") == CurveGerm("3/2*x")
    assert CurveGerm("2^3*x + x^0*y") == CurveGerm("8*x + y")
    # exponents and literals are judged by value: leading zeros, and a
    # decimal's trailing zeros, change nothing
    assert CurveGerm("y^0002 - x^03") == CurveGerm("y^02 - x^3") == CurveGerm("y^2 - x^3")
    assert lct_germ("y^0002 - x^3") == Fraction(5, 6)
    assert CurveGerm("007*x - 0.50*y") == CurveGerm("7*x - y/2")
    assert CurveGerm("x^" + "0" * 5000 + "2") == CurveGerm("x^2")
    assert CurveGerm("0" * 5000 + "3*x + 1." + "0" * 5000 + "*y") == CurveGerm("3*x + y")


def test_an_exponent_over_the_limit_is_named_as_typed_and_cut():
    with pytest.raises(InvalidGermError, match=f"exponent 257 exceeds {MAX_DEGREE}$"):
        CurveGerm("x^0257")
    with pytest.raises(InvalidGermError, match=f"exponent 0001000 exceeds {MAX_DEGREE}$"):
        CurveGerm("x^0001000")
    with pytest.raises(InvalidGermError) as info:
        CurveGerm("x^" + "1" * 5000)
    assert str(info.value).endswith(f"exponent {'1' * 77}... exceeds {MAX_DEGREE}")


def test_text_runs_no_code():
    with pytest.raises(InvalidGermError):
        CurveGerm("__import__('os').getpid()*0 + x")
    # in a fresh interpreter, a text that would exit with status 7 if evaluated
    script = (
        "from delpezzo1.errors import InvalidGermError\n"
        "from delpezzo1.germs import CurveGerm\n"
        "try:\n"
        "    CurveGerm(\"__import__('sys').exit(7)*0 + x\")\n"
        "except InvalidGermError:\n"
        "    print('rejected')\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (0, "rejected\n"), done.stderr


def _parse_seconds(text):
    start = time.perf_counter()
    try:
        CurveGerm(text)
    except InvalidGermError:
        return time.perf_counter() - start, False
    return time.perf_counter() - start, True


def test_huge_power_is_refused_at_once():
    seconds, accepted = _parse_seconds("(x+y)**2000")
    assert not accepted and seconds < 0.05


def _largest_accepted(template):
    """The largest k (from 1) for which template.format(k) parses, and the next one."""
    k = 1
    while _parse_seconds(template.format(k + 1))[1]:
        k += 1
    return template.format(k), template.format(k + 1)


@pytest.mark.parametrize("template", [
    "(x+y)^{}",  # degree
    "(x+y+1)^{} - 1",  # term products
    "(x^2+x*y+y^2+x+y+1)^{} - 1",
    "(123456789*x + 987654321*y + 1)^{} - 1",  # coefficient bits
    "x*" + "(x+y)*" * 5 + "(x - y)^{}",
    "y^{}*" + "(3/7*x+y)",
])
def test_worst_accepted_input_at_each_limit_parses_quickly(template):
    worst, beyond = _largest_accepted(template)
    seconds, accepted = _parse_seconds(worst)
    assert accepted and seconds < 0.25, (worst, seconds)
    seconds, accepted = _parse_seconds(beyond)
    assert not accepted and seconds < 0.25, (beyond, seconds)


_MONOMIALS = [(a, d - a) for d in range(1, 60) for a in range(d + 1)][:1000]


@pytest.mark.parametrize("text, accepted", [
    pytest.param(f"(x+y)^{MAX_DEGREE}", True, id="degree-at-limit"),
    pytest.param(f"(x+y)^{MAX_DEGREE}*x", False, id="degree-over-limit"),
    pytest.param("((x+y)^9)^9", True, id="nested-power"),
    pytest.param("((x+y)^16)^16", True, id="nested-power-at-limit"),
    pytest.param("((x+y)^16)^17", False, id="nested-power-over-limit"),
    pytest.param("x^2^2^2", True, id="tower"),
    pytest.param("x^2^3^2", False, id="tower-over-limit"),
    pytest.param("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, True, id="nesting-at-limit"),
    pytest.param("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), False,
                 id="nesting-over-limit"),
    pytest.param("-" * 10_000 + "x", True, id="many-signs"),
    pytest.param("+".join(f"{a + 1}/{b + 2}*x^{a}*y^{b}" for a, b in _MONOMIALS), True,
                 id="long-sum"),
    pytest.param("+".join(["(x+y+1)^8 - 1"] * (MAX_TERMS // 1000)), True, id="many-products"),
    pytest.param("+".join(["(x+y+1)^8 - 1"] * (MAX_TERMS // 100)), False,
                 id="products-over-limit"),
    pytest.param("9" * (MAX_BITS // 4) + "*x", True, id="long-literal"),
    pytest.param("9" * MAX_BITS + "*x", False, id="literal-over-limit"),
    pytest.param("9" * 100_000 + "*x", False, id="huge-literal"),
    pytest.param("0" * 100_000 + "9*x", True, id="literal-with-many-leading-zeros"),
    pytest.param("x*1." + "0" * 100_000, True, id="decimal-with-many-trailing-zeros"),
    pytest.param("x*0." + "0" * MAX_BITS + "1", False, id="decimal-over-limit"),
    pytest.param("x^" + "0" * 100_000 + "256", True, id="exponent-with-many-leading-zeros"),
    pytest.param("x^" + "0" * 100_000 + "257", False, id="exponent-over-limit-with-leading-zeros"),
    pytest.param("x/3^200/3^200/3^200", True, id="denominator-at-limit"),
    pytest.param("x/3^200/3^200/3^200/3^200", False, id="denominator-over-limit"),
    pytest.param("+".join(f"x/{p}" for p in range(2, 2000)), False,
                 id="common-denominator-over-limit"),
    pytest.param("y - x^201", True, id="A200"),
    pytest.param("y^2 - x^159", True, id="past-the-depth-cap"),
])
def test_limits(text, accepted):
    seconds, ok = _parse_seconds(text)
    assert ok == accepted and seconds < 0.25, seconds


def _odd(bits):
    """The largest number of exactly this many bits that is prime to 2, 3 and 5."""
    n = 2**bits - 1
    while n % 3 == 0 or n % 5 == 0:
        n -= 2
    return n


def _edge_texts(over):
    """Texts whose bit count is MAX_BITS + over: literals, products, a sum's denominator."""
    n, d = str(_odd(MAX_BITS - (10**100).bit_length() + over)), 100  # n / 10^100
    decimal = f"{n[:-d]}.{n[-d:]}"
    q1, k = 2**600, 1
    while math.lcm(q1, 3**k).bit_length() < MAX_BITS + over:
        k += 1
    while math.lcm(q1, 3**k).bit_length() > MAX_BITS + over:
        q1 //= 2
    return [
        ("integer literal", f"x + {_odd(MAX_BITS - 1 + over)} - {_odd(MAX_BITS - 1 + over)}"),
        ("decimal literal", f"x + {decimal} - {decimal}"),
        # bits(a) + 2 and bits(b) + 3
        ("product", f"(x/3 + {_odd(500)}*y)*(x/5 + {_odd(MAX_BITS - 505 + over)}*y)"),
        # x/9 + m/3*y and x/10 + k/2*y: bits(m) + 4 and bits(k) + 4, reduced;
        # the unreduced numerators 3m and 5k are over the limit in both texts
        ("reduced product",
         f"(x/9 + {3 * _odd(500)}/9*y)*(x/10 + {5 * _odd(MAX_BITS - 508 + over)}/10*y)"),
        ("common denominator", f"x/{q1} + y/{3**k}"),
    ]


# the outcome of each text one bit over MAX_BITS, as the Fraction parser gave it
_EDGE_REASONS = {"integer literal": "a literal exceeds", "decimal literal": "a literal exceeds",
                 "product": "coefficients exceed", "reduced product": "coefficients exceed",
                 "common denominator": "a common denominator exceeds"}


@pytest.mark.parametrize("over", [0, 1], ids=["at-the-limit", "one-bit-over"])
def test_bit_limit_at_its_edge(over):
    for case, text in _edge_texts(over):
        if over:
            reason = re.escape(f"{_EDGE_REASONS[case]} {MAX_BITS} bits") + "$"
            with pytest.raises(InvalidGermError, match=reason):
                CurveGerm(text)
        else:
            assert CurveGerm(text).native_dict == _oracle_dict(text), case


def test_power_of_a_monomial_is_one_term_product():
    # x^a, y^b and (x*y)^c are built in one step, after the degree check
    parser = _Parser("x^7*y^3 - (x*y)^2/2")
    assert parser.germ() == ({(7, 3): 2, (2, 2): -1}, 2)  # integers over 2
    # one each: x^7, y^3, x^7*y^3, x*y, (x*y)^2 and the division by 2
    assert parser.products == 6
    with pytest.raises(InvalidGermError, match=f"degree 258 exceeds {MAX_DEGREE}"):
        CurveGerm("(x^2)^129")


def test_product_of_two_terms_is_one_term_product_under_the_same_limits():
    parser = _Parser("2/3*x^5*y")
    assert parser.germ() == ({(5, 1): 2}, 3)
    # one each: 2/3, x^5, 2/3*x^5 and the product with y
    assert parser.products == 4
    with pytest.raises(InvalidGermError, match=f"degree 300 exceeds {MAX_DEGREE}"):
        CurveGerm("x^200*y^100")
    with pytest.raises(InvalidGermError, match=f"coefficients exceed {MAX_BITS} bits"):
        CurveGerm("9" * 300 + "*" + "9" * 300 + "*x")  # 997 bits each


# Term products charged per text, pinned from the parser that built every
# value as a dict: read a term at a time, MAX_TERMS admits the same texts.
CHARGED_PRODUCTS = [
    ("x", 0), ("x*y", 1), ("2*x*y", 2), ("x^7*y^3", 3), ("-x^2*y", 2), ("x^0*y", 1),
    ("3*x^2*y^4", 4), ("7/12*x^2*y^4", 5), ("2/3*x^5*y", 4), ("y^2 - x^3", 2),
    # powers of monomials: one product when the coefficient is 1, else square and multiply
    ("x^2^3", 1), ("(x^2)^3", 2), ("(x*y)^5", 2), ("(2*x)^5", 4), ("(2/3*x*y^2)^3", 6),
    # decimal and "/" literals: a division is one product, a decimal none
    ("0.5*x", 1), ("x/3", 1), ("1.25*x^2/7", 3), ("3/4*x^2*y - 0.125*y^3", 6),
    ("0.1*x + .5*y^2 - 2.*x*y", 5), ("0*x + y", 0),
    # sums: every term of one factor times every term of the other
    ("(x+y)^2", 4), ("(x+y)*(x-y)", 4), ("x*(x+y)", 2), ("(x+y)*x", 2), ("2*(x+y)^3", 14),
    ("(3/7*x+y)^2", 6), ("(x+y+1)^8", 270), ("(x+y+1)^8 - 1", 270),
    ("(y^2 - 2*x^2)^2 - x^7", 8),
    ("x*y^5 - 7/12*x^2*y^4 - 26/9*x^3*y^3 + 539/144*x^4*y^2 - 55/36*x^5*y + 7/36*x^6", 24),
]


@pytest.mark.parametrize("text, products", CHARGED_PRODUCTS)
def test_each_text_is_charged_its_term_products(text, products):
    parser = _Parser(text)
    parser.germ()
    assert parser.products == products


def test_max_terms_admits_as_many_eighth_powers_as_before():
    # 270 products each: 185 copies charge 49 950, and the 186th goes over
    parser = _Parser("+".join(["(x+y+1)^8 - 1"] * 185))
    parser.germ()
    assert parser.products == 49_950
    with pytest.raises(InvalidGermError, match=f"expansion exceeds {MAX_TERMS} term products$"):
        CurveGerm("+".join(["(x+y+1)^8 - 1"] * 186))


# -- the parser against sympy's parse_expr as an oracle (tests only) ---------

_ORACLE = standard_transformations + (convert_xor, rationalize)  # "0.1" is 1/10


def _oracle_dict(text):
    expr = parse_expr(text, local_dict={"x": x, "y": y}, transformations=_ORACLE)
    return Poly(expr, x, y, domain=QQ).as_dict(native=True)


coefficients = st.builds(
    Fraction, st.integers(-60, 60).filter(bool), st.integers(1, 40)
)
monomials = st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda m: m != (0, 0))
germ_dicts = st.dictionaries(monomials, coefficients, min_size=1, max_size=8)


def _caret(d):
    """Terms such as "- 3/7*x^2*y", with plain a/b coefficients."""
    parts = []
    for (a, b), c in sorted(d.items()):
        factors = [f"{abs(c.numerator)}/{c.denominator}"]
        factors += [f"x^{a}"] * (a > 0) + [f"y^{b}"] * (b > 0)
        parts.append(("- " if c < 0 else "+ ") + "*".join(factors))
    return " ".join(parts)


@st.composite
def _noisy(draw, d):
    """The same polynomial with redundant parentheses and unary signs."""
    parts = []
    for (a, b), c in sorted(d.items()):
        sign = draw(st.sampled_from(["", "+", "--", "-(-", "(+"]))
        closing = ")" * sign.count("(")
        coeff = f"({c.numerator})/({c.denominator})"
        factors = [coeff] + [f"(x)**{a}"] * (a > 0) + [f"((y))^{b}"] * (b > 0)
        parts.append(f"{sign}{'*'.join(factors)}{closing}")
    return " + ".join(parts)


@settings(deadline=None, max_examples=150)
@given(germ_dicts, st.data())
def test_parser_agrees_with_sympy_and_round_trips(d, data):
    expected = Poly.from_dict(d, x, y, domain=QQ)
    if expected.is_zero:
        return
    texts = [sympy.sstr(expected.as_expr()), _caret(d), data.draw(_noisy(d))]
    for text in texts:
        germ = CurveGerm(text)
        assert germ.native_dict == _oracle_dict(text) == expected.as_dict(native=True), text
        assert CurveGerm(str(germ)) == germ


# texts with decimals, divisions by constants, unary signs and nested powers;
# sympy reads each decimal as the exact rational (rationalize) and expands
_decimal = st.one_of(
    st.builds("{}.{}".format, st.integers(0, 99), st.integers(0, 999)),
    st.builds(".{}".format, st.integers(0, 999)), st.builds("{}.".format, st.integers(0, 99)))
_literal = st.one_of(st.integers(0, 99).map(str), _decimal)
_divisor = _literal.filter(lambda s: Fraction(s.rstrip(".") or "0"))
_expression = st.recursive(
    st.one_of(st.sampled_from(["x", "y"]), _literal),
    lambda inner: st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from(["+", "-", "*"]), inner),
        st.builds("({})/{}".format, inner, _divisor),
        st.builds("{}({})".format, st.sampled_from(["-", "+", "--", "- +"]), inner),
        st.builds("({})^{}".format, inner, st.integers(0, 3)),
        st.builds("(({})^{})**{}".format, inner, st.integers(0, 2), st.integers(1, 2))),
    max_leaves=8)


@settings(deadline=None, max_examples=300)
@given(_expression)
def test_parser_agrees_with_sympy_expand_in_lowest_terms(text):
    expr = parse_expr(text, local_dict={"x": x, "y": y}, transformations=_ORACLE)
    expected = Poly(sympy.expand(expr), x, y, domain=QQ).as_dict(native=True)
    nums, den = _Parser(text).germ()
    assert den > 0 and math.gcd(den, *nums.values()) == 1
    assert all(type(c) is int and c for c in nums.values())
    assert {k: Fraction(c, den) for k, c in nums.items()} == expected, text
    if expected and (0, 0) not in expected:
        germ = CurveGerm(text)
        assert (germ.nums, germ.den) == (nums, den) and germ.native_dict == expected


def test_round_trip_holds_past_the_bit_limit_over_a_common_denominator():
    # over the common denominator 3^200, the x coefficient has 1237 bits;
    # no multiplication in its text does, so the text is within the limits
    germ = CurveGerm(2**600 * x + y / 3**200)
    assert CurveGerm(str(germ)) == germ


# -- the dense squarefree test against Poly.gcd ------------------------------


def _gcd_squarefree(germ):
    p = germ.poly
    return p.gcd(p.diff(x)).gcd(p.diff(y)).total_degree() == 0


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients, min_size=1, max_size=4
)


@settings(deadline=None, max_examples=150)
@given(germ_dicts, small_polys, small_polys, coefficients)
def test_dense_squarefree_agrees_with_poly_gcd(d, f, g, c):
    f = Poly.from_dict(f, x, y, domain=QQ)
    g = Poly.from_dict(g, x, y, domain=QQ)
    for poly in [Poly.from_dict(d, x, y, domain=QQ), f * g,
                 f**2 * g * x, c * f**2 * y, c * (f - f.coeff_monomial(1))**2]:
        if poly.is_zero or poly.coeff_monomial(1) != 0:
            continue
        germ = CurveGerm(poly.as_expr())
        expected = _gcd_squarefree(germ)
        assert germ.is_squarefree == expected, poly
        if expected:
            assert ensure_squarefree(germ) is germ
        else:
            with pytest.raises(NonSquarefreeError):
                ensure_squarefree(germ)


def _pure_squarefree(germ):
    """is_squarefree, and whether it decided without the sympy view .poly."""
    answer = germ.is_squarefree
    return answer, "poly" not in vars(germ)


contents = st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(lambda cs: cs[-1])


@settings(deadline=None, max_examples=150)
@given(small_polys, small_polys, contents, st.integers(1, 2))
def test_pure_squarefree_agrees_with_poly_gcd_on_squares_and_contents(f, g, content, e):
    f = Poly.from_dict(f, x, y, domain=QQ)
    g = Poly.from_dict(g, x, y, domain=QQ)
    c = Poly(sum(k * x**i for i, k in enumerate(content)), x, y, domain=QQ)
    for poly in [f**2 * g, c**e * g, c**e * (f - f.coeff_monomial(1)),
                 x**e * (y - x) * g, (x - 1) ** 2 * y * g]:
        if poly.is_zero or poly.coeff_monomial(1) != 0:
            continue
        germ = CurveGerm(poly.as_expr())
        assert germ.is_squarefree == _gcd_squarefree(germ), poly


@pytest.mark.parametrize("text", [
    "y^2 - x^3", "x*y", "x*y*(x+y)", "y*(y-x)*(y-2*x)*(y+3*x)", "x*(x-1)*y + x^3*y^2",
    "(y - x^2)*(y - 2*x^2)*(y + x^2)", "(x^2 - 2*y)*(y^2 - 3*x^5)", "x", "x^7 - y^2*x",
])
def test_squarefree_germs_are_certified_without_sympy(text):
    assert _pure_squarefree(CurveGerm(text)) == (True, True)


@pytest.mark.parametrize("text", ["x^2*(y - x)", "(x-1)^2*x*y + (x-1)^2*x^2", "x^2*y", "x^3"])
def test_a_repeated_factor_in_x_is_found_without_sympy(text):
    # the content in y, a polynomial in x, is not squarefree
    assert _pure_squarefree(CurveGerm(text)) == (False, True)


REPEATED_IN_Y = {"(x+y)^2": "x + y", "(y - x^2)^2 * x": "x**2 - y",
                 "(y^2 - 2*x^3)^2": "2*x**3 - y**2"}


@pytest.mark.parametrize("text", sorted(REPEATED_IN_Y))
def test_a_repeated_factor_in_y_is_found_without_sympy(text):
    # the primitive part's gcd with its y-derivative is not a constant
    germ = CurveGerm(text)
    assert _pure_squarefree(germ) == (False, True)
    named = re.escape(f"has the repeated factor {REPEATED_IN_Y[text]}") + "$"
    with pytest.raises(NonSquarefreeError, match=named):
        ensure_squarefree(germ)


# -- str against sympy.sstr as an oracle (tests only) ------------------------

wide_coefficients = st.builds(
    Fraction, st.integers(-(10**30), 10**30).filter(bool), st.integers(1, 10**12)
)


@settings(deadline=None, max_examples=200)
@given(st.one_of(germ_dicts, st.dictionaries(monomials, wide_coefficients, min_size=1,
                                              max_size=6)))
def test_str_prints_as_sympy_sstr(d):
    expected = Poly.from_dict(d, x, y, domain=QQ)
    if expected.is_zero:
        return
    germ = CurveGerm(sympy.sstr(expected.as_expr()))
    assert str(germ) == sympy.sstr(expected.as_expr())
    assert repr(germ) == f"CurveGerm({sympy.sstr(expected.as_expr())})"


def test_str_of_a_germ_off_the_origin_in_its_error():
    with pytest.raises(NotAtOriginError, match=r"germ -3\*x\*\*2\*y/2 \+ y - 1/2 does not"):
        CurveGerm("y - 1/2 - 3/2*x^2*y")


def test_germ_views_and_non_polynomial_input():
    germ = CurveGerm("1/2*x*y - x^3")
    assert germ.native_dict == {(1, 1): Fraction(1, 2), (3, 0): Fraction(-1)}
    assert all(type(c) is Fraction for c in germ.native_dict.values())
    assert germ.poly == Poly(x * y / 2 - x**3, x, y, domain=QQ)
    assert germ.expr == x * y / 2 - x**3
    assert hash(germ) == hash(CurveGerm(germ.expr))
    for bad in [5, None, 1.5, [x]]:
        with pytest.raises(InvalidGermError):
            CurveGerm(bad)
    with pytest.raises(InvalidGermError):
        CurveGerm(x * sympy.Symbol("z"))


def test_zero_polynomial_rejected():
    with pytest.raises(InvalidGermError):
        CurveGerm("x - x")


def test_not_at_origin():
    for bad in ["y^2 - x^3 + 1", "1 + x", "x*y - 2"]:
        with pytest.raises(NotAtOriginError):
            CurveGerm(bad)


def test_multiplicity():
    assert CurveGerm("x").multiplicity == 1
    assert CurveGerm("y^2 - x^3").multiplicity == 2
    assert CurveGerm("x*y*(x+y)").multiplicity == 3


def test_squarefree_detection():
    assert CurveGerm("y^2 - x^3").is_squarefree
    assert CurveGerm("x*y").is_squarefree
    assert not CurveGerm("x^2*y").is_squarefree
    assert not CurveGerm("(x+y)^2").is_squarefree
    assert not CurveGerm("(y - x^2)^2 * x").is_squarefree


def test_classify_spec_examples():
    assert classify_germ("x^2 - y^2 + y^3") == NODE
    assert classify_germ("y^2 - x^3") == CUSP
    assert classify_germ("y^2 - x^4") == OTHER  # tacnode: two smooth branches


def test_classify_more():
    assert classify_germ("x + y^5") == SMOOTH
    assert classify_germ("y") == SMOOTH
    assert classify_germ("x*y") == NODE
    assert classify_germ("x^2 + y^3") == CUSP  # cusp with axes swapped
    assert classify_germ("y^2 - x^5") == OTHER  # rhamphoid cusp
    assert classify_germ("x*y*(x+y)") == OTHER  # multiplicity 3
    # cusp with tilted tangent line: (y - x)^2 = x^3 after shear
    assert classify_germ("(y - x)^2 - x^3") == CUSP


def test_classify_requires_squarefree():
    with pytest.raises(NonSquarefreeError):
        classify_germ("x^2*y")


def test_quasihomogeneous_spec_examples():
    assert lct_quasihomogeneous("y^2 - x^3") == Fraction(5, 6)
    assert lct_quasihomogeneous("x*y") == Fraction(1)
    assert lct_quasihomogeneous("y^2 - x^5") == Fraction(7, 10)


def test_quasihomogeneous_more_values():
    assert lct_quasihomogeneous("x") == Fraction(1)
    assert lct_quasihomogeneous("y*(y - x^2)") == Fraction(3, 4)
    assert lct_quasihomogeneous("x*y*(x+y)") == Fraction(2, 3)
    assert lct_quasihomogeneous("y^3 - x^4") == Fraction(7, 12)
    # three monomials on the line a + 2b = 6
    assert lct_quasihomogeneous("y^3 + x^4*y - x^6") == Fraction(1, 2)


def test_quasihomogeneous_weight_reduction():
    # monomials on the line 2a + 3b = 12: x^6, x^3 y^2, y^4
    val = lct_quasihomogeneous("y^4 - x^3*y^2 + 2*x^6")
    assert val == min(Fraction(1), Fraction(2 + 3, 12))


def test_not_quasihomogeneous():
    for bad in ["y^2 - x^3 + x^5", "x*y + x^3 + y^3", "x*y^2 - x"]:
        with pytest.raises(NotQuasihomogeneousError):
            lct_quasihomogeneous(bad)


def test_quasihomogeneous_rejects_nonsquarefree():
    with pytest.raises(NonSquarefreeError):
        lct_quasihomogeneous("x^2*y")


def _swap_xy(text):
    return text.replace("x", "X").replace("y", "x").replace("X", "y")


@pytest.mark.parametrize("swap", [False, True], ids=["y-x", "x-y"])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
def test_classify_double_point_oracle(k, swap):
    # y^2 - c x^k is A_(k-1); a coordinate change keeps the class:
    # node iff k = 2, cusp iff k = 3, other for k >= 4
    expected = {2: NODE, 3: CUSP}.get(k, OTHER)
    for c in ["1", "-2", "3/5"]:
        for s, t in [("0", "0"), ("1", "0"), ("-2", "3"), ("1/2", "-1")]:
            germ = f"(y + ({s})*x + ({t})*x^2)^2 - ({c})*x^{k}"
            if swap:
                germ = _swap_xy(germ)
            assert classify_germ(germ) == expected, germ


@pytest.mark.parametrize("germ", ["y^2 - x^201", "x^2 - y^201"])
def test_classify_double_point_deeper_than_the_engine_cap_is_other(germ):
    # A_200 needs about 100 blowups, past the engine's depth cap; it is still other
    assert classify_germ(germ) == OTHER


@pytest.mark.parametrize(
    "lines",
    ["x*y*(x+y)", "x*y*(x-y)*(x+2*y)", "y*(y-x)*(y-2*x)*(y+3*x)*(3*x-y/2)"],
)
def test_classify_three_or_more_lines_is_other(lines):
    assert classify_germ(lines) == OTHER
