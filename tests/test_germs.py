from fractions import Fraction

import pytest
import sympy

from delpezzo1.errors import (
    InvalidGermError,
    NonSquarefreeError,
    NotAtOriginError,
    NotQuasihomogeneousError,
)
from delpezzo1.germs import (
    CUSP,
    NODE,
    OTHER,
    SMOOTH,
    CurveGerm,
    classify_germ,
    lct_quasihomogeneous,
    x,
    y,
)


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
    for bad in ["z", "x + w", "sin(x)", "1/x", "x^(1/2)", "x +* y", ""]:
        with pytest.raises(InvalidGermError):
            CurveGerm(bad)


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
