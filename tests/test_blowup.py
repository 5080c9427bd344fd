from fractions import Fraction

import pytest
import sympy
from sympy import QQ, CRootOf, Poly, Symbol

from delpezzo1.blowup import (
    _cluster_point,
    _extend_tower,
    _shift_y,
    _strict1,
    _strict2,
    blowup_tree,
    lct_of_branches,
    multiplicity,
)
from delpezzo1.errors import DepthExceededError, InvalidGermError
from delpezzo1.germs import CurveGerm

z = Symbol("z")
T = Symbol("T")


def nd(text):
    return CurveGerm(text).native_dict


def test_strict_transform_charts():
    cusp = nd("y^2 - x^3")
    assert _strict1(cusp, 2) == nd("y^2 - x")  # v^2 - u up to renaming
    assert _strict2(cusp, 2) == {(0, 0): QQ(1), (3, 1): QQ(-1)}


def test_shift_y_exact():
    d = _shift_y(nd("y^2 - x"), QQ(3), QQ)
    # (y+3)^2 - x = y^2 + 6y + 9 - x
    assert d == {(0, 2): QQ(1), (0, 1): QQ(6), (0, 0): QQ(9), (1, 0): QQ(-1)}
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
    p = Poly.from_dict({(2,): K.one, (0,): -K.from_sympy(gamma)}, T, domain=K)
    theta, K2, conv = _extend_tower(p, K)
    value = K2.zero
    for (i,), c in p.as_dict(native=True).items():
        value = value + conv(c) * theta**i
    assert not value  # theta is an exact root of p over K2


def test_imaginary_tangent_directions():
    # tangent cone (y^2 + 2x^2)^2 has no rational (or real) roots, so the
    # second blowup lives over Q(sqrt(-2)); combinatorics match the real twin
    assert lct_of_branches([(nd("(y^2 + 2*x^2)^2 - x^6"), 1)]) == Fraction(1, 2)


def test_cluster_point_rational():
    p = Poly(Symbol("_v") - sympy.Rational(1, 2), Symbol("_v"), domain=QQ)
    theta, K2, conv = _cluster_point(p.monic(), QQ)
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
