"""A small-scope sweep: every germ of one to three monomials of degree <= 5.

The coefficients are +1 or -1, the first +1: 20 monomials x^a y^b with
1 <= a + b <= 5 give 20 + 2 C(20, 2) + 4 C(20, 3) = 4960 germs.  Each is
checked by routes that share no code with the germ parser, the squarefree
test or the line step of the engine:

- the germ is squarefree exactly when sympy's factor_list over Q says so;
- 1/m <= lct <= min(1, 2/m), m the multiplicity (Kollár, "Singularities
  of pairs", 1997, section 8);
- the lct is the same with x and y exchanged;
- on a Newton-nondegenerate germ, the lct is the Newton polygon's
  (tests/oracles.newton_lct; Howald 2001, Varchenko 1982).
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, product

import sympy
from sympy import ZZ, Poly

from delpezzo1.errors import NonSquarefreeError
from delpezzo1.lct import lct_germ

from .oracles import newton_edges, newton_lct

X, Y = sympy.symbols("x y")
MONOMIALS = [(a, s - a) for s in range(1, 6) for a in range(s + 1)]


def _germs():
    for r in (1, 2, 3):
        for support in combinations(MONOMIALS, r):
            for signs in product((1, -1), repeat=r - 1):
                yield dict(zip(support, (1, *signs)))


GERMS = list(_germs())


def _text(d):
    """The germ as text, each term written out: "+ 1*x^0*y^3 - 1*x^2*y^1"."""
    return " ".join(f"{'-' if c < 0 else '+'} 1*x^{a}*y^{b}" for (a, b), c in d.items())


def _swapped(d):
    return {(b, a): c for (a, b), c in d.items()}


def _lct(d):
    """The engine's threshold of a germ, or None when it rejects the germ as not squarefree."""
    try:
        return lct_germ(_text(d))
    except NonSquarefreeError:
        return None


def _orbit(d):
    """The least form of d under x <-> y, x -> -x and y -> -y, up to sign.

    These maps keep a germ squarefree or not, so sympy factors each orbit once.
    """
    forms = []
    for e, sx, sy in product((d, _swapped(d)), (1, -1), (1, -1)):
        e = {(a, b): c * sx**a * sy**b for (a, b), c in e.items()}
        sign = e[min(e)]
        forms.append(tuple(sorted((key, c * sign) for key, c in e.items())))
    return min(forms)


@cache
def _factor_list_squarefree(orbit):
    """Has the germ no repeated factor over Q?  By sympy's factor_list, once per orbit."""
    _, factors = Poly.from_dict(dict(orbit), X, Y, domain=ZZ).factor_list()
    return all(e == 1 for _, e in factors)


@cache
def _sweep():
    """(germ, sympy's squarefree verdict, the lct, the lct with x and y exchanged) of each germ."""
    return [(d, _factor_list_squarefree(_orbit(d)), _lct(d), _lct(_swapped(d))) for d in GERMS]


def _nondegenerate(d):
    """Is each compact edge polynomial, without its monomial factor, squarefree?  By sympy.

    An edge of two terms is c x^a y^b (x^(kp) + c' y^(kq)) up to a monomial,
    which is squarefree; only an edge of three terms needs sympy.
    """
    for edge in newton_edges(d):
        if len(edge) > 2:
            a0, b0 = min(a for a, _ in edge), min(b for _, b in edge)
            face = Poly.from_dict({(a - a0, b - b0): c for (a, b), c in edge.items()}, X, Y,
                                  domain=ZZ)
            if not face.is_sqf:
                return False
    return True


def test_the_sweep_holds_4960_germs():
    assert len(GERMS) == len({tuple(sorted(d.items())) for d in GERMS}) == 4960


def test_a_germ_is_rejected_exactly_when_factor_list_finds_a_repeated_factor():
    wrong = [(d, squarefree, value) for d, squarefree, value, _ in _sweep()
             if squarefree != (value is not None)]
    assert not wrong, wrong[:5]
    assert sum(value is None for _, _, value, _ in _sweep()) > 1000


def test_each_threshold_lies_between_one_over_m_and_two_over_m():
    wrong = []
    for d, _, value, _ in _sweep():
        if value is not None:
            m = min(a + b for a, b in d)
            if not Fraction(1, m) <= value <= min(Fraction(1), Fraction(2, m)):
                wrong.append((d, value))
    assert not wrong, wrong[:5]


def test_each_threshold_is_unchanged_by_exchanging_x_and_y():
    wrong = [(d, value, swapped) for d, _, value, swapped in _sweep() if value != swapped]
    assert not wrong, wrong[:5]


def test_each_newton_nondegenerate_germ_has_the_newton_threshold():
    checked, wrong = 0, []
    for d, _, value, _ in _sweep():
        if value is not None and _nondegenerate(d):
            checked += 1
            if value != newton_lct(d):
                wrong.append((d, value, newton_lct(d)))
    assert not wrong, wrong[:5]
    assert checked > 2000
