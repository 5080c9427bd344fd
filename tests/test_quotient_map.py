"""tlct's general members from the quotient map C^2 -> C^2/G: an oracle with no cycle code.

A Du Val point is C^2/G for a finite G in SL2(C), and the quotient map is
etale in codimension 1, so lct(S, C) = lct(C^2, pi^* C) (Kollár, "Singularities
of pairs", 1997, §3.16).  A curve on the quotient is a polynomial in the three
invariants X, Y, Z of G (Klein, 1884), and its pullback is a plane germ in
(u, v) that the engine resolves.  The invariants are checked here with sympy,
against the group's generators or the relation among the three, before any
threshold is read from them.
"""

from fractions import Fraction

import pytest
import sympy

from delpezzo1.cycles import fundamental_cycle
from delpezzo1.dynkin import ALL_TYPES, DynkinType, parse_dynkin
from delpezzo1.lct import lct_germ
from delpezzo1.surfaces import CUSP_AT_A1, CUSP_AT_A2, CUSPIDAL_MEMBERS, SurfaceSpec, tlct

U, V = sympy.symbols("x y")  # the coordinates u, v of C^2, named as germ text names them
# binary tetrahedral forms (E6, E7) and binary icosahedral forms (E8)
PHI = U * V * (U**4 - V**4)
PSI = U**8 + 14 * U**4 * V**4 + V**8
CHI = U**12 - 33 * U**8 * V**4 - 33 * U**4 * V**8 + V**12
F = U * V * (U**10 + 11 * U**5 * V**5 - V**10)
H = -(U**20 + V**20) + 228 * (U**15 * V**5 - U**5 * V**15) - 494 * U**10 * V**10
T = U**30 + V**30 + 522 * (U**25 * V**5 - U**5 * V**25) - 10005 * (U**20 * V**10 + U**10 * V**20)


def invariants(t: DynkinType) -> tuple:
    """Generators X, Y, Z of the ring of invariants of the group of type t."""
    if t.kind == "A":
        return U ** (t.rank + 1), V ** (t.rank + 1), U * V
    if t.kind == "D":
        m = t.rank - 2
        return U**2 * V**2, U ** (2 * m) + V ** (2 * m), U * V * (U ** (2 * m) - V ** (2 * m))
    return {6: (PHI, PSI, CHI), 7: (PSI, PHI**2, PHI * CHI), 8: (F, H, T)}[t.rank]


def generators(t: DynkinType) -> list[dict]:
    """Generators, as substitutions, of the cyclic group of order n + 1 (A_n) or the binary
    dihedral group of order 4(n - 2) (D_n)."""
    order = t.rank + 1 if t.kind == "A" else 2 * (t.rank - 2)
    zeta = sympy.exp(2 * sympy.pi * sympy.I / order)
    gens = [{U: zeta * U, V: V / zeta}]
    if t.kind == "D":
        gens.append({U: V, V: -U})
    return gens


def relation(t: DynkinType):
    """Klein's relation among X, Y, Z for an exceptional type, as an expression that vanishes."""
    x, y, z = invariants(t)
    return {
        6: y**3 - z**2 - 108 * x**4,
        7: z**2 - y * (x**3 - 108 * y**2),
        8: z**2 + y**3 - 1728 * x**5,
    }[t.rank]


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_the_invariants_are_the_groups(t):
    if t.kind == "E":
        assert sympy.expand(relation(t)) == 0
        return
    for g in generators(t):
        for inv in invariants(t):
            assert sympy.expand(inv.subs(g, simultaneous=True) - inv) == 0


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_a_general_section_has_the_threshold_of_the_worst_point(t):
    x, y, z = invariants(t)
    value = lct_germ(str(sympy.expand(2 * x + 3 * y + 5 * z)))
    assert value == Fraction(1, max(fundamental_cycle(t).coeffs))
    assert value == tlct(SurfaceSpec([t])).value


@pytest.mark.parametrize("cusp, curve", [
    (CUSP_AT_A1, lambda x, y, z: y - x**2 + z**3),
    (CUSP_AT_A2, lambda x, y, z: x - y),
])
def test_a_cusp_through_a_point_has_its_cuspidal_members_threshold(cusp, curve):
    point, _, value, _ = CUSPIDAL_MEMBERS[cusp]
    assert lct_germ(str(sympy.expand(curve(*invariants(parse_dynkin(point)))))) == value
