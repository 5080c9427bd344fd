"""Plane curve germs at the origin with exact rational coefficients.

A germ is a nonzero bivariate polynomial in x, y over Q vanishing at the
origin.  The textual grammar accepts integer or rational coefficients, the
variables x and y, and the operators + - * ^ (with ** as a synonym), e.g.
"y^2 - x^3" or "x*y*(x+y)".
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd

import sympy
from sympy import QQ, Poly
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    standard_transformations,
)

from .blowup import lct_of_branches, multiplicity
from .errors import (
    DepthExceededError,
    InvalidGermError,
    NonSquarefreeError,
    NotAtOriginError,
    NotQuasihomogeneousError,
)

x, y = sympy.symbols("x y")

_TRANSFORMS = standard_transformations + (convert_xor,)

SMOOTH = "smooth"
NODE = "node"
CUSP = "cusp"
OTHER = "other"


def _parse_text(text: str) -> sympy.Expr:
    cleaned = text.replace("−", "-")  # unicode minus
    try:
        expr = parse_expr(cleaned, local_dict={"x": x, "y": y}, transformations=_TRANSFORMS)
    except (SyntaxError, TypeError, sympy.SympifyError) as exc:
        raise InvalidGermError(f"cannot parse germ {text!r}: {exc}") from exc
    return expr


class CurveGerm:
    """A bivariate polynomial germ, validated to vanish at the origin."""

    def __init__(self, poly: "CurveGerm | str | sympy.Expr | Poly"):
        if isinstance(poly, CurveGerm):
            self.poly = poly.poly
        else:
            if isinstance(poly, str):
                poly = _parse_text(poly)
            try:
                self.poly = Poly(poly, x, y, domain=QQ)
            except (sympy.polys.polyerrors.PolynomialError,
                    sympy.polys.polyerrors.CoercionFailed,
                    sympy.polys.polyerrors.GeneratorsError) as exc:
                raise InvalidGermError(
                    f"not a bivariate polynomial over Q: {poly}"
                ) from exc
        extra = self.poly.free_symbols - {x, y}
        if extra:
            raise InvalidGermError(f"unexpected symbols {sorted(map(str, extra))}")
        if self.poly.is_zero:
            raise InvalidGermError("the zero polynomial is not a germ")
        if (0, 0) in self.native_dict:
            raise NotAtOriginError(f"germ {self} does not vanish at the origin")

    @cached_property
    def native_dict(self) -> dict:
        """Exponent-to-coefficient dict with sympy QQ (exact rational) values."""
        return self.poly.as_dict(native=True)

    @property
    def expr(self) -> sympy.Expr:
        return self.poly.as_expr()

    @cached_property
    def multiplicity(self) -> int:
        return multiplicity(self.native_dict)

    @cached_property
    def is_squarefree(self) -> bool:
        g = self.poly.gcd(self.poly.diff(x)).gcd(self.poly.diff(y))
        return g.total_degree() == 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CurveGerm) and self.poly == other.poly

    def __hash__(self) -> int:
        return hash(self.poly)

    def __str__(self) -> str:
        return sympy.sstr(self.expr)

    def __repr__(self) -> str:
        return f"CurveGerm({self.expr!r})"


def as_germ(g: "CurveGerm | str | sympy.Expr | Poly") -> CurveGerm:
    return g if isinstance(g, CurveGerm) else CurveGerm(g)


def ensure_squarefree(g: CurveGerm) -> CurveGerm:
    if not g.is_squarefree:
        raise NonSquarefreeError(f"germ {g} has a repeated factor")
    return g


def classify_germ(g: "CurveGerm | str | sympy.Expr") -> str:
    """Classify the origin of a squarefree germ: smooth, node, cusp or other.

    Multiplicity 1 is smooth and multiplicity >= 3 is other.  A reduced
    double point is analytically A_k (y^2 = x^(k+1) for some k >= 1), and
    lct(A_k) = 1/2 + 1/(k+1) (Kollár, "Singularities of pairs", 1997, §8).
    So a double point is a node (A_1, an ordinary double point) exactly
    when its lct is 1, and a cusp (A_2, the y^2 = x^3 pattern) exactly when
    its lct is 5/6; tacnodes, rhamphoid cusps and every A_k with k >= 3 are
    other.  The lct comes from the resolution engine.
    """
    germ = ensure_squarefree(as_germ(g))
    mu = germ.multiplicity
    if mu == 1:
        return SMOOTH
    if mu > 2:
        return OTHER
    try:
        lct = lct_of_branches([(germ.native_dict, 1)])
    except DepthExceededError:
        return OTHER  # a node or a cusp resolves within three blowups
    return {Fraction(1): NODE, Fraction(5, 6): CUSP}.get(lct, OTHER)


def lct_quasihomogeneous(g: "CurveGerm | str | sympy.Expr") -> Fraction:
    """Threshold of a quasi-homogeneous squarefree germ via min(1, (wx+wy)/d).

    The germ must admit positive integer weights (wx, wy) giving every
    monomial the same weighted degree d; the smallest such weights are used.
    Raises NotQuasihomogeneous otherwise.
    """
    germ = ensure_squarefree(as_germ(g))
    monos = sorted(germ.native_dict)
    a0, b0 = monos[0]
    deltas = [(a - a0, b - b0) for a, b in monos[1:]]
    if not deltas:
        wx = wy = 1
    else:
        da, db = next(iter(d for d in deltas if d != (0, 0)))
        if da == 0 or db == 0 or (da > 0) == (db > 0):
            raise NotQuasihomogeneousError(
                f"no positive weights make {germ} weighted-homogeneous"
            )
        wx, wy = abs(db), abs(da)
        common = gcd(wx, wy)
        wx //= common
        wy //= common
    d = a0 * wx + b0 * wy
    if any(a * wx + b * wy != d for a, b in monos):
        raise NotQuasihomogeneousError(
            f"no positive weights make {germ} weighted-homogeneous"
        )
    return min(Fraction(1), Fraction(wx + wy, d))
