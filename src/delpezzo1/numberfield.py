"""Exact number fields Q[t]/(g): with Q, the only fields under the blowup engine.

When a cluster of degree >= 2 over Q needs a blowup, the engine extends Q
by a root of the cluster's monic factor g: the field is Q[t]/(g) and the
point is t itself, so no root is ever located.  An element is the tuple of
its rational coefficients in 1, t, ..., t^(n-1), constant term first.
Products are reduced modulo the monic g, and inverses come from the
extended Euclidean algorithm of univariate (Cohen, A Course in
Computational Algebraic Number Theory, 1993, section 4.2).  Elements mix
with ints and Fractions in univariate's polynomials, a zero is falsy, and
they are ordered as sympy orders its own: by the coefficients, highest
power first, without leading zeros.

A cluster of degree >= 2 over Q[t]/(g) gets a tower, a NumberField again
(NumberField.extend).  sympy is imported here only, to build towers and to
factor lines (NumberField.factor, factor_rational), and it sees a field as
its image QQ(CRootOf(g, 0)), whose generator is t (sympy_field).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, total_ordering
from typing import Any, Callable, Sequence

from . import univariate
from .errors import InvalidGermError


class NumberField:
    """Q[t]/(g) for a monic irreducible g over Q of degree >= 2, given constant term first."""

    def __init__(self, modulus: Sequence[Fraction]) -> None:
        self.modulus = tuple(modulus)
        self.degree = len(self.modulus) - 1
        self.zero = self.convert(0)
        self.one = self.convert(1)
        self.gen = Element(self, (0, 1) + (0,) * (self.degree - 2))

    def __repr__(self) -> str:
        return f"NumberField({_text(self.modulus)})"

    def convert(self, c: Any) -> "Element":
        """The rational c as the element c·1."""
        return Element(self, (c,) + (0,) * (self.degree - 1))

    @cached_property
    def sympy_field(self) -> Any:
        """This field in sympy, QQ(CRootOf(g, 0)), whose generator is t; built once."""
        from sympy import QQ, CRootOf, Poly, Symbol

        g = Poly([QQ(c.numerator, c.denominator) for c in reversed(self.modulus)],
                 Symbol("_v"), domain=QQ)
        return QQ.algebraic_field(CRootOf(g, 0))

    def to_anp(self, e: "Element | int | Fraction") -> Any:
        """An element, or a rational, as an element of sympy_field."""
        e, K = e if isinstance(e, Element) else self.convert(e), self.sympy_field
        return K.new([K.dom(c.numerator, c.denominator) for c in reversed(e.coeffs)])

    def from_anp(self, a: Any) -> "Element":
        """An element of a sympy field whose generator has minimal polynomial g, as an element."""
        rep = [_fraction(c) for c in reversed(a.to_list())]
        return Element(self, tuple(rep) + (0,) * (self.degree - len(rep)))

    def factor(self, p: univariate.Dense) -> list[tuple]:
        """The monic irreducible factors of a dense p over this field, by sympy, as cluster keys."""
        keys = _sympy_factors([self.to_anp(c) for c in p], self.sympy_field)
        return [tuple(map(self.from_anp, key)) for key in keys]

    def extend(self, p: Sequence["Element"]) -> tuple["Element", "NumberField",
                                                     Callable[["Element"], "Element"]]:
        """A root theta of the monic irreducible p over this field, its field L, the map into L.

        sympy builds L = Q(gamma, theta), gamma generating sympy_field and
        theta a root of the norm Res_t(g(t), p(t, T)) in CRootOf's order, and
        a coefficient goes in by from_sympy.  A root is kept when p vanishes
        at it in L; one that real intervals show is not p's gets no L.
        """
        import sympy

        z, T = sympy.symbols("_z _T")
        g = sum(sympy.Rational(c) * z**j for j, c in enumerate(self.modulus))
        lifted = sum(sympy.Rational(x) * z**j * T**i
                     for i, c in enumerate(p) if c for j, x in enumerate(c.coeffs))
        K, gamma = self.sympy_field, self.sympy_field.ext.as_expr()  # CRootOf(g, 0)
        _, factors = sympy.factor_list(sympy.resultant(g, lifted, z), T)
        for h, _ in sorted(factors, key=lambda he: (sympy.degree(he[0], T), str(he[0]))):
            for j in range(sympy.degree(h, T)):
                theta = sympy.CRootOf(h, j, radicals=False)
                if gamma.is_real and theta.is_real and _apart_from_zero(p, gamma, theta):
                    continue
                try:
                    L = sympy.QQ.algebraic_field(gamma, theta)
                    root = L.from_sympy(theta)
                    embed = lambda c: L.from_sympy(K.to_sympy(self.to_anp(c)))
                    value = sum((embed(c) * root**i for i, c in enumerate(p) if c), L.zero)
                except (sympy.polys.polyerrors.CoercionFailed, NotImplementedError):
                    continue
                if not value:
                    mod = L.mod.to_list()
                    field = NumberField([_fraction(c / mod[0]) for c in reversed(mod)])
                    return field.from_anp(root), field, lambda c: field.from_anp(embed(c))
        raise InvalidGermError("could not realize an infinitely-near point in a number field")


def _apart_from_zero(p: Sequence["Element"], gamma: Any, theta: Any) -> bool:
    """Whether rational intervals around the real gamma and theta show p(gamma, theta) != 0.

    sympy gives each as a rational, or as s*r with s rational and r a CRootOf: a root
    of a polynomial in s*T comes back scaled.  r lies within dx of r.eval_rational(dx),
    so s*r within |s|*dx of s times it, and the interval value of p holds p(gamma, theta).
    Any other form shows nothing, and the exact check decides.
    """
    eps = Fraction(1, 2**32)
    boxes = []
    for r in (gamma, theta):
        scale, root = r.as_coeff_Mul()
        if root.is_Rational:
            center, width = Fraction(str(root)), 0
        elif hasattr(root, "eval_rational"):
            center, width = Fraction(str(root.eval_rational(dx=eps))), eps
        else:
            return False
        s = Fraction(str(scale))
        boxes.append(tuple(sorted((s * (center - width), s * (center + width)))))
    x, y = boxes
    lo, hi = _interval([_interval([(q, q) for q in c.coeffs], x) for c in p], y)
    return lo > 0 or hi < 0


def _interval(coeffs: Sequence[tuple], x: tuple) -> tuple:
    """Bounds on a polynomial over the interval x, its coefficients intervals, constant first."""
    lo = hi = 0
    for a, b in reversed(coeffs):
        products = (lo * x[0], lo * x[1], hi * x[0], hi * x[1])
        lo, hi = min(products) + a, max(products) + b
    return lo, hi


def _fraction(c: Any) -> Fraction:
    """A rational of sympy's QQ as a Fraction."""
    return Fraction(int(c.numerator), int(c.denominator))


def _sympy_factors(p: univariate.Dense, K: Any) -> list[tuple]:
    """The monic irreducible factors over the sympy domain K of a dense p, by sympy, as keys."""
    from sympy import Poly, Symbol

    _, factors = Poly(list(reversed(p)), Symbol("_v"), domain=K).factor_list()
    return [tuple(reversed(f.monic().rep.to_list())) for f, _ in factors if f.degree() >= 1]


def factor_rational(p: univariate.Dense) -> list[tuple]:
    """The monic irreducible factors over Q of a dense p of rationals, by sympy, as keys."""
    from sympy import QQ

    keys = _sympy_factors([QQ(c.numerator, c.denominator) for c in p], QQ)
    return [tuple(map(_fraction, key)) for key in keys]


@total_ordering
class Element:
    """An element of a NumberField: its coefficients in 1, t, ..., t^(n-1)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: tuple) -> None:
        self.field = field
        self.coeffs = coeffs

    def _new(self, coeffs) -> "Element":
        return Element(self.field, tuple(coeffs))

    def __repr__(self) -> str:
        return f"Element({_text(self.coeffs)} mod {_text(self.field.modulus)})"

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.coeffs == other.coeffs and (
            self.field is other.field or self.field.modulus == other.field.modulus)

    def _dense(self) -> tuple:
        """The coefficients highest power first without leading zeros, as sympy stores them."""
        rep = self.coeffs
        n = len(rep)
        while n and not rep[n - 1]:
            n -= 1
        return rep[n - 1::-1] if n else ()

    def __lt__(self, other: "Element") -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self._dense() < other._dense()

    def __neg__(self) -> "Element":
        return self._new(-c for c in self.coeffs)

    def __add__(self, other: Any) -> "Element":
        if isinstance(other, Element):
            return self._new(a + b for a, b in zip(self.coeffs, other.coeffs))
        if isinstance(other, (int, Fraction)):
            return self._new((self.coeffs[0] + other,) + self.coeffs[1:])
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: Any) -> "Element":
        return self + -other

    def __rsub__(self, other: Any) -> "Element":
        return -self + other

    def __mul__(self, other: Any) -> "Element":
        if isinstance(other, (int, Fraction)):
            return self._new(c * other for c in self.coeffs)
        if not isinstance(other, Element):
            return NotImplemented
        n = len(self.coeffs)
        product = [0] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    product[i + j] += a * b
        g = self.field.modulus
        for i in range(2 * n - 2, n - 1, -1):  # t^i = t^(i-n) (t^n - g)
            c = product[i]
            if c:
                for j in range(n):
                    product[i - n + j] -= c * g[j]
        return self._new(product[:n])

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "Element":
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if isinstance(other, Element):
            return self * other ** -1
        return NotImplemented

    def __pow__(self, n: int) -> "Element":
        if n < 0:
            return self._inverse() ** -n
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self.field.one if result is None else result

    def _inverse(self) -> "Element":
        inverse = univariate.invert(univariate.trim(list(self.coeffs)), list(self.field.modulus))
        return self._new(inverse + [0] * (len(self.coeffs) - len(inverse)))


def _text(coeffs: Sequence) -> str:
    """c_0 + c_1 t + ... as text."""
    terms = [f"{c}" if i == 0 else f"{c}*t" if i == 1 else f"{c}*t^{i}"
             for i, c in enumerate(coeffs) if c]
    return " + ".join(terms) or "0"
