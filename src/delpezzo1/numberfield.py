"""Exact number fields Q[t]/(g), for the irrational points of the blowup engine.

When a cluster of degree >= 2 over Q needs a blowup, the engine extends Q
by a root of the cluster's monic factor g: the field is Q[t]/(g) and the
point is t itself, so no root is ever located.  An element is the tuple of
its rational coefficients in 1, t, ..., t^(n-1), constant term first.
Products are reduced modulo the monic g, and inverses come from the
extended Euclidean algorithm of univariate (Cohen, A Course in
Computational Algebraic Number Theory, 1993, section 4.2).

Elements work in the dense polynomials of univariate as sympy's algebraic
field elements do: an int or a Fraction mixes in as a rational, a zero is
falsy, and e ** -1 is the inverse.  They are hashable and ordered as sympy
orders its elements, by the coefficients highest power first without
leading zeros, so clusters are blown up in one order whichever type holds
them.

A field over Q(t) (a tower) and the factoring of a line over Q(t) are still
sympy's.  Both go through the field's sympy image QQ(CRootOf(g, 0)), whose
generator is t: sympy_field builds it once per field and imports sympy, and
to_anp and from_anp translate elements exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, total_ordering
from typing import Any, Sequence

from . import univariate


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

    def to_anp(self, e: "Element") -> Any:
        """An element as an element of sympy_field."""
        K = self.sympy_field
        return K.new([K.dom(c.numerator, c.denominator) for c in reversed(e.coeffs)])

    def from_anp(self, a: Any) -> "Element":
        """An element of sympy_field as an element of this field."""
        rep = [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(a.to_list())]
        return Element(self, tuple(rep) + (0,) * (self.degree - len(rep)))


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
