"""Exact number fields Q[t]/(g): with Q, the only fields under the blowup engine.

When a cluster of degree >= 2 over Q needs a blowup, the engine extends Q
by a root of the cluster's monic factor g: the field is Q[t]/(g) and the
point is t itself, so no root is ever located.  An element holds its
rational coefficients in 1, t, ..., t^(n-1), constant term first, as a
tuple of integer numerators over one positive denominator in lowest terms
(Cohen, A Course in Computational Algebraic Number Theory, 1993, section
4.2), and g is kept the same way.  A sum or a product is then integer
arithmetic, with one reduction modulo g and one gcd per result, where a
tuple of Fractions pays a gcd for every coefficient of every step; an
inverse solves the integer linear system of multiplication by the
numerators, fraction-free.  Elements mix with ints and Fractions on either
side, as univariate's polynomials need, a zero is falsy, equal elements
have one form and so one hash, and they are ordered as sympy orders its
own: by the coefficients, highest power first, without leading zeros.

A cluster of degree >= 2 over Q[t]/(g) gets a tower, a NumberField again
(NumberField.extend).  sympy is imported here only, to build towers and to
factor lines (NumberField.factor, factor_rational), and it sees a field as
its image QQ(CRootOf(g, 0)), whose generator is t (sympy_field).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, total_ordering
from typing import Any, Callable, Sequence

from . import univariate
from .errors import InvalidGermError


class NumberField:
    """Q[t]/(g) for a monic irreducible g over Q of degree >= 2, given constant term first."""

    def __init__(self, modulus: Sequence[Fraction]) -> None:
        self.modulus = tuple(modulus)
        self.degree = n = len(self.modulus) - 1
        nums, self.low_den = univariate.integral(self.modulus)
        self.low = nums[:n]  # g = t^n + low/low_den
        self.zero = self.convert(0)
        self.one = self.convert(1)
        self.gen = _element(self, (0, 1) + (0,) * (n - 2), 1)

    def __repr__(self) -> str:
        return f"NumberField({_text(self.modulus)})"

    def convert(self, c: Any) -> "Element":
        """The rational c as the element c·1."""
        return _element(self, (c.numerator,) + (0,) * (self.degree - 1), c.denominator)

    def _reduce(self, p: list, den: int) -> "Element":
        """The element p/den for n or more integers p and den > 0, reduced modulo g.

        t^i is t^(i-n) (t^n - g) = -t^(i-n) low/low_den: when low_den does not
        divide the leading numerator, all of p and den are first multiplied by it.
        """
        n, low, D = self.degree, self.low, self.low_den
        for i in range(len(p) - 1, n - 1, -1):
            c = p.pop()
            if c:
                if c % D:
                    p = [D * x for x in p]
                    den *= D
                else:
                    c //= D
                for j in range(n):
                    p[i - n + j] -= c * low[j]
        return _reduced(self, p, den)

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
        return K.new([K.dom(x, e.den) for x in reversed(e.nums)])

    def from_anp(self, a: Any) -> "Element":
        """An element of a sympy field whose generator has minimal polynomial g, as an element."""
        return Element(self, a.to_list()[::-1])

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
        at it in L: a root of a conjugate of p is built and rejected exactly.
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
    """An element of a NumberField: integer numerators over one positive denominator.

    Element(field, coeffs) takes the rational coefficients of a polynomial
    in t, constant term first, and reduces it modulo g; nums and den hold
    the n coefficients in 1, t, ..., t^(n-1) in lowest terms, coeffs gives
    them back.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: NumberField, coeffs: Sequence) -> None:
        nums, den = univariate.integral(coeffs)
        e = field._reduce(list(nums) + [0] * (field.degree - len(nums)), den)
        self.field, self.nums, self.den = field, e.nums, e.den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients, constant term first."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __repr__(self) -> str:
        return f"Element({_text(self.coeffs)} mod {_text(self.field.modulus)})"

    def __bool__(self) -> bool:
        return any(self.nums)

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den and (
            self.field is other.field or self.field.modulus == other.field.modulus)

    def _dense(self, scale: int) -> tuple:
        """The numerators times scale, highest power first without leading zeros.

        That is how sympy stores the coefficients; each scaled by the other's
        denominator, two elements compare as their rational coefficients do.
        """
        rep = self.nums
        n = len(rep)
        while n and not rep[n - 1]:
            n -= 1
        return tuple(x * scale for x in rep[n - 1::-1]) if n else ()

    def __lt__(self, other: "Element") -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self._dense(other.den) < other._dense(self.den)

    def __neg__(self) -> "Element":
        return _element(self.field, tuple(-x for x in self.nums), self.den)

    def __add__(self, other: Any) -> "Element":
        if isinstance(other, Element):
            d, e = self.den, other.den
            if d == e:
                return _reduced(self.field, [a + b for a, b in zip(self.nums, other.nums)], d)
            return _reduced(self.field, [a * e + b * d for a, b in zip(self.nums, other.nums)],
                            d * e)
        if isinstance(other, (int, Fraction)):
            if not other:
                return self
            p, q = other.numerator, other.denominator
            nums = [x * q for x in self.nums]
            nums[0] += p * self.den
            return _reduced(self.field, nums, self.den * q)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: Any) -> "Element":
        return self + -other

    def __rsub__(self, other: Any) -> "Element":
        return -self + other

    def __mul__(self, other: Any) -> "Element":
        if isinstance(other, Element):
            b = other.nums
            product = [0] * (2 * len(b) - 1)
            for i, x in enumerate(self.nums):
                if x:
                    for j, y in enumerate(b):
                        product[i + j] += x * y
            return self.field._reduce(product, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return _reduced(self.field, [x * other.numerator for x in self.nums],
                            self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "Element":
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if isinstance(other, Element):
            return self * other._inverse()
        return NotImplemented

    def __rtruediv__(self, other: Any) -> "Element":
        if isinstance(other, (int, Fraction)):
            return self._inverse() * other
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
        """(nums/den)^-1 = den x, x solving M x = 1 for M the matrix of the product by nums.

        Column j of M is nums t^j modulo g, times D^j so that it stays integral
        (g = t^n + low/D); fraction-free Gauss-Jordan elimination (Bareiss)
        turns [M | 1] into [det I | det y] with exact integer divisions, and
        x_j = D^j y_j.  A rational, such as one, is inverted as a rational.
        """
        if not any(self.nums[1:]):  # Fraction raises ZeroDivisionError at 0
            return self.field.convert(Fraction(self.den, self.nums[0]))
        field = self.field
        n, low, D = field.degree, field.low, field.low_den
        columns = [list(self.nums)]
        for _ in range(n - 1):  # column j + 1 is D t (column j) modulo g
            c = columns[-1]
            top = c[-1]
            columns.append([D * x - top * y for x, y in zip([0] + c[:-1], low)])
        rows = [[c[i] for c in columns] + [int(i == 0)] for i in range(n)]
        last = 1
        for k in range(n):
            if not rows[k][k]:
                r = next((r for r in range(k + 1, n) if rows[r][k]), None)
                if r is None:  # M is singular: self is 0
                    raise ZeroDivisionError("the zero element has no inverse")
                rows[k], rows[r] = rows[r], rows[k]
            pivot, row = rows[k][k], rows[k]
            for i in range(n):
                if i != k:
                    a = rows[i][k]
                    rows[i] = [(pivot * x - a * y) // last for x, y in zip(rows[i], row)]
            last = pivot
        scale = self.den if last > 0 else -self.den
        return _reduced(field, [scale * D**j * rows[j][n] for j in range(n)], abs(last))


def _element(field: NumberField, nums: tuple, den: int) -> Element:
    """The element nums/den, given in lowest terms with den > 0."""
    e = object.__new__(Element)
    e.field, e.nums, e.den = field, nums, den
    return e


def _reduced(field: NumberField, nums: list, den: int) -> Element:
    """The element nums/den for den > 0, brought to lowest terms by one gcd."""
    g = math.gcd(den, *nums)
    if g != 1:
        return _element(field, tuple(x // g for x in nums), den // g)
    return _element(field, tuple(nums), den)


def _text(coeffs: Sequence) -> str:
    """c_0 + c_1 t + ... as text."""
    terms = [f"{c}" if i == 0 else f"{c}*t" if i == 1 else f"{c}*t^{i}"
             for i, c in enumerate(coeffs) if c]
    return " + ".join(terms) or "0"
