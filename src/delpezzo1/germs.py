"""Plane curve germs at the origin with exact rational coefficients.

A germ is a nonzero bivariate polynomial in x, y over Q vanishing at the
origin, e.g. "y^2 - x^3" or "x*y*(x+y)".  Germ text is read by a small
recursive-descent parser that evaluates nothing; its grammar is

    germ    := sum
    sum     := product (("+" | "-") product)*
    product := signed (("*" | "/") signed)*
    signed  := ("+" | "-")* power
    power   := atom (("^" | "**") INTEGER)*
    atom    := "x" | "y" | NUMBER | "(" sum ")"

NUMBER is an integer or a decimal literal, taken exactly ("0.1" is 1/10);
INTEGER is a non-negative integer literal; digits are ASCII 0-9 only ("²"
and fullwidth digits are no number, though str.isdigit takes them); an
integer literal and an exponent are read by str.isdigit and int on their
one path, a decimal by its regular expression.  "/" divides by a nonzero
constant only; powers are right-associative ("x^2^3" is x^8); "−" (the
unicode minus) is read as "-" and whitespace is ignored.  Anything else
(another name, a call, a negative or fractional exponent, a division by a
polynomial) raises InvalidGermError.

Text is expanded in integers, a term c/d x^a y^b at a time: only a sum, or
a product with one, is a polynomial, integer numerators over one positive
denominator in lowest terms as numberfield.Element holds a number, and no
Fraction is made.  Fixed limits, checked before each multiplication from
the sizes of its operands, keep any text from making the parser run long;
going over a limit raises InvalidGermError.

- The total degree of a product, and every exponent, is at most MAX_DEGREE.
- The term-by-term products formed over the whole text number at most
  MAX_TERMS.  A power of a monomial with coefficient 1, such as x^a, is
  built in one step and counts as one.
- The coefficients of the two factors, the bits of the largest reduced
  numerator and of the common denominator counted together, have at most
  MAX_BITS bits between them (reduced only when the unreduced numerators
  are over); so have a literal and the common denominator of a sum.
  Sums are linear in the text, so the germ itself has no bit limit, as for
  a germ built from a sympy expression.
- Parentheses nest at most MAX_NESTING deep.

A CurveGerm keeps that integer form, nums over den, which the engine and
the squarefree test read directly; native_dict is its Fraction view, and it
prints as sympy.sstr does.  The squarefree test, and the repeated factor
that a rejection names, come from exact gcds over Z[x][y] computed modulo
word-size primes (bivariate); when some y^b has the coefficient c or c x,
as in y^2 - x^3, the first image modulo a prime is the proof of a
squarefree germ, and no content is taken.  Nothing here imports sympy at
module level: it is loaded only by the sympy views .poly and .expr and by
a germ given as a sympy expression.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Any, NoReturn

from . import bivariate
from .blowup import lct_of_branches, multiplicity
from .errors import (
    DepthExceededError,
    InvalidGermError,
    NonSquarefreeError,
    NotAtOriginError,
    NotQuasihomogeneousError,
    brief,
    quoted,
)
from .univariate import integral

# Limits on germ text, like blowup.DEPTH_CAP on the engine.  MAX_DEGREE
# admits y^2 - x^201 (A_200, deeper than DEPTH_CAP); at each limit the worst
# accepted text expands in a few tens of milliseconds.
MAX_DEGREE = 256
MAX_TERMS = 50_000
MAX_BITS = 1024
MAX_NESTING = 50

SMOOTH = "smooth"
NODE = "node"
CUSP = "cusp"
OTHER = "other"

_NUMBER = re.compile(r"[0-9]+\.?[0-9]*|\.[0-9]+")
_TOKEN = re.compile(_NUMBER.pattern + r"|\*\*|\S")

# A value is a term (c, d, a, b), c/d x^a y^b with c != 0 < d in lowest
# terms, or a polynomial (nums, den) of no term or of two or more: a dict
# {(a, b): int} with no zero stored over an int den > 0, in lowest terms
# (gcd(den, *nums) = 1), den the lcm of the coefficients' own denominators.


def _bits(p: tuple, exact: bool) -> int:
    """Bits of the largest numerator, reduced if exact (else a bound at no gcd), and of den."""
    nums, den = p
    tops = [abs(c) // gcd(c, den) for c in nums.values()] if exact else map(abs, nums.values())
    return max(tops, default=0).bit_length() + den.bit_length()


def _reduced(nums: dict, den: int) -> tuple:
    """The value of nums over den > 0, no zero in nums, in lowest terms by one gcd."""
    g = gcd(den, *nums.values())
    if len(nums) == 1:
        ((a, b), c), = nums.items()
        return c // g, den // g, a, b
    return (nums, den) if g == 1 else ({k: c // g for k, c in nums.items()}, den // g)


def _degree(p: tuple) -> int:
    return max((a + b for a, b in p[0]), default=0)


def _terms(p: tuple) -> tuple:
    """(nums, den) of a value: a term becomes a new one-term dict."""
    return ({(p[2], p[3]): p[0]}, p[1]) if len(p) == 4 else p


class _Parser:
    """One pass of recursive descent over the tokens of one germ text, a stack: the next last."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = (_TOKEN.findall(text.replace("−", "-")) + [""])[::-1]  # "" ends the text
        self.nesting = 0
        self.products = 0

    def fail(self, reason: str) -> NoReturn:
        raise InvalidGermError(f"cannot parse germ {quoted(self.text, 50)}: {reason}")

    def expected(self, what: str) -> NoReturn:
        token = self.tokens[-1]
        self.fail(f"expected {what}, found {quoted(token, 60) if token else 'the end'}")

    def germ(self) -> tuple:
        value = self.sum()
        if self.tokens[-1]:
            self.expected("an operator or the end")
        return _terms(value)

    def sum(self) -> tuple:
        tokens = self.tokens
        value = self.product()
        if tokens[-1] not in ("+", "-"):
            return value
        out, den = _terms(value)
        while tokens[-1] in ("+", "-"):
            sign = 1 if tokens.pop() == "+" else -1
            value = self.product()
            d = value[1]
            if den % d:  # a new common denominator, bounding the cost of every addition below
                common = lcm(den, d)
                if common.bit_length() > MAX_BITS:
                    self.fail(f"a common denominator exceeds {MAX_BITS} bits")
                out = {k: c * (common // den) for k, c in out.items()}
                den = common
            scale = sign * (den // d)
            if len(value) == 4:
                c, _, a, b = value
                out[a, b] = out.get((a, b), 0) + scale * c
            else:
                for k, c in value[0].items():
                    out[k] = out.get(k, 0) + scale * c
        return _reduced({k: c for k, c in out.items() if c} if 0 in out.values() else out, den)

    def product(self) -> tuple:
        tokens = self.tokens
        value = self.signed()
        while tokens[-1] in ("*", "/"):
            if tokens.pop() == "*":
                factor = self.signed()
            else:  # by a nonzero constant: multiply by its inverse
                factor = self.signed()
                if len(factor) != 4 or factor[2] or factor[3]:
                    self.fail("division by zero" if factor == ({}, 1) else
                              "division by a non-constant")
                c, d, _, _ = factor
                factor = d if c > 0 else -d, abs(c), 0, 0
            value = self.mul(value, factor)
        return value

    def signed(self) -> tuple:
        tokens = self.tokens
        sign = 1
        while tokens[-1] in ("+", "-"):
            if tokens.pop() == "-":
                sign = -sign
        token = tokens.pop()
        value = (1, 1, 1, 0) if token == "x" else (1, 1, 0, 1) if token == "y" else self.atom(token)
        if tokens[-1] in ("^", "**"):
            value = self.power(value)
        if sign > 0:
            return value
        return (-value[0],) + value[1:] if len(value) == 4 else (
            {k: -c for k, c in value[0].items()}, value[1])

    def power(self, base: tuple) -> tuple:
        """The atom base raised to the exponents that follow it."""
        tokens = self.tokens
        exponents = []
        while tokens[-1] in ("^", "**"):
            tokens.pop()
            token = tokens[-1]
            if not (token.isdigit() and token.isascii()):  # str.isdigit alone takes "²"
                self.expected("a non-negative integer exponent")
            tokens.pop()
            digits = token.lstrip("0")  # int() counts leading zeros to its digit limit
            if len(digits) > len(str(MAX_DEGREE)):  # before int() converts it
                self.fail(f"exponent {brief(token)} exceeds {MAX_DEGREE}")
            exponents.append(int(digits or "0"))
        n = 1
        for e in reversed(exponents):  # right-associative: a^b^c = a^(b^c)
            n = e**n  # at most 999**MAX_DEGREE, a small integer
            if n > MAX_DEGREE:
                self.fail(f"exponent {n} exceeds {MAX_DEGREE}")
        if n == 0:
            return 1, 1, 0, 0
        if base[0] == base[1] == 1:  # a monomial such as x^a: one term product
            a, b = base[2] * n, base[3] * n
            self.charge(a + b, 1)
            return 1, 1, a, b
        result = None
        while n:  # square and multiply
            if n & 1:
                result = base if result is None else self.mul(result, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return result

    def atom(self, token: str) -> tuple:
        """A number or "(" sum ")": the atoms other than x and y."""
        if token.isdigit() and token.isascii():  # an integer literal, over den = 1
            digits = token.lstrip("0")  # the value's, as for an exponent
            if len(digits) > MAX_BITS or (c := int(digits or "0")).bit_length() >= MAX_BITS:
                # den = 1 counts one bit, as for a decimal
                self.fail(f"a literal exceeds {MAX_BITS} bits")
            return (c, 1, 0, 0) if c else ({}, 1)
        if token == "(":
            self.nesting += 1
            if self.nesting > MAX_NESTING:
                self.fail(f"parentheses nest deeper than {MAX_NESTING}")
            value = self.sum()
            if self.tokens[-1] != ")":
                self.expected("')'")
            self.tokens.pop()
            self.nesting -= 1
            return value
        if _NUMBER.fullmatch(token):  # a decimal literal
            whole, _, frac = token.partition(".")
            frac = frac.rstrip("0")
            digits = (whole + frac).lstrip("0") or "0"
            if len(digits) + len(frac) > MAX_BITS:  # before int(): every digit left adds a bit
                self.fail(f"a literal exceeds {MAX_BITS} bits")
            c, den = int(digits), 10 ** len(frac)
            g = gcd(c, den)  # den when c = 0, the zero polynomial ({}, 1)
            c, den = c // g, den // g
            if c.bit_length() + den.bit_length() > MAX_BITS:
                self.fail(f"a literal exceeds {MAX_BITS} bits")
            return (c, den, 0, 0) if c else ({}, 1)
        self.tokens.append(token)
        self.expected("x, y, a number or '('")

    def charge(self, degree: int, products: int) -> None:
        """Count a product of this degree, forming this many term products, against the limits."""
        if degree > MAX_DEGREE:
            self.fail(f"degree {degree} exceeds {MAX_DEGREE}")
        self.products += products
        if self.products > MAX_TERMS:
            self.fail(f"expansion exceeds {MAX_TERMS} term products")

    def mul(self, p: tuple, q: tuple) -> tuple:
        if len(p) == 4 and len(q) == 4:  # such as 2/3 and x: one term product
            (c1, d1, a1, b1), (c2, d2, a2, b2) = p, q
            self.charge(a1 + b1 + a2 + b2, 1)
            if (abs(c1).bit_length() + d1.bit_length() + abs(c2).bit_length()
                    + d2.bit_length() > MAX_BITS):  # a term in lowest terms: exact
                self.fail(f"coefficients exceed {MAX_BITS} bits")
            c, d = c1 * c2, d1 * d2
            g = gcd(c, d)
            return c // g, d // g, a1 + a2, b1 + b2
        p, q = _terms(p), _terms(q)
        (pn, pd), (qn, qd) = p, q
        self.charge(_degree(p) + _degree(q), len(pn) * len(qn))
        if (_bits(p, False) + _bits(q, False) > MAX_BITS
                and _bits(p, True) + _bits(q, True) > MAX_BITS):
            self.fail(f"coefficients exceed {MAX_BITS} bits")
        out: dict = {}
        for (a1, b1), c1 in pn.items():
            for (a2, b2), c2 in qn.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return _reduced({k: c for k, c in out.items() if c}, pd * qd)


def _from_sympy(obj: Any) -> tuple:
    """The (nums, den) of a sympy Expr or Poly in x and y over Q.

    Only a caller holding a sympy object gets here, so sympy is loaded already.
    """
    from sympy import QQ, Poly, Symbol
    from sympy.polys.polyerrors import CoercionFailed, GeneratorsError, PolynomialError

    gens = Symbol("x"), Symbol("y")
    try:
        p = Poly(obj, *gens, domain=QQ)
    except (PolynomialError, CoercionFailed, GeneratorsError) as exc:
        raise InvalidGermError(f"not a bivariate polynomial over Q: {obj}") from exc
    coeffs = p.as_dict(native=True)
    nums, den = integral(coeffs.values())
    return dict(zip(coeffs, nums)), den


def __getattr__(name: str) -> Any:
    """x and y, the sympy symbols of CurveGerm.expr; reading one loads sympy."""
    if name in ("x", "y"):
        from sympy import Symbol

        return Symbol(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CurveGerm:
    """A bivariate polynomial germ, validated to vanish at the origin.

    Germ text, another CurveGerm, or a sympy Expr or Poly in x and y (told
    apart by its as_poly method).  The germ is nums {(a, b): int} over den,
    integer numerators over one positive denominator in lowest terms, the
    engine's input (a curve is its polynomial up to a constant).
    native_dict {(a, b): Fraction} is the coefficient of x^a y^b; .poly and
    .expr are sympy views, and reading one loads sympy.
    """

    def __init__(self, poly: "CurveGerm | str | Any"):
        if isinstance(poly, CurveGerm):
            self.nums, self.den = poly.nums, poly.den
        elif isinstance(poly, str):
            self.nums, self.den = _Parser(poly).germ()
        elif hasattr(poly, "as_poly"):
            self.nums, self.den = _from_sympy(poly)
        else:
            raise InvalidGermError(f"not a bivariate polynomial over Q: {poly!r}")
        if not self.nums:
            raise InvalidGermError("the zero polynomial is not a germ")
        if (0, 0) in self.nums:
            raise NotAtOriginError(f"germ {brief(self)} does not vanish at the origin")

    @cached_property
    def native_dict(self) -> dict:
        """{(a, b): the Fraction coefficient of x^a y^b}."""
        return {k: Fraction(c, self.den) for k, c in self.nums.items()}

    @cached_property
    def poly(self) -> Any:
        """The germ as a sympy Poly in x, y over QQ."""
        from sympy import QQ, Poly, Symbol

        coeffs = {k: QQ(c, self.den) for k, c in self.nums.items()}
        return Poly.from_dict(coeffs, Symbol("x"), Symbol("y"), domain=QQ)

    @property
    def expr(self) -> Any:
        return self.poly.as_expr()

    @cached_property
    def multiplicity(self) -> int:
        return multiplicity(self.nums)

    @cached_property
    def is_squarefree(self) -> bool:
        """Has the germ no repeated factor, that is, is gcd(f, f_x, f_y) constant?

        Decided once, with the factor itself (repeated_factor), under the one
        lock of this property.
        """
        factor = bivariate.repeated_factor(bivariate.from_dict(self.nums))
        self._repeated_factor = None if factor == bivariate.ONE else bivariate.to_dict(factor)
        return self._repeated_factor is None

    @property
    def repeated_factor(self) -> dict | None:
        """The product of the irreducible factors that divide the germ more than once.

        None when the germ is squarefree, else as {(a, b): int}, primitive
        and positive at its first term in print order.  Decided by exact gcds
        over Z[x][y] (bivariate.repeated_factor): when some y^b has the
        coefficient c or c x, the first image modulo a prime is the proof of
        a squarefree germ, and no content is taken.
        """
        return None if self.is_squarefree else self._repeated_factor

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CurveGerm) and (self.nums, self.den) == (other.nums, other.den)

    def __hash__(self) -> int:
        return hash((frozenset(self.nums.items()), self.den))

    def __str__(self) -> str:
        return sstr(self.native_dict)

    def __repr__(self) -> str:
        return f"CurveGerm({self})"


def sstr(d: dict) -> str:
    """{(a, b): coefficient of x^a y^b} as sympy.sstr prints it: lex order, x before y."""
    text = ""
    for (a, b), c in sorted(d.items(), reverse=True):
        powers = [f"{v}**{e}" if e > 1 else v for v, e in (("x", a), ("y", b)) if e]
        num = abs(c.numerator)
        term = "*".join([str(num)] * (num != 1 or not powers) + powers)
        if c.denominator != 1:
            term += f"/{c.denominator}"
        if text:
            text += " - " if c < 0 else " + "
        elif c < 0:
            text = "-"
        text += term
    return text


def as_germ(g: "CurveGerm | str | Any") -> CurveGerm:
    return g if isinstance(g, CurveGerm) else CurveGerm(g)


def ensure_squarefree(g: CurveGerm) -> CurveGerm:
    if not g.is_squarefree:
        raise NonSquarefreeError(
            f"germ {brief(g, 70)} has the repeated factor {brief(sstr(g.repeated_factor), 70)}")
    return g


def classify_germ(g: "CurveGerm | str | Any") -> str:
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
        lct = lct_of_branches([(germ.nums, 1)])
    except DepthExceededError:
        return OTHER  # a node or a cusp resolves within three blowups
    return {Fraction(1): NODE, Fraction(5, 6): CUSP}.get(lct, OTHER)


def lct_quasihomogeneous(g: "CurveGerm | str | Any") -> Fraction:
    """Threshold of a quasi-homogeneous squarefree germ via min(1, (wx+wy)/d).

    The germ must admit positive integer weights (wx, wy) giving every
    monomial the same weighted degree d; the smallest such weights are used.
    Raises NotQuasihomogeneous otherwise.
    """
    germ = ensure_squarefree(as_germ(g))
    monos = sorted(germ.nums)
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
