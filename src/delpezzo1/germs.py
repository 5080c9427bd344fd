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
INTEGER is a non-negative integer literal; "/" divides by a nonzero
constant only; powers are right-associative ("x^2^3" is x^8); "−" (the
unicode minus) is read as "-" and whitespace is ignored.  Anything else
(another name, a call, a negative or fractional exponent, a division by a
polynomial) raises InvalidGermError.

Text is expanded in integers: each value is integer numerators over one
positive denominator in lowest terms, as numberfield.Element holds a number,
and no Fraction is made.  Fixed limits, checked before each multiplication
from the sizes of its operands, keep any text from making the parser run
long; going over a limit raises InvalidGermError.

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
word-size primes (bivariate).  Nothing here imports sympy at module
level: it is loaded only by the sympy views .poly and .expr and by a germ
given as a sympy expression.
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
_INTEGER = re.compile(r"[0-9]+")

# A polynomial is a pair (nums, den): a dict {(a, b): int} with no zero
# stored and an int den > 0, in lowest terms (gcd(den, *nums) = 1), so that
# it has one form; the coefficient of x^a y^b is nums[a, b]/den, and den is
# the lcm of the coefficients' own denominators.


def _bits(p: tuple, exact: bool) -> int:
    """Bits of the largest numerator, reduced if exact (else a bound at no gcd), and of den."""
    nums, den = p
    tops = [abs(c) // gcd(c, den) for c in nums.values()] if exact else map(abs, nums.values())
    return max(tops, default=0).bit_length() + den.bit_length()


def _reduced(nums: dict, den: int) -> tuple:
    """(nums, den) for den > 0 and no zero in nums, in lowest terms by one gcd."""
    g = gcd(den, *nums.values())
    return (nums, den) if g == 1 else ({k: c // g for k, c in nums.items()}, den // g)


def _degree(p: tuple) -> int:
    return max((a + b for a, b in p[0]), default=0)


class _Parser:
    """One pass of recursive descent over the tokens of one germ text."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN.findall(text.replace("−", "-")) + [""]  # "" ends the text
        self.pos = 0
        self.nesting = 0
        self.products = 0

    def fail(self, reason: str) -> NoReturn:
        raise InvalidGermError(f"cannot parse germ {quoted(self.text)}: {reason}")

    def expected(self, what: str) -> NoReturn:
        token = self.peek()
        self.fail(f"expected {what}, found {quoted(token) if token else 'the end'}")

    def peek(self) -> str:
        return self.tokens[self.pos]

    def take(self) -> str:
        token = self.peek()
        self.pos += 1
        return token

    def germ(self) -> tuple:
        value = self.sum()
        if self.peek():
            self.expected("an operator or the end")
        return value

    def sum(self) -> tuple:
        out, den = self.product()  # a dict of its own, as every value here
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            nums, d = self.product()
            # bounds the size, hence the cost, of every addition below
            common = lcm(den, d)
            if common.bit_length() > MAX_BITS:
                self.fail(f"a common denominator exceeds {MAX_BITS} bits")
            if common != den:
                out = {k: c * (common // den) for k, c in out.items()}
                den = common
            scale = sign * (den // d)
            for k, c in nums.items():
                out[k] = out.get(k, 0) + scale * c
        return _reduced({k: c for k, c in out.items() if c}, den)

    def product(self) -> tuple:
        value = self.signed()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                factor = self.signed()
            else:  # by a nonzero constant: multiply by its inverse
                nums, den = self.signed()
                if set(nums) != {(0, 0)}:
                    self.fail("division by a non-constant" if nums else "division by zero")
                c = nums[0, 0]
                factor = {(0, 0): den if c > 0 else -den}, abs(c)
            value = self.mul(value, factor)
        return value

    def signed(self) -> tuple:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        value = self.power()
        return value if sign > 0 else ({k: -c for k, c in value[0].items()}, value[1])

    def power(self) -> tuple:
        base = self.atom()
        exponents = []
        while self.peek() in ("^", "**"):
            self.take()
            if not _INTEGER.fullmatch(self.peek()):
                self.expected("a non-negative integer exponent")
            token = self.take()
            digits = token.lstrip("0") or "0"  # int() counts leading zeros to its digit limit
            if len(digits) > len(str(MAX_DEGREE)):  # before int() converts it
                self.fail(f"exponent {brief(token)} exceeds {MAX_DEGREE}")
            exponents.append(int(digits))
        if not exponents:
            return base
        n = 1
        for e in reversed(exponents):  # right-associative: a^b^c = a^(b^c)
            n = e**n  # at most 999**MAX_DEGREE, a small integer
            if n > MAX_DEGREE:
                self.fail(f"exponent {n} exceeds {MAX_DEGREE}")
        if n == 0:
            return {(0, 0): 1}, 1
        nums, den = base
        if den == 1 and list(nums.values()) == [1]:  # a monomial such as x^a: one term product
            ((a, b),) = nums
            self.charge((a + b) * n, 1)
            return {(a * n, b * n): 1}, 1
        result = None
        while n:  # square and multiply
            if n & 1:
                result = base if result is None else self.mul(result, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return result

    def atom(self) -> tuple:
        token = self.take()
        if token == "x":
            return {(1, 0): 1}, 1
        if token == "y":
            return {(0, 1): 1}, 1
        if token == "(":
            self.nesting += 1
            if self.nesting > MAX_NESTING:
                self.fail(f"parentheses nest deeper than {MAX_NESTING}")
            value = self.sum()
            if self.peek() != ")":
                self.expected("')'")
            self.take()
            self.nesting -= 1
            return value
        if _NUMBER.fullmatch(token):
            whole, _, frac = token.partition(".")
            frac = frac.rstrip("0")
            digits = (whole + frac).lstrip("0") or "0"  # the value's, as for an exponent
            if len(digits) + len(frac) > MAX_BITS:  # before int(): every digit left adds a bit
                self.fail(f"a literal exceeds {MAX_BITS} bits")
            c, den = int(digits), 10 ** len(frac)
            g = gcd(c, den)  # den when c = 0, the zero polynomial ({}, 1)
            c, den = c // g, den // g
            if c.bit_length() + den.bit_length() > MAX_BITS:
                self.fail(f"a literal exceeds {MAX_BITS} bits")
            return {(0, 0): c} if c else {}, den
        self.pos -= 1
        self.expected("x, y, a number or '('")

    def charge(self, degree: int, products: int) -> None:
        """Count a product of this degree, forming this many term products, against the limits."""
        if degree > MAX_DEGREE:
            self.fail(f"degree {degree} exceeds {MAX_DEGREE}")
        self.products += products
        if self.products > MAX_TERMS:
            self.fail(f"expansion exceeds {MAX_TERMS} term products")

    def mul(self, p: tuple, q: tuple) -> tuple:
        (pn, pd), (qn, qd) = p, q
        if len(pn) == len(qn) == 1:  # two terms, such as 2/3 and x: one term product
            ((a1, b1), c1), = pn.items()
            ((a2, b2), c2), = qn.items()
            self.charge(a1 + b1 + a2 + b2, 1)
            if (abs(c1).bit_length() + pd.bit_length() + abs(c2).bit_length()
                    + qd.bit_length() > MAX_BITS):  # a term in lowest terms: exact
                self.fail(f"coefficients exceed {MAX_BITS} bits")
            return _reduced({(a1 + a2, b1 + b2): c1 * c2}, pd * qd)
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
    def repeated_factor(self) -> dict | None:
        """The product of the irreducible factors that divide the germ more than once.

        None when the germ is squarefree, else as {(a, b): int}, primitive
        and positive at its first term in print order.  Decided by exact gcds
        over Z[x][y] (bivariate.repeated_factor); for a squarefree germ the
        first image modulo a prime is in practice the whole proof.
        """
        factor = bivariate.repeated_factor(bivariate.from_dict(self.nums))
        return None if factor == bivariate.ONE else bivariate.to_dict(factor)

    @cached_property
    def is_squarefree(self) -> bool:
        """Has the germ no repeated factor, that is, is gcd(f, f_x, f_y) constant?"""
        return self.repeated_factor is None

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
            f"germ {brief(g)} has the repeated factor {brief(sstr(g.repeated_factor))}")
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
