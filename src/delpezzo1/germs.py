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

Products and powers are expanded exactly, under fixed limits checked before
each multiplication from the sizes of its operands, so that no text can make
the parser run long.  Going over a limit raises InvalidGermError.

- The total degree of a product, and every exponent, is at most MAX_DEGREE.
- The term-by-term products formed over the whole text number at most
  MAX_TERMS.  A power of a monomial with coefficient 1, such as x^a, is
  built in one step and counts as one.
- The coefficients of the two factors, the bits of the largest numerator
  and of the common denominator counted together, have at most MAX_BITS
  bits between them; so have a literal and the common denominator of a sum.
  Sums are linear in the text, so the germ itself has no bit limit, as for
  a germ built from a sympy expression.
- Parentheses nest at most MAX_NESTING deep.

A CurveGerm keeps the parser's dict, its coefficients made Fractions, and
prints it as sympy.sstr does.  Its squarefree test, and the repeated
factor that a rejection names, come from exact gcds over Z[x][y] computed
modulo word-size primes (bivariate).  Nothing here imports sympy at module
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
)

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

# a polynomial is a dict {(a, b): coefficient}, no zero stored; the parser
# keeps an integral coefficient as an int, which multiplies faster than a
# Fraction, and CurveGerm makes every coefficient a Fraction once


def _bits(p: dict) -> int:
    """Bits of the largest numerator plus those of the common denominator."""
    num = max([abs(c.numerator) for c in p.values()], default=0)
    return num.bit_length() + lcm(*[c.denominator for c in p.values()]).bit_length()


def _degree(p: dict) -> int:
    return max((a + b for a, b in p), default=0)


class _Parser:
    """One pass of recursive descent over the tokens of one germ text."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN.findall(text.replace("−", "-"))
        self.pos = 0
        self.nesting = 0
        self.products = 0

    def fail(self, reason: str) -> NoReturn:
        raise InvalidGermError(f"cannot parse germ {brief(self.text)!r}: {reason}")

    def expected(self, what: str) -> NoReturn:
        token = self.peek()
        self.fail(f"expected {what}, found {repr(token) if token else 'the end'}")

    def peek(self) -> str:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ""

    def take(self) -> str:
        token = self.peek()
        self.pos += 1
        return token

    def germ(self) -> dict:
        value = self.sum()
        if self.pos < len(self.tokens):
            self.expected("an operator or the end")
        return value

    def sum(self) -> dict:
        value = self.product()
        den = lcm(*(c.denominator for c in value.values()))
        out = dict(value)
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            value = self.product()
            # bounds the size, hence the cost, of every addition below
            den = lcm(den, *(c.denominator for c in value.values()))
            if den.bit_length() > MAX_BITS:
                self.fail(f"a common denominator exceeds {MAX_BITS} bits")
            for k, c in value.items():
                out[k] = out.get(k, 0) + sign * c
        return {k: c for k, c in out.items() if c}

    def product(self) -> dict:
        value = self.signed()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                factor = self.signed()
            else:  # by a nonzero constant: multiply by its inverse
                divisor = self.signed()
                if set(divisor) != {(0, 0)}:
                    self.fail("division by a non-constant" if divisor else "division by zero")
                factor = {(0, 0): Fraction(1) / divisor[(0, 0)]}
            value = self.mul(value, factor)
        return value

    def signed(self) -> dict:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        value = self.power()
        return value if sign > 0 else {k: -c for k, c in value.items()}

    def power(self) -> dict:
        base = self.atom()
        exponents = []
        while self.peek() in ("^", "**"):
            self.take()
            if not _INTEGER.fullmatch(self.peek()):
                self.expected("a non-negative integer exponent")
            token = self.take()
            if len(token) > len(str(MAX_DEGREE)):  # before int() converts it
                self.fail(f"exponent {token} exceeds {MAX_DEGREE}")
            exponents.append(int(token))
        if not exponents:
            return base
        n = 1
        for e in reversed(exponents):  # right-associative: a^b^c = a^(b^c)
            n = e**n  # at most 999**MAX_DEGREE, a small integer
            if n > MAX_DEGREE:
                self.fail(f"exponent {n} exceeds {MAX_DEGREE}")
        if n == 0:
            return {(0, 0): 1}
        if list(base.values()) == [1]:  # a monomial such as x^a: one term product
            ((a, b),) = base
            self.charge((a + b) * n, 1)
            return {(a * n, b * n): 1}
        result = None
        while n:  # square and multiply
            if n & 1:
                result = base if result is None else self.mul(result, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return result

    def atom(self) -> dict:
        token = self.take()
        if token == "x":
            return {(1, 0): 1}
        if token == "y":
            return {(0, 1): 1}
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
            if len(token) > MAX_BITS:  # before int() converts it
                self.fail(f"a literal exceeds {MAX_BITS} bits")
            whole, _, frac = token.partition(".")
            c = Fraction(int(whole + frac), 10 ** len(frac))
            if c.denominator == 1:
                c = c.numerator
            value = {(0, 0): c} if c else {}
            if _bits(value) > MAX_BITS:
                self.fail(f"a literal exceeds {MAX_BITS} bits")
            return value
        self.pos -= 1
        self.expected("x, y, a number or '('")

    def charge(self, degree: int, products: int) -> None:
        """Count a product of this degree, forming this many term products, against the limits."""
        if degree > MAX_DEGREE:
            self.fail(f"degree {degree} exceeds {MAX_DEGREE}")
        self.products += products
        if self.products > MAX_TERMS:
            self.fail(f"expansion exceeds {MAX_TERMS} term products")

    def mul(self, p: dict, q: dict) -> dict:
        if len(p) == len(q) == 1:  # two terms, such as 2/3 and x: one term product
            ((a1, b1), c1), = p.items()
            ((a2, b2), c2), = q.items()
            self.charge(a1 + b1 + a2 + b2, 1)
            if sum(abs(c.numerator).bit_length() + c.denominator.bit_length()
                   for c in (c1, c2)) > MAX_BITS:
                self.fail(f"coefficients exceed {MAX_BITS} bits")
            return {(a1 + a2, b1 + b2): c1 * c2}
        self.charge(_degree(p) + _degree(q), len(p) * len(q))
        if _bits(p) + _bits(q) > MAX_BITS:
            self.fail(f"coefficients exceed {MAX_BITS} bits")
        out: dict = {}
        for (a1, b1), c1 in p.items():
            for (a2, b2), c2 in q.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return {k: c for k, c in out.items() if c}


def _from_sympy(obj: Any) -> dict:
    """The coefficient dict of a sympy Expr or Poly in x and y over Q.

    Only a caller holding a sympy object gets here, so sympy is loaded already.
    """
    from sympy import QQ, Poly, Symbol
    from sympy.polys.polyerrors import CoercionFailed, GeneratorsError, PolynomialError

    gens = Symbol("x"), Symbol("y")
    try:
        p = Poly(obj, *gens, domain=QQ)
    except (PolynomialError, CoercionFailed, GeneratorsError) as exc:
        raise InvalidGermError(f"not a bivariate polynomial over Q: {obj}") from exc
    extra = p.free_symbols - set(gens)
    if extra:
        raise InvalidGermError(f"unexpected symbols {sorted(map(str, extra))}")
    return {k: Fraction(int(c.numerator), int(c.denominator))
            for k, c in p.as_dict(native=True).items()}


def __getattr__(name: str) -> Any:
    """x and y, the sympy symbols of CurveGerm.expr; reading one loads sympy."""
    if name in ("x", "y"):
        from sympy import Symbol

        return Symbol(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CurveGerm:
    """A bivariate polynomial germ, validated to vanish at the origin.

    Germ text, another CurveGerm, or a sympy Expr or Poly in x and y (told
    apart by its as_poly method).  The germ is its dict native_dict
    {(a, b): Fraction} of the coefficients of x^a y^b; .poly and .expr are
    sympy views of it, and reading one loads sympy.
    """

    def __init__(self, poly: "CurveGerm | str | Any"):
        if isinstance(poly, CurveGerm):
            self.native_dict = poly.native_dict
        elif isinstance(poly, str):
            self.native_dict = {k: Fraction(c) for k, c in _Parser(poly).germ().items()}
        elif hasattr(poly, "as_poly"):
            self.native_dict = _from_sympy(poly)
        else:
            raise InvalidGermError(f"not a bivariate polynomial over Q: {poly!r}")
        if not self.native_dict:
            raise InvalidGermError("the zero polynomial is not a germ")
        if (0, 0) in self.native_dict:
            raise NotAtOriginError(f"germ {brief(self)} does not vanish at the origin")

    @cached_property
    def poly(self) -> Any:
        """The germ as a sympy Poly in x, y over QQ."""
        from sympy import QQ, Poly, Symbol

        coeffs = {k: QQ(c.numerator, c.denominator) for k, c in self.native_dict.items()}
        return Poly.from_dict(coeffs, Symbol("x"), Symbol("y"), domain=QQ)

    @property
    def expr(self) -> Any:
        return self.poly.as_expr()

    @cached_property
    def multiplicity(self) -> int:
        return multiplicity(self.native_dict)

    @cached_property
    def repeated_factor(self) -> dict | None:
        """The product of the irreducible factors that divide the germ more than once.

        None when the germ is squarefree, else as {(a, b): int}, primitive
        and positive at its first term in print order.  Decided by exact gcds
        over Z[x][y] (bivariate.repeated_factor); for a squarefree germ the
        first image modulo a prime is in practice the whole proof.
        """
        factor = bivariate.repeated_factor(bivariate.from_dict(self.native_dict))
        return None if factor == bivariate.ONE else bivariate.to_dict(factor)

    @cached_property
    def is_squarefree(self) -> bool:
        """Has the germ no repeated factor, that is, is gcd(f, f_x, f_y) constant?"""
        return self.repeated_factor is None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CurveGerm) and self.native_dict == other.native_dict

    def __hash__(self) -> int:
        return hash(frozenset(self.native_dict.items()))

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


def brief(obj: object) -> str:
    """str(obj) as an error message shows it: past 80 characters, cut to 77 and "..."."""
    text = str(obj)
    return text if len(text) <= 80 else text[:77] + "..."


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
        lct = lct_of_branches([(germ.native_dict, 1)])
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
