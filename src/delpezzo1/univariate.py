"""Dense univariate polynomials, for exact gcds without sympy.

A polynomial is a list of coefficients, constant term first, with no
trailing zero; the zero polynomial is [].  Under the blowup engine the
coefficients are ints, or elements of a numberfield.NumberField.  A zero
is tested by truthiness, as such an element never compares equal to the
int 0, and the int 0 that pads a list is only ever added to or
multiplied, never divided by a field element.  Over a NumberField the
line step of the blowup engine runs Euclid's gcd (von zur Gathen and
Gerhard, Modern Computer Algebra, 2013, ch. 3); in Z[x] it and the
contents in bivariate take bivariate.gcd_z, and integral polynomials
divide by exact_quotient.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

Dense = list


def trim(p: Dense) -> Dense:
    """p without its trailing zeros, in place."""
    while p and not p[-1]:
        p.pop()
    return p


def from_dict(d: dict[int, Any]) -> Dense:
    """{exponent: coefficient} as a dense list."""
    if not d:
        return []
    p = [0] * (max(d) + 1)
    for b, c in d.items():
        p[b] = c
    return trim(p)


def integral(coeffs: Sequence) -> tuple[tuple[int, ...], int]:
    """Rationals (ints, Fractions, sympy's QQ) as numerators over their lcm denominator."""
    den = math.lcm(*(int(c.denominator) for c in coeffs))
    return tuple(int(c.numerator) * (den // int(c.denominator)) for c in coeffs), den


def derivative(p: Dense) -> Dense:
    return trim([i * c for i, c in enumerate(p)][1:])


def evaluate(p: Dense, t: Any) -> Any:
    value = 0
    for c in reversed(p):
        value = value * t + c
    return value


def mul(p: Dense, q: Dense) -> Dense:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def divide(p: Dense, q: Dense) -> tuple[Dense, Dense]:
    """Quotient and remainder of p by a nonzero q over a field."""
    rem = list(p)
    if len(rem) < len(q):
        return [], rem
    inverse = q[-1] ** -1
    quo = [0] * (len(rem) - len(q) + 1)
    for shift in range(len(quo) - 1, -1, -1):
        c = rem.pop() * inverse
        quo[shift] = c
        if c:
            for j in range(len(q) - 1):
                rem[shift + j] -= c * q[j]
    return quo, trim(rem)


def exact_quotient(p: Dense, q: Dense) -> Dense | None:
    """p / q in Z[x] for ints p and a nonzero q, when q divides p there, else None."""
    rem = list(p)
    if len(rem) < len(q):
        return None if rem else []
    quo = [0] * (len(rem) - len(q) + 1)
    lead = q[-1]
    for s in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem.pop(), lead)
        if r:
            return None
        quo[s] = c
        if c:
            for j in range(len(q) - 1):
                rem[s + j] -= c * q[j]
    return None if any(rem) else quo


def monic(p: Dense) -> Dense:
    inverse = p[-1] ** -1
    return [c * inverse for c in p]


def gcd(p: Dense, q: Dense) -> Dense:
    """The monic gcd of p and q ([] when both are zero), by Euclid."""
    while q:
        r = divide(p, q)[1] if len(q) > 1 else []
        p, q = q, monic(r) if r else []
    return monic(p) if p else []
