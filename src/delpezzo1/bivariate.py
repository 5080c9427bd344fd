"""Polynomials in y over Z[x], and their exact gcd without sympy.

A polynomial is a list of columns, the coefficient of y^b at index b, each
a dense list of ints in x as in univariate (constant term first, no
trailing zero); the last column is nonzero and the zero polynomial is [].
A germ's numerators are read as they are, and no Fraction is made.

gcd is Brown's dense modular algorithm (W. S. Brown, "On Euclid's algorithm
and the computation of polynomial greatest common divisors", JACM 1971; von
zur Gathen and Gerhard, Modern Computer Algebra, 2013, ch. 6).  Modulo a
prime below 2^61, so that every residue is a word-size int, both inputs are
evaluated at x = 1, 2, 3, ... (each prime at new points); their univariate
gcds there, scaled by a common leading coefficient, are interpolated in x,
and the images of several primes are combined by the Chinese remainder
theorem.  An image of degree 0 at a point where both leading coefficients
survive proves the gcd constant; any other candidate is accepted only once
it divides both inputs exactly (scaled as its leading coefficient needs).
An unlucky prime or point costs another one, never a wrong answer.  gcd_z
is the same in one variable, with no point to evaluate at: it gives the
gcds of contents in Z[x] here, and the blowup engine's gcds on a line over Q.
"""

from __future__ import annotations

from itertools import count, islice, zip_longest
from math import gcd as igcd
from operator import mul
from typing import Iterator

from . import univariate

Poly = list  # list of columns, each a list of ints
ONE = [[1]]
MERSENNE_61 = 2**61 - 1  # the first modulus tried
WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # Miller-Rabin, exact below 3.3e24


def from_dict(d: dict) -> Poly:
    """{(a, b): int coefficient of x^a y^b}, such as a germ's numerators, as columns."""
    columns: dict = {}
    for (a, b), c in d.items():
        columns.setdefault(b, {})[a] = c
    return [univariate.from_dict(columns.get(b, {})) for b in range(max(columns) + 1)]


def to_dict(p: Poly) -> dict:
    """p as {(a, b): coefficient of x^a y^b}, positive at its largest (a, b).

    That is the term sympy prints first, so a factor prints with a leading +.
    """
    d = {(a, b): c for b, col in enumerate(p) for a, c in enumerate(col) if c}
    return {k: -c for k, c in d.items()} if d[max(d)] < 0 else d


def derivative(p: Poly) -> Poly:
    """d/dy."""
    return [[b * c for c in col] for b, col in enumerate(p)][1:]


def _integral(p: list) -> Poly:
    """The columns p of ints divided by their content in Z, the top one positive."""
    g = igcd(*(c for col in p for c in col))
    if p[-1][-1] < 0:
        g = -g
    return p if g == 1 else [[c // g for c in col] for col in p]


def primitive(p: Poly) -> tuple[list, Poly]:
    """(c, q) with p = c(x) q, c the content of the nonzero p in Z[x] and q primitive.

    Both are made integral with a positive leading coefficient, so c is the
    content up to a constant.  x^k is stripped by an index shift, and the
    content of the rest is 1 as soon as some column is a constant.
    """
    k = min(next(i for i, c in enumerate(col) if c) for col in p if col)
    if k:
        p = [col[k:] for col in p]
    content, *rest = sorted((col for col in p if col), key=len)
    content = _integral([content])[0]
    for col in rest:
        if len(content) == 1:
            break
        content = gcd_z(content, col)
    if len(content) > 1:
        p = [univariate.exact_quotient(col, content) for col in p]
    return [0] * k + content, _integral(p)


def divide(p: Poly, h: Poly) -> Poly | None:
    """p / h when h divides p in Z[x][y], else None.

    Long division in y: its steps compute the columns of the quotient, so
    each must be exact in Z[x].  For a primitive h, dividing p over Q is
    the same (Gauss's lemma).
    """
    rem = list(p)
    n = len(h) - 1
    if len(rem) <= n:
        return None
    quo: Poly = [[]] * (len(rem) - n)
    for s in range(len(quo) - 1, -1, -1):
        c = univariate.exact_quotient(rem.pop(), h[-1])
        if c is None:
            return None
        quo[s] = c
        if c:
            for j in range(n):
                rem[s + j] = univariate.trim([a - b for a, b in zip_longest(
                    rem[s + j], univariate.mul(c, h[j]), fillvalue=0)])
    return None if any(rem) else quo


def gcd(p: Poly, q: Poly) -> Poly:
    """The gcd of the nonzero p and q, primitive with a positive leading coefficient."""
    cp, p = primitive(p)
    cq, q = primitive(q)
    h = _gcd_primitive(p, q) if len(p) > 1 and len(q) > 1 else ONE
    c = gcd_z(cp, cq)
    return [univariate.mul(c, col) for col in h]


def repeated_factor(p: Poly) -> Poly:
    """The product of the irreducible factors that divide the nonzero p more than once.

    ONE when p is squarefree.  With p = c(x) q, q primitive: a factor
    repeated in c divides g = gcd(c, c'), and one repeated in q divides
    g = gcd(q, q_y); in each case gcd(g, c/g), resp. gcd(g, q/g), is the
    product of the repeated factors (characteristic 0).  The content stays
    univariate.
    """
    content, q = primitive(p)
    factor = [1]
    g = gcd_z(content, univariate.derivative(content)) if len(content) > 2 else [1]
    if len(g) > 1:
        factor = gcd_z(g, univariate.exact_quotient(content, g))
    g = _gcd_primitive(q, derivative(q)) if len(q) > 2 else ONE
    if len(g) > 1:
        g = _gcd_primitive(g, divide(q, g))
    return [univariate.mul(factor, col) for col in g]


# -- Brown's algorithm -------------------------------------------------------


def _is_prime(n: int) -> bool:
    d, s = n - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    for a in WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes() -> Iterator[int]:
    """2^61 - 1, then the primes below it, the largest first."""
    yield MERSENNE_61
    n = MERSENNE_61 - 2
    while True:
        if _is_prime(n):
            yield n
        n -= 2


def _gcd_mod(a: list, b: list, ell: int) -> list:
    """The monic gcd of a and b over F_ell, both with a nonzero top coefficient."""
    while b:
        inv = pow(b[-1], -1, ell)
        a = list(a)
        n = len(b) - 1
        while len(a) > n:
            c = a.pop() * inv % ell
            s = len(a) - n
            if c:
                a[s:] = [(u - c * v) % ell for u, v in zip(a[s:], b)]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, ell)
    return [c * inv % ell for c in a]


class _Residues:
    """Sums of products of residues mod ell, a row of slots at a time.

    A row of residues is packed into one int, size bytes a slot, wide enough
    that a sum of terms products of two residues never carries into the
    next slot; a weighted sum of packed rows then costs one product per row.
    """

    def __init__(self, ell: int, terms: int):
        self.ell = ell
        self.size = (2 * ell.bit_length() + terms.bit_length()) // 8 + 1

    def pack(self, row: list) -> int:
        return int.from_bytes(b"".join(c.to_bytes(self.size, "little") for c in row), "little")

    def combine(self, weights: list, rows: list, n: int) -> list:
        """[sum_i weights[i] * rows[i][t] mod ell for t < n] of the packed rows."""
        data = sum(map(mul, weights, rows)).to_bytes(n * self.size, "little")
        return [int.from_bytes(data[k:k + self.size], "little") % self.ell
                for k in range(0, n * self.size, self.size)]

    def columns(self, p: Poly, width: int) -> list:
        """The rows of p (the coefficients of x^a), packed, to evaluate p at any x."""
        return [self.pack([col[a] % self.ell if a < len(col) else 0 for col in p])
                for a in range(width)]

    def interpolate(self, xs: list, images: list) -> Poly:
        """Columns of the polynomial in x, of degree < len(xs), taking images[i] at xs[i].

        Lagrange: the image at xs[i], divided by the derivative of the
        master polynomial there, weights master/(x - xs[i]).
        """
        ell, n = self.ell, len(xs)
        master = [1]
        for x0 in xs:
            master = [(u - x0 * v) % ell for u, v in zip([0] + master, master + [0])]
        basis, weights = [], []
        for x0 in xs:
            quo = [0] * n
            carry = 0
            for k in range(n, 0, -1):
                carry = (master[k] + carry * x0) % ell
                quo[k - 1] = carry
            basis.append(self.pack(quo))
            weights.append(pow(univariate.evaluate(quo, x0) % ell, -1, ell))
        return [self.combine([v * w % ell for v, w in zip(values, weights)], basis, n)
                for values in zip(*images)]


def _crt(acc: tuple[int, Poly] | None, ell: int, cols: Poly) -> tuple[int, Poly]:
    """Combine residues modulo acc's modulus with residues modulo ell."""
    if acc is None:
        return ell, cols
    m, old = acc
    inv = pow(m, -1, ell)
    return m * ell, [[a + m * ((b - a) * inv % ell) for a, b in zip_longest(u, v, fillvalue=0)]
                     for u, v in zip(old, cols)]


def _lift(m: int, cols: Poly) -> Poly | None:
    """The symmetric lift of the residues cols mod m, if its top column survives."""
    half = m // 2
    lifted = [univariate.trim([c - m if c > half else c for c in col]) for col in cols]
    return lifted if lifted[-1] else None


def gcd_z(a: list, b: list) -> list:
    """gcd(a, b) in Z[x] of the nonzero dense a and b, primitive, its leading coefficient > 0.

    Brown's algorithm as gcd runs it, a polynomial being one column and the
    images scaled to gamma = gcd(lc a, lc b); a and b need not be primitive
    (Gauss's lemma).  A lower image degree discards the images before it.
    """
    gamma, degree, acc = igcd(a[-1], b[-1]), None, None
    for ell in _primes():
        if a[-1] % ell and b[-1] % ell:
            g = _gcd_mod([c % ell for c in a], [c % ell for c in b], ell)
            if degree is None or len(g) < degree:
                degree, acc = len(g), None
            if len(g) == degree:  # else an unlucky prime
                acc = _crt(acc, ell, [[c * gamma % ell for c in g]])
                h = _integral(_lift(*acc))[0]  # its top coefficient is gamma, nonzero
                if all(univariate.exact_quotient(f, h) is not None for f in (a, b)):
                    return h


def _gcd_primitive(p: Poly, q: Poly) -> Poly:
    """gcd(p, q) of the primitive p and the nonzero q, both of y-degree >= 1.

    The images are scaled to gamma = gcd(lc_y p, lc_y q) in Z[x], a multiple
    of the gcd's leading coefficient, so that they are images of one
    integral polynomial H = (gamma / lc_y gcd) gcd, of x-degree at most
    bound.  A candidate H passes when it divides gamma p and gamma q: then
    every factor of its primitive part, which has a positive degree in y
    and so is prime to gamma, divides p and q, and the degree of the images
    makes that primitive part the gcd.  A prime is done after bound + 1
    points, when a candidate is tried; while no prime is done, one is also
    tried after 1, 2, 4, ... points.  A point whose image has a higher
    degree than the least seen is unlucky, and a lower degree discards
    every image before it.
    """
    lp, lq = p[-1], q[-1]
    common = gcd_z(lp, lq) if len(lp) > 1 and len(lq) > 1 else [1]
    gamma = [igcd(*lp, *lq) * c for c in common]
    bound = len(gamma) + min(max(map(len, p)), max(map(len, q))) - 2
    width = max(map(len, p + q))
    degree = None  # least image degree seen
    acc = None  # modulus and residues of the scaled gcd over the primes done
    points = count(1)  # each prime takes new points: finitely many integers are unlucky
    for ell in _primes():
        residues = _Residues(ell, max(width, bound + 1))
        rows = None  # the rows of p and q packed, once a prime takes a second point
        xs: list = []
        images: list = []
        for x0 in islice(points, bound + len(lp) + len(lq)):
            powers = [1] * width
            for i in range(1, width):
                powers[i] = powers[i - 1] * x0 % ell
            if xs:
                rows = rows or (residues.columns(p, width), residues.columns(q, width))
                a = residues.combine(powers, rows[0], len(p))
                b = residues.combine(powers, rows[1], len(q))
            else:
                a = [sum(map(mul, col, powers)) % ell for col in p]
                b = [sum(map(mul, col, powers)) % ell for col in q]
            if not a[-1] or not b[-1]:
                continue
            g = _gcd_mod(a, b, ell)
            if len(g) == 1:
                return ONE
            if degree is not None and len(g) > degree:
                if xs:
                    continue  # an unlucky point
                break  # an unlucky prime
            if degree is None or len(g) < degree:
                degree, acc, xs, images = len(g), None, [], []
            scale = univariate.evaluate(gamma, x0) % ell
            xs.append(x0)
            images.append([c * scale % ell for c in g])
            n = len(xs)
            if n <= bound and (acc or n & (n - 1)):
                continue
            m, cols = _crt(acc, ell, residues.interpolate(xs, images))
            h = _lift(m, cols)
            if h is not None and all(divide([univariate.mul(gamma, col) for col in f], h)
                                     is not None for f in (p, q)):
                return primitive(h)[1]
            if n > bound:
                acc = m, cols
                break
