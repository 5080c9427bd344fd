"""Exact log-resolution engine for weighted plane curve germs.

The input is a finite list of branches (f_i, w_i): bivariate squarefree
polynomials over Q with positive integer weights, all vanishing at the
origin.  The engine blows up every point at which the total transform of
sum w_i f_i fails to be simple normal crossing, tracking for each
exceptional divisor E its discrepancy k_E over the smooth surface and the
order m_E of the total transform.  The log canonical threshold is then

    lct = min( min_i 1/w_i , min_E (k_E + 1)/m_E ).

Curves and exceptional divisors are one kind of object (f, k, m): a branch
of weight w enters as (f, 0, w).  Blowing up a point makes the divisor with
k = 1 + sum k and m = sum m mult(f) over the objects through the point, an
exceptional divisor being smooth.  Its points are the clusters of the chart
x = u, y = u v, and one more centre: the origin of the chart x = u v, y = v.

Polynomials are stored as dicts {(deg_x, deg_y): coefficient} over a
field K, and every field under the resolution is Q or a number field
Q[t]/(g) (numberfield.NumberField).  Over Q an object is a primitive dict
of ints, a curve being its polynomial up to a constant, and the gcds that
find its clusters run in Z[v]; only the cluster keys are Fractions.  Points
on one exceptional line are enumerated as Galois orbits: each irreducible factor
of the restriction of the transform to the line is one cluster, blown up
once on behalf of all its conjugate points, which carry identical (k, m)
data.  A cluster of degree >= 2 gets a field only when it needs a blowup:
K.extend gives Q[t]/(g) over Q, at the point t, and over a NumberField a
tower.

A cluster is keyed by the coefficient tuple of its monic factor over K,
constant term first, so the point v = r is (-r, 1).  The clusters of a line
are blown up in (degree, coefficients) order, as Fractions and the elements
of a number field are ordered.  On every line the points that need a
blowup, those through two objects or through one object twice, are found
by gcds over K (_line_clusters), and only their squarefree part goes to
K.factor: sympy factors a line only when it holds three or more such
points over Q, conjugates counted, or two or more over a NumberField.
This module never imports sympy; numberfield does, to factor a line or to
build a tower.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import reduce
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence, TypeAlias

from . import bivariate, univariate
from .errors import DepthExceededError, InvalidGermError
from .records import Record

if TYPE_CHECKING:
    from .numberfield import NumberField

DEPTH_CAP = 64


class _Rationals:
    """The field Q, with the interface of a NumberField: Fractions in keys, ints in objects."""

    one = Fraction(1)
    zero = Fraction(0)
    degree = 1

    @staticmethod
    def factor(p: univariate.Dense) -> list[tuple]:
        """The monic factors of a squarefree p of degree >= 2, by sympy from degree 3 on."""
        if len(p) > 3:
            from .numberfield import factor_rational

            return factor_rational(p)
        c, b, a = p  # a v^2 + b v + c splits when its discriminant is a square
        disc = b * b - 4 * a * c
        root = Fraction(math.isqrt(abs(disc.numerator)), math.isqrt(disc.denominator))
        if root * root != disc:  # always so for disc < 0
            return [(Fraction(c, a), Fraction(b, a), Q.one)]
        return [((b + root) / (2 * a), Q.one), ((b - root) / (2 * a), Q.one)]

    @staticmethod
    def extend(p: tuple) -> tuple[Any, NumberField, None]:
        """The field Q[t]/(p) of an irreducible p of degree >= 2 and its point t.

        A rational coefficient needs no map into it: _shift_y's products by
        the powers of t, elements of Q[t]/(p), carry it in.
        """
        from .numberfield import NumberField

        K = NumberField(p)
        return K.gen, K, None


Q = _Rationals()


def _rational(c: Any) -> Fraction:
    """A rational number (int, Fraction, sympy QQ) as a Fraction."""
    try:
        return Fraction(c.numerator, c.denominator)
    except (AttributeError, TypeError) as exc:
        raise InvalidGermError(f"coefficient {c!r} is not rational") from exc


def _primitive(d: dict) -> dict:
    """A nonzero dict of ints divided by the gcd of its values."""
    g = math.gcd(*d.values())
    return d if g == 1 else {k: c // g for k, c in d.items()}


# a polynomial is a dict {(a, b): coeff}, coeff a nonzero element of K, and
# over Q a primitive dict of ints: a curve is its polynomial up to a constant
PolyDict = dict
Field: TypeAlias = "_Rationals | NumberField"
# An object through the current centre: a curve of weight w is (f, 0, w), an
# exceptional divisor (f, k_E, m_E).
Object = tuple


class BlowupNode(Record):
    """One blowup in the resolution tree.

    k is the discrepancy of the new exceptional divisor, m the order of the
    total transform along it; children are the blowups performed at points
    of this divisor.  A node stands for a whole Galois orbit of centers:
    conjugate points share identical (k, m) data and are blown up once.
    points is the size of that orbit, the degree over Q of the field of the
    centre: 1 for a rational point.
    """

    __slots__ = ("k", "m", "children", "points")
    k: int
    m: int
    children: list["BlowupNode"]
    points: int

    # a node is built up as the resolution recurses: mutable, so unhashable
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self, k: int, m: int, children: list["BlowupNode"] | None = None, points: int = 1
    ) -> None:
        self.k = k
        self.m = m
        self.children = [] if children is None else children
        self.points = points

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.k + 1, self.m)

    def walk(self) -> Iterable["BlowupNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


def multiplicity(d: PolyDict) -> int:
    """Multiplicity at the origin: minimal total degree of a monomial."""
    return min(a + b for a, b in d)


def _strict1(d: PolyDict, mu: int) -> PolyDict:
    """Strict transform in the chart x = u, y = u v: substitute and divide by u^mu.

    x^a y^b maps to u^(a+b) v^b, so the key map (a, b) -> (a+b-mu, b) is
    injective and no coefficients merge.
    """
    return {(a + b - mu, b): c for (a, b), c in d.items()}


def _strict2(d: PolyDict, mu: int) -> PolyDict:
    """Strict transform in the chart x = u v, y = v: substitute and divide by v^mu."""
    return {(a, a + b - mu): c for (a, b), c in d.items()}


def _restrict1(d: PolyDict) -> dict[int, Any]:
    """Restriction to the exceptional line u = 0, as a univariate dict in v."""
    return {b: c for (a, b), c in d.items() if a == 0}


def _lowest_form(d: PolyDict, mu: int) -> list:
    """Coefficients [c_0..c_mu] of the tangent cone sum c_b x^(mu-b) y^b."""
    row = [0] * (mu + 1)
    for (a, b), c in d.items():
        if a + b == mu:
            row[b] = c
    return row


def _shift_y(d: PolyDict, theta: Any, K: Field) -> PolyDict:
    """Substitute y -> y + theta over K; over Q, theta = a/q: f(x, y + a/q) q^deg_y, primitive."""
    if not theta:
        return dict(d)
    top = max(b for _, b in d)
    if K is Q:
        a, q = theta.numerator, theta.denominator
        powers = [a**i * q ** (top - i) for i in range(top + 1)]
    else:
        powers = [K.one]
        for _ in range(top):
            powers.append(powers[-1] * theta)
    rows = {b: [math.comb(b, j) * powers[b - j] for j in range(b + 1)] for b in {b for _, b in d}}
    out: PolyDict = {}
    for (a, b), c in d.items():
        for j, r in enumerate(rows[b]):  # r first: an Element takes an int c directly
            out[a, j] = out.get((a, j), 0) + r * c
    out = {k: c for k, c in out.items() if c}
    return _primitive(out) if K is Q else out


def _factor_on_line(p: univariate.Dense, K: Field) -> list[tuple]:
    """The monic irreducible factors over K of a squarefree p prime to v, as cluster keys.

    A linear p is read off and any other goes to K.factor; over Q, where p
    is integral, either way a key is a tuple of Fractions, so one point is
    one key.
    """
    if len(p) == 2:
        return [(Fraction(p[0], p[1]) if K is Q else p[0] / p[1], K.one)]
    return K.factor(p) if len(p) > 2 else []


def _through(p: tuple, polys: list[univariate.Dense], K: Field) -> list[int]:
    """The indices of the polys that the monic cluster factor p divides (over Q, in Z[v])."""
    if K is Q:  # p made primitive: Gauss's lemma
        q = univariate.integral(p)[0]
        return [i for i, f in enumerate(polys) if univariate.exact_quotient(f, q) is not None]
    return [i for i, f in enumerate(polys) if not univariate.divide(f, p)[1]]


def _line_clusters(lines: list[dict[int, Any]], K: Field) -> dict[tuple, list[int]]:
    """The clusters on an exceptional line through two objects, or through one object twice.

    lines[i] is the restriction of object i to the line, integral over Q;
    each cluster maps to the indices of the objects through it.  A cluster
    that one object crosses simply is an SNC point: it is left out, so that
    it is neither factored nor given a field.  With the powers of v taken
    out, the monic factor of a linear restriction is read off and counted;
    of the restrictions of degree >= 2 only the multiple roots of their
    product P, the squarefree part of gcd(P, P'), are factored; over Q the
    gcds run in Z[v] (bivariate.gcd_z).  An object is through a cluster
    when the cluster's factor divides its restriction exactly.
    """
    dense = [univariate.from_dict(ud) for ud in lines]
    orders = [min(ud) for ud in lines]
    rests = [f[k:] for f, k in zip(dense, orders)]
    linear = Counter(_factor_on_line(r, K)[0] for r in rests if len(r) == 2)
    higher = [r for r in rests if len(r) > 2]
    keys = [p for p, n in linear.items() if n > 1 or _through(p, higher, K)]
    if max(orders) > 1 or sum(k > 0 for k in orders) > 1:
        keys.append((K.zero, K.one))
    if higher:
        product = reduce(univariate.mul, higher)
        gcd = bivariate.gcd_z if K is Q else univariate.gcd
        repeated = gcd(product, univariate.derivative(product))
        if len(repeated) > 2:  # its squarefree part: each point once
            part = gcd(repeated, univariate.derivative(repeated))
            repeated = (univariate.exact_quotient(repeated, part) if K is Q
                        else univariate.divide(repeated, part)[0])
        # a linear restriction's factor among them is a key already
        keys += [p for p in _factor_on_line(repeated, K) if p not in linear]
    return {p: _through(p, dense, K) for p in keys}


def _cluster_point(p: tuple, K: Field) -> tuple[Any, Field, Callable[[Any], Any] | None]:
    """A root of the cluster's monic factor p, its field, and the map into it, or None.

    The root is read off, or K.extend gives all three; only a tower maps the
    coefficients (see _Rationals.extend).
    """
    if len(p) == 2:
        return -p[0], K, None
    return K.extend(p)


def _is_snc(polys: list[PolyDict]) -> bool:
    """Is the union of the given branches simple normal crossing at the origin?

    True when the total multiplicity is at most 1, or equals 2 with the
    product of tangent cones a squarefree binary quadratic (two distinct
    directions: two smooth transverse branches).
    """
    mults = [multiplicity(d) for d in polys]
    mu = sum(mults)
    if mu <= 1:
        return True
    if mu == 2:
        q = reduce(univariate.mul, [_lowest_form(d, m) for d, m in zip(polys, mults)])
        return bool(q[1] * q[1] - 4 * q[0] * q[2])
    return False


def _monic_in_y(d: PolyDict) -> PolyDict:
    """d divided by its coefficient at its largest key in (y, x) order, as germs are written."""
    inverse = d[max(d, key=lambda ab: (ab[1], ab[0]))] ** -1
    return {key: c * inverse for key, c in d.items()}


def _centres(objects: list[Object], k: int, m: int, K: Field) -> Iterator[tuple[list, Field]]:
    """The centres on the new exceptional divisor E = (f, k, m) that may need a blowup.

    Each comes with its field and the objects through it, E among them,
    moved to its origin: first the clusters of the chart x = u, y = u v in
    (degree, coefficients) order of their keys, then the origin of the
    chart x = u v, y = v, the one direction [0:1] that chart 1 misses.  A
    centre is made only when it is reached, so the recursion on one runs
    before the next is factored or extended.
    """
    strict = [(_strict1(d, multiplicity(d)), k_i, m_i) for d, k_i, m_i in objects]
    clusters = _line_clusters([_restrict1(d) for d, _, _ in strict], K)
    for p in sorted(clusters, key=lambda p: (len(p), p)):
        theta, K2, conv = _cluster_point(p, K)
        through = [strict[i] for i in clusters[p]]
        if conv is not None:  # monic in y first: sympy's embedding slows as numbers grow
            through = [({key: conv(c) for key, c in _monic_in_y(d).items()}, k_i, m_i)
                       for d, k_i, m_i in through]
        through = [(_shift_y(d, theta, K2), k_i, m_i) for d, k_i, m_i in through]
        yield through + [({(1, 0): 1 if K2 is Q else K2.one}, k, m)], K2
    # an object passes through the chart-2 origin iff x divides its tangent cone
    strict = [(_strict2(d, multiplicity(d)), k_i, m_i) for d, k_i, m_i in objects]
    through = [o for o in strict if (0, 0) not in o[0]]
    if through:
        yield through + [({(0, 1): 1 if K is Q else K.one}, k, m)], K


def _resolve(objects: list[Object], K: Field, depth: int) -> BlowupNode | None:
    """Blow up the origin if needed; return the node, or None when already SNC.

    Every object passes through the origin.  The new divisor has
    k = 1 + sum k_i and m = sum m_i mult(f_i), as mult(f_i) = 1 for an
    exceptional divisor, which is smooth.
    """
    if _is_snc([d for d, _, _ in objects]):
        return None
    if depth >= DEPTH_CAP:
        raise DepthExceededError(f"blowup tree exceeded depth {DEPTH_CAP}")
    node = BlowupNode(1 + sum(k for _, k, _ in objects),
                      sum(m * multiplicity(d) for d, _, m in objects),
                      points=K.degree)
    for sub, K2 in _centres(objects, node.k, node.m, K):
        child = _resolve(sub, K2, depth + 1)
        if child is not None:
            node.children.append(child)
    return node


def _validated(branches: Sequence[tuple[PolyDict, int]]) -> list[Object]:
    """The branches as curve objects (f, 0, w), f made a primitive dict of ints, checked."""
    if not branches:
        raise InvalidGermError("at least one branch is required")
    cleaned = []
    for d, w in branches:
        d = {k: c for k, c in d.items() if c}
        if any(type(c) is not int for c in d.values()):  # over the common denominator
            d = dict(zip(d, univariate.integral([_rational(c) for c in d.values()])[0]))
        if not d:
            raise InvalidGermError("zero polynomial is not a branch")
        if (0, 0) in d:
            raise InvalidGermError("branch does not vanish at the origin")
        if isinstance(w, bool) or not (isinstance(w, int) and w >= 1):
            raise InvalidGermError("weights must be positive integers")
        cleaned.append((_primitive(d), 0, w))
    return cleaned


def blowup_tree(branches: Sequence[tuple[PolyDict, int]]) -> list[BlowupNode]:
    """Resolution tree of the weighted union of branches at the origin.

    Returns the root-level nodes (empty when the union is already SNC).
    Branch dicts have rational coefficients: int, Fraction or sympy QQ.
    """
    root = _resolve(_validated(branches), Q, 0)
    return [] if root is None else [root]


def lct_of_branches(branches: Sequence[tuple[PolyDict, int]]) -> Fraction:
    """Log canonical threshold of sum w_i f_i at the origin."""
    roots = blowup_tree(branches)  # validates the branches
    best = min(Fraction(1, w) for _, w in branches)
    for root in roots:
        for node in root.walk():
            best = min(best, node.ratio)
    return best
