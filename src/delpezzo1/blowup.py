"""Exact log-resolution engine for weighted plane curve germs.

The input is a finite list of branches (f_i, w_i): bivariate squarefree
polynomials over Q with positive integer weights, all vanishing at the
origin.  The engine blows up every point at which the total transform of
sum w_i f_i fails to be simple normal crossing, tracking for each
exceptional divisor E its discrepancy k_E over the smooth surface and the
order m_E of the total transform.  The log canonical threshold is then

    lct = min( min_i 1/w_i , min_E (k_E + 1)/m_E ),

the candidates compared as integer pairs by cross-multiplication, and one
Fraction made of the least.

Curves and exceptional divisors are one kind of object (f, k, m): a branch
of weight w enters as (f, 0, w).  Blowing up a point makes the divisor with
k = 1 + sum k and m = sum m mult(f) over the objects through the point, an
exceptional divisor being smooth.  Its points are the clusters of the chart
x = u, y = u v, and one more centre: the origin of the chart x = u v, y = v.

Polynomials are stored as dicts {(deg_x, deg_y): coefficient} over a
field K, and every field under the resolution is Q or a number field
Q[t]/(g) (numberfield.NumberField).  Over Q an object is a primitive dict
of ints, a curve being its polynomial up to a constant, and the gcds that
find its clusters run in Z[v]; only the cluster keys are Fractions.  Over
Q[t]/(g) the shift y -> y + theta to a cluster's point is integer
arithmetic too: every coefficient as integer numerators over one
denominator, every power of theta as the unreduced convolution power of
theta's numerators, and one reduction modulo g per new coefficient, so
that the shift at theta = t, the point of a field just built over Q,
multiplies no element.  Each object's multiplicity is computed once per
blowup, for the SNC test, its strict transforms and the chart-2 origin,
which only the objects without a y^mu term pass through; the SNC test
forms no product with a zero factor.  Points on one exceptional line are
enumerated as Galois orbits: each irreducible factor of the restriction of
the transform to the line is one cluster, blown up once on behalf of all
its conjugate points, which carry identical (k, m) data.  A cluster of
degree >= 2 gets a field only when it needs a blowup: K.extend gives
Q[t]/(g) over Q, at the point t, and over a NumberField a tower.

A cluster is keyed by the coefficient tuple of its monic factor over K,
constant term first, so the point v = r is (-r, 1).  The clusters of a line
are blown up in (degree, coefficients) order, as Fractions and the elements
of a number field are ordered.  On every line the points that need a
blowup, those through two objects or through one object twice, are found
by gcds over K (_line_clusters), or on a small line by cheaper exact
routes: a quadratic's discriminant, a quadratic repeated part taken as
squarefree unless its discriminant vanishes, no key for a linear
restriction that no other restriction could meet, and no division on a
line that meets one object, which every cluster is through.  Only their
squarefree part goes to K.factor, which over Q splits an integral
quadratic by its integer discriminant: sympy factors a line only when it
holds three or more such points over Q, conjugates counted, or two or
more over a NumberField.  This module never imports sympy; numberfield
does, to factor a line or to build a tower.

A toric centre is one object f, first, whose Newton polygon is a single
edge from y^p to x^q, every other term on or above it, with at most one
exceptional divisor on each axis besides it: the centre of a cusp, a
tacnode's branch pair or an A_k point.  Its blowups form a chain that runs
Euclid's algorithm on (p, q) (Casas-Alvero, Singularities of Plane Curves,
2000, ch. 3 and 5), and _chain makes it in one integer loop, node for
node as the generic step would, by that step's own SNC test (_is_snc, f
of multiplicity min(p, q) and each divisor 1) and node rule with its
DEPTH_CAP check (_node): for p < q the next centre is the origin
of chart 1, where f has the edge (p, q - p) and the new divisor is x = 0,
for q < p that of chart 2, with (p - q, q) and the new divisor y = 0, and
every other point of the divisor is SNC.  f is moved by its strict
transforms, and no coefficient is computed.  At p = q the edge
c y^p + c' x^p is squarefree, and the chain ends in SNC or in one leaf;
only an edge that holds inner terms there goes back to the generic step,
as [f, divisors oldest first], the order the generic step keeps.
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
        """The monic factors of a squarefree p of degree >= 2, by sympy from degree 3 on.

        a v^2 + b v + c splits when its discriminant n/d is a square; for an
        integral p, as the engine's are, d = 1 and the test is in integers.
        """
        if len(p) > 3:
            from .numberfield import factor_rational

            return factor_rational(p)
        c, b, a = p
        disc = b * b - 4 * a * c
        n, d = disc.numerator, disc.denominator
        r, s = math.isqrt(max(n, 0)), math.isqrt(d)
        if r * r != n or s * s != d:  # always so for n < 0
            return [(Fraction(c, a), Fraction(b, a), Q.one)]
        return [(Fraction(b * s + r, 2 * a * s), Q.one), (Fraction(b * s - r, 2 * a * s), Q.one)]

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
    """Substitute y -> y + theta over K.

    Over Q, theta = a/q: f(x, y + a/q) q^deg_y, primitive.  Over a
    NumberField every coefficient (int, Fraction or element) is taken to
    integer numerators over one common denominator, and theta^i to the
    integer convolution power of theta's numerators, not reduced; each new
    coefficient is then a sum of integer convolutions, reduced modulo g
    once by K.reduce (Cohen 1993, section 4.2).  At theta = t, the point
    of a field just built over Q, the powers are the monomials t^i.
    """
    if not theta:
        return dict(d)
    top = max(b for _, b in d)
    if K is Q:
        a, q = theta.numerator, theta.denominator
        powers = [a**i * q ** (top - i) for i in range(top + 1)]
        rows = {b: [math.comb(b, j) * powers[b - j] for j in range(b + 1)]
                for b in {b for _, b in d}}
        out: PolyDict = {}
        for (a, b), c in d.items():
            for j, r in enumerate(rows[b]):
                out[a, j] = out.get((a, j), 0) + r * c
        return _primitive({k: c for k, c in out.items() if c})
    terms = [(s, x) for s, x in enumerate(theta.nums) if x]  # theta = terms/tden
    tden, step = theta.den, terms[-1][0]
    powers = [{0: 1}]  # theta^i as the terms of its integer numerator over tden^i
    for _ in range(top):
        power: dict = {}
        for s, x in powers[-1].items():
            for r, y in terms:
                power[s + r] = power.get(s + r, 0) + x * y
        powers.append(power)
    scales = [tden ** (top - i) for i in range(top + 1)]  # all over tden^top
    coeffs = {key: ((c.numerator,), c.denominator) if isinstance(c, (int, Fraction))
              else (c.nums, c.den) for key, c in d.items()}  # an element holds nums over den
    cden = math.lcm(*(den for _, den in coeffs.values()))
    n = K.degree
    sums: dict = {}
    for (a, b), (nums, den) in coeffs.items():
        scale = cden // den
        for j in range(b + 1):
            acc = sums.get((a, j))
            if acc is None:
                acc = sums[a, j] = [0] * (n + (top - j) * step)
            power = powers[b - j].items()
            w = math.comb(b, j) * scale * scales[b - j]
            for i, x in enumerate(nums):
                if x:
                    x *= w
                    for s, y in power:
                        acc[i + s] += x * y
    den = cden * tden**top
    return {key: c for key, p in sums.items() if (c := K.reduce(p, den))}


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
    """The indices of the polys that the monic cluster factor p divides (over Q, in Z[v]).

    Over a NumberField a point v = r is on f when f(r) = 0, by Horner's rule.
    """
    if K is Q:  # p made primitive: Gauss's lemma
        q = univariate.integral(p)[0]
        return [i for i, f in enumerate(polys) if univariate.exact_quotient(f, q) is not None]
    if len(p) == 2:
        r = -p[0]
        return [i for i, f in enumerate(polys) if not univariate.evaluate(f, r)]
    return [i for i, f in enumerate(polys) if not univariate.divide(f, p)[1]]


def _line_clusters(lines: list[dict[int, Any]], K: Field) -> dict[tuple, list[int]]:
    """The clusters on an exceptional line through two objects, or through one object twice.

    lines[i] is the restriction of object i to the line, integral over Q;
    each cluster maps to the indices of the objects through it.  A cluster
    that one object crosses simply is an SNC point: it is left out, so that
    it is neither factored nor given a field.  With the powers of v taken
    out, the monic factor of a linear restriction is read off and counted,
    unless it is the only restriction of positive degree; of the
    restrictions of degree >= 2 only the multiple roots of their product P,
    the squarefree part of gcd(P, P'), are factored.  A quadratic P has one
    when its discriminant vanishes; otherwise, over Q, the gcds run in Z[v]
    (bivariate.gcd_z).  An object is through a cluster when the cluster's
    factor divides its restriction exactly; a line of one object is through
    each of its clusters, with no division.  When every restriction is a
    monomial, v = 0 is the only candidate, and the objects of positive order
    are through it.
    """
    orders = [min(ud) for ud in lines]
    zero = max(orders) > 1 or sum(k > 0 for k in orders) > 1  # v = 0 is a cluster
    if all(len(ud) == 1 for ud in lines):  # monomials: v = 0 is their only common point
        return {(K.zero, K.one): [i for i, k in enumerate(orders) if k]} if zero else {}
    dense = [univariate.from_dict(ud) for ud in lines]
    rests = [f[k:] for f, k in zip(dense, orders)]
    linears = [r for r in rests if len(r) == 2]
    higher = [r for r in rests if len(r) > 2]
    linear: Counter = Counter()
    if len(linears) > 1 or higher:  # else no restriction could share a line's point
        linear.update(_factor_on_line(r, K)[0] for r in linears)
    keys = [p for p, n in linear.items() if n > 1 or _through(p, higher, K)]
    if zero:
        keys.append((K.zero, K.one))
    if higher:
        product = reduce(univariate.mul, higher)
        if len(product) == 3:
            c, b, a = product
            repeated = [] if b * b - 4 * a * c else [b, 2 * a]
        else:
            gcd = bivariate.gcd_z if K is Q else univariate.gcd
            repeated = gcd(product, univariate.derivative(product))
            if len(repeated) == 3:  # a quadratic is squarefree unless it is a square
                c, b, a = repeated
                if not b * b - 4 * a * c:
                    repeated = [b, 2 * a]
            elif len(repeated) > 3:  # the squarefree part of repeated: each point once
                part = gcd(repeated, univariate.derivative(repeated))
                if len(part) > 1:
                    repeated = (univariate.exact_quotient(repeated, part) if K is Q
                                else univariate.divide(repeated, part)[0])
        # a linear restriction's factor among them is a key already, and only such a factor
        keys += [p for p in _factor_on_line(repeated, K) if len(p) > 2 or p not in linear]
    if len(dense) == 1:  # one object: each cluster is a multiple point of it
        return {p: [0] for p in keys}
    return {p: _through(p, dense, K) for p in keys}


def _cluster_point(p: tuple, K: Field) -> tuple[Any, Field, Callable[[Any], Any] | None]:
    """A root of the cluster's monic factor p, its field, and the map into it, or None.

    The root is read off, or K.extend gives all three; only a tower maps the
    coefficients (see _Rationals.extend).
    """
    if len(p) == 2:
        return -p[0], K, None
    return K.extend(p)


def _is_snc(objects: list[Object], mults: list[int]) -> bool:
    """Is the union of the objects, of the given multiplicities, simple normal crossing here?

    True when the total multiplicity is at most 1, or equals 2 with two
    distinct tangent directions: one object whose tangent cone is a
    squarefree binary quadratic, or two smooth objects whose tangent lines
    differ.  A field has no zero divisors, so a product with a zero factor
    is known zero without forming it: an exceptional divisor's tangent line
    is x = 0 or y = 0, and no product over K is then made.
    """
    mu = sum(mults)
    if mu <= 1:
        return True
    if mu == 2:
        forms = [_lowest_form(d, m) for (d, _, _), m in zip(objects, mults)]
        if len(forms) == 1:
            c, b, a = forms[0]
            return bool(b * b - 4 * a * c) if a and c else bool(b)
        (a1, b1), (a2, b2) = forms
        if a1 and b1 and a2 and b2:
            return bool(a1 * b2 - a2 * b1)
        return bool(a1 and b2) != bool(a2 and b1)
    return False


def _monic_in_y(d: PolyDict) -> PolyDict:
    """d divided by its coefficient at its largest key in (y, x) order, as germs are written."""
    inverse = d[max(d, key=lambda ab: (ab[1], ab[0]))] ** -1
    return {key: c * inverse for key, c in d.items()}


def _centres(objects: list[Object], mults: list[int], k: int, m: int,
             K: Field) -> Iterator[tuple[list, Field]]:
    """The centres on the new exceptional divisor E = (f, k, m) that may need a blowup.

    mults are the objects' multiplicities at the blown-up point.  Each
    centre comes with its field and the objects through it, E among them,
    moved to its origin: first the clusters of the chart x = u, y = u v in
    (degree, coefficients) order of their keys, then the origin of the
    chart x = u v, y = v, the one direction [0:1] that chart 1 misses.  A
    centre is made only when it is reached, so the recursion on one runs
    before the next is factored or extended.
    """
    strict = [(_strict1(d, mu), k_i, m_i) for (d, k_i, m_i), mu in zip(objects, mults)]
    clusters = _line_clusters([_restrict1(d) for d, _, _ in strict], K)
    for p, indices in sorted(clusters.items(), key=lambda item: (len(item[0]), item[0])):
        theta, K2, conv = _cluster_point(p, K)
        through = [strict[i] for i in indices]
        if conv is not None:  # monic in y first: sympy's embedding slows as numbers grow
            through = [({key: conv(c) for key, c in _monic_in_y(d).items()}, k_i, m_i)
                       for d, k_i, m_i in through]
        through = [(_shift_y(d, theta, K2), k_i, m_i) for d, k_i, m_i in through]
        yield through + [({(1, 0): 1 if K2 is Q else K2.one}, k, m)], K2
    # an object passes through the chart-2 origin iff x divides its tangent
    # cone, that is, iff y^mu is not one of its terms
    through = [(_strict2(d, mu), k_i, m_i)
               for (d, k_i, m_i), mu in zip(objects, mults) if (0, mu) not in d]
    if through:
        yield through + [({(0, 1): 1 if K is Q else K.one}, k, m)], K


def _resolve(objects: list[Object], K: Field, depth: int) -> BlowupNode | None:
    """Blow up the origin if needed; return the node, or None when already SNC.

    A toric centre resolves in one integer loop (_chain), any other by the
    generic step.
    """
    edge = _toric(objects)
    if edge is not None:
        return _chain(objects, *edge, K, depth)
    return _step(objects, K, depth)


def _step(objects: list[Object], K: Field, depth: int) -> BlowupNode | None:
    """The generic step: blow up the origin if needed, then resolve each centre on the new divisor.

    Every object passes through the origin, and its multiplicity there is
    computed once.
    """
    mults = [multiplicity(d) for d, _, _ in objects]
    if _is_snc(objects, mults):
        return None
    node = _node(objects, mults, K, depth)
    for sub, K2 in _centres(objects, mults, node.k, node.m, K):
        child = _resolve(sub, K2, depth + 1)
        if child is not None:
            node.children.append(child)
    return node


def _node(objects: list[Object], mults: list[int], K: Field, depth: int) -> BlowupNode:
    """The blowup of a centre that is not SNC, within DEPTH_CAP, with no children yet.

    The new divisor has k = 1 + sum k_i and m = sum m_i mult(f_i), as
    mult(f_i) = 1 for an exceptional divisor, which is smooth.
    """
    if depth >= DEPTH_CAP:
        raise DepthExceededError(f"blowup tree exceeded depth {DEPTH_CAP}")
    k, m = 1, 0
    for (_, k_i, m_i), mu in zip(objects, mults):
        k += k_i
        m += m_i * mu
    return BlowupNode(k, m, points=K.degree)


_X_AXIS, _Y_AXIS = (1, 0), (0, 1)  # the keys of the divisors x = 0 and y = 0


def _toric(objects: list[Object]) -> tuple[int, int] | None:
    """The Newton edge (p, q) of a toric centre, or None.

    A toric centre is one object f, first, whose Newton polygon is the one
    edge from y^p to x^q, every other term on or above it, followed by at
    most one divisor on each axis, x = 0 and y = 0.
    """
    axes = [next(iter(d)) for d, _, _ in objects[1:] if len(d) == 1]
    if (len(axes) != len(objects) - 1 or len(set(axes)) != len(axes)
            or not set(axes) <= {_X_AXIS, _Y_AXIS}):
        return None
    f = objects[0][0]
    p = min((b for a, b in f if not a), default=0)
    q = min((a for a, b in f if not b), default=0)
    if not p or not q or any(a * p + b * q < p * q for a, b in f):
        return None
    return p, q


def _chain(objects: list[Object], p: int, q: int, K: Field, depth: int) -> BlowupNode | None:
    """Resolve a toric centre of edge (p, q) by Euclid's algorithm, node for node.

    Each node is the one the generic step would make, after its SNC test,
    and it has one child at most, the origin of chart 1 for p < q or of
    chart 2 for q < p: every other point of its divisor is SNC (see the
    module docstring).  f has multiplicity min(p, q), a divisor 1.
    """
    one = 1 if K is Q else K.one
    chain: list[BlowupNode] = []
    while True:
        (f, k_f, m_f), *divisors = objects
        if p == q and any(a and b and a + b == p for a, b in f):  # inner terms
            node = _step(objects, K, depth)
            if node is not None:
                chain.append(node)
            break
        mults = [min(p, q)] + [1] * len(divisors)
        if _is_snc(objects, mults):
            break
        node = _node(objects, mults, K, depth)
        chain.append(node)
        if p == q:
            break
        if p < q:
            f, q, axis = _strict1(f, p), q - p, _X_AXIS
        else:
            f, p, axis = _strict2(f, q), p - q, _Y_AXIS
        objects = [(f, k_f, m_f), *(e for e in divisors if axis not in e[0]),
                   ({axis: one}, node.k, node.m)]
        depth += 1
    for parent, child in zip(chain, chain[1:]):
        parent.children.append(child)
    return chain[0] if chain else None


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
    num, den = 1, max(w for _, w in branches)  # the least (k + 1)/m, compared in integers
    for root in roots:
        for node in root.walk():
            if (node.k + 1) * den < num * node.m:
                num, den = node.k + 1, node.m
    return Fraction(num, den)
