"""Independent oracles used by the test suite.

These deliberately avoid the library's own algorithms: definiteness is
checked with Fraction LDL pivots instead of integer minors, fundamental
cycles are found by exhaustive search over a coefficient box instead of the
cycle iteration, and the lct of a germ that is nondegenerate with respect
to its Newton polygon is read off the polygon instead of a resolution.  A
germ is moved by a change of coordinates with plain Fraction arithmetic
here, and the data a resolution tree must share with the moved germ's is
counted by point_multiset.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np


def frac_negative_definite(rows: list[list[int]]) -> bool:
    """Negative definiteness via symmetric elimination pivots, in Fractions.

    M is negative definite iff all pivots of the LDL^T decomposition are
    negative (no pivot may vanish).
    """
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    for k in range(n):
        pivot = a[k][k]
        if pivot >= 0:
            return False
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return True


def brute_force_min_cycle(rows: list[list[int]], bound: int = 6) -> list[int]:
    """Componentwise-minimal positive integer vector a with M a <= 0.

    Exhausts the box [1, bound]^n with exact int64 arithmetic.  The set of
    solutions is closed under componentwise minimum, so the componentwise
    minimum over all solutions is itself a solution and is the unique
    minimal element.
    """
    m = np.array(rows, dtype=np.int64)
    n = m.shape[0]
    grid = np.indices((bound,) * n, dtype=np.int64).reshape(n, -1).T + 1
    ok = (grid @ m.T <= 0).all(axis=1)
    sols = grid[ok]
    assert len(sols) > 0, "no solution in the box; bound too small"
    mins = sols.min(axis=0)
    assert (np.array([mins]) @ m.T <= 0).all(), "componentwise min is not a solution"
    return [int(v) for v in mins]


def newton_edges(d: dict) -> list[dict]:
    """The compact edges of the Newton polygon of a germ {(a, b): c}, each as its face polynomial.

    The compact edges form the lower-left convex hull of the support, from
    the point on the y-axis side to the one on the x-axis side.  Each edge
    comes as the terms of d whose exponents lie on it.
    """
    points = sorted(set(d))  # by a, then b
    hull: list[tuple[int, int]] = []
    for p in points:
        if hull and p[1] >= hull[-1][1]:
            continue  # not below the hull so far: never a lower-left vertex
        while len(hull) >= 2:
            (a0, b0), (a1, b1) = hull[-2], hull[-1]
            # drop hull[-1] unless it lies strictly below the segment hull[-2] -> p
            if (a1 - a0) * (p[1] - b0) - (b1 - b0) * (p[0] - a0) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    edges = []
    for (a0, b0), (a1, b1) in zip(hull, hull[1:]):
        edges.append({(a, b): c for (a, b), c in d.items()
                      if (a - a0) * (b1 - b0) == (b - b0) * (a1 - a0)})
    return edges


def newton_lct(d: dict) -> Fraction:
    """min(1, 1/t), where (t, t) lies on the Newton boundary of the germ {(a, b): c}.

    For a germ that is convenient (it has terms x^a and y^b) and
    nondegenerate (each compact edge polynomial, without its monomial
    factor, is squarefree), this is its lct: Howald, "Multiplier ideals of
    monomial ideals", 2001, and Varchenko, 1982.  The caller checks both
    conditions.  The Newton boundary is the lower boundary of the convex hull
    of the support plus the positive quadrant, so t is the least of max(a, b)
    over the support and of the diagonal crossings of segments joining a
    point below the diagonal to one above it.
    """
    t = min(Fraction(max(a, b)) for a, b in d)
    for p in d:
        for q in d:
            dp, dq = p[0] - p[1], q[0] - q[1]
            if dp > 0 > dq:  # (t, t) = (-dq p + dp q) / (dp - dq)
                t = min(t, Fraction(-dq * p[0] + dp * q[0], dp - dq))
    return min(Fraction(1), 1 / t)


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a, b), c in p.items():
        for (e, f), d in q.items():
            out[a + e, b + f] = out.get((a + e, b + f), 0) + c * d
    return {k: c for k, c in out.items() if c}


def change_coordinates(d: dict, matrix: tuple, c: Fraction, j: int) -> dict:
    """The germ {(a, b): c} moved by an automorphism of the plane that fixes the origin.

    x -> p x + q y and y -> r x + s y, for matrix ((p, q), (r, s)) in
    GL2(Q), and then y -> y + c x^j (j >= 1): the germ becomes
    sum c_ab X^a Y^b with X = p x + q (y + c x^j), Y = r x + s (y + c x^j),
    expanded exactly in Fractions.
    """
    (p, q), (r, s) = matrix
    assert p * s - q * r, "the matrix must be invertible"
    images = []
    for u, v in ((p, q), (r, s)):  # u x + v (y + c x^j)
        image = {(1, 0): Fraction(u), (0, 1): Fraction(v)}
        image[j, 0] = image.get((j, 0), 0) + v * Fraction(c)
        images.append({k: w for k, w in image.items() if w})
    top = max(max(a, b) for a, b in d)
    xs, ys = [{(0, 0): Fraction(1)}], [{(0, 0): Fraction(1)}]
    for _ in range(top):
        xs.append(_mul(xs[-1], images[0]))
        ys.append(_mul(ys[-1], images[1]))
    out: dict = {}
    for (a, b), coeff in d.items():
        for key, w in _mul(xs[a], ys[b]).items():
            out[key] = out.get(key, 0) + coeff * w
    return {k: w for k, w in out.items() if w}


def germ_text(d: dict) -> str:
    """A germ {(a, b): rational} as text for the germ parser."""
    return " + ".join(f"({Fraction(c)})*x^{a}*y^{b}" for (a, b), c in sorted(d.items()))


def point_multiset(roots: list) -> Counter:
    """The multiset of (k, m) over a resolution tree, each node counted `points` times.

    A node stands for a Galois orbit of `points` conjugate centres.  The
    minimal log resolution of a germ is unique (Casas-Alvero, Singularities
    of Plane Curves, 2000, ch. 3; Wall, Singular Points of Plane Curves,
    2004), so this multiset is an analytic invariant: a change of
    coordinates at the origin keeps it, wherever the engine's charts put
    the points.
    """
    counts: Counter = Counter()
    stack = list(roots)
    while stack:
        node = stack.pop()
        counts[node.k, node.m] += node.points
        stack.extend(node.children)
    return counts
