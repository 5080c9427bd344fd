"""Independent oracles used by the test suite.

These deliberately avoid the library's own algorithms: definiteness is
checked with Fraction LDL pivots instead of integer minors, fundamental
cycles are found by exhaustive search over a coefficient box instead of the
cycle iteration, and the lct of a germ that is nondegenerate with respect
to its Newton polygon is read off the polygon instead of a resolution.
"""

from __future__ import annotations

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
