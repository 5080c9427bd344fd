"""Log canonical thresholds of germs and of anticanonical configurations.

lct_germ resolves a squarefree germ by iterated blowups and takes the
minimum of (k_E + 1)/m_E over the exceptional divisors together with the
reciprocal component multiplicities.  lct_config evaluates the weighted
total transform D~ + Gamma: simple normal crossings contribute 1/m, and the
finitely many non-SNC local models (tangency, triple point, cusp) are fed
to the same engine with their weights.  The local models have rational
points only, so lct_config never loads sympy; their thresholds are
memoised, as a few models recur across all configurations.

Germs are read and checked squarefree without sympy as well, and weighted
branches that run into the depth cap are compared for a common factor by
the same exact gcd (bivariate).  Irrational points in one extension of Q
are blown up in the engine's own field Q[t]/(g) (numberfield); sympy is
loaded only when a germ has a point over a tower of fields to blow up, or
a line to factor (see numberfield).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from .blowup import BlowupNode, blowup_tree, lct_of_branches
from .errors import (
    DepthExceededError,
    NonSquarefreeError,
    UnrecognizedConfigurationError,
)

if TYPE_CHECKING:  # annotations only: a germ call loads no core module but errors and records
    from .cycles import AnticanonicalConfiguration

# local meeting models with their thresholds kept; a full sweep over every
# realizable configuration of every valid spec meets 16 of them
LOCAL_MODEL_CACHE = 256


def _germs_of(germs: Sequence[tuple[CurveGerm | str, int]]) -> list[tuple[CurveGerm, int]]:
    """The germs, checked squarefree.

    germs is imported here and not at module level: lct_config builds its
    local models as dicts and never needs the germ parser.  CurveGerm in the
    annotations is its class.
    """
    from .germs import as_germ, ensure_squarefree

    return [(ensure_squarefree(as_germ(g)), w) for g, w in germs]


def lct_germ(g: CurveGerm | str) -> Fraction:
    """Log canonical threshold of a squarefree germ at the origin."""
    return lct_weighted_germs([(g, 1)])


def _check_coprime(germs: list[tuple[CurveGerm, int]]) -> None:
    """Raise NonSquarefreeError naming the first two branches with a common factor."""
    from . import bivariate
    from .germs import brief, sstr

    for (i, (f, _)), (j, (g, _)) in combinations(enumerate(germs, start=1), 2):
        common = bivariate.gcd(*(bivariate.from_dict(h.nums) for h in (f, g)))
        if common != bivariate.ONE:
            shared = brief(sstr(bivariate.to_dict(common)))
            raise NonSquarefreeError(
                f"branches {i} ({brief(f)}) and {j} ({brief(g)}) share the factor {shared}")


def lct_weighted_germs(germs: Sequence[tuple[CurveGerm | str, int]]) -> Fraction:
    """Threshold of a weighted union sum w_i f_i of pairwise coprime germs.

    Branches with a common factor never separate under blowups, so they run
    into the depth cap; only then are the branches compared, and the pair
    found is reported as NonSquarefreeError.
    """
    checked = _germs_of(germs)
    try:
        return lct_of_branches([(g.nums, w) for g, w in checked])
    except DepthExceededError:
        _check_coprime(checked)
        raise


def germ_blowup_tree(g: CurveGerm | str) -> list[BlowupNode]:
    """Resolution tree of a squarefree germ (root nodes; empty when SNC)."""
    return blowup_tree([(h.nums, w) for h, w in _germs_of([(g, 1)])])


# local models for one meeting record, as branch dicts over Q
_X = {(1, 0): Fraction(1)}
_Y = {(0, 1): Fraction(1)}
_CUSP = {(0, 2): Fraction(1), (3, 0): Fraction(-1)}


def _line(slope: int) -> dict:
    return {(1, 0): Fraction(1), (0, 1): Fraction(slope)}


def _local_branches(cuspidal: bool, contact: int, weights: tuple[int, ...]) -> list[tuple[dict, int]]:
    if cuspidal:
        return [(_CUSP, weights[0])]
    if len(weights) == 2:
        if contact == 1:
            return [(_X, weights[0]), (_Y, weights[1])]
        # two smooth branches with contact order c: y = 0 against y = x^c
        tangent = {(0, 1): Fraction(1), (contact, 0): Fraction(-1)}
        return [(_Y, weights[0]), (tangent, weights[1])]
    if contact == 1:
        # pairwise transverse branches through one point: distinct lines
        lines = [_Y, _X] + [_line(s) for s in range(1, len(weights) - 1)]
        return list(zip(lines, weights))
    raise UnrecognizedConfigurationError(
        f"no local model for {len(weights)} branches with contact {contact}"
    )


@lru_cache(maxsize=LOCAL_MODEL_CACHE)
def _meeting_lct(cuspidal: bool, contact: int, weights: tuple[int, ...]) -> Fraction:
    """Threshold of the local model of one meeting, whose branches have these weights."""
    return lct_of_branches(_local_branches(cuspidal, contact, weights))


def lct_config(c: AnticanonicalConfiguration) -> Fraction:
    """Threshold of the weighted configuration sum m_i C_i.

    The minimum of the reciprocal multiplicities (the SNC answer) and of the
    engine values at every non-transverse meeting.
    """
    best = Fraction(1, c.max_multiplicity)
    for m in c.incidence:
        weights = tuple(c.multiplicity_of(cid) for cid in m.members)
        best = min(best, _meeting_lct(m.cuspidal, m.contact, weights))
    return best
