"""Log canonical thresholds of germs and of anticanonical configurations.

lct_germ resolves a squarefree germ by iterated blowups and takes the
minimum of (k_E + 1)/m_E over the exceptional divisors together with the
reciprocal component multiplicities.  lct_config evaluates the weighted
total transform D~ + Gamma: simple normal crossings contribute 1/m, and
each non-SNC meeting (cusp, tangency, three or more transverse branches)
the closed form read off its chain of blowups, so it runs no resolution
and needs neither the germ parser, the engine nor sympy.

Germs are read and checked squarefree without sympy as well, and weighted
branches that run into the depth cap are compared for a common factor by
the same exact gcd (bivariate).  Irrational points in one extension of Q
are blown up in the engine's own field Q[t]/(g) (numberfield); sympy is
loaded only when a germ has a point over a tower of fields to blow up, or
a line to factor (see numberfield).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from .errors import DepthExceededError, NonSquarefreeError, brief

if TYPE_CHECKING:  # annotations only: a germ call loads no core module but errors and records
    from .blowup import BlowupNode
    from .cycles import AnticanonicalConfiguration

_ENGINE_NAMES = ("BlowupNode", "blowup_tree", "lct_of_branches")


def __getattr__(name: str) -> object:
    """The engine's names, read through this module; blowup is loaded when one is read."""
    if name in _ENGINE_NAMES:
        from . import blowup

        return getattr(blowup, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _germs_of(germs: Sequence[tuple[CurveGerm | str, int]]) -> list[tuple[CurveGerm, int]]:
    """The germs, checked squarefree.

    germs, and blowup with it, are imported in the germ functions and not at
    module level: lct_config never needs the germ parser or the engine.
    CurveGerm in the annotations is its class.
    """
    from .germs import as_germ, ensure_squarefree

    return [(ensure_squarefree(as_germ(g)), w) for g, w in germs]


def lct_germ(g: CurveGerm | str) -> Fraction:
    """Log canonical threshold of a squarefree germ at the origin."""
    return lct_weighted_germs([(g, 1)])


def _check_coprime(germs: list[tuple[CurveGerm, int]]) -> None:
    """Raise NonSquarefreeError naming the first two branches with a common factor."""
    from . import bivariate
    from .germs import sstr

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
    from .blowup import lct_of_branches

    checked = _germs_of(germs)
    try:
        return lct_of_branches([(g.nums, w) for g, w in checked])
    except DepthExceededError:
        _check_coprime(checked)
        raise


def germ_blowup_tree(g: CurveGerm | str) -> list[BlowupNode]:
    """Resolution tree of a squarefree germ (root nodes; empty when SNC)."""
    from .blowup import blowup_tree

    return blowup_tree([(h.nums, w) for h, w in _germs_of([(g, 1)])])


def lct_config(c: AnticanonicalConfiguration) -> Fraction:
    """Threshold of the weighted configuration sum m_i C_i.

    The minimum of the reciprocal multiplicities (the SNC answer) and of a
    closed form at every meeting but a transverse pair (Kollar 1997, section
    8): blowing the meeting up gives a chain of exceptional divisors
    (k_E, m_E), and the form is the least (k_E + 1)/m_E along it.
    - A cusp of weight w: (1, 2w), (2, 3w), (4, 6w), so 5/(6w).
    - Branches of weights summing to s with contact c (c = 1 for three or
      more transverse branches): (i, i*s) for i <= c, so (c + 1)/(c*s).
    A transverse pair is SNC, and 2/s never falls below 1/max m.
    """
    best = Fraction(1, c.max_multiplicity)
    for m in c.incidence:
        if m.cuspidal:
            best = min(best, Fraction(5, 6 * c.multiplicity_of(m.members[0])))
        elif m.contact > 1 or len(m.members) > 2:
            s = sum(c.multiplicity_of(cid) for cid in m.members)
            best = min(best, Fraction(m.contact + 1, m.contact * s))
    return best
