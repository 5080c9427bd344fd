"""Log canonical thresholds of curve germs.

lct_germ resolves a squarefree germ by iterated blowups and takes the
minimum of (k_E + 1)/m_E over the exceptional divisors together with the
reciprocal component multiplicities; lct_weighted_germs does the same for
a weighted union of pairwise coprime germs.  The thresholds of
anticanonical configurations are read off their meetings, without a
resolution, by cycles.lct_config.

Germs are read and checked squarefree without sympy, and weighted
branches that run into the depth cap are compared for a common factor by
the same exact gcd (bivariate).  Irrational points in one extension of Q
are blown up in the engine's own field Q[t]/(g) (numberfield); sympy is
loaded only when a germ has a point over a tower of fields to blow up, or
a line to factor (see numberfield).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import bivariate
from .blowup import BlowupNode, blowup_tree, lct_of_branches
from .errors import DepthExceededError, NonSquarefreeError, brief
from .germs import CurveGerm, as_germ, ensure_squarefree, sstr


def __getattr__(name: str) -> object:
    """cycles.lct_config, read here by perfbench's tracer; reading it loads cycles."""
    if name == "lct_config":
        from .cycles import lct_config

        return lct_config
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _germs_of(germs: Sequence[tuple[CurveGerm | str, int]]) -> list[tuple[CurveGerm, int]]:
    """The germs, checked squarefree."""
    return [(ensure_squarefree(as_germ(g)), w) for g, w in germs]


def lct_germ(g: CurveGerm | str) -> Fraction:
    """Log canonical threshold of a squarefree germ at the origin."""
    return lct_weighted_germs([(g, 1)])


def _check_coprime(germs: list[tuple[CurveGerm, int]]) -> None:
    """Raise NonSquarefreeError naming the first two branches with a common factor."""
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
