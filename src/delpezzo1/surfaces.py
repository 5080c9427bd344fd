"""Gorenstein del Pezzo surfaces of degree 1 with Du Val singularities.

A surface is described combinatorially: the multiset of its singularity
types together with an assertion about the worst cuspidal behavior found
among anticanonical members (cusp data is an input, not computed — whether
a cuspidal member exists depends on moduli this description does not see).
validate() checks the necessary constraints on which multisets can occur,
and tlct() evaluates the total log canonical threshold

    tlct(S) = inf { lct(S, D) : D in |-K_S| }

as the least threshold over the members the spec licenses, with the
Kodaira fiber type of a minimizing member.  A member is named as
cycles.build_configuration names it, by the point it passes through (None
in the smooth locus) and its contact variant there, the general one unless
given; its threshold and fiber are read off its configuration
(cycles.lct_config and cycles.kodaira_type), and no value of the paper's
table is written here.

Two rules of the classification are stated once, as tables that every
function applying them reads: ADMITTED_NEIGHBOURS, the singularities that
may sit beside an A8/D8/E8, A7/D7/E7 or E6 point (validate clauses (b)-(d)),
and CUSPIDAL_MEMBERS, the name (point, variant) of the cuspidal member
each cusp assertion licenses (read by SurfaceSpec, tlct,
realizable_configurations, iter_valid_specs and rigidity).
"""

from __future__ import annotations

__all__ = [
    "SurfaceSpec", "ValidationReport", "validate", "TlctResult", "tlct",
    "realizable_configurations", "iter_valid_specs",
]

from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator

from .cycles import (
    CUSPIDAL,
    ELLIPTIC,
    NODAL,
    ONE_POINT,
    TANGENTIAL,
    AnticanonicalConfiguration,
    KodairaLabel,
    build_configuration,
    kodaira_type,
    lct_config,
)
from .dynkin import ALL_TYPES, DynkinType, as_dynkin
from .errors import InvalidSurfaceError, brief_keys, quoted
from .records import Record

# worst cuspidal behavior over the members of |-K_S|
NO_CUSPIDAL_MEMBER = "none"
CUSP_AT_SMOOTH_POINT = "smooth"
CUSP_AT_A1 = "A1"
CUSP_AT_A2 = "A2"
CUSP_DATA = (NO_CUSPIDAL_MEMBER, CUSP_AT_SMOOTH_POINT, CUSP_AT_A1, CUSP_AT_A2)

# cusp assertion -> the cuspidal member it licenses: the type of the point
# it cusps at (None in the smooth locus) and its contact variant there
CUSPIDAL_MEMBERS = {
    CUSP_AT_SMOOTH_POINT: (None, CUSPIDAL),
    CUSP_AT_A1: ("A1", TANGENTIAL),
    CUSP_AT_A2: ("A2", ONE_POINT),
}

MAX_RANK_SUM = 8  # the minimal resolution has Picard rank 9

# (clause, large point types, the types admitted beside one, reason): a
# point of such a type allows at most one extra singularity, of an
# admitted type; {} in the reason is the large point's label
ADMITTED_NEIGHBOURS = (
    ("b", ("A8", "D8", "E8"), (), "{} must be the unique singularity"),
    ("c", ("A7", "D7", "E7"), ("A1",), "{} allows at most one extra singularity, of type A1"),
    ("d", ("E6",), ("A1", "A2"), "{} allows at most one extra singularity, of type A1 or A2"),
)


class SurfaceSpec(Record):
    """Multiset of Du Val singularities plus the asserted cusp behavior."""

    __slots__ = ("singularities", "cusp_data")
    singularities: tuple[DynkinType, ...]
    cusp_data: str

    def __init__(
        self,
        singularities: Iterable[DynkinType | str] = (),
        cusp_data: str = NO_CUSPIDAL_MEMBER,
    ):
        types = tuple(sorted(as_dynkin(t) for t in singularities))
        object.__setattr__(self, "singularities", types)
        object.__setattr__(self, "cusp_data", cusp_data)
        if cusp_data not in CUSP_DATA:
            raise InvalidSurfaceError(
                f"unknown cusp data {quoted(cusp_data)}; choose from {CUSP_DATA}"
            )
        needed = CUSPIDAL_MEMBERS.get(cusp_data, (None,))[0]
        if needed is not None and needed not in [t.label for t in types]:
            raise InvalidSurfaceError(
                f"cusp data {cusp_data!r} needs an {needed} singularity"
            )

    @property
    def rank_sum(self) -> int:
        return sum(t.rank for t in self.singularities)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.singularities)

    def ranks_of(self, kind: str) -> tuple[int, ...]:
        return tuple(t.rank for t in self.singularities if t.kind == kind)

    def as_dict(self) -> dict:
        return {"singularities": list(self.labels), "cusp": self.cusp_data}

    @classmethod
    def from_dict(cls, data: dict) -> "SurfaceSpec":
        if not isinstance(data, dict):
            raise InvalidSurfaceError("surface spec must be a JSON object")
        extra = set(data) - {"singularities", "cusp"}
        if extra:
            raise InvalidSurfaceError(f"unknown spec keys {brief_keys(extra)}")
        labels, cusp = data.get("singularities", []), data.get("cusp", NO_CUSPIDAL_MEMBER)
        if not isinstance(labels, list) or not all(isinstance(t, str) for t in labels):
            raise InvalidSurfaceError('"singularities" must be a list of label strings')
        if not isinstance(cusp, str):  # str() of a deeply nested list raises RecursionError
            raise InvalidSurfaceError('"cusp" must be a string')
        return cls(labels, cusp)

    def __str__(self) -> str:
        inside = ", ".join(self.labels) if self.labels else "smooth"
        return f"{{{inside}}}/{self.cusp_data}"


class ValidationReport(Record):
    """Violated necessary conditions; empty means not excluded."""

    __slots__ = ("violations",)
    violations: tuple[tuple[str, str], ...]

    def __init__(self, violations: tuple[tuple[str, str], ...] = ()) -> None:
        object.__setattr__(self, "violations", violations)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def clauses(self) -> tuple[str, ...]:
        return tuple(c for c, _ in self.violations)

    def __bool__(self) -> bool:
        return self.passed

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [
                {"clause": c, "reason": reason} for c, reason in self.violations
            ],
        }

    def __str__(self) -> str:
        if self.passed:
            return "pass"
        return "fail: " + "; ".join(f"({c}) {reason}" for c, reason in self.violations)


def validate(s: SurfaceSpec) -> ValidationReport:
    """Check the necessary conditions on the singularity multiset.

    (a) rank sum at most 8; (b) a rank-8 point is the unique singularity;
    (c) an A7/D7/E7 point allows at most one extra singularity, of type A1;
    (d) an E6 point allows at most one extra, of type A1 or A2; (b)-(d)
    are the rows of ADMITTED_NEIGHBOURS.  Passing means "not excluded",
    not a guarantee that the surface exists.
    """
    found: list[tuple[str, str]] = []
    if s.rank_sum > MAX_RANK_SUM:
        found.append(
            ("a", f"rank sum {s.rank_sum} exceeds {MAX_RANK_SUM}")
        )
    labels = s.labels
    extras = len(labels) - 1
    for clause, large, admitted, reason in ADMITTED_NEIGHBOURS:
        for label in large:
            if label in labels and (extras > 1 or extras != sum(map(labels.count, admitted))):
                found.append((clause, reason.format(label)))
    return ValidationReport(tuple(found))


class TlctResult(Record):
    """Total threshold with the Kodaira type of a minimizing member."""

    __slots__ = ("value", "kodaira")
    value: Fraction
    kodaira: KodairaLabel

    def __init__(self, value: Fraction, kodaira: KodairaLabel) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "kodaira", kodaira)

    def as_dict(self) -> dict:
        return {"value": str(self.value), "kodaira": self.kodaira.text}

    def __str__(self) -> str:
        return f"{self.value} ({self.kodaira})"


@cache
def _member(point: DynkinType | str | None, variant: str | None = None) -> TlctResult:
    """Threshold and fiber of the member build_configuration(point, variant) names."""
    c = build_configuration(point, variant)
    return TlctResult(lct_config(c), kodaira_type(c))


def tlct(s: SurfaceSpec) -> TlctResult:
    """Total log canonical threshold: the least lct over the members the spec admits.

    The members are the general one at each singular point, from E8 down
    to A1 (the smooth elliptic one if there is none), then the asserted
    cuspidal member (CUSPIDAL_MEMBERS); the first least wins a tie.  Each
    value and fiber is read off the member's configuration: at a Du Val
    point D~ + Gamma is SNC, so 1/m for m the largest coefficient of the
    fundamental cycle Gamma (Artin, "On isolated rational singularities of
    surfaces", 1966; Kollár, "Singularities of pairs", 1997, §8).  No two
    series share an m, so two points tie only within one series, and there
    the larger rank comes first.
    """
    report = validate(s)
    if not report:
        raise InvalidSurfaceError("; ".join(reason for _, reason in report.violations))
    members = [_member(t) for t in reversed(s.singularities)] or [_member(None, ELLIPTIC)]
    if s.cusp_data in CUSPIDAL_MEMBERS:
        members.append(_member(*CUSPIDAL_MEMBERS[s.cusp_data]))
    return min(members, key=lambda member: member.value)


def realizable_configurations(s: SurfaceSpec) -> Iterator[AnticanonicalConfiguration]:
    """Anticanonical-member configurations the spec admits.

    The elliptic and nodal members in the smooth locus (and the cuspidal
    one under any cusp assertion), the general member at each singular
    point, and the variant the cusp assertion licenses at its point
    (CUSPIDAL_MEMBERS).  tlct(s) is the minimum of lct_config over these.
    """
    yield build_configuration(None, ELLIPTIC)
    yield build_configuration(None, NODAL)
    if s.cusp_data != NO_CUSPIDAL_MEMBER:
        yield build_configuration(None, CUSPIDAL)
    point, variant = CUSPIDAL_MEMBERS.get(s.cusp_data, (None, None))
    for t in sorted(set(s.singularities)):
        yield build_configuration(t)
        if t.label == point:
            yield build_configuration(t, variant)


def _multisets(budget: int, pool: tuple[DynkinType, ...]) -> Iterator[tuple]:
    if not pool:
        yield ()
        return
    head, rest = pool[0], pool[1:]
    for count in range(budget // head.rank + 1):
        for tail in _multisets(budget - count * head.rank, rest):
            yield (head,) * count + tail


def iter_valid_specs() -> Iterator[SurfaceSpec]:
    """Every SurfaceSpec passing validate, with every compatible cusp assertion."""
    for types in _multisets(MAX_RANK_SUM, tuple(ALL_TYPES)):
        labels = {t.label for t in types}
        cusps = [NO_CUSPIDAL_MEMBER]
        cusps += [c for c, member in CUSPIDAL_MEMBERS.items()
                  if member[0] is None or member[0] in labels]
        for cusp in cusps:
            s = SurfaceSpec(types, cusp)
            if validate(s):
                yield s
