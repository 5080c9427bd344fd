"""Fundamental cycles, anticanonical configurations, and Kodaira fiber types.

For a Du Val point with exceptional curves E_1..E_n, the fundamental cycle
Gamma = sum a_i E_i is the smallest positive cycle with Gamma . E_j <= 0 for
all j.  An anticanonical member D through the point pulls back to
D~ + Gamma, and the attachment numbers d_j = D~ . E_j are forced by
0 = (D~ + Gamma) . E_j.  The resulting total-transform configuration is a
degenerate elliptic curve and matches one of Kodaira's fiber types.
"""

from __future__ import annotations

__all__ = [
    "FundamentalCycle", "AttachmentVector", "fundamental_cycle", "attachment_vector",
    "Component", "Meeting", "AnticanonicalConfiguration", "allowed_variants",
    "build_configuration", "KodairaLabel", "kodaira_type",
]

from functools import cache
from typing import Sequence

from .dynkin import DynkinType, adjacency, as_dynkin, intersection_matrix
from .errors import (
    InvalidConfigurationError,
    NonTerminationError,
    OutOfRangeError,
    UnrecognizedConfigurationError,
    VariantMismatchError,
    brief,
)
from .records import Record

LAUFER_CAP = 50

# contact variants for the singular point D passes through
STANDARD = "standard"
TRANSVERSE = "transverse"
TANGENTIAL = "tangential"
TWO_POINTS = "two-points"
ONE_POINT = "one-point"

POINT_VARIANTS = (STANDARD, TRANSVERSE, TANGENTIAL, TWO_POINTS, ONE_POINT)

# variants for a D that misses every singular point
ELLIPTIC = "elliptic"
NODAL = "nodal"
CUSPIDAL = "cuspidal"

SMOOTH_VARIANTS = (ELLIPTIC, NODAL, CUSPIDAL)

# component kinds
STRICT_TRANSFORM = "strict_transform"
EXCEPTIONAL = "exceptional"


class FundamentalCycle(Record):
    __slots__ = ("dynkin", "coeffs")
    dynkin: DynkinType
    coeffs: tuple[int, ...]

    def __init__(self, dynkin: DynkinType, coeffs: tuple[int, ...]) -> None:
        object.__setattr__(self, "dynkin", dynkin)
        object.__setattr__(self, "coeffs", coeffs)

    def as_dict(self) -> dict:
        return {"type": self.dynkin.label, "coeffs": list(self.coeffs)}

    def __str__(self) -> str:
        return " ".join(map(str, self.coeffs))


class AttachmentVector(Record):
    __slots__ = ("dynkin", "d")
    dynkin: DynkinType
    d: tuple[int, ...]

    def __init__(self, dynkin: DynkinType, d: tuple[int, ...]) -> None:
        object.__setattr__(self, "dynkin", dynkin)
        object.__setattr__(self, "d", d)

    def as_dict(self) -> dict:
        return {"type": self.dynkin.label, "d": list(self.d)}

    def __str__(self) -> str:
        return " ".join(map(str, self.d))


def _laufer(entries: Sequence[Sequence[int]], start: int) -> list[int]:
    """Incremental cycle computation on an intersection matrix.

    Z starts as the single curve `start` (0-based); while some Z . E_j is
    positive, the smallest such j is added.  Terminates at the fundamental
    cycle for any negative-definite ADE matrix regardless of start.
    """
    n = len(entries)
    coeffs = [0] * n
    coeffs[start] = 1
    for _ in range(LAUFER_CAP):
        for j in range(n):
            if sum(entries[j][i] * coeffs[i] for i in range(n)) > 0:
                coeffs[j] += 1
                break
        else:
            return coeffs
    raise NonTerminationError(
        f"cycle iteration did not settle within {LAUFER_CAP} steps"
    )


def fundamental_cycle(t: DynkinType | str, start: int = 1) -> FundamentalCycle:
    """The minimal positive cycle Gamma with Gamma . E_j <= 0 for all j.

    `start` selects the initial curve (1-based); the result is independent
    of it, which the test suite checks exhaustively.  Each (type, start) is
    computed once.
    """
    t = as_dynkin(t)
    if not 1 <= start <= t.rank:
        raise OutOfRangeError(f"start node must be in 1..{t.rank}")
    return _fundamental_cycle(t, start)


@cache
def _fundamental_cycle(t: DynkinType, start: int) -> FundamentalCycle:
    m = intersection_matrix(t)
    return FundamentalCycle(t, tuple(_laufer(m.entries, start - 1)))


def attachment_vector(t: DynkinType | str) -> AttachmentVector:
    """d_j = D~ . E_j, determined by d = -(M a)."""
    t = as_dynkin(t)
    m = intersection_matrix(t)
    a = fundamental_cycle(t).coeffs
    return AttachmentVector(t, tuple(-v for v in m.dot(a)))


def _require_int(value: object, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfigurationError(f"{what} must be an integer, got {value!r}")


class Component(Record):
    __slots__ = ("id", "multiplicity", "kind")
    id: str
    multiplicity: int
    kind: str

    def __init__(self, id: str, multiplicity: int, kind: str) -> None:
        _require_int(multiplicity, "component multiplicity")
        if multiplicity < 1:
            raise InvalidConfigurationError("component multiplicity must be positive")
        if kind not in (STRICT_TRANSFORM, EXCEPTIONAL):
            raise InvalidConfigurationError(f"unknown component kind {kind!r}")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "kind", kind)

    def as_dict(self) -> dict:
        return {"id": self.id, "multiplicity": self.multiplicity, "kind": self.kind}


class Meeting(Record):
    """One point where configuration branches meet.

    `members` lists the component ids of the local branches; a repeated id
    means two branches of the same component (a self-node).  `contact` is
    the pairwise intersection multiplicity of the branches (2 = simple
    tangency, only meaningful for two branches).  `cuspidal` marks the
    non-immersed point of a cuspidal rational member.
    """

    __slots__ = ("members", "contact", "cuspidal")
    members: tuple[str, ...]
    contact: int
    cuspidal: bool

    def __init__(
        self, members: tuple[str, ...], contact: int = 1, cuspidal: bool = False
    ) -> None:
        _require_int(contact, "contact order")
        if cuspidal:
            if len(members) != 1 or contact != 1:
                raise InvalidConfigurationError(
                    "a cusp record carries exactly one branch and contact 1"
                )
        elif len(members) < 2:
            raise InvalidConfigurationError("a meeting needs at least two branches")
        if contact < 1:
            raise InvalidConfigurationError("contact order must be positive")
        if contact > 1 and len(members) != 2:
            raise InvalidConfigurationError(
                "tangential contact is defined for exactly two branches"
            )
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "contact", contact)
        object.__setattr__(self, "cuspidal", cuspidal)

    def as_dict(self) -> dict:
        return {
            "members": list(self.members),
            "contact": self.contact,
            "cuspidal": self.cuspidal,
        }


class AnticanonicalConfiguration(Record):
    __slots__ = ("components", "incidence")
    components: tuple[Component, ...]
    incidence: tuple[Meeting, ...]

    def __init__(self, components: tuple[Component, ...],
                 incidence: tuple[Meeting, ...] = ()) -> None:
        stricts = [c for c in components if c.kind == STRICT_TRANSFORM]
        if len(stricts) != 1 or stricts[0].multiplicity != 1:
            raise InvalidConfigurationError(
                "need exactly one strict-transform component of multiplicity 1"
            )
        ids = [c.id for c in components]
        if len(set(ids)) != len(ids):
            raise InvalidConfigurationError("duplicate component ids")
        known = set(ids)
        for m in incidence:
            for cid in m.members:
                if cid not in known:
                    raise InvalidConfigurationError(f"meeting references unknown id {cid!r}")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "incidence", incidence)

    def multiplicity_of(self, cid: str) -> int:
        for c in self.components:
            if c.id == cid:
                return c.multiplicity
        raise KeyError(cid)

    @property
    def max_multiplicity(self) -> int:
        return max(c.multiplicity for c in self.components)

    def as_dict(self) -> dict:
        return {
            "components": [c.as_dict() for c in self.components],
            "incidence": [m.as_dict() for m in self.incidence],
        }

    def __str__(self) -> str:
        """An `id multiplicity kind` line per component, a `meet` line per meeting."""
        lines = [f"{c.id} {c.multiplicity} {c.kind}" for c in self.components]
        for m in self.incidence:
            tail = " cuspidal" if m.cuspidal else ""
            if m.contact != 1:
                tail = f" contact={m.contact}"
            lines.append("meet " + " ".join(m.members) + tail)
        return "\n".join(lines)


_POINT_VARIANTS = {
    "A1": (TRANSVERSE, TANGENTIAL),
    "A2": (TWO_POINTS, ONE_POINT),
}


def allowed_variants(t: DynkinType) -> tuple[str, ...]:
    return _POINT_VARIANTS.get(t.label, (STANDARD,))


def build_configuration(
    points: Sequence[tuple[DynkinType | str, str]] = (),
    smooth: str | None = None,
) -> AnticanonicalConfiguration:
    """Assemble the total transform D~ + Gamma as a combinatorial configuration.

    `points` lists the singular points D passes through (at most one), each
    with its contact variant; with no points, `smooth` picks the behavior of
    D inside the smooth locus: elliptic, nodal or cuspidal.
    """
    if len(points) > 1:
        raise InvalidConfigurationError(
            "an anticanonical member passes through at most one singular point"
        )
    if points and smooth is not None:
        raise InvalidConfigurationError(
            "smooth-locus variant applies only to an empty point list"
        )

    if not points:
        if smooth is None:
            raise InvalidConfigurationError(
                "empty point list requires a smooth-locus variant"
            )
        if smooth not in SMOOTH_VARIANTS:
            raise VariantMismatchError(
                f"unknown smooth-locus variant {smooth!r}; choose from {SMOOTH_VARIANTS}"
            )
        d_comp = Component("D", 1, STRICT_TRANSFORM)
        if smooth == ELLIPTIC:
            return AnticanonicalConfiguration((d_comp,), ())
        if smooth == NODAL:
            return AnticanonicalConfiguration((d_comp,), (Meeting(("D", "D")),))
        return AnticanonicalConfiguration((d_comp,), (Meeting(("D",), cuspidal=True),))

    t, variant = points[0]
    t = as_dynkin(t)
    if variant not in allowed_variants(t):
        raise VariantMismatchError(
            f"variant {variant!r} is not defined for {t.label}; "
            f"allowed: {allowed_variants(t)}"
        )
    return _point_configuration(t, variant)


@cache
def _point_configuration(t: DynkinType, variant: str) -> AnticanonicalConfiguration:
    """The configuration of a D through one point of type t, built once per (t, variant)."""
    cyc = fundamental_cycle(t)
    att = attachment_vector(t)
    components = [Component("D", 1, STRICT_TRANSFORM)]
    components += [
        Component(f"E{i + 1}", cyc.coeffs[i], EXCEPTIONAL) for i in range(t.rank)
    ]

    meetings: list[Meeting]
    if variant == TANGENTIAL:
        meetings = [Meeting(("D", "E1"), contact=2)]
    elif variant == ONE_POINT:
        meetings = [Meeting(("D", "E1", "E2"))]
    else:
        meetings = [
            Meeting((f"E{min(i, j)}", f"E{max(i, j)}"))
            for i, j in (tuple(sorted(e)) for e in adjacency(t))
        ]
        for j, dj in enumerate(att.d):
            meetings.extend(Meeting(("D", f"E{j + 1}")) for _ in range(dj))
        meetings.sort(key=lambda m: m.members)

    return AnticanonicalConfiguration(tuple(components), tuple(meetings))


class KodairaLabel(Record):
    """Kodaira's name for a degenerate elliptic fiber: I_n, I*_m, II..IV and duals."""

    __slots__ = ("series", "index")
    series: str
    index: int | None

    _COMPONENTS = {"II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}

    def __init__(self, series: str, index: int | None = None) -> None:
        if series in ("I", "I*") and index is not None:
            _require_int(index, "Kodaira index")
        if series == "I":
            if index is None or index < 0:
                raise InvalidConfigurationError("I_n needs n >= 0")
        elif series == "I*":
            if index is None or not 0 <= index <= 4:
                raise InvalidConfigurationError("I*_m needs 0 <= m <= 4 here")
        elif series in self._COMPONENTS:
            if index is not None:
                raise InvalidConfigurationError(f"{series} carries no index")
        else:
            raise InvalidConfigurationError(f"unknown Kodaira series {brief(series)!r}")
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "index", index)

    @property
    def text(self) -> str:
        if self.index is None:
            return self.series
        return f"I*{self.index}" if self.series == "I*" else f"I{self.index}"

    @property
    def component_count(self) -> int:
        if self.series == "I":
            return max(self.index, 1)  # I0 is the irreducible smooth fiber
        if self.series == "I*":
            return self.index + 5
        return self._COMPONENTS[self.series]

    def __str__(self) -> str:
        return self.text


def _connected(n_ids: set[str], edges: list[tuple[str, str]]) -> bool:
    seen = {next(iter(sorted(n_ids)))}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for a, b in edges:
            w = b if a == v else (a if b == v else None)
            if w is not None and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen == n_ids


def kodaira_type(c: AnticanonicalConfiguration) -> KodairaLabel:
    """Match a configuration against Kodaira's degenerate-fiber patterns."""
    n = len(c.components)
    mults = [comp.multiplicity for comp in c.components]
    mmax = max(mults)

    if n == 1:
        if not c.incidence:
            return KodairaLabel("I", 0)
        if len(c.incidence) == 1:
            m = c.incidence[0]
            if m.cuspidal:
                return KodairaLabel("II")
            if len(m.members) == 2 and m.members[0] == m.members[1] and m.contact == 1:
                return KodairaLabel("I", 1)
        raise UnrecognizedConfigurationError("no single-component pattern matches")

    if any(m.cuspidal for m in c.incidence):
        raise UnrecognizedConfigurationError("cusp record in a multi-component configuration")

    tangential = [m for m in c.incidence if m.contact >= 2]
    if tangential:
        if (
            len(c.incidence) == 1
            and tangential[0].contact == 2
            and n == 2
            and mmax == 1
            and len(set(tangential[0].members)) == 2
        ):
            return KodairaLabel("III")
        raise UnrecognizedConfigurationError("tangency does not match the two-line pattern")

    triples = [m for m in c.incidence if len(m.members) >= 3]
    if triples:
        if (
            len(c.incidence) == 1
            and len(triples[0].members) == 3
            and n == 3
            and mmax == 1
            and len(set(triples[0].members)) == 3
        ):
            return KodairaLabel("IV")
        raise UnrecognizedConfigurationError("triple point does not match the three-line pattern")

    edges = [(m.members[0], m.members[1]) for m in c.incidence]
    ids = {comp.id for comp in c.components}
    if not _connected(ids, edges):
        raise UnrecognizedConfigurationError("configuration is not connected")

    degree = {cid: 0 for cid in ids}
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1

    if len(edges) == n and mmax == 1 and all(d == 2 for d in degree.values()):
        return KodairaLabel("I", n)

    if len(edges) == n - 1:
        by_max = {2: ("I*", n - 5), 3: ("IV*", None), 4: ("III*", None), 6: ("II*", None)}
        if mmax in by_max:
            series, idx = by_max[mmax]
            if series == "I*" and not 0 <= idx <= 4:  # I*_0 to I*_4: 5 to 9 components
                amount = "few" if idx < 0 else "many"
                raise UnrecognizedConfigurationError(f"too {amount} components for multiplicity 2")
            label = KodairaLabel(series, idx)
            if label.component_count == n:
                return label

    raise UnrecognizedConfigurationError("configuration matches no Kodaira pattern")
