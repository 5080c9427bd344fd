"""Fundamental cycles, anticanonical configurations, and Kodaira fiber types.

For a Du Val point with exceptional curves E_1..E_n, the fundamental cycle
Gamma = sum a_i E_i is the smallest positive cycle with Gamma . E_j <= 0 for
all j.  An anticanonical member D through the point pulls back to
D~ + Gamma, and the attachment numbers d_j = D~ . E_j are forced by
0 = (D~ + Gamma) . E_j.  The resulting total-transform configuration is a
degenerate elliptic curve, which matches one of Kodaira's fiber types and
whose threshold lct_config reads off its meetings, with no resolution.

A member passes through at most one singular point, so it is named by that
point and its contact variant there, or by its variant in the smooth locus:
build_configuration(point, variant) builds each of the 21 members once, and
kodaira_type and lct_config compute each one's fiber and threshold once:
each remembers its last MEMO_SIZE configurations, a bounded memo that holds
all 21.  A configuration they reject raises again on every call.
"""

from __future__ import annotations

__all__ = [
    "FundamentalCycle", "AttachmentVector", "fundamental_cycle", "attachment_vector",
    "Component", "Meeting", "AnticanonicalConfiguration", "allowed_variants",
    "build_configuration", "KodairaLabel", "kodaira_type", "lct_config",
]

from functools import cache, lru_cache
from typing import TYPE_CHECKING, Sequence

from .dynkin import DynkinType, adjacency, as_dynkin, intersection_matrix
from .errors import (
    InvalidConfigurationError,
    NonTerminationError,
    UnrecognizedConfigurationError,
    VariantMismatchError,
    quoted,
)
from .records import Record

if TYPE_CHECKING:  # lct_config imports fractions when called: cycle, config, kodaira never do
    from fractions import Fraction

LAUFER_CAP = 50
MEMO_SIZE = 64  # configurations kodaira_type and lct_config each remember

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


def fundamental_cycle(t: DynkinType | str) -> FundamentalCycle:
    """The minimal positive cycle Gamma with Gamma . E_j <= 0 for all j.

    Laufer's iteration from E_1; every start gives this cycle, which the
    test suite checks from each node.  Each type is computed once.
    """
    return _fundamental_cycle(as_dynkin(t))


@cache
def _fundamental_cycle(t: DynkinType) -> FundamentalCycle:
    return FundamentalCycle(t, tuple(_laufer(intersection_matrix(t).entries, 0)))


def attachment_vector(t: DynkinType | str) -> AttachmentVector:
    """d_j = D~ . E_j, determined by d = -(M a)."""
    t = as_dynkin(t)
    m = intersection_matrix(t)
    a = fundamental_cycle(t).coeffs
    return AttachmentVector(t, tuple(-v for v in m.dot(a)))


def _require_int(value: object, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfigurationError(f"{what} must be an integer, got {quoted(value)}")


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
            raise InvalidConfigurationError(f"unknown component kind {quoted(kind)}")
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
        object.__setattr__(self, "members", tuple(members))
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
                    raise InvalidConfigurationError(f"meeting references unknown id {quoted(cid)}")
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "incidence", tuple(incidence))

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
    point: DynkinType | str | None = None, variant: str | None = None
) -> AnticanonicalConfiguration:
    """The total transform D~ + Gamma of a member D of |-K_S|, as a configuration.

    D passes through at most one singular point: `point` is its type, a
    DynkinType or a label, and `variant` the contact there, by default the
    general one (the first of allowed_variants).  With no point D lies in
    the smooth locus, and `variant` is elliptic, nodal or cuspidal.
    """
    if point is None:
        if variant not in SMOOTH_VARIANTS:
            raise VariantMismatchError(
                f"unknown smooth-locus variant {quoted(variant)}; choose from {SMOOTH_VARIANTS}"
            )
        return _configuration(None, variant)
    t = as_dynkin(point)
    allowed = allowed_variants(t)
    if variant is None:
        variant = allowed[0]
    elif variant not in allowed:
        raise VariantMismatchError(
            f"variant {quoted(variant)} is not defined for {t.label}; allowed: {allowed}"
        )
    return _configuration(t, variant)


@cache
def _configuration(t: DynkinType | None, variant: str) -> AnticanonicalConfiguration:
    """The member through a point of type t (None: in the smooth locus), built once."""
    components = [Component("D", 1, STRICT_TRANSFORM)]
    meetings: list[Meeting] = []
    if t is not None:
        components += [Component(f"E{i + 1}", a, EXCEPTIONAL)
                       for i, a in enumerate(fundamental_cycle(t).coeffs)]
    if variant == NODAL:
        meetings = [Meeting(("D", "D"))]
    elif variant == CUSPIDAL:
        meetings = [Meeting(("D",), cuspidal=True)]
    elif variant == TANGENTIAL:
        meetings = [Meeting(("D", "E1"), contact=2)]
    elif variant == ONE_POINT:
        meetings = [Meeting(("D", "E1", "E2"))]
    elif t is not None:  # every meeting a transverse pair: the diagram, and D at E_j d_j times
        meetings = [
            Meeting((f"E{min(i, j)}", f"E{max(i, j)}"))
            for i, j in (tuple(sorted(e)) for e in adjacency(t))
        ]
        for j, dj in enumerate(attachment_vector(t).d):
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
            raise InvalidConfigurationError(f"unknown Kodaira series {quoted(series)}")
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


@lru_cache(maxsize=MEMO_SIZE)
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


@lru_cache(maxsize=MEMO_SIZE)
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
    import fractions

    best = fractions.Fraction(1, c.max_multiplicity)
    for m in c.incidence:
        if m.cuspidal:
            best = min(best, fractions.Fraction(5, 6 * c.multiplicity_of(m.members[0])))
        elif m.contact > 1 or len(m.members) > 2:
            s = sum(c.multiplicity_of(cid) for cid in m.members)
            best = min(best, fractions.Fraction(m.contact + 1, m.contact * s))
    return best
