"""Birational rigidity of degree-1 del Pezzo fibrations over a curve germ.

The criterion: a birational map between two such fibrations X/T and Y/T is
biregular provided the special fibers are reduced and irreducible with plt
pairs (X, S_X), (Y, S_Y), anticanonical 1-complements extend, restriction
maps surject, and

    tlct(S_X) + tlct(S_Y) > 1.

The three structural conditions are assertions supplied by the caller
(they are not computable from a singularity multiset); the threshold
inequality is exact arithmetic.  When the gate fails, the contrapositive
bounds the partner fiber: tlct(S_Y) <= 1 - tlct(S_X), which cuts the
eight threshold classes down to the admissible targets.
"""

from __future__ import annotations

__all__ = [
    "FibrationSpec", "TargetClass", "TARGET_CLASSES", "target_class_for", "RigidityVerdict",
    "rigidity_gate", "possible_targets", "source_constraints",
]

from fractions import Fraction

from .errors import (
    AssumptionNotAssertedError,
    InvalidSurfaceError,
    UnsupportedClassError,
    brief_keys,
)
from .records import Record
from .surfaces import (
    CUSP_AT_A1,
    CUSP_AT_A2,
    CUSP_AT_SMOOTH_POINT,
    CUSPIDAL_MEMBERS,
    NO_CUSPIDAL_MEMBER,
    SurfaceSpec,
    tlct,
)

RIGID = "rigid"
INCONCLUSIVE = "inconclusive"

ASSUMPTIONS = ("special_fiber_plt", "one_complement", "surjectivity")


class FibrationSpec(Record):
    """A fibration side: its special fiber plus the structural assertions."""

    __slots__ = ("fiber", "special_fiber_plt", "one_complement", "surjectivity")
    fiber: SurfaceSpec
    special_fiber_plt: bool
    one_complement: bool
    surjectivity: bool

    def __init__(
        self,
        fiber: SurfaceSpec,
        special_fiber_plt: bool = True,
        one_complement: bool = True,
        surjectivity: bool = True,
    ) -> None:
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "special_fiber_plt", special_fiber_plt)
        object.__setattr__(self, "one_complement", one_complement)
        object.__setattr__(self, "surjectivity", surjectivity)

    @property
    def missing_assumptions(self) -> tuple[str, ...]:
        return tuple(name for name in ASSUMPTIONS if not getattr(self, name))

    @classmethod
    def from_dict(cls, data: dict) -> "FibrationSpec":
        """A bare surface spec, or {"fiber": spec, "assumptions": {flag: bool}}.

        A flag left out is asserted; a flag given must be a JSON boolean.
        """
        if not (isinstance(data, dict) and "fiber" in data):
            return cls(SurfaceSpec.from_dict(data))
        extra = set(data) - {"fiber", "assumptions"}
        if extra:
            raise InvalidSurfaceError(f"unknown fibration keys {brief_keys(extra)}")
        flags = data.get("assumptions", {})
        if not isinstance(flags, dict):
            raise InvalidSurfaceError('"assumptions" must be a JSON object')
        extra = set(flags) - set(ASSUMPTIONS)
        if extra:
            raise InvalidSurfaceError(f"unknown assumption flags {brief_keys(extra)}")
        if not all(isinstance(v, bool) for v in flags.values()):
            raise InvalidSurfaceError("assumption flags must be true or false")
        return cls(SurfaceSpec.from_dict(data["fiber"]), **flags)


class TargetClass(Record):
    """One threshold class of special fibers: a validated witness and its tlct."""

    __slots__ = ("tlct_value", "description", "witness")
    tlct_value: Fraction
    description: str
    witness: SurfaceSpec

    def __init__(self, tlct_value: Fraction, description: str, witness: SurfaceSpec) -> None:
        object.__setattr__(self, "tlct_value", tlct_value)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "witness", witness)

    def as_dict(self) -> dict:
        return {"tlct": str(self.tlct_value), "description": self.description}

    def __str__(self) -> str:
        return f"{self.tlct_value} {self.description}"


TARGET_CLASSES = tuple(
    TargetClass(tlct(witness).value, description, witness)
    for description, witness in (
        ("unique singular point, of type E8", SurfaceSpec(["E8"])),
        ("E7 present, no E8; at most one extra singularity, of type A1", SurfaceSpec(["E7"])),
        ("E6 present, no E7 or E8; at most one extra singularity, of type A1 or A2",
         SurfaceSpec(["E6"])),
        ("some Dn present, no exceptional type", SurfaceSpec(["D4"])),
        ("only An singularities; a member cusps at an A2 point", SurfaceSpec(["A2"], CUSP_AT_A2)),
        ("only An singularities; a member cusps at an A1 point, none at an A2",
         SurfaceSpec(["A1"], CUSP_AT_A1)),
        ("only An singularities; a cuspidal member, none cusping at a singular point",
         SurfaceSpec([], CUSP_AT_SMOOTH_POINT)),
        ("only An singularities; no cuspidal member", SurfaceSpec([], NO_CUSPIDAL_MEMBER)),
    )
)


def target_class_for(value: Fraction) -> TargetClass:
    for cls in TARGET_CLASSES:
        if cls.tlct_value == value:
            return cls
    raise UnsupportedClassError(f"no threshold class takes the value {value}")


class RigidityVerdict(Record):
    """Gate outcome with the exact threshold sum and admissible targets."""

    __slots__ = ("outcome", "tlct_sum", "detail", "missing_assumptions")
    outcome: str
    tlct_sum: Fraction
    detail: tuple[TargetClass, ...]
    missing_assumptions: tuple[str, ...]

    def __init__(
        self,
        outcome: str,
        tlct_sum: Fraction,
        detail: tuple[TargetClass, ...] = (),
        missing_assumptions: tuple[str, ...] = (),
    ) -> None:
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "tlct_sum", tlct_sum)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "missing_assumptions", missing_assumptions)

    @property
    def deficit(self) -> Fraction:
        return Fraction(1) - self.tlct_sum

    def as_dict(self) -> dict:
        out = {
            "outcome": self.outcome,
            "tlct_sum": str(self.tlct_sum),
            "targets": [cls.as_dict() for cls in self.detail],
        }
        if self.missing_assumptions:
            out["missing_assumptions"] = list(self.missing_assumptions)
        return out

    def __str__(self) -> str:
        """`outcome sum`, a `missing:` line if assumptions are withheld, the targets."""
        lines = [f"{self.outcome} {self.tlct_sum}"]
        if self.missing_assumptions:
            lines.append("missing: " + ", ".join(self.missing_assumptions))
        return "\n".join(lines + [str(cls) for cls in self.detail])


def _side(side: FibrationSpec | SurfaceSpec, name: str) -> tuple[FibrationSpec, Fraction]:
    """The side as a FibrationSpec and its fiber's tlct, which validates the fiber."""
    fib = side if isinstance(side, FibrationSpec) else FibrationSpec(side)
    try:
        return fib, tlct(fib.fiber).value
    except InvalidSurfaceError as exc:
        raise InvalidSurfaceError(f"{name} fiber fails validation: {exc}") from None


def _admissible(threshold: Fraction) -> tuple[TargetClass, ...]:
    return tuple(c for c in TARGET_CLASSES if c.tlct_value <= 1 - threshold)


def rigidity_gate(
    x: FibrationSpec | SurfaceSpec, y: FibrationSpec | SurfaceSpec
) -> RigidityVerdict:
    """Decide the rigidity gate for a pair of fibrations.

    Rigid iff all six assumption flags hold and the threshold sum exceeds 1;
    otherwise Inconclusive (the criterion does not apply — no birational
    map is asserted to exist).  On an inconclusive verdict, detail lists the
    threshold classes an alternative model of x could inhabit: those cut
    out by the sum condition when the flags hold, or every class when an
    assumption is missing.
    """
    (fx, x_value), (fy, y_value) = _side(x, "x"), _side(y, "y")
    total = x_value + y_value
    missing = tuple(f"x:{n}" for n in fx.missing_assumptions)
    missing += tuple(f"y:{n}" for n in fy.missing_assumptions)
    if total > 1 and not missing:
        return RigidityVerdict(RIGID, total)
    detail = TARGET_CLASSES if missing else _admissible(x_value)
    return RigidityVerdict(INCONCLUSIVE, total, detail, missing)


def possible_targets(x: FibrationSpec | SurfaceSpec) -> list[TargetClass]:
    """Threshold classes a non-biregular partner of x could have.

    With all assumptions asserted, a partner fiber must satisfy
    tlct <= 1 - tlct(S_X); the list is ascending and empty exactly when
    tlct(S_X) = 1 (every birational map is then biregular).
    """
    fib, value = _side(x, "x")
    if fib.missing_assumptions:
        raise AssumptionNotAssertedError(
            "possible_targets needs every assumption asserted; missing: "
            + ", ".join(fib.missing_assumptions)
        )
    return list(_admissible(value))


def source_constraints(y_class: TargetClass) -> tuple[str, ...]:
    """Cusp assertions forced on an all-An source by a given target class.

    The source must satisfy tlct(S_X) <= 1 - tlct(S_Y).  An all-An source
    below 1 has the threshold its cuspidal member forces (CUSPIDAL_MEMBERS),
    so the answer is every cusp assertion whose threshold meets the bound:
    for the E6 class (bound 2/3) a cusp at an A2 point, for the E7 class
    (bound 3/4) a cusp at an A1 or an A2 point.
    """
    if y_class.tlct_value not in (Fraction(1, 3), Fraction(1, 4)):
        raise UnsupportedClassError(
            f"source constraints are defined for the E6 and E7 classes only, "
            f"not {y_class.description!r}"
        )
    bound = 1 - y_class.tlct_value
    return tuple(cusp for cusp, member in CUSPIDAL_MEMBERS.items() if member[2] <= bound)
