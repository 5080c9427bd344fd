"""The rigidity gate, target enumeration, and constraint inversion."""

from fractions import Fraction

import pytest

from delpezzo1 import surfaces
from delpezzo1.errors import (
    AssumptionNotAssertedError,
    InvalidSurfaceError,
    UnsupportedClassError,
)
from delpezzo1.rigidity import (
    INCONCLUSIVE,
    RIGID,
    TARGET_CLASSES,
    FibrationSpec,
    RigidityVerdict,
    TargetClass,
    possible_targets,
    rigidity_gate,
    source_constraints,
    target_class_for,
)
from delpezzo1.surfaces import (
    CUSP_AT_A1,
    CUSP_AT_A2,
    CUSP_AT_SMOOTH_POINT,
    NO_CUSPIDAL_MEMBER,
    SurfaceSpec,
    ValidationReport,
    iter_valid_specs,
    tlct,
    validate,
)


def fib(labels, cusp=NO_CUSPIDAL_MEMBER, **flags):
    return FibrationSpec(SurfaceSpec(labels, cusp), **flags)


def test_fibration_spec_defaults():
    f = fib(["E8"])
    assert f.special_fiber_plt and f.one_complement and f.surjectivity
    assert f.missing_assumptions == ()
    g = fib(["E8"], one_complement=False, surjectivity=False)
    assert g.missing_assumptions == ("one_complement", "surjectivity")


def test_fibration_spec_from_dict():
    bare = FibrationSpec.from_dict({"singularities": ["E7", "A1"], "cusp": "A1"})
    assert bare.fiber == SurfaceSpec(["E7", "A1"], CUSP_AT_A1)
    assert bare.missing_assumptions == ()
    wrapped = FibrationSpec.from_dict(
        {
            "fiber": {"singularities": [], "cusp": "smooth"},
            "assumptions": {"surjectivity": False},
        }
    )
    assert wrapped.fiber.cusp_data == CUSP_AT_SMOOTH_POINT
    assert wrapped.missing_assumptions == ("surjectivity",)
    with pytest.raises(InvalidSurfaceError):
        FibrationSpec.from_dict({"fiber": {}, "assumptions": {"plt": True}})


@pytest.mark.parametrize(
    "data",
    [
        {"fiber": {}, "assumptions": 5},
        {"fiber": {}, "assumptions": ["surjectivity"]},
        {"fiber": {}, "assumptions": {"surjectivity": "false"}},
        {"fiber": {}, "assumptions": {"one_complement": 1}},
        {"fiber": {}, "assumptions": {"special_fiber_plt": None}},
        {"fiber": {}, "assumption": {"surjectivity": False}},
        {"fiber": {"singularities": "E8"}},
        {"fiber": {}, "assumptions": {"plt": True, 5: False}},
    ],
    ids=repr,
)
def test_fibration_spec_from_dict_rejects_malformed(data):
    with pytest.raises(InvalidSurfaceError):
        FibrationSpec.from_dict(data)


def test_target_classes_table():
    values = [cls.tlct_value for cls in TARGET_CLASSES]
    assert values == sorted(values)
    assert values == [
        Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
        Fraction(2, 3), Fraction(3, 4), Fraction(5, 6), Fraction(1),
    ]
    for cls in TARGET_CLASSES:
        assert validate(cls.witness).passed
        assert tlct(cls.witness).value == cls.tlct_value
    assert target_class_for(Fraction(1, 6)).witness == SurfaceSpec(["E8"])
    with pytest.raises(UnsupportedClassError):
        target_class_for(Fraction(1, 5))


def test_gate_rigid_when_sum_exceeds_one():
    verdict = rigidity_gate(fib(["A5"]), fib(["E8"]))
    assert verdict.outcome == RIGID
    assert verdict.tlct_sum == Fraction(7, 6)
    assert verdict.detail == ()
    assert verdict.deficit == Fraction(-1, 6)


def test_gate_boundary_sum_one_is_inconclusive():
    # the sharp case: a cuspidal member on a smooth fiber against E8
    verdict = rigidity_gate(fib([], CUSP_AT_SMOOTH_POINT), fib(["E8"]))
    assert verdict.outcome == INCONCLUSIVE
    assert verdict.tlct_sum == Fraction(1)
    assert verdict.deficit == 0
    # the partner's own class appears among the admissible targets
    assert target_class_for(Fraction(1, 6)) in verdict.detail
    assert [c.tlct_value for c in verdict.detail] == [Fraction(1, 6)]


def test_gate_small_sum():
    verdict = rigidity_gate(fib(["E8"]), fib(["E8"]))
    assert verdict.outcome == INCONCLUSIVE
    assert verdict.tlct_sum == Fraction(1, 3)
    values = [c.tlct_value for c in verdict.detail]
    assert values == [Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                      Fraction(2, 3), Fraction(3, 4), Fraction(5, 6)]


def test_gate_symmetric():
    pairs = [
        (fib(["A5"]), fib(["E8"])),
        (fib([], CUSP_AT_SMOOTH_POINT), fib(["E8"])),
        (fib(["D4"]), fib(["A1", "A2"], CUSP_AT_A2)),
        (fib(["E7", "A1"]), fib(["E6", "A2"])),
    ]
    for a, b in pairs:
        one, two = rigidity_gate(a, b), rigidity_gate(b, a)
        assert one.outcome == two.outcome
        assert one.tlct_sum == two.tlct_sum


def test_gate_missing_assumption_blocks_rigid():
    verdict = rigidity_gate(fib(["A5"], special_fiber_plt=False), fib(["E8"]))
    assert verdict.outcome == INCONCLUSIVE
    assert verdict.tlct_sum == Fraction(7, 6)  # sum alone would pass
    assert verdict.missing_assumptions == ("x:special_fiber_plt",)
    assert verdict.detail == TARGET_CLASSES  # no constraint derivable
    other = rigidity_gate(fib(["A5"]), fib(["E8"], surjectivity=False))
    assert other.missing_assumptions == ("y:surjectivity",)


def test_gate_accepts_bare_surface_specs():
    verdict = rigidity_gate(SurfaceSpec(["A5"]), SurfaceSpec(["E8"]))
    assert verdict.outcome == RIGID


def test_gate_rejects_invalid_fibers():
    with pytest.raises(InvalidSurfaceError):
        rigidity_gate(fib(["E8", "A1"]), fib(["E8"]))
    with pytest.raises(InvalidSurfaceError):
        rigidity_gate(fib(["E8"]), fib(["A4", "A4", "A1"]))


def test_each_fiber_is_validated_once(monkeypatch):
    # validate builds one report per call, wherever it is called from
    reports = []
    monkeypatch.setattr(surfaces, "ValidationReport",
                        lambda v: reports.append(v) or ValidationReport(v))
    x, y = fib(["E7", "A1"]), fib(["A4"])
    rigidity_gate(x, y)
    assert len(reports) == 2
    reports.clear()
    possible_targets(x)
    assert len(reports) == 1
    # the failing side is named, with the reasons tlct gives
    with pytest.raises(InvalidSurfaceError,
                       match=r"^y fiber fails validation: rank sum 9 exceeds 8$"):
        rigidity_gate(x, fib(["A4", "A4", "A1"]))
    # an invalid fiber is reported before a missing assumption
    with pytest.raises(InvalidSurfaceError, match=r"^x fiber fails validation: "):
        possible_targets(fib(["E8", "A1"], one_complement=False))


def test_gate_matches_arithmetic_on_all_valid_pairs():
    # the gate is pure threshold arithmetic; check the inequality over the
    # whole (finite) spec space using precomputed values, and the verdict
    # object itself on one representative per threshold class
    values = {s: tlct(s).value for s in iter_valid_specs()}
    reps = {}
    for s, v in values.items():
        reps.setdefault(v, s)
    for sx, vx in reps.items():
        for sy, vy in reps.items():
            verdict = rigidity_gate(FibrationSpec(vx), FibrationSpec(vy))
            assert verdict.tlct_sum == sx + sy
            assert (verdict.outcome == RIGID) == (sx + sy > 1)
    total = sum(
        1 for vx in values.values() for vy in values.values() if vx + vy > 1
    )
    rigid_by_class = sum(
        a + b > 1 for a in values.values() for b in values.values()
    )
    assert total == rigid_by_class  # arithmetic only, no hidden state


TARGET_EXAMPLES = [
    (fib(["A4"]), []),
    (fib(["A4"], CUSP_AT_SMOOTH_POINT), [Fraction(1, 6)]),
    (fib(["A1", "A2"], CUSP_AT_A1), [Fraction(1, 6), Fraction(1, 4)]),
    (fib(["A2"], CUSP_AT_A2), [Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)]),
    (fib(["D5"]), [Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]),
]


@pytest.mark.parametrize("fibration,expected", TARGET_EXAMPLES)
def test_possible_targets(fibration, expected):
    assert [c.tlct_value for c in possible_targets(fibration)] == expected


def test_possible_targets_empty_iff_threshold_one():
    for s in iter_valid_specs():
        targets = possible_targets(FibrationSpec(s))
        assert (targets == []) == (tlct(s).value == 1)
        values = [c.tlct_value for c in targets]
        assert values == sorted(values)
        for c in targets:
            assert validate(c.witness).passed


def test_possible_targets_requires_assumptions():
    with pytest.raises(AssumptionNotAssertedError):
        possible_targets(fib(["A4"], one_complement=False))
    with pytest.raises(InvalidSurfaceError):
        possible_targets(fib(["E6", "A3"]))


def test_source_constraints():
    e6 = target_class_for(Fraction(1, 3))
    e7 = target_class_for(Fraction(1, 4))
    assert source_constraints(e6) == (CUSP_AT_A2,)
    assert source_constraints(e7) == (CUSP_AT_A1, CUSP_AT_A2)
    for value in (Fraction(1, 6), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
        with pytest.raises(UnsupportedClassError):
            source_constraints(target_class_for(value))


def test_source_constraints_judge_a_class_outside_the_table_by_its_value():
    with pytest.raises(UnsupportedClassError):
        source_constraints(TargetClass(Fraction(1, 5), "a fifth", SurfaceSpec(["E7"])))
    e6_like = TargetClass(Fraction(1, 3), "a custom E6 class", SurfaceSpec(["E6"]))
    assert source_constraints(e6_like) == (CUSP_AT_A2,)


def test_source_constraints_cut_a_long_description():
    with pytest.raises(UnsupportedClassError) as info:
        source_constraints(TargetClass(Fraction(1), "x" * 5000, SurfaceSpec([])))
    assert len(str(info.value)) <= 200


def test_verdict_serialization():
    verdict = rigidity_gate(fib([], CUSP_AT_SMOOTH_POINT), fib(["E8"]))
    d = verdict.as_dict()
    assert d["outcome"] == "inconclusive"
    assert d["tlct_sum"] == "1"
    assert d["targets"] == [
        {"tlct": "1/6", "description": "unique singular point, of type E8"}
    ]
    assert "missing_assumptions" not in d
    rigid = rigidity_gate(fib(["A4"]), fib(["A5"])).as_dict()
    assert rigid == {"outcome": "rigid", "tlct_sum": "2", "targets": []}
