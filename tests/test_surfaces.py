"""Surface specs: validation clauses, the tlct table, spec enumeration."""

from fractions import Fraction

import pytest

from delpezzo1.dynkin import parse_dynkin
from delpezzo1.errors import InvalidSurfaceError
from delpezzo1.surfaces import (
    CUSP_AT_A1,
    CUSP_AT_A2,
    CUSP_AT_SMOOTH_POINT,
    CUSPIDAL_MEMBERS,
    NO_CUSPIDAL_MEMBER,
    SurfaceSpec,
    iter_valid_specs,
    realizable_configurations,
    tlct,
    validate,
)
from delpezzo1.cycles import build_configuration, kodaira_type, lct_config


def spec(labels, cusp=NO_CUSPIDAL_MEMBER):
    return SurfaceSpec(labels, cusp)


def test_spec_construction():
    s = spec(["E7", "A1"])
    assert s.labels == ("A1", "E7")  # canonical sorted order
    assert s.rank_sum == 8
    assert s.cusp_data == NO_CUSPIDAL_MEMBER
    assert spec([]).rank_sum == 0
    assert spec([parse_dynkin("D5")]).labels == ("D5",)
    assert str(spec(["E7", "A1"], CUSP_AT_A1)) == "{A1, E7}/A1"
    assert str(spec([], CUSP_AT_SMOOTH_POINT)) == "{smooth}/smooth"


def test_spec_round_trip():
    s = spec(["A2", "A1"], CUSP_AT_A2)
    assert s.as_dict() == {"singularities": ["A1", "A2"], "cusp": "A2"}
    assert SurfaceSpec.from_dict(s.as_dict()) == s
    assert SurfaceSpec.from_dict({"singularities": ["E8"]}) == spec(["E8"])
    with pytest.raises(InvalidSurfaceError):
        SurfaceSpec.from_dict({"sings": ["E8"]})
    with pytest.raises(InvalidSurfaceError):
        SurfaceSpec.from_dict(["E8"])


def test_unknown_keys_of_mixed_types_are_named_in_repr_order():
    with pytest.raises(InvalidSurfaceError) as info:
        SurfaceSpec.from_dict({"x": 1, 5: 2})
    assert str(info.value) == "unknown spec keys ['x', 5]"


@pytest.mark.parametrize(
    "labels", [5, "E8", {"E8": 1}, ("E8",), [8], ["E8", None]], ids=repr
)
def test_from_dict_needs_a_list_of_label_strings(labels):
    with pytest.raises(InvalidSurfaceError, match="list of label strings"):
        SurfaceSpec.from_dict({"singularities": labels})


def test_spec_rejects_inconsistent_cusp_location():
    with pytest.raises(InvalidSurfaceError):
        spec(["E8"], CUSP_AT_A1)
    with pytest.raises(InvalidSurfaceError):
        spec(["A1"], CUSP_AT_A2)
    with pytest.raises(InvalidSurfaceError):
        spec(["A1"], "cusp-at-A1")
    # the structural requirement is only that the named point exists
    assert spec(["A1"], CUSP_AT_A1).cusp_data == CUSP_AT_A1
    assert spec(["A2", "E6"], CUSP_AT_A2).cusp_data == CUSP_AT_A2


ACCEPTED = [
    [],
    ["A1"],
    ["E8"],
    ["A8"],
    ["D8"],
    ["E7"],
    ["E7", "A1"],
    ["A7", "A1"],
    ["D7", "A1"],
    ["E6"],
    ["E6", "A1"],
    ["E6", "A2"],
    ["D4", "D4"],
    ["D4", "A4"],
    ["A4", "A3", "A1"],
    ["A1"] * 8,
]

REJECTED = {
    ("A4", "A4", "A1"): "a",
    ("E8", "A1"): "b",
    ("A8", "A1"): "b",
    ("D8", "D4"): "b",
    ("E7", "A2"): "c",
    ("A7", "A2"): "c",
    ("A7", "A1", "A1"): "c",
    ("E6", "A1", "A1"): "d",
    ("E6", "A3"): "d",
}


@pytest.mark.parametrize("labels", ACCEPTED)
def test_validate_accepts(labels):
    report = validate(spec(labels))
    assert report.passed and report.clauses == ()


@pytest.mark.parametrize("labels,clause", sorted(REJECTED.items()))
def test_validate_rejects(labels, clause):
    report = validate(spec(labels))
    assert not report.passed
    assert clause in report.clauses


# every violation validate reports, in order, with its reason
VIOLATIONS = {
    ("A8", "A1"): [("a", "rank sum 9 exceeds 8"), ("b", "A8 must be the unique singularity")],
    ("D8",): [],
    ("D8", "E8"): [("a", "rank sum 16 exceeds 8"), ("b", "D8 must be the unique singularity"),
                   ("b", "E8 must be the unique singularity")],
    ("E7", "A1"): [],
    ("E7", "A2"): [("a", "rank sum 9 exceeds 8"),
                   ("c", "E7 allows at most one extra singularity, of type A1")],
    ("A7", "A1", "A1"): [("a", "rank sum 9 exceeds 8"),
                         ("c", "A7 allows at most one extra singularity, of type A1")],
    ("E7", "E6"): [("a", "rank sum 13 exceeds 8"),
                   ("c", "E7 allows at most one extra singularity, of type A1"),
                   ("d", "E6 allows at most one extra singularity, of type A1 or A2")],
    ("E6", "A2"): [],
    ("E6", "A1", "A1"): [("d", "E6 allows at most one extra singularity, of type A1 or A2")],
}


@pytest.mark.parametrize("labels,violations", VIOLATIONS.items(),
                         ids=["+".join(labels) for labels in VIOLATIONS])
def test_validate_reports_each_clause_with_its_reason(labels, violations):
    assert list(validate(spec(labels)).violations) == violations


def test_validate_report_shape():
    report = validate(spec(["E8", "E8"]))
    assert set(report.clauses) == {"a", "b"}
    d = report.as_dict()
    assert d["passed"] is False
    assert {v["clause"] for v in d["violations"]} == {"a", "b"}


TLCT_TABLE = [
    (["E8"], NO_CUSPIDAL_MEMBER, Fraction(1, 6), "II*"),
    (["E7"], NO_CUSPIDAL_MEMBER, Fraction(1, 4), "III*"),
    (["E7", "A1"], CUSP_AT_A1, Fraction(1, 4), "III*"),
    (["E6"], NO_CUSPIDAL_MEMBER, Fraction(1, 3), "IV*"),
    (["E6", "A2"], CUSP_AT_A2, Fraction(1, 3), "IV*"),
    (["D4"], NO_CUSPIDAL_MEMBER, Fraction(1, 2), "I*0"),
    (["D5", "A1"], NO_CUSPIDAL_MEMBER, Fraction(1, 2), "I*1"),
    (["D6", "A2"], CUSP_AT_SMOOTH_POINT, Fraction(1, 2), "I*2"),
    (["D8"], NO_CUSPIDAL_MEMBER, Fraction(1, 2), "I*4"),
    (["A3", "A2"], CUSP_AT_A2, Fraction(2, 3), "IV"),
    (["A1", "A2"], CUSP_AT_A1, Fraction(3, 4), "III"),
    (["A5"], CUSP_AT_SMOOTH_POINT, Fraction(5, 6), "II"),
    ([], CUSP_AT_SMOOTH_POINT, Fraction(5, 6), "II"),
    (["A5"], NO_CUSPIDAL_MEMBER, Fraction(1), "I6"),
    (["A2", "A4"], NO_CUSPIDAL_MEMBER, Fraction(1), "I5"),
    ([], NO_CUSPIDAL_MEMBER, Fraction(1), "I0"),
    (["A1", "A2"], NO_CUSPIDAL_MEMBER, Fraction(1), "I3"),  # a tie: the larger rank's fiber
    (["A1"], CUSP_AT_A1, Fraction(3, 4), "III"),  # the cusp below the general member
]


# the cuspidal member each cusp assertion licenses: the point it cusps at,
# its variant there, and the threshold and fiber the engine computes for it
CUSPIDAL_MEMBER_ROWS = [
    (CUSP_AT_SMOOTH_POINT, None, "cuspidal", Fraction(5, 6), "II"),
    (CUSP_AT_A1, "A1", "tangential", Fraction(3, 4), "III"),
    (CUSP_AT_A2, "A2", "one-point", Fraction(2, 3), "IV"),
]


@pytest.mark.parametrize("cusp,point,variant,value,fiber", CUSPIDAL_MEMBER_ROWS,
                         ids=[row[0] for row in CUSPIDAL_MEMBER_ROWS])
def test_each_cuspidal_member_forces_its_threshold_and_fiber(cusp, point, variant, value, fiber):
    c = build_configuration(point, variant)
    assert (lct_config(c), kodaira_type(c).text) == (value, fiber)
    assert CUSPIDAL_MEMBERS[cusp] == (point, variant)


def test_cuspidal_members_run_from_the_smooth_point_to_the_worst_cusp():
    # iter_valid_specs and source_constraints list cusp assertions in this order
    assert list(CUSPIDAL_MEMBERS) == [CUSP_AT_SMOOTH_POINT, CUSP_AT_A1, CUSP_AT_A2]


@pytest.mark.parametrize("labels,cusp,value,kodaira", TLCT_TABLE)
def test_tlct_table(labels, cusp, value, kodaira):
    result = tlct(spec(labels, cusp))
    assert result.value == value
    assert result.kodaira.text == kodaira
    assert str(result) == f"{value} ({kodaira})"


def test_tlct_requires_valid_spec():
    with pytest.raises(InvalidSurfaceError):
        tlct(spec(["E8", "E8"]))
    with pytest.raises(InvalidSurfaceError):
        tlct(spec(["A4", "A4", "A1"]))


def test_tlct_values_form_the_full_range():
    values = {tlct(s).value for s in iter_valid_specs()}
    assert values == {
        Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
        Fraction(2, 3), Fraction(3, 4), Fraction(5, 6), Fraction(1),
    }


def test_valid_spec_space():
    specs = list(iter_valid_specs())
    assert len(specs) == len(set(specs))
    assert all(validate(s) for s in specs)
    # every multiset respects the construction constraints by definition
    assert SurfaceSpec([], NO_CUSPIDAL_MEMBER) in specs
    assert SurfaceSpec(["E8"], NO_CUSPIDAL_MEMBER) in specs
    assert SurfaceSpec(["E8"], CUSP_AT_SMOOTH_POINT) in specs
    assert SurfaceSpec(["A1", "A2"], CUSP_AT_A2) in specs
    assert all(s.rank_sum <= 8 for s in specs)
    # the multiset {E6, A1, A1} never appears under any cusp assertion
    assert all(s.labels != ("A1", "A1", "E6") for s in specs)


def test_tlct_monotone_in_cusp_assertion():
    order = [NO_CUSPIDAL_MEMBER, CUSP_AT_SMOOTH_POINT, CUSP_AT_A1, CUSP_AT_A2]
    base = spec(["A1", "A2"])
    values = [tlct(spec(["A1", "A2"], c)).value for c in order]
    assert values == sorted(values, reverse=True)
    assert base.cusp_data == NO_CUSPIDAL_MEMBER


def test_tlct_never_increases_when_singularity_added():
    for s in iter_valid_specs():
        if s.cusp_data != NO_CUSPIDAL_MEMBER:
            continue
        for extra in ("A1", "D4", "E6"):
            larger = SurfaceSpec(s.labels + (extra,), s.cusp_data)
            if not validate(larger):
                continue
            assert tlct(larger).value <= tlct(s).value


def test_tlct_agrees_with_lct_engine_on_every_valid_spec():
    for s in iter_valid_specs():
        result = tlct(s)
        by_config = {
            kodaira_type(c).text: lct_config(c)
            for c in realizable_configurations(s)
        }
        minimum = min(by_config.values())
        assert result.value == minimum, s
        assert by_config[result.kodaira.text] == minimum, s
