import pytest

from delpezzo1.cycles import (
    CUSPIDAL,
    ELLIPTIC,
    EXCEPTIONAL,
    MEMO_SIZE,
    NODAL,
    ONE_POINT,
    SMOOTH_VARIANTS,
    STANDARD,
    STRICT_TRANSFORM,
    TANGENTIAL,
    TRANSVERSE,
    TWO_POINTS,
    AnticanonicalConfiguration,
    Component,
    KodairaLabel,
    Meeting,
    allowed_variants,
    attachment_vector,
    build_configuration,
    fundamental_cycle,
    kodaira_type,
    lct_config,
    _laufer,
)
from delpezzo1.dynkin import ALL_TYPES, intersection_matrix, parse_dynkin
from delpezzo1.errors import (
    InvalidConfigurationError,
    MalformedLabelError,
    NonTerminationError,
    UnrecognizedConfigurationError,
    VariantMismatchError,
)
from delpezzo1.surfaces import iter_valid_specs, realizable_configurations

from .oracles import brute_force_min_cycle

# Golden cycle coefficients and attachment numbers, frozen independently of
# the implementation.  A-series: all ones, D~ meeting both chain ends (or the
# unique curve twice for A1).  D-series: 1,2,...,2,1,1 with D~ at E2.
# E-series: the three exceptional vectors with D~ at E6, E6, E1 respectively.
GOLDEN_CYCLES = {
    "A1": (1,),
    "A2": (1, 1),
    "A3": (1, 1, 1),
    "A4": (1, 1, 1, 1),
    "A5": (1, 1, 1, 1, 1),
    "A6": (1, 1, 1, 1, 1, 1),
    "A7": (1, 1, 1, 1, 1, 1, 1),
    "A8": (1, 1, 1, 1, 1, 1, 1, 1),
    "D4": (1, 2, 1, 1),
    "D5": (1, 2, 2, 1, 1),
    "D6": (1, 2, 2, 2, 1, 1),
    "D7": (1, 2, 2, 2, 2, 1, 1),
    "D8": (1, 2, 2, 2, 2, 2, 1, 1),
    "E6": (1, 2, 3, 2, 1, 2),
    "E7": (1, 2, 3, 4, 3, 2, 2),
    "E8": (2, 3, 4, 5, 6, 4, 2, 3),
}

GOLDEN_ATTACHMENTS = {
    "A1": (2,),
    "A2": (1, 1),
    "A3": (1, 0, 1),
    "A4": (1, 0, 0, 1),
    "A5": (1, 0, 0, 0, 1),
    "A6": (1, 0, 0, 0, 0, 1),
    "A7": (1, 0, 0, 0, 0, 0, 1),
    "A8": (1, 0, 0, 0, 0, 0, 0, 1),
    "D4": (0, 1, 0, 0),
    "D5": (0, 1, 0, 0, 0),
    "D6": (0, 1, 0, 0, 0, 0),
    "D7": (0, 1, 0, 0, 0, 0, 0),
    "D8": (0, 1, 0, 0, 0, 0, 0, 0),
    "E6": (0, 0, 0, 0, 0, 1),
    "E7": (0, 0, 0, 0, 0, 1, 0),
    "E8": (1, 0, 0, 0, 0, 0, 0, 0),
}


@pytest.mark.parametrize("label", sorted(GOLDEN_CYCLES))
def test_golden_cycles(label):
    assert fundamental_cycle(label).coeffs == GOLDEN_CYCLES[label]


@pytest.mark.parametrize("label", sorted(GOLDEN_ATTACHMENTS))
def test_golden_attachments(label):
    assert attachment_vector(label).d == GOLDEN_ATTACHMENTS[label]


@pytest.mark.parametrize("t", ALL_TYPES, ids=lambda t: t.label)
def test_cycle_against_brute_force_oracle(t):
    m = intersection_matrix(t)
    expected = brute_force_min_cycle(m.as_lists())
    assert list(fundamental_cycle(t).coeffs) == expected


@pytest.mark.parametrize("t", ALL_TYPES, ids=lambda t: t.label)
def test_cycle_invariants(t):
    m = intersection_matrix(t)
    a = fundamental_cycle(t).coeffs
    prods = m.dot(a)
    assert all(p <= 0 for p in prods)
    assert sum(ai * p for ai, p in zip(a, prods)) == -2  # Gamma^2 = -2
    d = attachment_vector(t).d
    assert all(dj >= 0 for dj in d)
    assert sum(ai * di for ai, di in zip(a, d)) == 2


@pytest.mark.parametrize("t", ALL_TYPES, ids=lambda t: t.label)
def test_start_node_independence(t):
    base = fundamental_cycle(t).coeffs
    for start in range(t.rank):
        assert tuple(_laufer(intersection_matrix(t).entries, start)) == base


def test_cycle_iteration_stops_at_its_cap_on_a_matrix_not_negative_definite():
    # Z . E_1 = 2 Z stays positive, so the iteration never settles
    with pytest.raises(NonTerminationError, match="did not settle within 50 steps"):
        _laufer(((2,),), 0)


def test_max_coefficient_per_series():
    expected = {"A": 1, "D": 2, "E6": 3, "E7": 4, "E8": 6}
    for t in ALL_TYPES:
        key = t.kind if t.kind in expected else t.label
        assert max(fundamental_cycle(t).coeffs) == expected[key]


def test_cycle_json_shape():
    assert fundamental_cycle("E8").as_dict() == {
        "type": "E8",
        "coeffs": [2, 3, 4, 5, 6, 4, 2, 3],
    }


def test_e8_configuration_example():
    c = build_configuration("E8", STANDARD)
    assert len(c.components) == 9
    assert [comp.multiplicity for comp in c.components] == [1, 2, 3, 4, 5, 6, 4, 2, 3]
    d_meetings = [m for m in c.incidence if "D" in m.members]
    assert d_meetings == [Meeting(("D", "E1"))]


def test_nodal_configuration_example():
    c = build_configuration(None, NODAL)
    assert len(c.components) == 1
    assert c.components[0].multiplicity == 1
    assert c.incidence == (Meeting(("D", "D")),)


def test_a2_one_point_example():
    c = build_configuration("A2", ONE_POINT)
    assert len(c.components) == 3
    assert all(comp.multiplicity == 1 for comp in c.components)
    assert c.incidence == (Meeting(("D", "E1", "E2")),)


def test_component_count_invariant():
    for t in ALL_TYPES:
        variant = {"A1": TRANSVERSE, "A2": TWO_POINTS}.get(t.label, STANDARD)
        c = build_configuration(t, variant)
        assert len(c.components) == t.rank + 1


def test_variant_mismatch():
    with pytest.raises(VariantMismatchError):
        build_configuration("A1", STANDARD)
    with pytest.raises(VariantMismatchError):
        build_configuration("A2", TANGENTIAL)
    with pytest.raises(VariantMismatchError):
        build_configuration("D5", TRANSVERSE)
    with pytest.raises(VariantMismatchError):
        build_configuration("E8", "weird")
    with pytest.raises(VariantMismatchError):
        build_configuration(None, "weird")


def test_a_member_needs_a_point_or_a_smooth_locus_variant():
    # a member is one point and its variant: no variant names no member in
    # the smooth locus, and a list of points is not a label
    with pytest.raises(VariantMismatchError) as info:
        build_configuration()
    assert str(info.value) == (
        "unknown smooth-locus variant None; choose from ('elliptic', 'nodal', 'cuspidal')")
    with pytest.raises(MalformedLabelError, match="label must be a string, got list"):
        build_configuration(["A1"])


def test_the_general_variant_is_the_default():
    for t in ALL_TYPES:
        assert build_configuration(t) is build_configuration(t.label, allowed_variants(t)[0])
    assert build_configuration("A1") == build_configuration("A1", TRANSVERSE)
    assert build_configuration("A2") == build_configuration("A2", TWO_POINTS)
    with pytest.raises(VariantMismatchError):  # only None asks for the default
        build_configuration("A1", "")


KODAIRA_EXPECTED = {
    ("E8", STANDARD): "II*",
    ("E7", STANDARD): "III*",
    ("E6", STANDARD): "IV*",
    ("D4", STANDARD): "I*0",
    ("D5", STANDARD): "I*1",
    ("D6", STANDARD): "I*2",
    ("D7", STANDARD): "I*3",
    ("D8", STANDARD): "I*4",
    ("A1", TRANSVERSE): "I2",
    ("A1", TANGENTIAL): "III",
    ("A2", TWO_POINTS): "I3",
    ("A2", ONE_POINT): "IV",
    ("A3", STANDARD): "I4",
    ("A4", STANDARD): "I5",
    ("A5", STANDARD): "I6",
    ("A6", STANDARD): "I7",
    ("A7", STANDARD): "I8",
    ("A8", STANDARD): "I9",
}


@pytest.mark.parametrize("point,expected", sorted(KODAIRA_EXPECTED.items()))
def test_kodaira_labels(point, expected):
    label = kodaira_type(build_configuration(*point))
    assert label.text == expected


def test_kodaira_smooth_locus():
    assert kodaira_type(build_configuration(None, ELLIPTIC)).text == "I0"
    assert kodaira_type(build_configuration(None, NODAL)).text == "I1"
    assert kodaira_type(build_configuration(None, CUSPIDAL)).text == "II"


def test_kodaira_component_counts():
    for point, expected in KODAIRA_EXPECTED.items():
        c = build_configuration(*point)
        assert kodaira_type(c).component_count == len(c.components)


def test_kodaira_label_text_forms():
    assert KodairaLabel("I", 0).text == "I0"
    assert KodairaLabel("I*", 1).text == "I*1"
    assert str(KodairaLabel("II*")) == "II*"
    with pytest.raises(ValueError):
        KodairaLabel("I*", 5)
    with pytest.raises(ValueError):
        KodairaLabel("II", 3)
    with pytest.raises(ValueError):
        KodairaLabel("V")
    # a long series is cut: the message is the prefix and 82 characters
    with pytest.raises(InvalidConfigurationError) as info:
        KodairaLabel("V" * 5000)
    assert str(info.value) == "unknown Kodaira series " + repr("V" * 77 + "...")
    # control characters are quoted as escapes, and then cut
    with pytest.raises(InvalidConfigurationError) as info:
        KodairaLabel("\x00" * 80)
    assert str(info.value).endswith("...'") and len(str(info.value)) <= 120


LONG = "x" * 5000
D = Component("D", 1, "strict_transform")
# each message that echoes input, fed 5000 characters of it
ECHOES = {
    "component kind": lambda: Component("E1", 1, LONG),
    "integer field": lambda: Component("E1", LONG, "exceptional"),
    "meeting id": lambda: AnticanonicalConfiguration((D,), (Meeting(("D", LONG)),)),
    "point variant": lambda: build_configuration("A1", LONG),
    "smooth variant": lambda: build_configuration(None, LONG),
}


@pytest.mark.parametrize("build", ECHOES.values(), ids=ECHOES)
def test_a_message_cuts_the_input_it_echoes(build):
    with pytest.raises((InvalidConfigurationError, VariantMismatchError)) as info:
        build()
    assert len(str(info.value)) <= 200 and repr("x" * 77 + "...") in str(info.value)


def test_unrecognized_configuration():
    # a disconnected two-component configuration matches nothing
    comps = (
        Component("D", 1, "strict_transform"),
        Component("E1", 1, "exceptional"),
    )
    with pytest.raises(UnrecognizedConfigurationError):
        kodaira_type(AnticanonicalConfiguration(comps, ()))


# one configuration for each way kodaira_type rejects: the multiplicities of
# D, E1, E2, ... and the meetings
UNRECOGNIZED = [
    ((1,), [Meeting(("D", "D"), contact=2)], "no single-component pattern matches"),
    ((1, 1), [Meeting(("D",), cuspidal=True), Meeting(("D", "E1"))],
     "cusp record in a multi-component configuration"),
    ((1, 1, 1), [Meeting(("D", "E1"), contact=2), Meeting(("E1", "E2"))],
     "tangency does not match the two-line pattern"),
    ((1, 1, 1, 1), [Meeting(("D", "E1", "E2")), Meeting(("E2", "E3"))],
     "triple point does not match the three-line pattern"),
    ((1, 2, 1, 1), [Meeting(("D", "E1")), Meeting(("E1", "E2")), Meeting(("E1", "E3"))],
     "too few components for multiplicity 2"),  # a tree of four components, one double
    ((1, 1), [Meeting(("D", "E1"))], "configuration matches no Kodaira pattern"),
]


@pytest.mark.parametrize("mults,meetings,reason", UNRECOGNIZED,
                         ids=[reason for _, _, reason in UNRECOGNIZED])
def test_each_unrecognized_pattern_is_typed(mults, meetings, reason):
    comps = (Component("D", 1, "strict_transform"),) + tuple(
        Component(f"E{i}", m, "exceptional") for i, m in enumerate(mults[1:], start=1))
    with pytest.raises(UnrecognizedConfigurationError) as info:
        kodaira_type(AnticanonicalConfiguration(comps, tuple(meetings)))
    assert str(info.value) == reason


def test_configuration_validation():
    with pytest.raises(InvalidConfigurationError):
        AnticanonicalConfiguration((Component("D", 2, "strict_transform"),), ())
    with pytest.raises(InvalidConfigurationError):
        AnticanonicalConfiguration(
            (Component("E1", 1, "exceptional"),), ()
        )
    with pytest.raises(InvalidConfigurationError):
        AnticanonicalConfiguration(
            (Component("D", 1, "strict_transform"),),
            (Meeting(("D", "E9")),),
        )
    with pytest.raises(InvalidConfigurationError):
        Meeting(("D", "E1", "E2"), contact=2)
    with pytest.raises(InvalidConfigurationError):
        Meeting(("D",))
    c = build_configuration("A2", TWO_POINTS)
    assert c.multiplicity_of("E2") == 1
    with pytest.raises(KeyError):
        c.multiplicity_of("E3")


@pytest.mark.parametrize("bad", [1.5, True, 2.0, "2", None])
def test_component_multiplicity_and_contact_must_be_integers(bad):
    with pytest.raises(InvalidConfigurationError):
        Component("D", bad, "strict_transform")
    with pytest.raises(InvalidConfigurationError):
        Meeting(("D", "E1"), contact=bad)


def test_point_configurations_are_built_once_per_type_and_variant():
    c = build_configuration("E8", STANDARD)
    assert build_configuration(parse_dynkin("e8"), STANDARD) is c
    assert build_configuration("A1", TANGENTIAL) is not build_configuration(
        "A1", TRANSVERSE)
    assert fundamental_cycle("E8") is fundamental_cycle(parse_dynkin("E8"))
    assert build_configuration(None, NODAL) is build_configuration(None, NODAL)
    # the variant is checked before the memo, on every call
    for _ in range(2):
        with pytest.raises(VariantMismatchError):
            build_configuration("E8", TANGENTIAL)


# -- the memos of kodaira_type and lct_config ---------------------------------

# the 21 members of |-K_S|: a point and its variant, or None and a smooth-locus variant
MEMBERS = [(t.label, v) for t in ALL_TYPES for v in allowed_variants(t)] + [
    (None, v) for v in SMOOTH_VARIANTS]
MEMOIZED = (kodaira_type, lct_config)


def _by_hand(c):
    """A configuration equal to c, built afresh from Component and Meeting (lists as members)."""
    return AnticanonicalConfiguration(
        tuple(Component(x.id, x.multiplicity, x.kind) for x in c.components),
        tuple(Meeting(list(m.members), m.contact, m.cuspidal) for m in c.incidence))


def _cycle_of(n, prefix):
    """A hand-built I_n cycle: D and n - 1 curves named prefix + number, each meeting the next."""
    ids = ["D"] + [f"{prefix}{i}" for i in range(1, n)]
    comps = (Component("D", 1, STRICT_TRANSFORM),) + tuple(
        Component(cid, 1, EXCEPTIONAL) for cid in ids[1:])
    return AnticanonicalConfiguration(comps, tuple(
        Meeting((a, b)) for a, b in zip(ids, ids[1:] + ["D"])))


def test_there_are_21_members_and_the_memo_holds_them_all():
    assert len(MEMBERS) == 21 and len({build_configuration(*m) for m in MEMBERS}) == 21
    for f in MEMOIZED:
        f.cache_clear()
        for _ in range(2):
            for member in MEMBERS:
                f(build_configuration(*member))
        assert f.cache_info().hits == 21 and f.cache_info().misses == 21


@pytest.mark.parametrize("point,variant", MEMBERS)
def test_a_member_gets_the_fiber_and_threshold_of_an_equal_configuration(point, variant):
    c = build_configuration(point, variant)
    twin = _by_hand(c)
    assert twin == c and twin is not c
    for f in MEMOIZED:
        f.cache_clear()
        first = f(twin)  # the memo now holds twin's value, which c reads back
        assert f(c) == first == f.__wrapped__(c) == f.__wrapped__(twin)


def test_the_memos_stay_within_their_bound():
    for s in iter_valid_specs():
        for c in realizable_configurations(s):
            for f in MEMOIZED:
                f(c)
    for k in range(1000):
        n = 2 + k % 9
        c = _cycle_of(n, f"C{k}_")
        assert kodaira_type(c) == KodairaLabel("I", n) and lct_config(c) == 1
    for f in MEMOIZED:
        info = f.cache_info()
        assert info.maxsize == MEMO_SIZE and info.currsize <= MEMO_SIZE


@pytest.mark.parametrize("mults,meetings,reason", UNRECOGNIZED,
                         ids=[reason for _, _, reason in UNRECOGNIZED])
def test_a_rejected_configuration_raises_on_every_call(mults, meetings, reason):
    comps = (Component("D", 1, "strict_transform"),) + tuple(
        Component(f"E{i}", m, "exceptional") for i, m in enumerate(mults[1:], start=1))
    c = AnticanonicalConfiguration(comps, tuple(meetings))
    for _ in range(3):
        with pytest.raises(UnrecognizedConfigurationError, match=reason):
            kodaira_type(c)
