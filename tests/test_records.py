"""The record contract of every value class: equality, hash, repr, frozenness, validation.

The classes are plain Record subclasses; each keeps the behaviour a frozen
value class has (BlowupNode is mutable and unhashable), so lru_cache keys,
the CLI's text and JSON, and every typed error stay as they were.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from delpezzo1 import (
    ALL_TYPES,
    TARGET_CLASSES,
    AnticanonicalConfiguration,
    AttachmentVector,
    Component,
    DynkinType,
    FibrationSpec,
    FundamentalCycle,
    IntersectionMatrix,
    KodairaLabel,
    Meeting,
    RigidityVerdict,
    SurfaceSpec,
    TargetClass,
    TlctResult,
)
from delpezzo1 import blowup, cycles, dynkin, rigidity, surfaces
from delpezzo1.blowup import BlowupNode
from delpezzo1.errors import (
    InvalidConfigurationError,
    InvalidSurfaceError,
    MalformedLabelError,
    OutOfRangeError,
)
from delpezzo1.records import Record
from delpezzo1.surfaces import ValidationReport

E8 = DynkinType("E", 8)
SPEC = SurfaceSpec(["E7", "A1"], "A1")

# (class, constructor arguments, repr): two calls with the same arguments
# give two distinct objects with equal fields
RECORDS = [
    (DynkinType, ("E", 8), "DynkinType(kind='E', rank=8)"),
    (IntersectionMatrix, (((-2, 1), (1, -2)),),
     "IntersectionMatrix(entries=((-2, 1), (1, -2)))"),
    (FundamentalCycle, (E8, (2, 3)),
     "FundamentalCycle(dynkin=DynkinType(kind='E', rank=8), coeffs=(2, 3))"),
    (AttachmentVector, (E8, (2, 3)),
     "AttachmentVector(dynkin=DynkinType(kind='E', rank=8), d=(2, 3))"),
    (Component, ("E1", 2, "exceptional"),
     "Component(id='E1', multiplicity=2, kind='exceptional')"),
    (Meeting, (("D", "E1"), 2), "Meeting(members=('D', 'E1'), contact=2, cuspidal=False)"),
    (AnticanonicalConfiguration,
     ((Component("D", 1, "strict_transform"),), (Meeting(("D",), cuspidal=True),)),
     "AnticanonicalConfiguration(components=(Component(id='D', multiplicity=1, "
     "kind='strict_transform'),), incidence=(Meeting(members=('D',), contact=1, "
     "cuspidal=True),))"),
    (KodairaLabel, ("I*", 2), "KodairaLabel(series='I*', index=2)"),
    (SurfaceSpec, (["E7", "A1"], "A1"),
     "SurfaceSpec(singularities=(DynkinType(kind='A', rank=1), "
     "DynkinType(kind='E', rank=7)), cusp_data='A1')"),
    (ValidationReport, ((("a", "rank sum 9 exceeds 8"),),),
     "ValidationReport(violations=(('a', 'rank sum 9 exceeds 8'),))"),
    (TlctResult, (Fraction(1, 4), KodairaLabel("III*")),
     "TlctResult(value=Fraction(1, 4), kodaira=KodairaLabel(series='III*', index=None))"),
    (FibrationSpec, (SPEC, True, False),
     "FibrationSpec(fiber=SurfaceSpec(singularities=(DynkinType(kind='A', rank=1), "
     "DynkinType(kind='E', rank=7)), cusp_data='A1'), special_fiber_plt=True, "
     "one_complement=False, surjectivity=True)"),
    (TargetClass, (Fraction(1, 6), "E8", SurfaceSpec(["E8"])),
     "TargetClass(tlct_value=Fraction(1, 6), description='E8', witness=SurfaceSpec("
     "singularities=(DynkinType(kind='E', rank=8),), cusp_data='none'))"),
    (RigidityVerdict, ("inconclusive", Fraction(3, 2), (), ("x:surjectivity",)),
     "RigidityVerdict(outcome='inconclusive', tlct_sum=Fraction(3, 2), detail=(), "
     "missing_assumptions=('x:surjectivity',))"),
    (BlowupNode, (1, 8, [BlowupNode(2, 12, points=2)]),
     "BlowupNode(k=1, m=8, children=[BlowupNode(k=2, m=12, children=[], points=2)], "
     "points=1)"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls,args,text", RECORDS, ids=IDS)
def test_record_contract(cls, args, text):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b
    assert repr(a) == text
    fields = tuple(getattr(a, name) for name in cls.__slots__)
    # a record is never equal to its fields, nor to a record of another class
    assert a != fields
    assert all(a != other_cls(*other_args)
               for other_cls, other_args, _ in RECORDS if other_cls is not cls)
    if cls is BlowupNode:
        with pytest.raises(TypeError):
            hash(a)
        a.m += 1
        assert a != b and a.m == 9
    else:
        assert hash(a) == hash(b) == hash(fields)
        for name in cls.__slots__ + ("new_name",):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, cls.__slots__[0])
        assert a == b
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_every_record_class_is_covered():
    defined = {value for module in (blowup, cycles, dynkin, rigidity, surfaces)
               for value in vars(module).values()
               if isinstance(value, type) and issubclass(value, Record) and value is not Record}
    assert defined == {cls for cls, _, _ in RECORDS}


def test_blowup_nodes_get_their_own_children():
    a, b = BlowupNode(1, 2), BlowupNode(1, 2)
    a.children.append(BlowupNode(2, 4))
    assert b.children == [] and a != b


def test_dynkin_types_keep_their_order():
    assert sorted(reversed(ALL_TYPES)) == list(ALL_TYPES)
    assert [t.label for t in sorted(ALL_TYPES)] == (
        [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)]
        + ["E6", "E7", "E8"])
    a1, e8 = DynkinType("A", 1), DynkinType("E", 8)
    assert a1 < e8 and a1 <= a1 and e8 > a1 and e8 >= e8 and not e8 < a1
    assert max(ALL_TYPES) == e8 and min(ALL_TYPES) == a1
    with pytest.raises(TypeError):
        a1 < "A2"  # noqa: B015
    with pytest.raises(TypeError):
        a1 < TARGET_CLASSES[0]  # noqa: B015


def _component(kind="exceptional", multiplicity=1):
    return Component("E1", multiplicity, kind)


STRICT = Component("D", 1, "strict_transform")

# every check a constructor makes, with its typed error and message
INVALID = [
    (lambda: DynkinType("F", 4), MalformedLabelError, "unknown series 'F'"),
    (lambda: DynkinType("A", 9), OutOfRangeError,
     "A9 is not admissible: A-series rank must lie in [1, 8]"),
    (lambda: DynkinType("E", 5), OutOfRangeError,
     "E5 is not admissible: E-series rank must lie in [6, 8]"),
    (lambda: IntersectionMatrix(((-2, 1), (1,))), ValueError, "matrix must be square"),
    (lambda: _component(multiplicity=1.5), InvalidConfigurationError,
     "component multiplicity must be an integer, got 1.5"),
    (lambda: _component(multiplicity=True), InvalidConfigurationError,
     "component multiplicity must be an integer, got True"),
    (lambda: _component(multiplicity=0), InvalidConfigurationError,
     "component multiplicity must be positive"),
    (lambda: _component(kind="curve"), InvalidConfigurationError,
     "unknown component kind 'curve'"),
    (lambda: Meeting(("D", "E1"), "2"), InvalidConfigurationError,
     "contact order must be an integer, got '2'"),
    (lambda: Meeting(("D", "E1"), cuspidal=True), InvalidConfigurationError,
     "a cusp record carries exactly one branch and contact 1"),
    (lambda: Meeting(("D",), 2, True), InvalidConfigurationError,
     "a cusp record carries exactly one branch and contact 1"),
    (lambda: Meeting(("D",)), InvalidConfigurationError,
     "a meeting needs at least two branches"),
    (lambda: Meeting(("D", "E1"), 0), InvalidConfigurationError,
     "contact order must be positive"),
    (lambda: Meeting(("D", "E1", "E2"), 2), InvalidConfigurationError,
     "tangential contact is defined for exactly two branches"),
    (lambda: AnticanonicalConfiguration((_component(),)), InvalidConfigurationError,
     "need exactly one strict-transform component of multiplicity 1"),
    (lambda: AnticanonicalConfiguration((STRICT, STRICT)), InvalidConfigurationError,
     "need exactly one strict-transform component of multiplicity 1"),
    (lambda: AnticanonicalConfiguration((Component("D", 2, "strict_transform"),)),
     InvalidConfigurationError,
     "need exactly one strict-transform component of multiplicity 1"),
    (lambda: AnticanonicalConfiguration((STRICT, _component(), _component())),
     InvalidConfigurationError, "duplicate component ids"),
    (lambda: AnticanonicalConfiguration((STRICT,), (Meeting(("D", "E9")),)),
     InvalidConfigurationError, "meeting references unknown id 'E9'"),
    (lambda: KodairaLabel("I"), InvalidConfigurationError, "I_n needs n >= 0"),
    (lambda: KodairaLabel("I", -1), InvalidConfigurationError, "I_n needs n >= 0"),
    (lambda: KodairaLabel("I", True), InvalidConfigurationError,
     "Kodaira index must be an integer, got True"),
    (lambda: KodairaLabel("I", 2.5), InvalidConfigurationError,
     "Kodaira index must be an integer, got 2.5"),
    (lambda: KodairaLabel("I*"), InvalidConfigurationError, "I*_m needs 0 <= m <= 4 here"),
    (lambda: KodairaLabel("I*", 5), InvalidConfigurationError, "I*_m needs 0 <= m <= 4 here"),
    (lambda: KodairaLabel("I*", True), InvalidConfigurationError,
     "Kodaira index must be an integer, got True"),
    (lambda: KodairaLabel("II", 0), InvalidConfigurationError, "II carries no index"),
    (lambda: KodairaLabel("V"), InvalidConfigurationError, "unknown Kodaira series 'V'"),
    (lambda: SurfaceSpec([], "A3"), InvalidSurfaceError,
     "unknown cusp data 'A3'; choose from ('none', 'smooth', 'A1', 'A2')"),
    (lambda: SurfaceSpec(["A2"], "A1"), InvalidSurfaceError,
     "cusp data 'A1' needs an A1 singularity"),
    (lambda: SurfaceSpec(["A1"], "A2"), InvalidSurfaceError,
     "cusp data 'A2' needs an A2 singularity"),
    (lambda: SurfaceSpec(["B2"]), MalformedLabelError, "malformed Dynkin label 'B2'"),
]


@pytest.mark.parametrize("build,error,message", INVALID, ids=[m for _, _, m in INVALID])
def test_every_validation_error_is_kept(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
