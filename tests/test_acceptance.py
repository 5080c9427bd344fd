"""Acceptance gate: eight end-to-end checks, one visible verdict line each.

Every check is exact arithmetic; tolerances are equality of integers and
fractions.  The verdict lines print through the capture guard so they are
visible in any pytest run.
"""

import random
from fractions import Fraction

import pytest

from delpezzo1.cycles import (
    ONE_POINT,
    STANDARD,
    TANGENTIAL,
    TRANSVERSE,
    TWO_POINTS,
    attachment_vector,
    build_configuration,
    fundamental_cycle,
    kodaira_type,
    lct_config,
)
from delpezzo1.dynkin import ALL_TYPES, intersection_matrix, parse_dynkin
from delpezzo1.errors import OutOfRangeError
from delpezzo1.germs import lct_quasihomogeneous
from delpezzo1.lct import lct_germ
from delpezzo1.rigidity import (
    RIGID,
    FibrationSpec,
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
    _multisets,
    iter_valid_specs,
    realizable_configurations,
    tlct,
    validate,
)

from .oracles import brute_force_min_cycle


def _verdict(capsys, number, label, check):
    try:
        check()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: PASS - {label}")


# 1. Fundamental cycles and attachment numbers across all admissible ranks.

def _expected_cycle(t):
    n = t.rank
    if t.kind == "A":
        return (1,) * n
    if t.kind == "D":
        return (1,) + (2,) * (n - 3) + (1, 1)
    return {
        6: (1, 2, 3, 2, 1, 2),
        7: (1, 2, 3, 4, 3, 2, 2),
        8: (2, 3, 4, 5, 6, 4, 2, 3),
    }[n]


def _expected_attachment(t):
    n = t.rank
    if t.kind == "A":
        d = [0] * n
        d[0] += 1
        d[-1] += 1  # n = 1 collapses both ends onto one node
        return tuple(d)
    position = 2 if t.kind == "D" else {6: 6, 7: 6, 8: 1}[n]
    return tuple(1 if j == position else 0 for j in range(1, n + 1))


def _check_appendix():
    for t in ALL_TYPES:
        a = fundamental_cycle(t).coeffs
        d = attachment_vector(t).d
        assert a == _expected_cycle(t), t
        assert d == _expected_attachment(t), t
        m = intersection_matrix(t)
        assert tuple(-v for v in m.dot(a)) == d, t


def test_acceptance_1_appendix_equations(capsys):
    _verdict(capsys, 1, "appendix cycle and attachment equations", _check_appendix)


# 2. Exhaustive-search oracle for minimality, plus the two bilinear identities.

def _check_brute_force():
    for t in ALL_TYPES:
        m = intersection_matrix(t)
        a = fundamental_cycle(t).coeffs
        d = attachment_vector(t).d
        assert list(a) == brute_force_min_cycle(m.as_lists()), t
        gamma_sq = sum(
            a[i] * a[j] * m[i, j] for i in range(m.n) for j in range(m.n)
        )
        assert gamma_sq == -2, t
        assert sum(x * y for x, y in zip(a, d)) == 2, t


def test_acceptance_2_brute_force_oracle(capsys):
    _verdict(capsys, 2, "brute-force minimal cycles and identities", _check_brute_force)


# 3. The threshold table for configurations and the four local germ models.

def _check_threshold_table():
    for label in ("A3", "A4", "A5", "A6", "A7", "A8"):
        assert lct_config(build_configuration(label, STANDARD)) == 1
    for label in ("D4", "D5", "D6", "D7", "D8"):
        assert lct_config(build_configuration(label, STANDARD)) == Fraction(1, 2)
    for label, value in (("E6", Fraction(1, 3)), ("E7", Fraction(1, 4)),
                         ("E8", Fraction(1, 6))):
        assert lct_config(build_configuration(label, STANDARD)) == value
    assert lct_config(build_configuration("A1", TANGENTIAL)) == Fraction(3, 4)
    assert lct_config(build_configuration("A2", ONE_POINT)) == Fraction(2, 3)
    assert lct_config(build_configuration("A1", TRANSVERSE)) == 1
    assert lct_config(build_configuration("A2", TWO_POINTS)) == 1
    assert lct_germ("x*y") == 1
    assert lct_germ("y^2 - x^3") == Fraction(5, 6)
    assert lct_germ("y*(y - x^2)") == Fraction(3, 4)
    assert lct_germ("x*y*(x + y)") == Fraction(2, 3)


def test_acceptance_3_threshold_table(capsys):
    _verdict(capsys, 3, "configuration and germ threshold table", _check_threshold_table)


# 4. Quasi-homogeneous oracle agreement and unimodular coordinate invariance.

QH_GERMS = [
    "y^2 - x^3",
    "y^2 - x^5",
    "y^2 - x^7",
    "y^2 - x^9",
    "y^3 - x^4",
    "y^3 - x^5",
    "y^4 - x^5",
    "y^3 - x^6",
    "y^2 - 2*x^6",
    "x*y",
    "x*y*(x + y)",
    "x^4 - y^4",
]


def _random_unimodular(rng):
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(2, 4)):
        k = rng.choice([-2, -1, 1, 2])
        if rng.random() < 0.5:
            a, b = a + k * c, b + k * d  # row shear
        else:
            c, d = c + k * a, d + k * b
    if rng.random() < 0.5:
        a, b, c, d = c, d, a, b  # swap, determinant -1
    assert abs(a * d - b * c) == 1
    return a, b, c, d


def _check_oracle_and_invariance():
    import sympy

    x, y = sympy.symbols("x y")
    rng = random.Random(20260816)
    assert len(QH_GERMS) >= 10
    for text in QH_GERMS:
        expected = lct_quasihomogeneous(text)
        assert lct_germ(text) == expected, text
        expr = sympy.parse_expr(
            text.replace("^", "**"), local_dict={"x": x, "y": y}
        )
        for _ in range(20):
            a, b, c, d = _random_unimodular(rng)
            moved = sympy.expand(
                expr.subs({x: a * x + b * y, y: c * x + d * y}, simultaneous=True)
            )
            assert lct_germ(moved) == expected, (text, (a, b, c, d))


def test_acceptance_4_oracle_and_invariance(capsys):
    _verdict(
        capsys, 4, "quasi-homogeneous oracle and coordinate invariance",
        _check_oracle_and_invariance,
    )


# 5. The eight-bullet tlct table over the whole valid spec space, and
#    agreement with the lct engine on realizable configurations.

def _bullet_table(s):
    labels = set(s.labels)
    if "E8" in labels:
        return Fraction(1, 6), "II*"
    if "E7" in labels:
        return Fraction(1, 4), "III*"
    if "E6" in labels:
        return Fraction(1, 3), "IV*"
    d_ranks = s.ranks_of("D")
    if d_ranks:
        return Fraction(1, 2), f"I*{max(d_ranks) - 4}"
    if s.cusp_data == CUSP_AT_A2:
        return Fraction(2, 3), "IV"
    if s.cusp_data == CUSP_AT_A1:
        return Fraction(3, 4), "III"
    if s.cusp_data == CUSP_AT_SMOOTH_POINT:
        return Fraction(5, 6), "II"
    a_ranks = s.ranks_of("A")
    return Fraction(1), f"I{max(a_ranks) + 1}" if a_ranks else "I0"


def _check_tlct_table():
    specs = list(iter_valid_specs())
    assert len(specs) == 299  # finite, exhaustively enumerated
    for s in specs:
        result = tlct(s)
        value, label = _bullet_table(s)
        assert result.value == value, s
        assert result.kodaira.text == label, s
        by_config = {
            kodaira_type(c).text: lct_config(c)
            for c in realizable_configurations(s)
        }
        assert result.value == min(by_config.values()), s
        assert by_config[result.kodaira.text] == result.value, s


def test_acceptance_5_tlct_decision_table(capsys):
    _verdict(capsys, 5, "tlct table over all valid specs vs lct engine", _check_tlct_table)


# 6. Validation of singularity multisets.

def _check_validation():
    accepted = (["E8"], ["E7"], ["E7", "A1"], ["E6", "A1"], ["E6", "A2"], ["A8"])
    for labels in accepted:
        assert validate(SurfaceSpec(labels)).passed, labels
    rejected = (["E8", "A1"], ["A8", "A1"], ["E6", "A1", "A1"], ["E7", "A2"])
    for labels in rejected:
        assert not validate(SurfaceSpec(labels)).passed, labels
    # every multiset of rank sum 9 or 10 fails (exhaustive over that window)
    overloaded = [
        types for types in _multisets(10, tuple(ALL_TYPES))
        if sum(t.rank for t in types) >= 9
    ]
    assert overloaded
    for types in overloaded:
        assert not validate(SurfaceSpec(types)).passed, types
    for label in ("A9", "D9"):
        with pytest.raises(OutOfRangeError):
            parse_dynkin(label)


def test_acceptance_6_validation(capsys):
    _verdict(capsys, 6, "singularity multiset validation", _check_validation)


# 7. Target enumeration and constraint inversion, over every valid spec.

def _check_targets():
    expectations = {
        Fraction(1): [],
        Fraction(5, 6): [Fraction(1, 6)],
        Fraction(3, 4): [Fraction(1, 6), Fraction(1, 4)],
        Fraction(2, 3): [Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)],
    }
    for s in iter_valid_specs():
        t = tlct(s).value
        if t not in expectations:
            continue
        got = [cls.tlct_value for cls in possible_targets(FibrationSpec(s))]
        assert got == expectations[t], s
    assert source_constraints(target_class_for(Fraction(1, 3))) == (CUSP_AT_A2,)
    assert source_constraints(target_class_for(Fraction(1, 4))) == (
        CUSP_AT_A1,
        CUSP_AT_A2,
    )


def test_acceptance_7_target_enumeration(capsys):
    _verdict(capsys, 7, "admissible targets and constraint inversion", _check_targets)


# 8. The boundary pair: cusp on a smooth fiber against E8 sums to exactly 1.

def _check_boundary_pair():
    source = FibrationSpec(SurfaceSpec([], CUSP_AT_SMOOTH_POINT))
    against_e8 = rigidity_gate(source, FibrationSpec(SurfaceSpec(["E8"])))
    assert against_e8.outcome == "inconclusive"
    assert against_e8.tlct_sum == Fraction(1)
    for s in iter_valid_specs():
        if tlct(s).value == 1:
            verdict = rigidity_gate(source, FibrationSpec(s))
            assert verdict.outcome == RIGID, s
            assert verdict.tlct_sum == Fraction(11, 6)


def test_acceptance_8_boundary_pair(capsys):
    _verdict(capsys, 8, "threshold-sum boundary arithmetic", _check_boundary_pair)
