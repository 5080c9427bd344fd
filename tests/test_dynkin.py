import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delpezzo1.dynkin import (
    ALL_TYPES,
    DynkinType,
    IntersectionMatrix,
    adjacency,
    intersection_matrix,
    is_negative_definite,
    leading_principal_minors,
    parse_dynkin,
)
from delpezzo1.errors import MalformedLabelError, NotSymmetricError, OutOfRangeError

from .oracles import frac_negative_definite


def test_parse_valid_labels():
    assert parse_dynkin("A1") == DynkinType("A", 1)
    assert parse_dynkin("a3") == DynkinType("A", 3)
    assert parse_dynkin("e8") == DynkinType("E", 8)
    assert parse_dynkin(" D5 ") == DynkinType("D", 5)
    assert str(parse_dynkin("e8")) == "E8"
    # the rank is judged by value: leading zeros change nothing
    assert parse_dynkin("E0000000008") == DynkinType("E", 8)
    assert parse_dynkin("e" + "0" * 5000 + "7") == DynkinType("E", 7)


def test_parse_out_of_range():
    for label in ["A0", "A9", "D3", "D9", "E5", "E9", "E10", "D12"]:
        with pytest.raises(OutOfRangeError):
            parse_dynkin(label)
    # ranks past int()'s 4300 digits are refused without it, the label cut
    for label, shown in [("A000", "A0"), ("D012", "D12"),
                         ("A" + "9" * 5000, "A" + "9" * 76 + "..."),
                         ("D" + "1" * 4400, "D" + "1" * 76 + "...")]:
        with pytest.raises(OutOfRangeError, match=re.escape(shown) + " is not admissible"):
            parse_dynkin(label)


def test_parse_malformed():
    for label in ["F4", "B2", "", "A", "8", "A-1", "A 1", "AA1", "A1b", "1A"]:
        with pytest.raises(MalformedLabelError):
            parse_dynkin(label)


@pytest.mark.parametrize("kind, rank, shown", [
    ("A", True, "True"), ("A", 2.0, "2.0"), ("E", "8", "'8'"), ("D", None, "None"),
    ("A", "9" * 5000, repr("9" * 77 + "...")),
], ids=["bool", "float", "str", "none", "long"])
def test_a_rank_that_is_not_an_int_is_refused(kind, rank, shown):
    # True would print as ATrue and equal A1; 2.0 would fail later, in
    # intersection_matrix, with a bare TypeError
    with pytest.raises(MalformedLabelError, match=re.escape(f"must be an integer, got {shown}")):
        DynkinType(kind, rank)


def test_an_unknown_series_is_cut_in_the_message():
    with pytest.raises(MalformedLabelError) as info:
        DynkinType("A" * 5000, 1)
    assert str(info.value) == "unknown series " + repr("A" * 77 + "...")


def test_intersection_matrix_accepts_labels_and_is_built_once():
    m = intersection_matrix(parse_dynkin("E8"))
    assert intersection_matrix("E8") is m
    assert intersection_matrix(" e8 ") is m
    with pytest.raises(OutOfRangeError):
        intersection_matrix("E9")
    for bad in ("X3", 8, None):
        with pytest.raises(MalformedLabelError):
            intersection_matrix(bad)


def test_all_types_enumeration():
    assert len(ALL_TYPES) == 16
    assert [t.label for t in ALL_TYPES[:3]] == ["A1", "A2", "A3"]
    assert ALL_TYPES[-1].label == "E8"
    ranks = {"A": 8, "D": 5, "E": 3}
    for kind, count in ranks.items():
        assert sum(1 for t in ALL_TYPES if t.kind == kind) == count


def test_a2_matrix_example():
    m = intersection_matrix(parse_dynkin("A2"))
    assert m.entries == ((-2, 1), (1, -2))
    assert m.dot([1, 1]) == [-1, -1]
    with pytest.raises(ValueError, match="dimension mismatch"):
        m.dot([1, 1, 1])


def test_matrix_shape_for_all_types():
    for t in ALL_TYPES:
        m = intersection_matrix(t)
        assert m.n == t.rank
        for i in range(m.n):
            assert m[i, i] == -2
            for j in range(m.n):
                assert m[i, j] == m[j, i]
                if i != j:
                    assert m[i, j] in (0, 1)
        # a connected tree on rank nodes has rank-1 edges
        assert sum(m[i, j] for i in range(m.n) for j in range(i + 1, m.n)) == t.rank - 1


def test_branch_node_positions():
    # the single off-diagonal 1 in the last row sits at the branch point
    for label, col in [("E6", 3), ("E7", 4), ("E8", 5)]:
        m = intersection_matrix(parse_dynkin(label))
        last = m.row(m.n - 1)
        assert [j + 1 for j, v in enumerate(last[:-1]) if v == 1] == [col]
    for n in range(4, 9):
        m = intersection_matrix(parse_dynkin(f"D{n}"))
        last = m.row(m.n - 1)
        assert [j + 1 for j, v in enumerate(last[:-1]) if v == 1] == [n - 2]


def test_adjacency_is_chain_for_a_series():
    for n in range(1, 9):
        edges = adjacency(DynkinType("A", n))
        assert edges == frozenset(frozenset((i, i + 1)) for i in range(1, n))


def test_negative_definite_for_all_types():
    for t in ALL_TYPES:
        assert is_negative_definite(intersection_matrix(t))


def test_negative_definite_counterexamples():
    assert not is_negative_definite(IntersectionMatrix(((0,),)))
    assert not is_negative_definite(IntersectionMatrix(((2,),)))
    assert not is_negative_definite(IntersectionMatrix(((-2, 3), (3, -2))))
    assert is_negative_definite(IntersectionMatrix(((-1,),)))


def test_not_symmetric_rejected():
    with pytest.raises(NotSymmetricError):
        is_negative_definite(IntersectionMatrix(((-2, 1), (0, -2))))


def test_a2_minors_example():
    m = intersection_matrix(parse_dynkin("A2"))
    assert leading_principal_minors(m) == [-2, 3]


def test_determinants_match_classical_values():
    # det(-C) = (-1)^n det(C) with det(C) = n+1, 4, 3, 2, 1 for An, Dn, E6, E7, E8
    classical = {"A": lambda n: n + 1, "D": lambda n: 4, "E": lambda n: {6: 3, 7: 2, 8: 1}[n]}
    for t in ALL_TYPES:
        m = intersection_matrix(t)
        det = leading_principal_minors(m)[-1]
        assert det == (-1) ** t.rank * classical[t.kind](t.rank)


@st.composite
def symmetric_int_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    vals = st.integers(min_value=-6, max_value=6)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(vals)
            rows[i][j] = v
            rows[j][i] = v
    return rows


@given(symmetric_int_matrices())
def test_definiteness_matches_fraction_ldl_oracle(rows):
    ours = is_negative_definite(IntersectionMatrix(tuple(tuple(r) for r in rows)))
    assert ours == frac_negative_definite(rows)
