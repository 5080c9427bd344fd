"""ADE Dynkin types and their (negative) intersection matrices.

A Du Val singularity on a Gorenstein del Pezzo surface of degree 1 has type
A_n (1 <= n <= 8), D_n (4 <= n <= 8) or E_n (6 <= n <= 8); the rank can never
exceed 8, so the cap is enforced at parse time.  The intersection matrix of
the exceptional curves of the minimal resolution is the negative of the
Cartan matrix: -2 on the diagonal, 1 for adjacent curves, 0 otherwise.

Node ordering convention (fixed; all cycle coefficients refer to it):

* A_n: the chain E1 - E2 - ... - En.
* D_n: the chain E1 - ... - E_{n-2}, with E_{n-1} and E_n both attached
  to E_{n-2}.
* E_n: the chain E1 - ... - E_{n-1}, with the branch node E_n attached to
  E3 (for E6), E4 (for E7), E5 (for E8).
"""

from __future__ import annotations

__all__ = [
    "DynkinType", "ALL_TYPES", "parse_dynkin", "IntersectionMatrix", "intersection_matrix",
    "is_negative_definite",
]

import re
from functools import cache, total_ordering

from .errors import MalformedLabelError, NotSymmetricError, OutOfRangeError, brief, quoted
from .records import Record

_RANK_RANGE = {"A": (1, 8), "D": (4, 8), "E": (6, 8)}

_LABEL_RE = re.compile(r"([ADEade])([0-9]+)")


def _out_of_range(kind: str, rank: int | str) -> OutOfRangeError:
    if isinstance(rank, int):  # str() refuses 4300 digits: keep 80 or more, for brief to cut
        shift = max(0, abs(rank).bit_length() * 3 // 10 - 80)  # 3/10 < log10(2)
        rank = "-" * (rank < 0) + str(abs(rank) // 10 ** shift)
    lo, hi = _RANK_RANGE[kind]
    return OutOfRangeError(f"{brief(kind + rank)} is not admissible: "
                           f"{kind}-series rank must lie in [{lo}, {hi}]")


@total_ordering
class DynkinType(Record):
    """One of the sixteen Du Val types admissible on a degree-1 surface.

    Types are ordered by (kind, rank): A1..A8, D4..D8, E6..E8.
    """

    __slots__ = ("kind", "rank")
    kind: str
    rank: int

    def __init__(self, kind: str, rank: int) -> None:
        if kind not in _RANK_RANGE:
            raise MalformedLabelError(f"unknown series {quoted(kind)}")
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise MalformedLabelError(f"Dynkin rank must be an integer, got {quoted(rank)}")
        lo, hi = _RANK_RANGE[kind]
        if not lo <= rank <= hi:
            raise _out_of_range(kind, rank)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rank", rank)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.rank) < (other.kind, other.rank)

    @property
    def label(self) -> str:
        return f"{self.kind}{self.rank}"

    def __str__(self) -> str:
        return self.label


#: All admissible types, ordered A1..A8, D4..D8, E6..E8.
ALL_TYPES: tuple[DynkinType, ...] = tuple(
    DynkinType(kind, rank)
    for kind in ("A", "D", "E")
    for rank in range(_RANK_RANGE[kind][0], _RANK_RANGE[kind][1] + 1)
)


def parse_dynkin(label: str) -> DynkinType:
    """Parse a label such as "E8" or "a3" (case-insensitive) into a DynkinType.

    Raises MalformedLabel for anything not of the shape [ADE][0-9]+, and
    OutOfRange for well-formed labels outside the admissible rank window.
    The rank is judged by value: leading zeros are dropped, and two or more
    digits are refused before int() sees them, the label cut to 80 characters.
    """
    if not isinstance(label, str):
        raise MalformedLabelError(f"label must be a string, got {type(label).__name__}")
    m = _LABEL_RE.fullmatch(label.strip())
    if m is None:
        raise MalformedLabelError(f"malformed Dynkin label {quoted(label)}")
    kind, digits = m.group(1).upper(), m.group(2).lstrip("0") or "0"
    if len(digits) > 1:
        raise _out_of_range(kind, digits)
    return DynkinType(kind, int(digits))


def adjacency(t: DynkinType) -> frozenset[frozenset[int]]:
    """Edges of the Dynkin diagram of ``t`` as unordered pairs of 1-based node indices."""
    n = t.rank
    if t.kind == "A":
        edges = [(i, i + 1) for i in range(1, n)]
    elif t.kind == "D":
        edges = [(i, i + 1) for i in range(1, n - 2)]
        edges += [(n - 2, n - 1), (n - 2, n)]
    else:
        branch = {6: 3, 7: 4, 8: 5}[n]
        edges = [(i, i + 1) for i in range(1, n - 1)]
        edges.append((branch, n))
    return frozenset(frozenset(e) for e in edges)


class IntersectionMatrix(Record):
    """A square integer matrix, stored as a tuple of rows.

    Instances produced by :func:`intersection_matrix` are symmetric with -2
    on the diagonal and 0/1 off it, and are negative definite; arbitrary
    square matrices may be constructed for definiteness experiments.
    """

    __slots__ = ("entries",)
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def dot(self, vec: list[int] | tuple[int, ...]) -> list[int]:
        """Exact integer matrix-vector product."""
        if len(vec) != self.n:
            raise ValueError("dimension mismatch")
        return [sum(r * v for r, v in zip(row, vec)) for row in self.entries]

    def as_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def __str__(self) -> str:
        return "\n".join(" ".join(map(str, row)) for row in self.entries)


def as_dynkin(t: DynkinType | str) -> DynkinType:
    """A DynkinType as given, or parsed from its label."""
    return t if isinstance(t, DynkinType) else parse_dynkin(t)


def intersection_matrix(t: DynkinType | str) -> IntersectionMatrix:
    """Intersection matrix of the exceptional curves of the minimal resolution.

    Diagonal entries are -2 (each exceptional curve is a (-2)-curve); the
    (i, j) entry is 1 exactly when nodes i and j are adjacent in the diagram.
    `t` is a DynkinType or its label; the matrix is built once per type.
    """
    return _intersection_matrix(as_dynkin(t))


@cache
def _intersection_matrix(t: DynkinType) -> IntersectionMatrix:
    n = t.rank
    adj = adjacency(t)
    rows = [
        tuple(
            -2 if i == j else (1 if frozenset((i + 1, j + 1)) in adj else 0)
            for j in range(n)
        )
        for i in range(n)
    ]
    return IntersectionMatrix(tuple(rows))


def _det_int(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def leading_principal_minors(m: IntersectionMatrix) -> list[int]:
    """Determinants of the leading principal k x k submatrices, k = 1..n."""
    rows = m.as_lists()
    return [_det_int([row[:k] for row in rows[:k]]) for k in range(1, m.n + 1)]


def is_negative_definite(m: IntersectionMatrix) -> bool:
    """Exact negative-definiteness test via leading principal minors.

    A symmetric matrix is negative definite iff the k-th leading principal
    minor has sign (-1)^k for every k.  Raises NotSymmetric if the input is
    not symmetric (the criterion is meaningless otherwise).
    """
    ent = m.entries
    for i in range(m.n):
        for j in range(i + 1, m.n):
            if ent[i][j] != ent[j][i]:
                raise NotSymmetricError(
                    f"entry ({i}, {j}) = {ent[i][j]} differs from ({j}, {i}) = {ent[j][i]}"
                )
    for k, minor in enumerate(leading_principal_minors(m), start=1):
        if (minor if k % 2 == 0 else -minor) <= 0:
            return False
    return True
