"""The sparse elimination of `linalg` against the dense one it replaced:
pivots, ranks, solutions and inconsistent systems, over Q (int and
Fraction entries) and over a prime field."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import row_reduce_dense
from resint import linalg
from resint.ring import GF, QQ

F7 = GF(7)

#: mostly zeros, so rows are sparse and pivots often missing
INTS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, 3, -5])
FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)) | st.just(0)
ENTRIES = {"Q int": (QQ, INTS), "Q Fraction": (QQ, FRACTIONS), "F7": (F7, INTS)}


@st.composite
def systems(draw, entries):
    """A matrix of 0..6 rows and 0..6 columns, tall and wide both, with zero
    rows among them, and a right-hand side: A x0 for a random x0 (always
    consistent) or random (mostly inconsistent once A has a zero row)."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    matrix = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows and draw(st.booleans()):
        matrix[draw(st.integers(0, rows - 1))] = [0] * cols
    if draw(st.booleans()):
        x0 = draw(st.lists(entries, min_size=cols, max_size=cols))
        rhs = [sum((a * x for a, x in zip(row, x0)), 0) for row in matrix]
    else:
        rhs = draw(st.lists(entries, min_size=rows, max_size=rows))
    return matrix, rhs


def dense_rank(matrix):
    a = [[QQ.coerce(x) for x in row] for row in matrix]
    return len(row_reduce_dense(QQ, a, len(a[0]) if a else 0))


def dense_solve(field, matrix, rhs):
    a = [[field.coerce(x) for x in row] + [field.coerce(b)] for row, b in zip(matrix, rhs)]
    cols = len(matrix[0]) if a else 0
    pivots = row_reduce_dense(field, a, cols)
    if any(row[cols] != field.zero for row in a[len(pivots):]):
        return None
    x = [field.zero] * cols
    for i, c in enumerate(pivots):
        x[c] = a[i][cols]
    return x


@pytest.mark.parametrize("name", ENTRIES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sparse_elimination_matches_the_dense_one(name, data):
    field, entries = ENTRIES[name]
    matrix, rhs = data.draw(systems(entries))
    cols = len(matrix[0]) if matrix else 0
    coerced = [[field.coerce(x) for x in row] for row in matrix]
    dense = [list(row) for row in coerced]
    sparse = [{j: x for j, x in enumerate(row) if x != field.zero} for row in coerced]
    pivots = linalg._row_reduce(field, sparse, cols)
    assert pivots == row_reduce_dense(field, dense, cols) == sorted(pivots)
    # the reduced pivot rows are unique; every other row is cleared
    assert [[row.get(j, field.zero) for j in range(cols)] for row in sparse[: len(pivots)]] == dense[
        : len(pivots)
    ]
    assert not any(sparse[len(pivots):])
    if field == QQ:
        assert linalg.rank(matrix) == dense_rank(matrix) == len(pivots)
    x = linalg.solve_field(field, matrix, rhs)
    assert x == dense_solve(field, matrix, rhs)
    if x is not None:
        for row, b in zip(coerced, rhs):
            total = field.zero
            for a, v in zip(row, x):
                total = field.add(total, field.mul(a, v))
            assert total == field.coerce(b)


def test_inconsistent_and_degenerate_systems():
    assert linalg.solve_field(QQ, [[1, 1], [2, 2]], [1, 3]) is None
    assert linalg.solve_field(F7, [[1, 1], [2, 2]], [1, 3]) is None
    assert linalg.solve_field(QQ, [[0, 0]], [0]) == [0, 0]
    assert linalg.solve_field(QQ, [[0, 0]], [1]) is None
    assert linalg.solve_field(QQ, [], []) == []
    assert linalg.rank([]) == 0
    assert linalg.rank([[], []]) == 0
    assert linalg.rank([[0, 0, 0], [0, 0, 0]]) == 0
    # over F_7, 7 is zero and the system below has rank 1
    assert linalg.solve_field(F7, [[1, 2], [3, 6]], [1, 3]) == [1, 0]
    assert linalg.solve_field(QQ, [[2, 0], [0, 3]], [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]
