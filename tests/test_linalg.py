"""The sparse forward elimination of `linalg` against the dense full
reduction it replaced: pivots, echelon rows, ranks, solutions and
inconsistent systems, over Q (int and Fraction entries) and over a prime
field."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import rank_by_rref, row_reduce_dense, solve_by_rref
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
    # the pivot rows are an echelon form, a leading 1 at each pivot, that
    # reduces to the unique reduced pivot rows; every other row is cleared
    echelon = [[row.get(j, field.zero) for j in range(cols)] for row in sparse[: len(pivots)]]
    for row, c in zip(echelon, pivots):
        assert row[c] == field.one and not any(row[:c])
    assert row_reduce_dense(field, echelon, cols) == pivots
    assert echelon == dense[: len(pivots)]
    assert not any(sparse[len(pivots):])
    if field == QQ:
        assert linalg.rank(matrix) == rank_by_rref(matrix) == len(pivots)
    x = linalg.solve_field(field, matrix, rhs)
    assert x == solve_by_rref(field, matrix, rhs)
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


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_forward_elimination_matches_the_full_reduction_on_larger_systems(field):
    # 300 seeded systems up to 24 x 24, sparse and dense, tall and wide:
    # the rank and the solution (free variables 0) of the forward
    # elimination with back substitution are those of the full reduction
    rng = random.Random(2025)
    for _ in range(300):
        rows, cols = rng.randint(1, 24), rng.randint(1, 24)
        density = rng.choice((0.1, 0.3, 0.8))
        values = (1, -1, 2, 3, -4, Fraction(1, 2), Fraction(-2, 3))
        pick = lambda: rng.choice(values) if rng.random() < density else 0
        matrix = [[pick() for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5:
            x0 = [pick() for _ in range(cols)]
            rhs = [sum((a * v for a, v in zip(row, x0)), 0) for row in matrix]
        else:
            rhs = [pick() for _ in range(rows)]
        if field == QQ:
            assert linalg.rank(matrix) == rank_by_rref(matrix)
        assert linalg.solve_field(field, matrix, rhs) == solve_by_rref(field, matrix, rhs)
