"""Small exact linear algebra over the coefficient fields of `ring`: one
Gaussian elimination, used for ranks and for solving linear systems."""

from __future__ import annotations

from .ring import QQ


def _row_reduce(field, a: list[list], cols: int) -> list[int]:
    """Reduce the rows of `a` in place over `field`, looking for pivots in
    the first `cols` columns only; returns the pivot columns.  Pivot rows
    come first, each scaled to a leading 1 and cleared above and below."""
    zero = field.zero
    rows = len(a)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][c] != zero), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(x, inv) for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != zero:
                f = a[i][c]
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return pivots


def rank(matrix: list[list]) -> int:
    """Rank over Q of a matrix of elements of Q."""
    a = [[QQ.coerce(x) for x in row] for row in matrix]
    return len(_row_reduce(QQ, a, len(a[0]) if a else 0))


def solve_field(field, matrix: list[list], rhs: list) -> list | None:
    """Solve A x = b over one of the exact coefficient fields; None if inconsistent.

    Free variables (underdetermined systems) are set to zero.
    """
    a = [[field.coerce(x) for x in row] + [field.coerce(b)] for row, b in zip(matrix, rhs)]
    cols = len(matrix[0]) if a else 0
    pivots = _row_reduce(field, a, cols)
    if any(row[cols] != field.zero for row in a[len(pivots):]):
        return None
    x = [field.zero] * cols
    for i, c in enumerate(pivots):
        x[c] = a[i][cols]
    return x
