"""Small exact linear algebra over the coefficient fields of `ring`: one
Gaussian elimination, used for ranks and for solving linear systems.

Rows are sparse, dicts from column to nonzero entry: the systems the
certificates solve are mostly zeros, so a pivot touches only the rows
that hold its column, and each of those only at the pivot row's nonzeros."""

from __future__ import annotations

from .ring import QQ


def _row_reduce(field, rows: list[dict], cols: int) -> list[int]:
    """Reduce the sparse rows in place over `field`, looking for pivots in
    the first `cols` columns only; returns the pivot columns, ascending.
    Pivot rows come first, each scaled to a leading 1 and cleared above and
    below."""
    zero, sub, mul = field.zero, field.sub, field.mul
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = prow = {j: mul(x, inv) for j, x in rows[r].items()}
        for i, row in enumerate(rows):
            if i != r and c in row:
                f = row[c]
                for j, y in prow.items():
                    x = sub(row.get(j, zero), mul(f, y))
                    if x == zero:
                        del row[j]
                    else:
                        row[j] = x
        pivots.append(c)
        r += 1
    return pivots


def _sparse(field, row) -> dict:
    """Every entry coerced into `field`; the nonzeros by column."""
    zero = field.zero
    return {j: x for j, x in enumerate(map(field.coerce, row)) if x != zero}


def rank(matrix: list[list]) -> int:
    """Rank over Q of a matrix of elements of Q (ints or Fractions), read
    as they are: an entry already in Q needs no coercion."""
    rows = [{j: x for j, x in enumerate(row) if x} for row in matrix]
    return len(_row_reduce(QQ, rows, len(matrix[0]) if matrix else 0))


def solve_field(field, matrix: list[list], rhs: list) -> list | None:
    """Solve A x = b over one of the exact coefficient fields; None if inconsistent.

    Free variables (underdetermined systems) are set to zero.
    """
    rows = [_sparse(field, [*row, b]) for row, b in zip(matrix, rhs)]
    cols = len(matrix[0]) if rows else 0
    pivots = _row_reduce(field, rows, cols)
    if any(cols in row for row in rows[len(pivots):]):
        return None
    x = [field.zero] * cols
    for row, c in zip(rows, pivots):
        x[c] = row.get(cols, field.zero)
    return x
