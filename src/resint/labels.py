"""Symbolic names for the algebra generators: Q_i and the maximal minors."""

from __future__ import annotations

import itertools
from operator import itemgetter


class GeneratorLabel(tuple):
    """Either Q(i), the i-th entry of X*y, or Minor(rows), a maximal minor.

    Labels are the element type of the generator poset; the canonical sort
    (all Q's by index, then minors by lexicographic row set) is a linear
    extension of that partial order.

    A label is the tuple (q_index, rows), so it hashes and compares as that
    tuple does; `Q` and `M` return one shared label per value.
    """

    __slots__ = ()

    def __new__(cls, q_index: int | None = None, rows: tuple[int, ...] | None = None):
        if (q_index is None) == (rows is None):
            raise ValueError("a label is exactly one of Q(i) or Minor(rows)")
        return tuple.__new__(cls, (q_index, rows))

    def __getnewargs__(self):
        # copy and pickle call __new__ with the fields, not the one tuple
        return tuple(self)

    q_index = property(itemgetter(0))
    rows = property(itemgetter(1))

    @property
    def is_q(self) -> bool:
        return self[0] is not None

    @property
    def text(self) -> str:
        if self.is_q:
            return f"Q{self.q_index}"
        return "[" + ",".join(str(r) for r in self.rows) + "]"

    @property
    def sort_key(self) -> tuple:
        if self.is_q:
            return (0, (self.q_index,))
        return (1, self.rows)

    def __repr__(self):
        return self.text


_QS: dict[int, GeneratorLabel] = {}
_MINORS: dict[tuple[int, ...], GeneratorLabel] = {}


def Q(i: int) -> GeneratorLabel:
    label = _QS.get(i)
    if label is None:
        label = _QS[i] = GeneratorLabel(q_index=i)
    return label


def M(rows) -> GeneratorLabel:
    rows = tuple(rows)
    label = _MINORS.get(rows)
    if label is None:
        if any(rows[i] >= rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError(f"minor rows {rows} not strictly increasing")
        label = _MINORS[rows] = GeneratorLabel(rows=rows)
    return label


def canonical_labels(m: int, n: int) -> list[GeneratorLabel]:
    """Q1..Qm followed by the minors in lexicographic row-set order."""
    labels = [Q(i) for i in range(1, m + 1)]
    labels.extend(map(M, itertools.combinations(range(1, m + 1), n)))
    return labels
