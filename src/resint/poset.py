"""The generator poset: order, ranks, Hasse diagrams, meets and joins,
straightening relations, the two straightening-law axioms, and the
wonderful-poset cover condition.

Functions that expand labels into actual polynomials take the residual
instance (which owns the ring and each generator's packed table) as their
first argument.  They expand on a big cell: the n rows of one minor of X
set to the identity matrix, where that minor is 1 and a minor sharing k
rows with it is +- a minor of size n - k.  `_on_cell` builds each
generator's restriction in that closed form (Laplace expansion along the
unit rows), with no term of the generator filtered, and memoises it on
the instance.  A quadratic identity holds in K[X, y] exactly when it holds
on the cell (the proof is in `StraighteningRelation._reexpands`), so each
straightening is solved and each identity verified there.

The cell polynomials are packed dicts {monomial: coefficient}, monomials
packed by `groebner._Packing`.  Their minors come from `packed_minor`,
one memoised table of the minors of X that the colon certificate of
`residual` reads too, and `add_product` is the one product loop of both.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import linalg
from .groebner import DEFAULT_BUDGET, Budget, BudgetExceeded, _Packing
from .labels import GeneratorLabel, M, Q, canonical_labels
from .ring import QQ, NotIncomparable, xvar, yvar


class StraighteningBudgetExceeded(BudgetExceeded):
    """The straightening rewrite loop ran past its step cap or its wall
    deadline."""

    def __init__(self, message: str, steps: int):
        super().__init__(message, {"rewrite_steps": steps})


def less_eq(a: GeneratorLabel, b: GeneratorLabel) -> bool:
    """The three-clause partial order on generator labels.

    Q_i <= Q_j when i <= j; Q_j <= [i1..in] when j <= in; minors compare
    componentwise on their row sets.  A minor is never below a Q.
    """
    if a.is_q and b.is_q:
        return a.q_index <= b.q_index
    if a.is_q:
        return a.q_index <= b.rows[-1]
    if b.is_q:
        return False
    return all(x <= y for x, y in zip(a.rows, b.rows))


def incomparable(a: GeneratorLabel, b: GeneratorLabel) -> bool:
    return not less_eq(a, b) and not less_eq(b, a)


class BPoset:
    """The finite poset of generator labels for one (m, n): the chain
    Q_1 < ... < Q_m glued below the maximal minors, which are ordered
    componentwise on their row sets (`less_eq`).

    The poset is read off one map into Z^{n+1}, the row coordinates
    (`coords`):

        Q_i -> (0, 1-n, ..., -1, i),    [r_1..r_n] -> (1, r_1, ..., r_n).

    `less_eq` is the componentwise order on the image.  Two Q's share
    every entry but the last, and two minors the first, so there it is the
    clause itself.  Q_j <= [R] componentwise exactly when j <= r_n, as 0 < 1
    and the fixed entries 1-n..-1 are below every row; and a minor is never
    below a Q, as 1 > 0.  At n = 1 there are no fixed entries, and the
    image is the 2 x m grid {0, 1} x {1..m}.

    The image is closed under componentwise min and max.  The min, and
    the max, of two strictly increasing row sets is strictly increasing;
    Q_i ^ [R] = Q_min(i, r_n), as each fixed entry is below r_k; and
    Q_i v [R] = [r_1..r_{n-1}, max(i, r_n)], increasing as
    max(i, r_n) >= r_n.  So the poset is a lattice whose meet and join are
    the componentwise min and max (`meet`, `join`); as a sublattice of
    Z^{n+1} it is distributive.

    The order is held as down-set bitsets by element index.  The
    grading is read off the row coordinates too (Bruns and Vetter,
    *Determinantal Rings*, LNM 1327, 1988, for the minors):

        rank(Q_i) = i,    rank([r_1..r_n]) = n + 1 + sum_k (r_k - k),

    and the covers are local (a <. b: b covers a):

        Q_j <. Q_{j+1}             for j < m,
        Q_j <. [1..n-1, j]         for n <= j <= m,
        [R] <. [R + e_k]           when R + e_k is strictly increasing and <= m.

    Proof that these are all the covers.  A minor is never below a Q, so
    every cover of a minor is a minor.  Above Q_j lie the Q_i with i > j,
    each at or above Q_{j+1}, and the minors [S] with s_n >= j.  For j < n
    every such minor has s_n >= n > j, so it lies above Q_{j+1}, and Q_{j+1}
    is the one cover.  For j >= n, a minor [S] with s_n > j lies above
    Q_{j+1}, and one with s_n = j lies above [1..n-1, j] (as s_k >= k);
    these two are incomparable, so they are the covers.  Between minors [R] < [S], let k
    be the largest index with r_k < s_k.  Then r_l = s_l for l > k, so
    r_k + 1 <= s_k < s_{k+1} = r_{k+1} and s_k <= m: R + e_k is a minor
    with R < R + e_k <= S.  So [S] covers [R] only when S = R + e_k, and
    each R + e_k does cover [R], as the coordinate sum rises by one.

    Each cover raises the rank by exactly 1 (Q_j <. [1..n-1, j]: n + 1 +
    j - n = j + 1), and Q_1, of rank 1, is the unique minimal element.  So
    every saturated chain from Q_1 to e has rank(e) elements, every chain
    ending at e refines to one, and rank(e) is the number of elements in
    the longest chain ending at e.  Every minor has r_k <= m-n+k, so the
    top [m-n+1..m] is the unique maximal element, and its rank n(m-n+1)+1
    is the rank of the poset.
    """

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.elements: tuple[GeneratorLabel, ...] = tuple(canonical_labels(m, n))
        self._pos = {e: i for i, e in enumerate(self.elements)}
        # the row coordinates of each element, and the element at each
        self._coords = {e: self.coords(e) for e in self.elements}
        self._at = {c: e for e, c in self._coords.items()}
        self._down = self._order_sets()

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self._pos

    def leq(self, a: GeneratorLabel, b: GeneratorLabel) -> bool:
        return self._down[self._pos[b]] >> self._pos[a] & 1 == 1

    def lt(self, a: GeneratorLabel, b: GeneratorLabel) -> bool:
        return a != b and self.leq(a, b)

    # -- covers and rank ----------------------------------------------------

    def coords(self, e: GeneratorLabel) -> tuple[int, ...]:
        """The row coordinates of e in Z^{n+1} (class docstring)."""
        if e.is_q:
            return (0, *range(1 - self.n, 0), e.q_index)
        return (1, *e.rows)

    def _order_sets(self) -> list[int]:
        """Down-sets as bitsets by element index: bit i of down[j] is set
        exactly when element i <= element j (`less_eq`).

        Built from per-coordinate thresholds of `coords`, with no pair
        compared: below c lie the elements whose k-th coordinate is <= c_k
        for every k (an AND over k of one prefix OR per coordinate)."""
        low = 1 - self.n  # the least coordinate: 1 - n <= 0 <= c_0
        coords = list(self._coords.values())
        at = [[0] * (self.m + 1 - low) for _ in range(self.n + 1)]
        for idx, c in enumerate(coords):
            for k, v in enumerate(c):
                at[k][v - low] |= 1 << idx
        below = [list(itertools.accumulate(row, operator.or_)) for row in at]
        return [
            functools.reduce(operator.and_, (t[v - low] for t, v in zip(below, c))) for c in coords
        ]

    def _cover_pairs(self) -> list[tuple[int, int]]:
        """(i, j) with j covering i, i ascending, then j: the closed-form
        covers of the class docstring.  For Q_j, Q_{j+1} comes before the
        minor; for a minor, the last coordinate is bumped first, as
        lexicographic order is index order."""
        m, n, pos = self.m, self.n, self._pos
        pairs = []
        for i, e in enumerate(self.elements):
            if e.is_q:
                j = e.q_index
                up = [Q(j + 1)] if j < m else []
                if j >= n:
                    up.append(M((*range(1, n), j)))
            else:
                rows, bound = e.rows, e.rows[1:] + (m + 1,)
                up = [
                    M(rows[:k] + (rows[k] + 1,) + rows[k + 1:])
                    for k in reversed(range(n))
                    if rows[k] + 1 < bound[k]
                ]
            pairs.extend((i, pos[u]) for u in up)
        return pairs

    def meet(self, a: GeneratorLabel, b: GeneratorLabel) -> GeneratorLabel:
        """The componentwise min of the row coordinates (class docstring)."""
        return self._at[tuple(map(min, self._coords[a], self._coords[b]))]

    def join(self, a: GeneratorLabel, b: GeneratorLabel) -> GeneratorLabel:
        """The componentwise max of the row coordinates (class docstring)."""
        return self._at[tuple(map(max, self._coords[a], self._coords[b]))]

    def hasse_edges(self) -> list[tuple[GeneratorLabel, GeneratorLabel]]:
        """All cover pairs (a, b): a < b with nothing strictly between."""
        # in (a, b) order by `sort_key`: canonical index order is that order
        return [(self.elements[i], self.elements[j]) for i, j in self._cover_pairs()]

    def rank(self, e: GeneratorLabel) -> int:
        """Number of elements in the longest chain ending at e, in closed
        form (class docstring)."""
        if e.is_q:
            return e.q_index
        return self.n + 1 + sum(r - k for k, r in enumerate(e.rows, start=1))

    def poset_rank(self) -> int:
        """n(m-n+1)+1, the rank of the top minor [m-n+1..m]."""
        return self.n * (self.m - self.n + 1) + 1

    def rank_classes(self) -> list[list[GeneratorLabel]]:
        """Elements grouped by rank, ranks ascending; classes partition B."""
        classes: list[list[GeneratorLabel]] = [[] for _ in range(self.poset_rank())]
        for e in self.elements:
            classes[self.rank(e) - 1].append(e)
        return classes

    def to_dot(self) -> str:
        """Hasse diagram in DOT, smaller elements rendered above."""
        lines = ["digraph hasse {", "  rankdir=TB;", '  node [shape=plaintext];']
        for e in self.elements:
            lines.append(f'  "{e.text}";')
        for a, b in self.hasse_edges():
            lines.append(f'  "{a.text}" -> "{b.text}" [dir=none];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def witness_chain(m: int, n: int) -> list[GeneratorLabel]:
    """An explicit maximum chain: Q1<..<Qn<[1..n]<... of length n(m-n+1)+1.

    After the Q prefix, the minor coordinates are walked up one unit at a
    time, last coordinate first, until [m-n+1..m] is reached.  Each step is
    a cover (`BPoset`).  At n = 1 the chain is Q1 < [1] < ... < [m].
    """
    chain = [Q(i) for i in range(1, n + 1)]
    rows = list(range(1, n + 1))
    chain.append(M(rows))
    for pos in range(n - 1, -1, -1):
        target = m - n + pos + 1
        while rows[pos] < target:
            rows[pos] += 1
            chain.append(M(rows))
    return chain


def is_wonderful(poset: BPoset) -> bool:
    """The cover-compatibility condition on the poset with -infinity and
    +infinity adjoined: whenever b1 != b2 both cover some alpha (or are
    both minimal) and lie below some gamma (or +infinity), some beta <= gamma
    covers both (or both are maximal, when gamma is +infinity).

    The covers are read off `_cover_pairs` (closed form, proved in
    `BPoset`), and the minimal elements are those that cover nothing.  The
    order is read off the down-set bitsets `_down`, transposed into the
    up-sets: bit j of up[i] is set when element i < element j.  So the
    gammas above both b1 and b2 are up[b1] & up[b2], and those above some
    common cover beta are the union of beta's up-set and beta itself."""
    size = len(poset.elements)
    up = [0] * size
    for j, down in enumerate(poset._down):
        below = down & ~(1 << j)
        while below:
            low = below & -below
            up[low.bit_length() - 1] |= 1 << j
            below ^= low
    covers: list[list[int]] = [[] for _ in range(size)]
    covered = 0
    for i, j in poset._cover_pairs():
        covers[i].append(j)
        covered |= 1 << j
    minimal = [i for i in range(size) if not covered >> i & 1]
    for cov in [minimal, *covers]:
        for b1, b2 in itertools.combinations(cov, 2):
            common = set(covers[b1]).intersection(covers[b2])
            if not common and (up[b1] or up[b2]):
                return False
            reached = 0
            for beta in common:
                reached |= up[beta] | 1 << beta
            if up[b1] & up[b2] & ~reached:
                return False
    return True


# ---------------------------------------------------------------------------
# products of generators


def _sorted_labels(labels: Iterable[GeneratorLabel]) -> tuple[GeneratorLabel, ...]:
    return tuple(sorted(labels, key=lambda l: l.sort_key))


def packed_minor(instance, rows: tuple, cols: tuple) -> dict:
    """det(X on rows, cols), columns counted from 1, as a packed dict
    {monomial: coefficient}: Laplace expansion along the last column,
    memoised on the instance per (rows, columns) with every minor it
    expands into.  Its terms have distinct monomials, so none cancel.

    Along the last column, the minors expanded into are those of the
    columns before it, on every subset of the rows: the minors of all the
    row sets on columns 1..n share one table of each smaller size."""
    d = instance._minors.get((rows, cols))
    if d is None:
        d = {} if rows else {0: 1}
        for t, r in enumerate(rows):
            x = _Packing.var(instance.ring.index[xvar(r, cols[-1])])
            # the cofactor of row t in the last column has sign (-1)^(t + k - 1)
            odd = (t + len(cols) - 1) % 2
            for e, coef in packed_minor(instance, rows[:t] + rows[t + 1 :], cols[:-1]).items():
                d[e + x] = -coef if odd else coef
        instance._minors[rows, cols] = d
    return d


def add_product(acc: dict, f: dict, g: dict, coeff) -> dict:
    """acc += coeff * f * g on packed dicts {monomial: coefficient} of
    integers (or rationals), dropping the terms that cancel; returns acc."""
    for a, ca in f.items():
        ca *= coeff
        for b, cb in g.items():
            e, c = a + b, ca * cb
            old = acc.get(e)
            if old is None:
                acc[e] = c
            elif not (c := old + c):
                del acc[e]
            else:
                acc[e] = c
    return acc


def _on_cell(instance, label: GeneratorLabel, cell: tuple[int, ...]) -> dict:
    """`label`'s polynomial on the big cell of the sorted n-row set `cell`,
    where row cell[k-1] of X is the unit vector e_k, as a packed dict.
    Callers only read it; it is memoised on the instance per (label, cell).

    Q_r = sum_j x[r][j] y_j is y_k when r = cell[k-1], and itself
    otherwise.  A minor [R] is expanded along its unit rows (Laplace).  Let
    H = R & cell and F = R - cell, and let C be the columns that the unit
    vectors of H miss, F and C in increasing order (|F| = |C|).  A term of
    [R] survives the cell only if it sends each row of H to the column of
    its unit vector, so it sends F onto C: its permutation is s followed by
    a permutation t of F's positions, where the base permutation s sends
    the rows of H to their unit columns and the i-th row of F to C[i].  Its
    sign is sign(s) * sign(t), so [R] is sign(s) times the minor of X on
    F x C (`packed_minor`).  sign(s) is the parity of the inversions of s."""
    terms = instance._cells.get((label, cell))
    if terms is None:
        col = {r: k for k, r in enumerate(cell, start=1)}
        if label.is_q:
            r = label.q_index
            if r in col:
                terms = {_Packing.var(instance.ring.index[yvar(col[r])]): 1}
            else:
                terms = instance.packed[label]
        else:
            hit = {col[r] for r in label.rows if r in col}
            free_cols = tuple(j for j in range(1, instance.n + 1) if j not in hit)
            terms = packed_minor(instance, tuple(r for r in label.rows if r not in col), free_cols)
            free = iter(free_cols)
            base = [col[r] if r in col else next(free) for r in label.rows]
            if sum(a > b for a, b in itertools.combinations(base, 2)) % 2:
                terms = {e: -c for e, c in terms.items()}
        instance._cells[label, cell] = terms
    return terms


def _to_pattern(labels: Iterable[GeneratorLabel]) -> dict[int, int]:
    """The rows the labels use (a Q index counts as a row) -> 1..k, in order."""
    rows: set[int] = set()
    for q_index, minor_rows in labels:
        if q_index is None:
            rows.update(minor_rows)
        else:
            rows.add(q_index)
    return {r: i for i, r in enumerate(sorted(rows), start=1)}


def _rename(label: GeneratorLabel, f: dict[int, int]) -> GeneratorLabel:
    q_index, rows = label
    if q_index is not None:
        return Q(f[q_index])
    return M(tuple(map(f.__getitem__, rows)))


# ---------------------------------------------------------------------------
# straightening


#: a quadratic identity sum c * pair = 0: c is +-1 and each pair of labels
#: is in canonical order
Identity = list[tuple[int, tuple[GeneratorLabel, GeneratorLabel]]]


def bordered_relation(rows: Sequence[int]) -> Identity:
    """The vanishing bordered determinant on a sorted (n+1)-row set R.

    The X rows of R with the column (Q_r)_{r in R} appended form a singular
    matrix; its cofactor expansion along that column is the identity, one
    term Q_r * [R minus r] per row r, in row order.
    """
    rows = tuple(rows)
    size = len(rows)
    return [
        (1 if (k + size) % 2 == 0 else -1, (Q(r), M(rows[: k - 1] + rows[k:])))
        for k, r in enumerate(rows, start=1)
    ]


@dataclass(frozen=True)
class StraighteningRelation:
    """left[0]*left[1] = sum of coeff * (product of the pair).

    The one record of a quadratic identity: a straightening relation, a
    bordered-determinant relation or an exchange relation, each solved for
    one of its products."""

    left: tuple[GeneratorLabel, GeneratorLabel]
    right: tuple[tuple[object, tuple[GeneratorLabel, GeneratorLabel]], ...]

    @classmethod
    def solve(cls, terms: Identity, left) -> "StraighteningRelation":
        """Solve `terms` (sum c * pair = 0) for its one term whose pair is
        `left`; the other coefficients become -c * pivot, integers."""
        left = _sorted_labels(left)
        pivots = [c for c, pair in terms if pair == left]
        if len(pivots) != 1:
            raise ValueError(f"{len(pivots)} terms of the identity are {left}, not one")
        pivot = pivots[0]
        right = tuple((-c * pivot, pair) for c, pair in terms if pair != left)
        return cls(left, right)

    def min_label_condition(self) -> bool:
        a, b = self.left
        for _, pair in self.right:
            least = pair[0]
            if not (less_eq(least, a) and least != a and less_eq(least, b) and least != b):
                return False
        return True

    def verify(self, instance) -> bool:
        """Re-expand both sides independently of `straighten` and compare,
        on the big cell of the first minor in `left` (`_reexpands`).

        The verdict is memoized on the instance under the whole relation
        with its rows renamed to 1..k in order, which holds exactly when
        the relation does (the renaming argument in `straighten`): a plain
        tuple of its renamed (q_index, rows) pairs and its coefficients.  A
        relation that differs in any term is a new key and is re-expanded."""
        f = _to_pattern(itertools.chain(self.left, *(p for _, p in self.right)))

        def renamed(label):
            q_index, rows = label
            return (None, tuple(map(f.__getitem__, rows))) if q_index is None else (f[q_index], None)

        key = (*map(renamed, self.left), *((c, *map(renamed, pair)) for c, pair in self.right))
        if key not in instance._verified:
            instance._verified[key] = self._reexpands(instance)
        return instance._verified[key]

    def _reexpands(self, instance) -> bool:
        """left - sum of coeff * pair is zero on the big cell of the first
        minor in `left`: with those n rows R0 of X set to the identity.

        That proves it zero in F[X, y] over every field F.  Under X -> Xg,
        y -> g^-1 y for g in GL_n, a minor scales by det g and each Q_i =
        (X y)_i is invariant.  A pair with q Q-labels therefore has y-degree
        q and weight 2 - q, so the difference f splits by y-degree into
        semi-invariants f_q, f_q(Xg, g^-1 y) = det(g)^(2-q) f_q(X, y).  The
        cell leaves y alone, so f vanishes on the cell exactly when each f_q
        does.  Take g = X_R0^-1 and d = det X_R0: in F[X, y][1/d],
        f_q(X, y) = d^(2-q) f_q(X X_R0^-1, X_R0 y).  The rows R0 of
        X X_R0^-1 are the identity, so the right side is the cell
        polynomial of f_q, evaluated at the other rows of X X_R0^-1 and at
        X_R0 y; that polynomial is 0.  F[X, y] is a domain, so f_q = 0.
        Integer coefficients carry the identity to Z[X, y].  The
        full-space re-expansion is kept as a cross-check in the tests."""
        cell = next(l.rows for l in self.left if not l.is_q)
        diff: dict = {}
        for coeff, pair in ((1, self.left), *((-c, p) for c, p in self.right)):
            add_product(diff, *(_on_cell(instance, l, cell) for l in pair), coeff)
        return not any(diff.values())

    def _renamed(self, f: dict[int, int]) -> "StraighteningRelation":
        return StraighteningRelation(
            (_rename(self.left[0], f), _rename(self.left[1], f)),
            tuple((c, (_rename(a, f), _rename(b, f))) for c, (a, b) in self.right),
        )

    @property
    def text(self) -> str:
        terms = []
        for c, pair in self.right:
            mono = "*".join(l.text for l in pair)
            terms.append(f"({c})*{mono}")
        lhs = "*".join(l.text for l in self.left)
        return f"{lhs} = " + (" + ".join(terms) if terms else "0")


def straighten(instance, a: GeneratorLabel, b: GeneratorLabel) -> StraighteningRelation:
    """Standard-monomial expansion of an incomparable product.

    Relations are tabled on the instance by row pattern: the pair with its
    k distinct rows (a Q index counts as a row) renamed to 1..k in order.
    A miss solves the pattern pair; every call returns the tabled relation
    renamed to the caller's rows.  An order-preserving injection f of rows
    gives the injective ring map x_ij -> x_f(i)j fixing y; it sends [R] to
    [f(R)] with no sign change and Q_i to Q_f(i), and preserves `less_eq`
    and `sort_key`.  So the pattern pair is an incomparable own-pattern
    pair of the same instance, and (a, b)'s relation is its relation
    renamed: it has least labels, or is an identity, exactly when that has.

    The Q-times-minor case solves the vanishing bordered determinant for
    the product; the minor-times-minor case solves for the coordinates of
    the product in the standard monomials of that shape (unique once the
    standard monomials are known independent).  That solve runs on the big
    cell of the pair's first minor, where its rows of X are the identity
    (`_on_cell`): a sum of minor x minor products that vanishes there is
    zero (`StraighteningRelation._reexpands`), so the cell keeps the
    candidates independent and the solution is the one in all of K[X].
    The first minor is 1 there, and a minor sharing k of its rows is a
    minor of size n - k, so the system is much smaller than in K[X].
    """
    if not incomparable(a, b):
        raise NotIncomparable(f"{a.text} and {b.text} are comparable")
    to_pattern = _to_pattern((a, b))
    pattern = _sorted_labels(_rename(l, to_pattern) for l in (a, b))
    table = instance._straighten_table
    if pattern not in table:
        first, second = pattern
        if first.is_q:
            # incomparability of Q_j with the minor means exactly j > last row
            terms = bordered_relation(second.rows + (first.q_index,))
            table[pattern] = StraighteningRelation.solve(terms, pattern)
        else:
            content = sorted(first.rows + second.rows)
            candidates = []
            # rows_c comes distinct and in order, so the candidates are sorted
            for rows_c in itertools.combinations(sorted(set(content)), len(first.rows)):
                rest = list(content)
                for r in rows_c:
                    rest.remove(r)
                rows_d = tuple(rest)
                if any(rows_d[i] >= rows_d[i + 1] for i in range(len(rows_d) - 1)):
                    continue
                c_lab, d_lab = M(rows_c), M(rows_d)
                if less_eq(c_lab, d_lab):
                    candidates.append((c_lab, d_lab))
            cell = first.rows
            target, *expansions = (
                add_product({}, *(_on_cell(instance, l, cell) for l in pair), 1)
                for pair in (pattern, *candidates)
            )
            monos = sorted({e for p in expansions + [target] for e in p})
            matrix = [[p.get(mo, 0) for p in expansions] for mo in monos]
            rhs = [target.get(mo, 0) for mo in monos]
            sol = linalg.solve_field(QQ, matrix, rhs)
            if sol is None:
                raise ValueError(f"no standard expansion found for {a.text}*{b.text}")
            right = tuple((c, pair) for c, pair in zip(sol, candidates) if c)
            table[pattern] = StraighteningRelation(pattern, right)
    return table[pattern]._renamed({i: r for r, i in to_pattern.items()})


#: rewrite steps one straighten_product call may take
STRAIGHTEN_MAX_STEPS = 100_000


def straighten_product(
    instance, labels: Sequence[GeneratorLabel], deadline: float | None = None
) -> dict[tuple[GeneratorLabel, ...], object]:
    """Rewrite a product of generators as a combination of standard
    monomials.  The clock is read before each rewrite step when a
    `time.monotonic()` deadline is given."""
    result: dict[tuple[GeneratorLabel, ...], object] = {}
    work = [(1, _sorted_labels(labels))]
    steps = 0
    while work:
        steps += 1
        if steps > STRAIGHTEN_MAX_STEPS:
            raise StraighteningBudgetExceeded(
                f"gave up after {STRAIGHTEN_MAX_STEPS} rewrite steps", steps
            )
        if deadline is not None and time.monotonic() > deadline:
            raise StraighteningBudgetExceeded("wall-clock budget exhausted", steps)
        coeff, ls = work.pop()
        bad = next(
            (i for i in range(len(ls) - 1) if not less_eq(ls[i], ls[i + 1])),
            None,
        )
        if bad is None:
            new = QQ.add(result.get(ls, 0), coeff)
            if not new:
                result.pop(ls, None)
            else:
                result[ls] = new
            continue
        rel = straighten(instance, ls[bad], ls[bad + 1])
        rest = ls[:bad] + ls[bad + 2:]
        for c, pair in rel.right:
            work.append((QQ.mul(coeff, c), _sorted_labels(rest + pair)))
    return result


def verify_asl1(instance, budget: Budget | None = None) -> bool:
    """Distinct leading monomials of the standard monomials, in every degree.

    The generator poset L is a distributive lattice: its row coordinates
    embed it in Z^{n+1} with an image closed under componentwise min and
    max (`BPoset`), so L is a sublattice of Z^{n+1}, hence distributive,
    and a ^ b and a v b are the componentwise min and max.  Two finite
    conditions then make the certificate, with c = coords(e):

    (i)  the leading monomial of each element e is its closed form,
         x[c_1][1] * ... * x[c_n][n] when c_0 = 1 (a minor), and
         x[c_n][n] * y_n when c_0 = 0 (a Q);
    (ii) the leading monomials of `witness_chain`, a maximal chain of L,
         have rank `poset_rank`.

    Why they suffice.  By (i), lm(e) is a sum of one term per coordinate:
    y_n when c_0 = 0, and x[c_k][k] for each k >= 1 with c_k >= 1 (the
    fixed entries of a Q are negative and add nothing).  In each
    coordinate {min(a_k, b_k), max(a_k, b_k)} = {a_k, b_k}, so the number
    of y_n factors of a and b together equals that of a ^ b and a v b (the
    zeros in coordinate 0), and so on for each x factor:

        lm(a) + lm(b) = lm(a ^ b) + lm(a v b)    for every pair.

    By Hibi ("Distributive lattices, affine semigroup rings and algebras
    with straightening laws", 1987), K[u]/(u_a u_b - u_{a^b} u_{a v b}) is
    a domain of dimension `poset_rank` whose multichains form a K-basis.
    By the identity above, u_a -> x^lm(a) maps it onto the monomial
    algebra of the leading monomials.  That algebra's dimension is the
    rank of its exponent vectors: at least `poset_rank` by (ii), and at
    most `poset_rank` as a quotient of the Hibi ring.  The kernel is a
    prime of the Hibi ring, and a nonzero one would lower the dimension.
    So the map is an isomorphism: distinct standard monomials have
    distinct leading monomials in every degree, and the toric kernel is
    generated by those binomials.  Spanning in every degree follows from
    the relations `verify_asl2` verifies and their least-label condition
    (De Concini, Eisenbud and Procesi, *Hodge Algebras*, 1982), so it is
    not recomputed here.

    Each leading monomial is read off the element's own terms, as the
    largest monomial of its packed table (`ResidualInstance.lead`).  No
    product is expanded and no pair is visited.  The wall-clock
    budget is read before each element's lead check;
    `lattice_rows_checked` counts the elements done.
    """
    poset, n, index = instance.poset, instance.poset.n, instance.ring.index
    deadline = time.monotonic() + (budget or DEFAULT_BUDGET).wall_seconds
    for done, e in enumerate(poset.elements):
        if time.monotonic() > deadline:
            raise BudgetExceeded("wall-clock budget exhausted", {"lattice_rows_checked": done})
        c = poset.coords(e)
        if c[0]:
            factors = [xvar(r, k) for k, r in enumerate(c[1:], start=1)]
        else:
            factors = [xvar(c[n], n), yvar(n)]
        if instance.lead(e) != sum(_Packing.var(index[v]) for v in factors):
            return False
    unpack = instance.packing.unpack
    chain = [unpack(instance.lead(e)) for e in witness_chain(poset.m, n)]
    return linalg.rank(chain) == poset.poset_rank()


def incomparable_pairs(
    poset: BPoset, top: int | None = None
) -> list[tuple[GeneratorLabel, GeneratorLabel]]:
    """The incomparable pairs (E[i], E[j]), i < j, in `combinations` order;
    with `top`, only among the elements whose last row coordinate is at
    most `top`.  Canonical order is a linear extension, so E[j] is never
    below E[i], and the pair is incomparable exactly when bit i of down[j]
    is clear."""
    E, down = poset.elements, poset._down
    idx = [i for i, e in enumerate(E) if top is None or poset.coords(e)[-1] <= top]
    return [(E[i], E[j]) for i, j in itertools.combinations(idx, 2) if not down[j] >> i & 1]


def verify_asl2(instance, budget: Budget | None = None) -> bool:
    """Every incomparable pair's straightening relation has least labels
    and is an identity.  Only pairs that are their own row pattern (rows
    1..k) are straightened: every other pair's relation is its pattern
    pair's renamed, and that pair is in the list (`straighten`).  Two
    labels use at most 2n rows, so an own-pattern pair has k <= 2n, and
    only the pairs among elements whose last row coordinate is at most 2n
    are listed, in the order they have among all pairs.  The wall-clock
    budget is read before each listed pair; `pairs_checked` counts every
    listed pair passed."""
    deadline = time.monotonic() + (budget or DEFAULT_BUDGET).wall_seconds
    pairs = incomparable_pairs(instance.poset, 2 * instance.n)
    for checked, (a, b) in enumerate(pairs):
        if time.monotonic() > deadline:
            raise BudgetExceeded("wall-clock budget exhausted", {"pairs_checked": checked})
        rows = _to_pattern((a, b))
        if max(rows) != len(rows):
            continue
        rel = straighten(instance, a, b)
        if not rel.min_label_condition():
            return False
        if not rel.verify(instance):
            return False
    return True
