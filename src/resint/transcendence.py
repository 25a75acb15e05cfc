"""A transcendence basis for the fraction field of the generator algebra.

Builds the distinguished label set D, the monomial specialization that
proves its algebraic independence (by exponent-matrix rank), the signed
quadratic exchange relations among maximal minors, and the rational
rewriting of every generator over D.  Everything here computes on the
instance's packed integer tables (`groebner._Packing`) and builds no
`Polynomial`, so the certificate is the same whatever field the instance
names.

Each generator outside D is tabled from one quadratic identity whose
other terms were tabled before it, so checking each identity once proves
every fraction by induction on the build order.  Those identities are
row-renamed copies of a few patterns: the identity of a label is that of
its rows renamed to 1..k in order, renamed back, and it holds exactly
when the pattern's does (`DContext._build`).  So each pattern is solved
and verified once, and a label's verdict is its pattern's: at n = 3, 4
and 5 there are 2, 5 and 12 patterns for every m >= 2n - 1, and fewer
below.

A fraction over D (`DFraction`) holds its numerator as a packed dict over
D, byte k of a monomial the exponent of D[k], and its denominator as the
pair (power of [1..n], power of Q_1), the only pivots.  The certificate
tables only the identities and the denominators; the numerators of one
fraction and of the labels it is built from are built to re-substitute
it, on the big cell of the main minor behind a D-degree guard
(`verify_rewrite`), as a check of the fraction arithmetic.
"""

from __future__ import annotations

import functools
import operator
import time
from dataclasses import dataclass

from . import linalg
from .groebner import DEFAULT_BUDGET, Budget, BudgetExceeded, _Packing
from .labels import GeneratorLabel, M, Q
from .poset import (
    Identity,
    StraighteningRelation,
    _on_cell,
    _rename,
    _to_pattern,
    add_product,
    bordered_relation,
)
from .ring import PolynomialRing, pvar, xvar, yvar
from .residual import ResidualInstance


class StructureViolation(Exception):
    """A specialized basis element failed to be a single signed monomial."""


class BadPluecker(Exception):
    """Malformed index tuples for an exchange relation."""


# ---------------------------------------------------------------------------
# the specialization and the set D


def mirror_minor(n: int, i: int, j: int) -> GeneratorLabel:
    """M_{i,j}: delete row j from 1..n and append row i."""
    rows = tuple(r for r in range(1, n + 1) if r != j) + (i,)
    return M(rows)


def build_D(m: int, n: int) -> tuple[GeneratorLabel, ...]:
    """The candidate transcendence basis: row-exchange minors M_{i,j} for
    n < i <= m and 2 <= j <= n, the main minor [1..n], and all Q's."""
    if not (m >= n >= 2):
        raise ValueError("need m >= n >= 2")
    labels: list[GeneratorLabel] = []
    for i in range(n + 1, m + 1):
        for j in range(2, n + 1):
            labels.append(mirror_minor(n, i, j))
    labels.append(M(tuple(range(1, n + 1))))
    labels.extend(Q(i) for i in range(1, m + 1))
    expected = n * (m - n + 1) + 1
    assert len(labels) == expected, "size formula (m-n)(n-1)+1+m broke"
    return tuple(labels)


def closed_form(instance: ResidualInstance, label: GeneratorLabel) -> dict:
    """The predicted specialization of a D element, as a one-term packed
    dict {monomial: +-1}: Q_i -> x[i][1], the main minor -> the diagonal
    product, M_{i,j} -> (-1)^(n+j) x[i][j] times the diagonal with x[j][j]
    deleted."""
    n, index = instance.n, instance.ring.index

    def x(i, j):
        return _Packing.var(index[xvar(i, j)])

    if label.is_q:
        return {x(label.q_index, 1): 1}
    rows = label.rows
    if rows == tuple(range(1, n + 1)):
        return {sum(x(k, k) for k in rows): 1}
    i = rows[-1]
    j = next(r for r in range(1, n + 1) if r not in rows)
    diagonal = sum(x(k, k) for k in range(1, n + 1) if k != j)
    return {x(i, j) + diagonal: 1 if (n + j) % 2 == 0 else -1}


def specialize_D(instance: ResidualInstance) -> dict[GeneratorLabel, dict]:
    """Specialize the D polynomials to the special matrices and certify the
    closed forms by exact comparison; returns the closed forms.

    The special matrices keep column 1 of X, its diagonal and its rows
    below n, zero the rest of X, and send y to the first unit vector.  So
    each variable goes to 0, to 1 (only y_1) or to itself, and the
    specialization is a bitmask filter on each term of the packed table: a
    term that uses a zeroed variable is dropped, and the exponent field of
    y_1 is cleared, with terms that then coincide summed."""
    m, n, index = instance.m, instance.n, instance.ring.index
    zeroed = [xvar(i, j) for i in range(1, n + 1) for j in range(2, n + 1) if j != i]
    zeroed += [yvar(j) for j in range(2, n + 1)]
    zeroed_mask = sum(_Packing.fields(index[v]) for v in zeroed)
    ones_mask = _Packing.fields(index[yvar(1)])
    out: dict[GeneratorLabel, dict] = {}
    for label in build_D(m, n):
        d: dict = {}
        for e, c in instance.packed[label].items():
            if not e & zeroed_mask:
                e &= ~ones_mask
                d[e] = d.get(e, 0) + c
        specialized = {e: c for e, c in d.items() if c}
        predicted = closed_form(instance, label)
        if specialized != predicted:
            raise StructureViolation(
                f"{label.text} specialized to {instance.unpack(specialized)}, "
                f"expected {instance.unpack(predicted)}"
            )
        out[label] = predicted
    return out


@dataclass
class IndependenceReport:
    size: int
    rank: int
    supports_distinct: bool

    @property
    def verdict(self) -> bool:
        return self.rank == self.size


def independence_by_exponents(instance: ResidualInstance) -> IndependenceReport:
    """Algebraic independence of the specialized D by exponent-matrix rank.

    Each specialized element is (up to sign) a single monomial, its closed
    form; monomials with Q-linearly independent exponent vectors are
    algebraically independent, over every field.  Support distinctness is
    reported alongside as the weaker statement the finer counting argument
    would use.
    """
    unpack = instance.packing.unpack
    rows = [list(unpack(e)) for form in specialize_D(instance).values() for e in form]
    supports = {tuple(i for i, e in enumerate(row) if e) for row in rows}
    return IndependenceReport(
        size=len(rows),
        rank=linalg.rank(rows),
        supports_distinct=len(supports) == len(rows),
    )


# ---------------------------------------------------------------------------
# exchange relations among maximal minors


def plucker_relation(ring: PolynomialRing, rows_small, rows_big) -> Identity:
    """The exchange relation: moving each element s of the big tuple into
    the small tuple, with alternating signs; a repeated row gives no term.
    Each term's pair of minors is in canonical order, and the expanded sum
    is identically zero."""
    n = ring.n
    rows_small = tuple(rows_small)
    rows_big = tuple(rows_big)
    for rows, size in ((rows_small, n - 1), (rows_big, n + 1)):
        if len(rows) != size:
            raise BadPluecker(f"{rows} should have {size} entries")
        if any(rows[i] >= rows[i + 1] for i in range(len(rows) - 1)):
            raise BadPluecker(f"{rows} not strictly increasing")
        if rows and (rows[0] < 1 or rows[-1] > ring.m):
            raise BadPluecker(f"{rows} out of range 1..{ring.m}")
    terms = []
    for t, s in enumerate(rows_big, start=1):
        if s in rows_small:
            continue
        position_sign = 1 if (t - 1) % 2 == 0 else -1
        sort_sign = 1 if sum(1 for a in rows_small if a > s) % 2 == 0 else -1
        pair = (M(sorted(rows_small + (s,))), M(r for r in rows_big if r != s))
        terms.append((position_sign * sort_sign, tuple(sorted(pair, key=lambda l: l.sort_key))))
    return terms


# ---------------------------------------------------------------------------
# rational rewriting over D


@dataclass(frozen=True)
class DFraction:
    """num/den over D.  num is a packed dict {monomial: int}, byte k of a
    monomial the exponent of D[k]; den is the pair (power of [1..n], power
    of Q_1), the only pivots.  A numerator's D-degree is one more than its
    denominator's, far below the 256 at which a byte would carry."""

    num: dict
    den: tuple[int, int]

    def times(self, other: "DFraction", coeff: int) -> "DFraction":
        """coeff * self * other."""
        return DFraction(
            add_product({}, self.num, other.num, coeff),
            (self.den[0] + other.den[0], self.den[1] + other.den[1]),
        )


class DContext:
    """Rewriting context: the positions of D, and each generator's fraction
    over D, whose denominators are powers of the main minor and of Q_1.
    `identities` holds, in build order, the quadratic identity each
    generator outside D was tabled from, and `_patterns` each row
    pattern's identity with its verdict.  Each denominator and verdict is
    tabled with its identity; a numerator is built from the identities on
    demand, as the certificate's verdicts read identities and one
    numerator only."""

    def __init__(self, instance: ResidualInstance):
        self.instance = instance
        self.D = build_D(instance.m, instance.n)
        self.position = {lab: i for i, lab in enumerate(self.D)}
        # the packed monomials over D of the pivots [1..n] and Q_1
        self._pivots = tuple(
            _Packing.var(self.position[lab]) for lab in (M(range(1, instance.n + 1)), Q(1))
        )
        self.identities: dict[GeneratorLabel, StraighteningRelation] = {}
        self._patterns: dict[GeneratorLabel, tuple[StraighteningRelation, bool]] = {}
        self._den = dict.fromkeys(self.D, (0, 0))
        self._verdict = dict.fromkeys(self.D, True)
        self._table = {lab: DFraction({_Packing.var(k): 1}, (0, 0)) for k, lab in enumerate(self.D)}

    def denominator(self, label: GeneratorLabel) -> tuple[int, int]:
        """fraction(label).den, tabled with label's identity."""
        if label not in self._den:
            self._build(label)
        return self._den[label]

    def verdict(self, label: GeneratorLabel) -> bool:
        """Whether label's identity re-expands: its pattern's verdict, and
        True in D, where a label is its own fraction."""
        if label not in self._verdict:
            self._build(label)
        return self._verdict[label]

    def add(self, a: DFraction, b: DFraction) -> DFraction:
        """a + b, both lifted to the componentwise max of the denominators."""
        den = (max(a.den[0], b.den[0]), max(a.den[1], b.den[1]))
        num: dict = {}
        for f in (a, b):
            lift = (den[0] - f.den[0]) * self._pivots[0] + (den[1] - f.den[1]) * self._pivots[1]
            add_product(num, f.num, {lift: 1}, 1)
        return DFraction(num, den)

    def fraction(self, label: GeneratorLabel) -> DFraction:
        if label not in self._table:
            self.denominator(label)  # records the identity
            identity = self.identities[label]
            acc = None
            for c, (p, q) in identity.right:
                part = self.fraction(p).times(self.fraction(q), c)
                acc = part if acc is None else self.add(acc, part)
            pivot = next(lab for lab in identity.left if lab != label)
            den = list(acc.den)
            den[pivot.is_q] += 1
            self._table[label] = DFraction(acc.num, tuple(den))
        return self._table[label]

    def _build(self, label: GeneratorLabel):
        """Table a minor outside D from one quadratic identity with a pivot
        in D: the exchange relation against the main minor when the minor
        contains row 1 (one row above n fewer on every other term), the
        vanishing bordered determinant on rows (1, rows) against Q_1
        otherwise.  Record it with its verdict and with the denominator of
        (sum c * frac(p) * frac(q)) / pivot: `DFraction` never cancels, so
        that is the componentwise max over the pairs of den(p) + den(q),
        times the pivot.

        The identity is solved and verified once per row pattern: the label
        with the rows U its identity uses, R and 1..n or 1 and R, renamed
        to 1..|U| in order.  Let f be that renaming's inverse, the
        order-preserving injection of 1..|U| onto U.  It fixes the pivot:
        1..n are the n least rows of R and 1..n, and 1 the least of 1 and
        R.  The ring map x_ij -> x_f(i)j fixing y is injective, sends [S] to
        [f(S)] with no sign change and Q_i to Q_f(i), and keeps `sort_key`
        order.  Each sign of the exchange and bordered relations depends
        only on the relative order of the rows, so the label's relation is
        the pattern's with every row renamed by f, and `solve` picks the
        same term: the label's identity is the pattern's `_renamed(f)`.  An
        injective ring map sends a polynomial to 0 only if it is 0, so the
        label's identity holds in K[X, y] exactly when the pattern's does
        (the argument of `poset.straighten`).  The denominators are tabled
        per label, as f need not send D to D."""
        rows = label.rows
        if rows is None:
            raise KeyError(f"{label.text} should already be tabled")
        exchange = rows[0] == 1
        pivot = M(range(1, self.instance.n + 1)) if exchange else Q(1)
        to_pattern = _to_pattern((label, pivot))
        pattern = _rename(label, to_pattern)
        if pattern not in self._patterns:
            if exchange:
                terms = plucker_relation(
                    self.instance.ring, pattern.rows[:-1], pivot.rows + pattern.rows[-1:]
                )
            else:
                terms = bordered_relation((1,) + pattern.rows)
            template = StraighteningRelation.solve(terms, (pattern, pivot))
            self._patterns[pattern] = template, template.verify(self.instance)
        template, verdict = self._patterns[pattern]
        identity = template._renamed({i: r for r, i in to_pattern.items()})
        sums = [
            map(operator.add, self.denominator(p), self.denominator(q))
            for _, (p, q) in identity.right
        ]
        den = list(map(max, zip(*sums)))
        den[pivot.is_q] += 1
        self.identities[label] = identity
        self._den[label] = tuple(den)
        self._verdict[label] = verdict


def _d_degrees_match(context: DContext, label: GeneratorLabel, frac: DFraction) -> bool:
    """Every term of frac.num has the (number of minors, number of Qs) of
    label * frac.den, read off the bytes of its packed monomial: D lists
    its minors first, up to the main minor, then Q_1..Q_m."""
    minors, size = context.position[Q(1)], len(context.D)
    target = (frac.den[0] + (not label.is_q), frac.den[1] + label.is_q)
    for e in frac.num:
        exps = e.to_bytes(size, "little")
        if (sum(exps[:minors]), sum(exps[minors:])) != target:
            return False
    return True


def verify_rewrite(context: DContext, label: GeneratorLabel, frac: DFraction) -> bool:
    """Cleared-denominator identity poly(label) * den == num, with the D
    polynomials substituted, checked on the big cell of the main minor:
    rows R0 = 1..n of X set to the identity (`poset._on_cell`).  There
    [1..n] is 1, each M_{i,j} is +-x[i][j] and Q_1 is y_1, so the cleared
    denominator is y_1^b for den = [1..n]^a Q_1^b, and the numerator is
    substituted with `add_product`.

    A D-degree guard runs first: every term of num must have the numbers
    of minors and of Qs that label * den has, read off the bytes of the
    packed monomials.  Then the cell verdict is exact.  Under X -> Xg,
    y -> g^-1 y for g in GL_n, a minor scales by det g and each Q_i =
    (X y)_i is invariant, so with a minors in every term the difference
    f = poly(label) * den - num is a semi-invariant of the one weight a:
    f(Xg, g^-1 y) = det(g)^a f(X, y).  Take g = X_R0^-1 and d = det X_R0:
    in K[X, y][1/d], f(X, y) = d^a f(X X_R0^-1, X_R0 y), and the rows R0
    of X X_R0^-1 are the identity, so the right side is f's cell
    polynomial evaluated at the other rows of X X_R0^-1 and at X_R0 y.  If
    that polynomial is 0, so is f, since K[X, y] is a domain; the converse
    is restriction.  Nothing here uses the field, so the cell verdict is
    exact over every field.  (The same argument, split by y-degree, is in
    `StraighteningRelation._reexpands`.)  Without the guard the cell
    misses a numerator such as num + den * ([1..n] - 1), which vanishes
    there.  The full-space substitution is kept as a cross-check in the
    tests."""
    if not _d_degrees_match(context, label, frac):
        return False
    instance = context.instance
    cell = tuple(range(1, instance.n + 1))
    cells = [_on_cell(instance, lab, cell) for lab in context.D]
    size = len(cells)

    def substituted(e: int, c: int) -> dict:
        factors = (cells[k] for k, power in enumerate(e.to_bytes(size, "little")) for _ in range(power))
        return functools.reduce(lambda f, g: add_product({}, f, g, 1), factors, {0: c})

    num: dict = {}
    for e, c in frac.num.items():
        add_product(num, substituted(e, c), {0: 1}, 1)
    (y1,) = _on_cell(instance, Q(1), cell)
    shift = frac.den[1] * y1
    return {e + shift: c for e, c in _on_cell(instance, label, cell).items()} == num


def spot_check_label(context: DContext) -> GeneratorLabel | None:
    """The one label whose fraction `verify_rewrite` re-substitutes: the
    first tabled label in canonical order whose denominator carries both
    the main minor and Q_1, else the first tabled label; None when every
    label is in D (m = n).  It reads denominators only."""
    built = [lab for lab in context.instance.labels if lab not in context.position]
    both = (lab for lab in built if all(context.denominator(lab)))
    return next(both, built[0] if built else None)


def _prefix(context: DContext, frac: DFraction) -> list:
    """A fraction as an expression tree in prefix notation (nested lists),
    as demo 05 prints it and the `d_table.json` golden file records it.
    D[k] prints as Y[k+1], and the terms in descending packed order, which
    is lex order with the last variable the largest."""

    def mono_tree(factors):
        if not factors:
            return "1"
        if len(factors) == 1:
            return factors[0]
        return ["*"] + factors

    def factors(e: int) -> list:
        return [
            pvar(k).text
            for k, power in enumerate(e.to_bytes(len(context.D), "little"), start=1)
            for _ in range(power)
        ]

    terms = [["*", str(c), mono_tree(factors(e))] for e, c in sorted(frac.num.items(), reverse=True)]
    num_tree = terms[0] if len(terms) == 1 else ["+"] + terms
    if not any(frac.den):
        return num_tree
    den = frac.den[0] * context._pivots[0] + frac.den[1] * context._pivots[1]
    return ["/", num_tree, mono_tree(factors(den))]


@dataclass
class TransCertificate:
    m: int
    n: int
    dimension: int
    independence: IndependenceReport
    rewrites: list[dict]
    spot_check: dict | None
    verdict: bool

    def as_dict(self) -> dict:
        """The certificate as the report prints it; the per-label rewrites
        and the spot-check stay on the object."""
        return {
            "m": self.m,
            "n": self.n,
            "dimension": self.dimension,
            "independence": {
                "size": self.independence.size,
                "rank": self.independence.rank,
                "supports_distinct": self.independence.supports_distinct,
            },
            "verdict": self.verdict,
        }


def verify_transcendence_basis(
    instance: ResidualInstance, budget: Budget | None = None
) -> TransCertificate:
    """The full certificate: monomial independence of the specialized D,
    every generator rewritten over D, and the size count n(m-n+1)+1 -- an
    independent derivation of the dimension.

    A label in D is its own fraction.  Any other label L was tabled from
    one identity L*pivot = sum c*p*q whose labels p, q were tabled before
    L, and its fraction is (sum c*frac(p)*frac(q))/pivot.  So once each
    such identity re-expands exactly (its row pattern's
    `StraighteningRelation.verify`, a degree-2 check, `DContext.verdict`),
    every fraction equals its generator by induction on the build order,
    provided the `DFraction` arithmetic is right.  That arithmetic is
    checked by substituting D into one fraction (`verify_rewrite`, on
    `spot_check_label`), on the big cell of the main minor after a
    D-degree guard, which decides the identity in all of K[X, y].  No
    other verdict reads a numerator, so the label loop tables only
    identities, verdicts and denominators, and numerators are built for
    the spot-check label and the labels its identity reaches.  The
    wall-clock budget is read before each label and before the
    spot-check."""
    context = DContext(instance)
    deadline = time.monotonic() + (budget or DEFAULT_BUDGET).wall_seconds
    m, n = instance.m, instance.n
    independence = independence_by_exponents(instance)
    rewrites = []
    for label in instance.labels:
        if time.monotonic() > deadline:
            raise BudgetExceeded("wall-clock budget exhausted", {"labels_checked": len(rewrites)})
        rewrites.append({"label": label.text, "verified": context.verdict(label)})
    if time.monotonic() > deadline:
        raise BudgetExceeded("wall-clock budget exhausted", {"labels_checked": len(rewrites)})
    spot = spot_check_label(context)
    spot_check = None
    if spot is not None:
        spot_check = {"label": spot.text, "verified": verify_rewrite(context, spot, context.fraction(spot))}
    dimension = len(context.D)
    size_ok = dimension == n * (m - n + 1) + 1
    verdict = (
        independence.verdict
        and all(r["verified"] for r in rewrites)
        and (spot_check is None or spot_check["verified"])
        and size_ok
    )
    return TransCertificate(
        m=m,
        n=n,
        dimension=dimension,
        independence=independence,
        rewrites=rewrites,
        spot_check=spot_check,
        verdict=verdict,
    )
