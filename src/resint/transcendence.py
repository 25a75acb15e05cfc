"""A transcendence basis for the fraction field of the generator algebra.

Builds the distinguished label set D, the monomial specialization that
proves its algebraic independence (by exponent-matrix rank), the signed
quadratic exchange relations among maximal minors, and the rational
rewriting of every generator over D.  Each generator outside D is tabled
from one quadratic identity whose other terms were tabled before it, so
checking each identity once proves every fraction by induction on the
build order.  The certificate tables only the identities and the
denominators; the numerators of one fraction and of the labels it is
built from are built to re-substitute it, on the big cell of the main
minor behind a D-degree guard (`verify_rewrite`), as a check of the
fraction arithmetic.  Everything here runs over Q, and the instance must
be over Q: `DContext` builds `Polynomial`s in the instance's ring.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass

from . import linalg
from .groebner import DEFAULT_BUDGET, Budget, BudgetExceeded, _Packing
from .labels import GeneratorLabel, M, Q
from .poset import Identity, StraighteningRelation, _on_cell, bordered_relation
from .ring import (
    QQ,
    IncompatibleField,
    Polynomial,
    PolynomialRing,
    VariableId,
    pvar,
    xvar,
    yvar,
)
from .residual import ResidualInstance


class StructureViolation(Exception):
    """A specialized basis element failed to be a single signed monomial."""


class BadPluecker(Exception):
    """Malformed index tuples for an exchange relation."""


# ---------------------------------------------------------------------------
# the specialization and the set D


def special_assignment(m: int, n: int, ring: PolynomialRing) -> dict[VariableId, Polynomial]:
    """The specialized matrices: X keeps column 1, the diagonal, and the
    rows below n (zero elsewhere); y becomes the first unit vector."""
    out: dict[VariableId, Polynomial] = {}
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            zero = j != 1 and j != i and i <= n
            out[xvar(i, j)] = ring.zero if zero else ring.var(xvar(i, j))
    for j in range(1, n + 1):
        out[yvar(j)] = ring.one if j == 1 else ring.zero
    return out


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


def closed_form(ring: PolynomialRing, n: int, label: GeneratorLabel) -> Polynomial:
    """The predicted specialization of a D element: Q_i -> x[i][1], the main
    minor -> the diagonal product, M_{i,j} -> (-1)^(n+j) x[i][j] times the
    diagonal with x[j][j] deleted."""
    if label.is_q:
        return ring.var(xvar(label.q_index, 1))
    rows = label.rows
    if rows == tuple(range(1, n + 1)):
        prod = ring.one
        for k in range(1, n + 1):
            prod = prod * ring.var(xvar(k, k))
        return prod
    i = rows[-1]
    j = next(r for r in range(1, n + 1) if r not in rows)
    prod = ring.var(xvar(i, j))
    for k in range(1, n + 1):
        if k != j:
            prod = prod * ring.var(xvar(k, k))
    return prod if (n + j) % 2 == 0 else -prod


def specialize_D(instance: ResidualInstance) -> dict[GeneratorLabel, Polynomial]:
    """Specialize the D polynomials to the special matrices and certify the
    closed forms by exact comparison.

    `special_assignment` sends each variable to 0, to 1 or to itself, so
    the specialization is a bitmask filter on each term of the packed
    table: a term that uses a zeroed variable is dropped, and the exponent
    fields of the variables sent to 1 (only y_1's) are cleared, with terms
    that then coincide summed.  Only the surviving terms are unpacked."""
    m, n, ring = instance.m, instance.n, instance.ring
    assignment = special_assignment(m, n, ring)
    zeroed_mask = ones_mask = 0
    for i, v in enumerate(ring.vars):
        if not assignment[v]:
            zeroed_mask |= _Packing.fields(i)
        elif assignment[v] == ring.one:
            ones_mask |= _Packing.fields(i)
    out: dict[GeneratorLabel, Polynomial] = {}
    for label in build_D(m, n):
        d: dict = {}
        for e, c in instance.packed[label].items():
            if not e & zeroed_mask:
                e &= ~ones_mask
                d[e] = d.get(e, 0) + c
        specialized = instance.unpack({e: c for e, c in d.items() if c})
        predicted = closed_form(ring, n, label)
        if specialized != predicted:
            raise StructureViolation(
                f"{label.text} specialized to {specialized}, expected {predicted}"
            )
        out[label] = specialized
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

    Each specialized element is (up to sign) a single monomial; monomials
    with Q-linearly independent exponent vectors are algebraically
    independent.  Support distinctness is reported alongside as the weaker
    statement the finer counting argument would use.
    """
    specialized = specialize_D(instance)
    rows = []
    supports = set()
    for label, poly in specialized.items():
        if len(poly) != 1:
            raise StructureViolation(f"{label.text} is not a signed monomial")
        exps = poly._terms[0][0]
        rows.append(list(exps))
        supports.add(tuple(i for i, e in enumerate(exps) if e))
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
    """num/den over the D presentation ring; den is a monomial in D."""

    num: Polynomial
    den: tuple[int, ...]  # exponent vector of the denominator monomial

    def __mul__(self, other: "DFraction") -> "DFraction":
        return DFraction(
            self.num * other.num,
            tuple(a + b for a, b in zip(self.den, other.den)),
        )

    def __add__(self, other: "DFraction") -> "DFraction":
        ring = self.num.ring
        lcm = tuple(max(a, b) for a, b in zip(self.den, other.den))
        lift1 = ring._from_dict(
            {tuple(a - b for a, b in zip(lcm, self.den)): ring.field.one}
        )
        lift2 = ring._from_dict(
            {tuple(a - b for a, b in zip(lcm, other.den)): ring.field.one}
        )
        return DFraction(self.num * lift1 + other.num * lift2, lcm)

    def scale(self, c) -> "DFraction":
        return DFraction(self.num * c, self.den)

    def divided_by_var(self, position: int) -> "DFraction":
        den = list(self.den)
        den[position] += 1
        return DFraction(self.num, tuple(den))

    def den_poly(self) -> Polynomial:
        ring = self.num.ring
        return ring._from_dict({self.den: ring.field.one})


class DContext:
    """Rewriting context: the D-ring, positions, and each generator's
    fraction over D, whose denominators are powers of the main minor and of
    Q_1.  `identities` holds, in build order, the quadratic identity each
    generator outside D was tabled from.  Each denominator is tabled with
    its identity; a numerator is built from the identities on demand, as
    the certificate's verdicts read identities and one numerator only.
    The instance must be over Q."""

    def __init__(self, instance: ResidualInstance):
        if instance.field != QQ:
            raise IncompatibleField(f"the D-rewrite runs over Q, not {instance.field.name}")
        self.instance = instance
        self.D = build_D(instance.m, instance.n)
        self.dvars = [pvar(k) for k in range(1, len(self.D) + 1)]
        self.dring = PolynomialRing(QQ, self.dvars)
        self.position = {lab: i for i, lab in enumerate(self.D)}
        self.legend = {v: lab for v, lab in zip(self.dvars, self.D)}
        self._table: dict[GeneratorLabel, DFraction] = {}
        self.identities: dict[GeneratorLabel, StraighteningRelation] = {}
        zero_den = (0,) * len(self.dvars)
        self._den = dict.fromkeys(self.D, zero_den)
        for lab in self.D:
            self._table[lab] = DFraction(self.dring.var(self.dvars[self.position[lab]]), zero_den)

    def denominator(self, label: GeneratorLabel) -> tuple[int, ...]:
        """fraction(label).den, tabled with label's identity."""
        if label not in self._den:
            self._build(label)
        return self._den[label]

    def fraction(self, label: GeneratorLabel) -> DFraction:
        if label not in self._table:
            self.denominator(label)  # records the identity
            identity = self.identities[label]
            acc = None
            for c, (p, q) in identity.right:
                part = (self.fraction(p) * self.fraction(q)).scale(c)
                acc = part if acc is None else acc + part
            pivot = next(lab for lab in identity.left if lab != label)
            self._table[label] = acc.divided_by_var(self.position[pivot])
        return self._table[label]

    def _build(self, label: GeneratorLabel):
        """Table a minor outside D from one quadratic identity with a pivot
        in D: the exchange relation against the main minor when the minor
        contains row 1 (one row above n fewer on every other term), the
        vanishing bordered determinant on rows (1, rows) against Q_1
        otherwise.  Solve it for label * pivot and record it with the
        denominator of (sum c * frac(p) * frac(q)) / pivot: `DFraction`
        never cancels, so that is the componentwise max over the pairs of
        den(p) + den(q), times the pivot."""
        rows = label.rows
        if rows is None:
            raise KeyError(f"{label.text} should already be tabled")
        if rows[0] == 1:
            pivot = M(range(1, self.instance.n + 1))
            terms = plucker_relation(self.instance.ring, rows[:-1], pivot.rows + rows[-1:])
        else:
            pivot = Q(1)
            terms = bordered_relation((1,) + rows)
        identity = StraighteningRelation.solve(terms, (label, pivot))
        sums = [
            map(operator.add, self.denominator(p), self.denominator(q))
            for _, (p, q) in identity.right
        ]
        den = list(map(max, zip(*sums)))
        den[self.position[pivot]] += 1
        self.identities[label] = identity
        self._den[label] = tuple(den)


def _d_degrees_match(context: DContext, label: GeneratorLabel, frac: DFraction) -> bool:
    """Every term of frac.num has the (number of minors, number of Qs) of
    label * frac.den, read off the D exponent vectors."""

    def degrees(exps):
        minors = sum(e for e, lab in zip(exps, context.D) if not lab.is_q)
        return minors, sum(exps) - minors

    minors, qs = degrees(frac.den)
    target = (minors + (not label.is_q), qs + label.is_q)
    return all(degrees(e) == target for e, _ in frac.num._terms)


def verify_rewrite(context: DContext, label: GeneratorLabel, frac: DFraction) -> bool:
    """Cleared-denominator identity poly(label) * den == num, with the D
    polynomials substituted, checked on the big cell of the main minor:
    rows R0 = 1..n of X set to the identity (`poset._on_cell`, whose packed
    terms are unpacked into `Polynomial`s here).  There
    [1..n] is 1, each M_{i,j} is +-x[i][j] and Q_1 is y_1, so the
    substitution is small.

    A D-degree guard runs first: every term of num must have the numbers
    of minors and of Qs that label * den has, read off the exponent
    vectors.  Then the cell verdict is exact.  Under X -> Xg, y -> g^-1 y
    for g in GL_n, a minor scales by det g and each Q_i = (X y)_i is
    invariant, so with a minors in every term the difference
    f = poly(label) * den - num is a semi-invariant of the one weight a:
    f(Xg, g^-1 y) = det(g)^a f(X, y).  Take g = X_R0^-1 and d = det X_R0:
    in Q[X, y][1/d], f(X, y) = d^a f(X X_R0^-1, X_R0 y), and the rows R0
    of X X_R0^-1 are the identity, so the right side is f's cell
    polynomial evaluated at the other rows of X X_R0^-1 and at X_R0 y.  If
    that polynomial is 0, so is f, since Q[X, y] is a domain; the converse
    is restriction.  Nothing here uses the field, so the cell verdict is
    exact over every field.  (The same argument, split by y-degree, is in
    `StraighteningRelation._reexpands`.)  Without the guard the cell
    misses a numerator such as num + den * ([1..n] - 1), which vanishes
    there.  The full-space substitution is kept as a cross-check in the
    tests."""
    if not _d_degrees_match(context, label, frac):
        return False
    instance = context.instance
    ring = instance.ring
    cell = tuple(range(1, instance.n + 1))
    unpack = instance.packing.unpack

    def on_cell(lab: GeneratorLabel) -> Polynomial:
        return ring._from_dict({unpack(e): c for e, c in _on_cell(instance, lab, cell).items()})

    assignment = {v: on_cell(context.legend[v]) for v in context.dvars}
    num = frac.num.substitute(assignment, ring)
    den = frac.den_poly().substitute(assignment, ring)
    return on_cell(label) * den == num


def spot_check_label(context: DContext) -> GeneratorLabel | None:
    """The one label whose fraction `verify_rewrite` re-substitutes: the
    first tabled label in canonical order whose denominator carries both
    the main minor and Q_1, else the first tabled label; None when every
    label is in D (m = n).  It reads denominators only."""
    main = context.position[M(range(1, context.instance.n + 1))]
    q1 = context.position[Q(1)]
    built = [lab for lab in context.instance.labels if lab not in context.position]
    both = (lab for lab in built if all(context.denominator(lab)[k] for k in (main, q1)))
    return next(both, built[0] if built else None)


def _prefix(frac: DFraction) -> list:
    """A fraction as an expression tree in prefix notation (nested lists),
    as demo 05 prints it and the `d_table.json` golden file records it."""
    ring = frac.num.ring

    def mono_tree(exps):
        factors = []
        for v, e in zip(ring.vars, exps):
            for _ in range(e):
                factors.append(v.text)
        if not factors:
            return "1"
        if len(factors) == 1:
            return factors[0]
        return ["*"] + factors

    terms = []
    for e, c in frac.num._terms:
        terms.append(["*", str(c), mono_tree(e)])
    num_tree = terms[0] if len(terms) == 1 else ["+"] + terms
    if not any(frac.den):
        return num_tree
    return ["/", num_tree, mono_tree(frac.den)]


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
    such identity re-expands exactly (`StraighteningRelation.verify`, a
    degree-2 check), every fraction equals its generator by induction on
    the build order, provided the `DFraction` arithmetic is right.  That
    arithmetic is checked by substituting D into one fraction
    (`verify_rewrite`, on `spot_check_label`), on the big cell of the main
    minor after a D-degree guard, which decides the identity in all of
    Q[X, y].  No other verdict reads a numerator, so the label loop tables
    only identities and denominators (`DContext.denominator`), and
    numerators are built for the spot-check label and the labels its
    identity reaches.  The instance must be over Q.  The wall-clock budget
    is read before each label and before the spot-check."""
    context = DContext(instance)
    deadline = time.monotonic() + (budget or DEFAULT_BUDGET).wall_seconds
    m, n = instance.m, instance.n
    independence = independence_by_exponents(instance)
    rewrites = []
    for label in instance.labels:
        if time.monotonic() > deadline:
            raise BudgetExceeded("wall-clock budget exhausted", {"labels_checked": len(rewrites)})
        context.denominator(label)  # tables the label's identity
        ok = label in context.position or context.identities[label].verify(instance)
        rewrites.append({"label": label.text, "verified": ok})
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
