"""A transcendence basis for the fraction field of the generator algebra.

Builds the distinguished label set D, the monomial specialization that
proves its algebraic independence (by exponent-matrix rank), the signed
quadratic exchange relations among maximal minors, and the rational
rewriting of every generator over D with exact cleared-denominator
verification.  Everything here runs over Q.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import linalg
from .labels import GeneratorLabel, M, Q
from .ring import (
    QQ,
    Polynomial,
    PolynomialRing,
    VariableId,
    pvar,
    singular_expansion,
    xvar,
    yvar,
)
from .residual import ResidualInstance, build_instance


class StructureViolation(Exception):
    """A specialized basis element failed to be a single signed monomial."""


class BadPluecker(Exception):
    """Malformed index tuples for an exchange relation."""


# ---------------------------------------------------------------------------
# the specialization and the set D


@dataclass(frozen=True)
class SpecialMatrixPair:
    """The specialized matrices: X keeps column 1, the diagonal, and the
    rows below n (zero elsewhere); y becomes the first unit vector."""

    m: int
    n: int
    Xprime: tuple  # m rows of n Polynomial entries
    yprime: tuple  # n Polynomial entries: (1, 0, ..., 0)

    def assignment(self) -> dict[VariableId, Polynomial]:
        out: dict[VariableId, Polynomial] = {}
        for i in range(1, self.m + 1):
            for j in range(1, self.n + 1):
                out[xvar(i, j)] = self.Xprime[i - 1][j - 1]
        for j in range(1, self.n + 1):
            out[yvar(j)] = self.yprime[j - 1]
        return out


def special_pair(m: int, n: int, ring: PolynomialRing) -> SpecialMatrixPair:
    rows = []
    for i in range(1, m + 1):
        row = []
        for j in range(1, n + 1):
            if j != 1 and j != i and i <= n:
                row.append(ring.zero)
            else:
                row.append(ring.var(xvar(i, j)))
        rows.append(tuple(row))
    yprime = tuple(ring.one if j == 1 else ring.zero for j in range(1, n + 1))
    return SpecialMatrixPair(m, n, tuple(rows), yprime)


def special_assignment(m: int, n: int, ring: PolynomialRing) -> dict[VariableId, Polynomial]:
    return special_pair(m, n, ring).assignment()


@dataclass(frozen=True)
class TransBasisD:
    """The candidate transcendence basis: row-exchange minors M_{i,j} for
    n < i <= m and 2 <= j <= n, the main minor [1..n], and all Q's."""

    m: int
    n: int
    labels: tuple[GeneratorLabel, ...]

    def __len__(self):
        return len(self.labels)


def mirror_minor(n: int, i: int, j: int) -> GeneratorLabel:
    """M_{i,j}: delete row j from 1..n and append row i."""
    rows = tuple(r for r in range(1, n + 1) if r != j) + (i,)
    return M(rows)


def build_D(m: int, n: int) -> TransBasisD:
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
    return TransBasisD(m, n, tuple(labels))


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
    """Substitute the special matrices into the D polynomials and certify
    the closed forms by exact comparison."""
    m, n, ring = instance.m, instance.n, instance.ring
    assignment = special_assignment(m, n, ring)
    out: dict[GeneratorLabel, Polynomial] = {}
    for label in build_D(m, n).labels:
        specialized = instance.polynomials[label].substitute(assignment, ring)
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


@dataclass(frozen=True)
class PluckerTerm:
    coeff: int  # signed; 0 for the degenerate repeated-row terms
    rows_a: tuple[int, ...] | None  # sorted, None when degenerate
    rows_b: tuple[int, ...]


@dataclass
class PluckerRecord:
    """The signed quadratic relation attached to an (n-1)/(n+1) tuple pair."""

    rows_small: tuple[int, ...]
    rows_big: tuple[int, ...]
    terms: tuple[PluckerTerm, ...]

    def expand(self, ring: PolynomialRing) -> Polynomial:
        from .ring import minor

        acc = ring.zero
        for t in self.terms:
            if t.coeff == 0:
                continue
            acc = acc + minor(ring, t.rows_a) * minor(ring, t.rows_b) * t.coeff
        return acc

    def verify(self, ring: PolynomialRing) -> bool:
        return not self.expand(ring)


def plucker_relation(
    ring: PolynomialRing, rows_small, rows_big
) -> PluckerRecord:
    """The exchange relation: moving each element s of the big tuple into
    the small tuple, with alternating signs and the convention that a
    repeated row contributes 0.  The expanded sum is identically zero."""
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
        position_sign = 1 if (t - 1) % 2 == 0 else -1
        complement = tuple(r for r in rows_big if r != s)
        if s in rows_small:
            terms.append(PluckerTerm(0, None, complement))
            continue
        sort_sign = 1 if sum(1 for a in rows_small if a > s) % 2 == 0 else -1
        merged = tuple(sorted(rows_small + (s,)))
        terms.append(PluckerTerm(position_sign * sort_sign, merged, complement))
    return PluckerRecord(rows_small, rows_big, tuple(terms))


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
    """Rewriting context: the D-ring, positions, and the lookup table."""

    def __init__(self, instance: ResidualInstance):
        if instance.field != QQ:
            instance = build_instance(instance.m, instance.n, field=QQ)
        self.instance = instance
        self.D = build_D(instance.m, instance.n)
        self.dvars = [pvar(k) for k in range(1, len(self.D.labels) + 1)]
        self.dring = PolynomialRing(QQ, self.dvars)
        self.position = {lab: i for i, lab in enumerate(self.D.labels)}
        self.legend = {v: lab for v, lab in zip(self.dvars, self.D.labels)}
        self._table: dict[GeneratorLabel, DFraction] = {}
        zero_den = (0,) * len(self.dvars)
        for lab in self.D.labels:
            self._table[lab] = DFraction(self.dring.var(self.dvars[self.position[lab]]), zero_den)

    def assignment(self) -> dict[VariableId, Polynomial]:
        return {
            v: self.instance.polynomials[self.legend[v]] for v in self.dvars
        }

    def fraction(self, label: GeneratorLabel) -> DFraction:
        if label not in self._table:
            self._build(label)
        return self._table[label]

    # -- the two rewriting phases ------------------------------------------

    def _build(self, label: GeneratorLabel):
        m, n = self.instance.m, self.instance.n
        rows = label.rows
        if rows is None:
            raise KeyError(f"{label.text} should already be tabled")
        if rows[0] == 1:
            self._build_row1(label)
        else:
            self._build_row1_free(label)

    def _build_row1(self, label: GeneratorLabel):
        """Minors containing row 1: descend through the exchange relation
        against the main minor, reducing the count of rows above n."""
        m, n = self.instance.m, self.instance.n
        rows = label.rows
        bigs = [r for r in rows if r > n]
        small_part = tuple(r for r in rows if r <= n)
        a_tuple = tuple(sorted(small_part + tuple(bigs[:-1])))
        c_tuple = tuple(range(1, n + 1)) + (bigs[-1],)
        rec = plucker_relation(self.instance.ring, a_tuple, c_tuple)
        main = M(tuple(range(1, n + 1)))
        target_coeff = None
        acc = None
        for t in rec.terms:
            if t.coeff == 0:
                continue
            if t.rows_a == rows and t.rows_b == main.rows:
                target_coeff = t.coeff
                continue
            part = self.fraction(M(t.rows_a)) * self.fraction(M(t.rows_b))
            part = part.scale(t.coeff)
            acc = part if acc is None else acc + part
        if target_coeff is None:
            raise AssertionError(f"exchange relation missed {label.text}")
        # target * main = -acc  =>  target = -acc / (coeff * main)
        acc = acc.scale(QQ.div(-1, target_coeff))
        self._table[label] = acc.divided_by_var(self.position[main])

    def _build_row1_free(self, label: GeneratorLabel):
        """Minors missing row 1: expand the singular bordered matrix on
        rows (1, j1..jn) along its Q column and divide by Q_1."""
        rows = label.rows
        expansion = singular_expansion(self.instance.ring, (1,) + rows)
        target_sign = None
        acc = None
        for sign, q_idx, complement in expansion.terms:
            if q_idx == 1 and complement == rows:
                target_sign = sign
                continue
            part = self.fraction(Q(q_idx)) * self.fraction(M(complement))
            part = part.scale(sign)
            acc = part if acc is None else acc + part
        # sign * [rows] * Q1 + acc = 0
        acc = acc.scale(QQ.div(-1, target_sign))
        self._table[label] = acc.divided_by_var(self.position[Q(1)])


def rewrite_in_D(instance: ResidualInstance, label: GeneratorLabel, context: DContext | None = None) -> DFraction:
    """Rational expression for a generator over D; denominators are powers
    of the main minor and of Q_1."""
    context = context or DContext(instance)
    return context.fraction(label)


def verify_rewrite(context: DContext, label: GeneratorLabel, frac: DFraction) -> bool:
    """Cleared-denominator identity: poly(label) * subst(den) == subst(num)."""
    instance = context.instance
    assignment = context.assignment()
    num = frac.num.substitute(assignment, instance.ring)
    den = frac.den_poly().substitute(assignment, instance.ring)
    return instance.polynomials[label] * den == num


def _prefix(frac: DFraction) -> list:
    """Expression tree in prefix notation for the JSON certificate."""
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
    verdict: bool

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "dimension": self.dimension,
            "independence": {
                "size": self.independence.size,
                "rank": self.independence.rank,
                "supports_distinct": self.independence.supports_distinct,
            },
            "rewrites": self.rewrites,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def verify_transcendence_basis(instance: ResidualInstance, verbose: bool = False) -> TransCertificate:
    """The full certificate: monomial independence of the specialized D,
    every generator rewritten over D with the identity checked exactly, and
    the size count n(m-n+1)+1 -- an independent derivation of the dimension.
    The certificate runs over Q, on the instance's Q twin if it has another
    field."""
    context = DContext(instance)
    instance = context.instance
    m, n = instance.m, instance.n
    independence = independence_by_exponents(instance)
    rewrites = []
    all_ok = True
    for label in instance.labels:
        frac = context.fraction(label)
        ok = verify_rewrite(context, label, frac)
        all_ok = all_ok and ok
        entry = {
            "label": label.text,
            "verified": ok,
            "expression": _prefix(frac),
        }
        if verbose:
            assignment = context.assignment()
            entry["cleared_identity"] = "{} * ({}) = {}".format(
                label.text,
                frac.den_poly().substitute(assignment, instance.ring),
                frac.num.substitute(assignment, instance.ring),
            )
        rewrites.append(entry)
    dimension = len(context.D.labels)
    size_ok = dimension == n * (m - n + 1) + 1
    verdict = independence.verdict and all_ok and size_ok
    return TransCertificate(
        m=m,
        n=n,
        dimension=dimension,
        independence=independence,
        rewrites=rewrites,
        verdict=verdict,
    )
