"""The residual-intersection objects: the generator family, the witness
ideal, rank-sum systems of parameters, specializations, and the end-to-end
radical-equality and colon-identity certificates.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Mapping

from .groebner import DEFAULT_BUDGET, Budget, BudgetExceeded, IdealBasis, buchberger
from .labels import GeneratorLabel, M, Q, canonical_labels
from .poset import BPoset, straighten
from .ring import (
    QQ,
    GrevLex,
    IncompatibleField,
    Polynomial,
    PolynomialRing,
    VariableId,
    ambient_ring,
    det_laplace,
    minor,
    q_entry,
    xvar,
    yvar,
)


class BadShape(Exception):
    """Raised when m < n."""


class BadAssignment(Exception):
    """Raised for partial specialization assignments."""


class ResidualInstance:
    """All generators of the witness algebra for one (m, n), realized.

    Carries the ambient ring (ordered so the two leading-monomial formulas
    hold), the canonical label list (Q1..Qm then minors in lexicographic
    row order -- golden files depend on this), and the label -> polynomial
    map.
    """

    def __init__(self, m: int, n: int, field=QQ):
        if not (m >= n >= 1):
            raise BadShape(f"need m >= n >= 1, got ({m}, {n})")
        self.m = m
        self.n = n
        self.ring = ambient_ring(m, n, field=field)
        self.labels: tuple[GeneratorLabel, ...] = tuple(canonical_labels(m, n))
        self.polynomials: dict[GeneratorLabel, Polynomial] = {}
        for lab in self.labels:
            if lab.is_q:
                self.polynomials[lab] = q_entry(self.ring, lab.q_index)
            else:
                self.polynomials[lab] = minor(self.ring, lab.rows)
        self._poset: BPoset | None = None
        # by row pattern, for the instance's life: `poset.straighten`, `.verify`
        self._straighten_table: dict = {}
        self._verified: dict = {}

    @property
    def field(self):
        return self.ring.field

    @property
    def poset(self) -> BPoset:
        if self._poset is None:
            self._poset = BPoset(self.m, self.n)
        return self._poset

    def generators(self) -> list[Polynomial]:
        return [self.polynomials[lab] for lab in self.labels]

    def ideal(self) -> IdealBasis:
        return IdealBasis(self.ring, self.generators())

    def __repr__(self):
        return f"ResidualInstance(m={self.m}, n={self.n}, {self.field.name})"


def build_instance(m: int, n: int, field=QQ) -> ResidualInstance:
    """Instance with all m + C(m, n) generators realized as polynomials."""
    return ResidualInstance(m, n, field=field)


# ---------------------------------------------------------------------------
# the rank-sum witness family


def hsop(instance: ResidualInstance) -> list[Polynomial]:
    """The arithmetic-rank witnesses.

    For n >= 2: for each rank r the sum of all generators of that rank,
    n(m-n+1)+1 polynomials in all.  For n = 1 the poset recipe would give
    m+1 elements, one more than the true arithmetic rank, so that case
    returns the m column variables x[1][1], ..., x[m][1] instead.
    """
    if instance.n == 1:
        return [instance.ring.var(xvar(i, 1)) for i in range(1, instance.m + 1)]
    # one sort per class: adding the polynomials one by one re-sorts the
    # growing sum for every generator
    ring = instance.ring
    add = ring.field.add
    sums = []
    for cls in instance.poset.rank_classes():
        acc: dict = {}
        for lab in cls:
            for e, c in instance.polynomials[lab]._terms:
                acc[e] = add(acc[e], c) if e in acc else c
        sums.append(ring._from_dict(acc))
    return sums


def expected_witness_count(m: int, n: int) -> int:
    return n * (m - n + 1) + 1 if n >= 2 else m


# ---------------------------------------------------------------------------
# certificates


@dataclass
class HsopCertificate:
    """The radical-equality certificate of one instance: the identities it
    rests on, each with its verdict.  They have integer coefficients, so the
    certificate holds over Z and in every characteristic."""

    m: int
    n: int
    relations: list[dict]
    verdict: bool | None

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "holds_over": "Z",
            "relations": self.relations,
            "verdict": self.verdict,
        }


def verify_ara_witness(instance: ResidualInstance, budget: Budget | None = None) -> HsopCertificate:
    """Certify sqrt(witnesses) = sqrt(residual ideal) over Z.

    Every witness is a sum of generators, so one containment is immediate.
    The other goes by induction on rank.  The bottom rank class is Q1, the
    witness s_1.  For gamma of rank r >= 2,

        gamma^2 = gamma * s_r - sum over the other delta of rank r of gamma * delta,

    and each gamma * delta is an incomparable product that straightens into
    products whose first factor lies strictly below gamma, so has lower rank
    and is in the radical already.  Each same-rank pair's relation must
    re-expand, satisfy the least-label condition and have int coefficients:
    then it holds in Z[X, y], and the induction in every characteristic.
    For n = 1 the witnesses are the minors [i] and Q_i = y_1 * [i].

    The instance must be over Q.  The wall-clock budget is read after each
    relation; when it runs out, BudgetExceeded carries the relations checked
    so far as a partial certificate.
    """
    if instance.field != QQ:
        raise IncompatibleField(f"the radical certificate runs over Q, not {instance.field.name}")
    deadline = time.monotonic() + (budget or DEFAULT_BUDGET).wall_seconds
    relations: list[dict] = []
    if instance.n == 1:
        y1 = instance.ring.var(yvar(1))
        verdict = True
        for i, w in enumerate(hsop(instance), start=1):
            ok = instance.polynomials[M((i,))] == w and instance.polynomials[Q(i)] == y1 * w
            verdict = verdict and ok
            relations.append(
                {"pair": [f"Q{i}", f"[{i}]"], "rank": None, "relation": f"Q{i} = y1*[{i}]", "verdict": ok}
            )
        return HsopCertificate(instance.m, instance.n, relations, verdict)
    classes = instance.poset.rank_classes()
    verdict = classes[0] == [Q(1)]
    for rank, cls in enumerate(classes, start=1):
        for a, b in itertools.combinations(cls, 2):
            rel = straighten(instance, a, b)
            ok = (
                all(type(c) is int for c, _ in rel.right)
                and rel.min_label_condition()
                and rel.verify(instance)
            )
            verdict = verdict and ok
            relations.append(
                {"pair": [a.text, b.text], "rank": rank, "relation": rel.text, "verdict": ok}
            )
            if time.monotonic() > deadline:
                partial = HsopCertificate(instance.m, instance.n, relations, None)
                raise BudgetExceeded(
                    "wall-clock budget exhausted",
                    {"relations_checked": len(relations), "partial_certificate": partial.as_dict()},
                )
    return HsopCertificate(instance.m, instance.n, relations, verdict)


def verify_colon_identity(instance: ResidualInstance, budget: Budget | None = None) -> bool:
    """Certify (X y) : (y) = J, where J = I_n(X) + (X y) is the generator ideal.

    Two facts make the proof:

    - J : y1 = J.  J is homogeneous, and y1 is the smallest variable of the
      ambient grevlex order (first in `ambient_variables`, and the key is
      (degree, -exponents)), so by Bayer-Stillman in(J : y1) = in(J) : y1.
      A monomial ideal is its own colon by y1 exactly when no minimal
      generator contains y1, and the leading monomials of the reduced
      grevlex basis of J are the minimal generators of in(J).
    - J is in (X y) : (y).  For each n-row set R and each column j,
      Cramer's rule gives y_j * [R] = det of X_R with column j replaced by
      the column (Q_r) for r in R; that determinant is linear in the Q_r, so
      it lies in (X y).  Each identity is checked as polynomials.

    Then (X y) : (y) is in (X y) : y1, which is in J : y1 = J.  A false
    verdict means the certificate failed, not that the identity does.

    The basis run spends the pair, term and wall budgets as any Buchberger
    run does; the Cramer loop reads the clock once per row set.  A budget
    hit carries the basis run's trace and the number of row sets checked.
    """
    deadline = time.monotonic() + (budget or DEFAULT_BUDGET).wall_seconds
    try:
        G = buchberger(instance.ideal(), order=GrevLex(), budget=budget)
    except BudgetExceeded as exc:
        raise BudgetExceeded(str(exc), {**exc.stats, "row_sets_checked": 0}) from None
    y1 = instance.ring.index[yvar(1)]
    verdict = all(g.leading_monomial()[y1] == 0 for g in G.elements)
    ring, n = instance.ring, instance.n
    ys = [ring.var(yvar(j)) for j in range(1, n + 1)]
    for checked, rows in enumerate(itertools.combinations(range(1, instance.m + 1), n)):
        if time.monotonic() > deadline:
            raise BudgetExceeded(
                "wall-clock budget exhausted", {**G.trace.as_dict(), "row_sets_checked": checked}
            )
        qs = [instance.polynomials[Q(r)] for r in rows]
        x = [[ring.var(xvar(r, k)) for k in range(1, n + 1)] for r in rows]
        for j in range(n):
            replaced = [row[:j] + [q] + row[j + 1 :] for row, q in zip(x, qs)]
            ok = ys[j] * instance.polynomials[M(rows)] == det_laplace(ring, replaced)
            verdict = verdict and ok
    return verdict


# ---------------------------------------------------------------------------
# specialization


def specialize(
    instance: ResidualInstance,
    assignment: Mapping[VariableId, Polynomial],
    target: PolynomialRing,
) -> tuple[IdealBasis, list[Polynomial]]:
    """Push the generators and witnesses through a total substitution.

    Whether the image ideal is again a bona fide residual intersection is
    not checked; downstream radical-containment checks are the caller's
    business.
    """
    missing = [v for v in instance.ring.vars if v not in assignment]
    if missing:
        raise BadAssignment(
            "assignment missing " + ", ".join(v.text for v in missing)
        )
    spec_gens = [
        instance.polynomials[lab].substitute(assignment, target)
        for lab in instance.labels
    ]
    if all(not g for g in spec_gens):
        raise BadAssignment("specialization sent every generator to zero")
    spec_hsop = [w.substitute(assignment, target) for w in hsop(instance)]
    return IdealBasis(target, [g for g in spec_gens if g]), spec_hsop


def identity_assignment(instance: ResidualInstance) -> dict[VariableId, Polynomial]:
    return {v: instance.ring.var(v) for v in instance.ring.vars}


# ---------------------------------------------------------------------------
# the upper-bound comparison table


def upper_bound_table(max_m: int) -> list[dict]:
    """Rows (m, n, naive, witness_count, difference) for all n <= m <= max_m.

    naive is the subadditive bound (mn - n^2 + 1) + m; the witness column
    is n(m-n+1)+1; their gap is exactly m - n, which is asserted.
    """
    if max_m < 2:
        raise ValueError("need max_m >= 2")
    rows = []
    for m in range(1, max_m + 1):
        for n in range(1, m + 1):
            naive = (m * n - n * n + 1) + m
            bound = n * (m - n + 1) + 1
            diff = naive - bound
            assert diff == m - n, f"gap identity failed at ({m}, {n})"
            rows.append(
                {"m": m, "n": n, "naive": naive, "bound": bound, "difference": diff}
            )
    return rows
