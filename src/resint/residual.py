"""The residual-intersection objects: the generator family, the witness
ideal, rank-sum systems of parameters, specializations, and the end-to-end
radical-equality certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .groebner import (
    Budget,
    BudgetExceeded,
    IdealBasis,
    colon_ideal,
    ideal_equal,
    radical_membership,
)
from .labels import GeneratorLabel, canonical_labels
from .poset import BPoset
from .ring import (
    QQ,
    Polynomial,
    PolynomialRing,
    VariableId,
    ambient_ring,
    minor,
    poly_text,
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

    def __init__(self, m: int, n: int, field=QQ, order=None):
        if not (m >= n >= 1):
            raise BadShape(f"need m >= n >= 1, got ({m}, {n})")
        self.m = m
        self.n = n
        self.ring = ambient_ring(m, n, field=field, order=order)
        self.labels: tuple[GeneratorLabel, ...] = tuple(canonical_labels(m, n))
        self.polynomials: dict[GeneratorLabel, Polynomial] = {}
        for lab in self.labels:
            if lab.is_q:
                self.polynomials[lab] = q_entry(self.ring, lab.q_index)
            else:
                self.polynomials[lab] = minor(self.ring, lab.rows)
        self._poset: BPoset | None = None
        self._straighten_cache: dict = {}

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


def build_instance(m: int, n: int, field=QQ, order=None) -> ResidualInstance:
    """Instance with all m + C(m, n) generators realized as polynomials."""
    return ResidualInstance(m, n, field=field, order=order)


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
    sums = []
    for cls in instance.poset.rank_classes():
        acc = instance.ring.zero
        for lab in cls:
            acc = acc + instance.polynomials[lab]
        sums.append(acc)
    return sums


def expected_witness_count(m: int, n: int) -> int:
    return n * (m - n + 1) + 1 if n >= 2 else m


# ---------------------------------------------------------------------------
# certificates


@dataclass
class HsopCertificate:
    """Outcome of the radical-equality verification for one instance."""

    m: int
    n: int
    field: str
    hsop_texts: list[str]
    checks: list[dict]
    verdict: bool

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "field": self.field,
            "hsop": self.hsop_texts,
            "checks": self.checks,
            "verdict": self.verdict,
        }


def verify_ara_witness(instance: ResidualInstance, budget: Budget | None = None) -> HsopCertificate:
    """Certify sqrt(witnesses) = sqrt(residual ideal).

    The containment of the witness ideal is syntactic (every witness is a
    sum of generators); the reverse containment runs radical membership for
    each generator, skipping generators that literally appear in the
    witness list.  If some query blows its budget the remaining queries
    still run and a BudgetExceeded carrying the partial certificate is
    raised at the end.
    """
    witnesses = hsop(instance)
    witness_set = {poly_text(w) for w in witnesses}
    I = IdealBasis(instance.ring, witnesses)
    checks = []
    verdict = True
    budget_stats = None
    for lab in instance.labels:
        g = instance.polynomials[lab]
        if poly_text(g) in witness_set:
            checks.append(
                {"generator": lab.text, "verdict": True, "method": "syntactic", "trace": None}
            )
            continue
        try:
            ok, trace = radical_membership(g, I, budget=budget, with_trace=True)
        except BudgetExceeded as exc:
            budget_stats = exc.stats
            checks.append(
                {
                    "generator": lab.text,
                    "verdict": None,
                    "method": "radical_membership",
                    "budget_exceeded": True,
                    "trace": exc.stats,
                }
            )
            continue
        verdict = verdict and ok
        checks.append(
            {
                "generator": lab.text,
                "verdict": ok,
                "method": "radical_membership",
                "trace": trace.as_dict(),
            }
        )
    cert = HsopCertificate(
        m=instance.m,
        n=instance.n,
        field=instance.field.name,
        hsop_texts=[poly_text(w) for w in witnesses],
        checks=checks,
        verdict=verdict if budget_stats is None else None,
    )
    if budget_stats is not None:
        stats = dict(budget_stats)
        stats["partial_certificate"] = cert.as_dict()
        raise BudgetExceeded("radical-membership budget exhausted", stats)
    return cert


def verify_colon_identity(instance: ResidualInstance, budget: Budget | None = None) -> bool:
    """(X y) : (y) equals the full generator ideal, as literal ideals."""
    ring = instance.ring
    qs = IdealBasis(ring, [q_entry(ring, i) for i in range(1, instance.m + 1)])
    ys = IdealBasis(ring, [ring.var(yvar(j)) for j in range(1, instance.n + 1)])
    computed = colon_ideal(qs, ys, budget=budget)
    return ideal_equal(computed, instance.ideal(), budget=budget)


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
