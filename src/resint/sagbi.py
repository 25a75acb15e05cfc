"""The initial algebra of the generator family.

Leading monomials of the generators, the presentation (toric) kernel of
the monomial algebra they span, generated by the Hibi binomials of the
generator lattice, the tau order on presentation variables,
the squarefree-initial-term witness, and the subduction certificate that
the generators form a Sagbi basis.

All kernel computations run over Q.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import linalg
from .groebner import DEFAULT_BUDGET, Budget, BudgetExceeded, buchberger
from .poset import incomparable, incomparable_pairs, verify_asl1
from .ring import QQ, IncompatibleField, Polynomial, PolynomialRing, TauOrder, pvar
from .residual import ResidualInstance


class SubductionFailure(Exception):
    """A leading monomial could not be cleared by products of generators."""


@dataclass
class MonomialAlgebraMap:
    """Presentation variables Y[k] -> initial monomials of the generators."""

    instance: ResidualInstance
    pring: PolynomialRing
    targets: dict  # VariableId (p-kind) -> ambient exponent tuple
    legend: dict  # VariableId (p-kind) -> GeneratorLabel


def initial_generators(instance: ResidualInstance) -> MonomialAlgebraMap:
    """Leading monomials of every generator, keyed by presentation variable.

    Under the ambient order these are x[i][n]*y[n] for the Q's and the main
    diagonals for the minors.
    """
    pvars = [pvar(k) for k in range(1, len(instance.labels) + 1)]
    pring = PolynomialRing(QQ, pvars, TauOrder(tau_sequence(instance)))
    targets = {}
    legend = {}
    for v, lab in zip(pvars, instance.labels):
        targets[v] = instance.polynomials[lab].leading_monomial()
        legend[v] = lab
    return MonomialAlgebraMap(instance, pring, targets, legend)


def semigroup_dimension(mam: MonomialAlgebraMap) -> int:
    """Rank over Q of the exponent vectors of the target monomials."""
    matrix = [list(mam.targets[v]) for v in mam.pring.vars]
    return linalg.rank(matrix)


def tau_sequence(instance: ResidualInstance) -> list[int]:
    """Ascending presentation-variable sequence: by rank, Q's before minors,
    row sets lexicographic.  A linear extension of the poset order on the
    initial monomials."""
    poset = instance.poset
    order = sorted(
        range(len(instance.labels)),
        key=lambda k: (poset.rank(instance.labels[k]),) + instance.labels[k].sort_key,
    )
    return order


@dataclass
class ToricKernel:
    """Reduced Groebner basis (tau order) of the presentation kernel.

    `hibi` is False when `verify_asl1` refuted its certificate: the kernel
    is then unknown, `generators` is empty, and every check on it fails."""

    mam: MonomialAlgebraMap
    generators: tuple  # Polynomial in the presentation ring
    hibi: bool

    def legend_lines(self) -> list[str]:
        return [
            f"{v.text} = {self.mam.legend[v].text}" for v in self.mam.pring.vars
        ]


def toric_kernel(instance: ResidualInstance, budget: Budget | None = None) -> ToricKernel:
    """Kernel of the presentation-variable map onto the monomial algebra.

    When `verify_asl1` certifies the generator poset as a distributive
    lattice whose leading monomials satisfy the Hibi relations, the kernel
    is generated by the binomials Y_a*Y_b - Y_{a^b}*Y_{a v b}, one per
    incomparable pair; their reduced basis under the tau order is
    returned.  The instance must be over Q.
    """
    if instance.field != QQ:
        raise IncompatibleField(f"the toric kernel runs over Q, not {instance.field.name}")
    mam = initial_generators(instance)
    if not verify_asl1(instance, budget=budget):
        return ToricKernel(mam, (), hibi=False)
    poset = instance.poset
    y = {lab: mam.pring.var(v) for v, lab in mam.legend.items()}
    binomials = [
        y[a] * y[b] - y[poset.meet(a, b)] * y[poset.join(a, b)]
        for a, b in incomparable_pairs(poset)
    ]
    basis = buchberger(binomials, budget=budget).elements if binomials else ()
    return ToricKernel(mam, tuple(basis), hibi=True)


def lift_to_generators(mam: MonomialAlgebraMap, f: Polynomial) -> Polynomial:
    """Replace each presentation variable by its actual generator."""
    instance = mam.instance
    assignment = {
        v: instance.polynomials[mam.legend[v]] for v in mam.pring.vars
    }
    return f.substitute(assignment, instance.ring)


def verify_squarefree_initial(kernel: ToricKernel) -> bool:
    """Leading terms of the reduced kernel basis are squarefree products of
    incomparable presentation-variable pairs."""
    if not kernel.hibi:
        return False
    mam = kernel.mam
    for g in kernel.generators:
        lm = g._terms[0][0]
        if any(e > 1 for e in lm):
            return False
        support = [mam.pring.vars[i] for i, e in enumerate(lm) if e]
        if len(support) != 2:
            return False
        a, b = (mam.legend[v] for v in support)
        if not incomparable(a, b):
            return False
    return True


# ---------------------------------------------------------------------------
# subduction


def _factor_over_semigroup(
    targets: list[tuple[int, tuple[int, ...]]],
    exps: tuple[int, ...],
    memo: dict,
) -> list[int] | None:
    """Express exps as a sum of target exponent vectors (indices, with
    repetition); backtracking over the generators in order."""
    if not any(exps):
        return []
    if exps in memo:
        return memo[exps]
    result = None
    for idx, texp in targets:
        ok = True
        for a, b in zip(texp, exps):
            if a > b:
                ok = False
                break
        if not ok:
            continue
        rest = tuple(b - a for a, b in zip(texp, exps))
        sub = _factor_over_semigroup(targets, rest, memo)
        if sub is not None:
            result = [idx] + sub
            break
    memo[exps] = result
    return result


#: subduction steps one subduce call may take
SUBDUCE_MAX_STEPS = 10_000


def subduce(
    instance: ResidualInstance,
    f: Polynomial,
    mam: MonomialAlgebraMap,
    deadline: float | None = None,
) -> Polynomial:
    """Subduction remainder: repeatedly cancel the leading term by a scalar
    multiple of a product of generators; returns the remainder (0 on a
    successful Sagbi reduction).  Generators are monic, so the scalar is
    just the current leading coefficient.  The clock is read before each
    step when a `time.monotonic()` deadline is given."""
    targets = list(enumerate(mam.targets[v] for v in mam.pring.vars))
    memo: dict = {}
    steps = 0
    while f:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded("wall-clock budget exhausted", {"subduce_steps": steps})
        steps += 1
        if steps > SUBDUCE_MAX_STEPS:
            raise SubductionFailure(f"no termination within {SUBDUCE_MAX_STEPS} steps")
        lm, lc = f._terms[0]
        factorization = _factor_over_semigroup(targets, lm, memo)
        if factorization is None:
            return f
        prod = instance.ring.one
        for idx in factorization:
            prod = prod * instance.polynomials[instance.labels[idx]]
        f = f - prod * lc
    return f


def verify_sagbi(kernel: ToricKernel, budget: Budget | None = None) -> bool:
    """Sagbi certificate by the kernel-lift criterion.

    Every binomial generator of the toric kernel of the initial monomials,
    lifted to the corresponding difference of generator products, must
    subduce to zero; that certifies the initial algebra is generated by the
    initial monomials in every degree at once.  A kernel without its Hibi
    certificate, or a subduction that fails to terminate within its step
    cap, counts as a failed certificate.  The wall-clock budget is read
    before each generator and each subduction step; when it runs out,
    BudgetExceeded counts the generators checked and the steps of the
    subduction under way.
    """
    if not kernel.hibi:
        return False
    mam = kernel.mam
    instance = mam.instance
    deadline = time.monotonic() + (budget or DEFAULT_BUDGET).wall_seconds
    for checked, g in enumerate(kernel.generators):
        stats = {"generators_checked": checked, "subduce_steps": 0}
        if time.monotonic() > deadline:
            raise BudgetExceeded("wall-clock budget exhausted", stats)
        lifted = lift_to_generators(mam, g)
        try:
            remainder = subduce(instance, lifted, mam=mam, deadline=deadline)
        except SubductionFailure:
            return False
        except BudgetExceeded as exc:
            raise BudgetExceeded(str(exc), {**stats, **exc.stats}) from None
        if remainder:
            return False
    return True
