"""The initial algebra of the generator family.

Leading monomials of the generators, the presentation (toric) kernel of
the monomial algebra they span, the tau order on presentation variables,
the squarefree-initial-term witness, and the subduction certificate that
the generators form a Sagbi basis.

All kernel computations run over Q.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .groebner import Budget, IdealBasis, buchberger
from .poset import incomparable
from .ring import (
    QQ,
    BlockOrder,
    Monomial,
    Polynomial,
    PolynomialRing,
    TauOrder,
    pvar,
)
from .residual import ResidualInstance, build_instance


class SubductionFailure(Exception):
    """A leading monomial could not be cleared by products of generators."""


@dataclass
class MonomialAlgebraMap:
    """Presentation variables Y[k] -> initial monomials of the generators."""

    instance: ResidualInstance
    pring: PolynomialRing
    targets: dict  # VariableId (p-kind) -> Monomial in the ambient ring
    legend: dict  # VariableId (p-kind) -> GeneratorLabel

    def target_list(self) -> list[Monomial]:
        return [self.targets[v] for v in self.pring.vars]


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
    matrix = [list(mono.exps) for mono in mam.target_list()]
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


def tau_order(instance: ResidualInstance) -> TauOrder:
    return TauOrder(tau_sequence(instance))


@dataclass
class ToricKernel:
    """Reduced Groebner basis (tau order) of the presentation kernel."""

    mam: MonomialAlgebraMap
    generators: tuple  # Polynomial in the presentation ring

    def is_zero(self) -> bool:
        return not self.generators

    def legend_lines(self) -> list[str]:
        return [
            f"{v.text} = {self.mam.legend[v].text}" for v in self.mam.pring.vars
        ]


def toric_kernel(instance: ResidualInstance, budget: Budget | None = None) -> ToricKernel:
    """Kernel of the presentation-variable map onto the monomial algebra.

    Computed by elimination: the graph ideal (Y_k - target_k) in the
    combined ring, ambient block compared first, presentation block under
    the tau order; the ambient-free part is then re-reduced in the
    presentation ring.
    """
    if instance.field != QQ:
        instance = build_instance(instance.m, instance.n, field=QQ)
    mam = initial_generators(instance)
    ambient = instance.ring
    pring = mam.pring
    combined_vars = ambient.vars + pring.vars
    n_amb = len(ambient.vars)
    tau_positions = [n_amb + i for i in tau_sequence(instance)]
    order = BlockOrder([list(range(n_amb)), tau_positions])
    combined = PolynomialRing(QQ, combined_vars, order)
    gens = []
    for v in pring.vars:
        mono = mam.targets[v]
        mono_poly = ambient._from_dict({mono.exps: QQ.one}, sort=True)
        gens.append(combined.var(v) - mono_poly.convert(combined))
    G = buchberger(gens, budget=budget)
    kernel_gens = []
    for g in G.elements:
        if all(all(e[i] == 0 for i in range(n_amb)) for e, _ in g._terms):
            projected = pring._from_dict(
                {e[n_amb:]: c for e, c in g._terms}, sort=True
            )
            kernel_gens.append(projected)
    if kernel_gens:
        Gk = buchberger(IdealBasis(pring, kernel_gens), budget=budget)
        kernel_gens = list(Gk.elements)
        for g in kernel_gens:
            if len(g) != 2:
                raise AssertionError(f"non-binomial kernel element {g}")
            if mam_image(mam, g):
                raise AssertionError(f"kernel element {g} has nonzero image")
    return ToricKernel(mam, tuple(kernel_gens))


def mam_image(mam: MonomialAlgebraMap, f: Polynomial) -> Polynomial:
    """Image of a presentation polynomial under Y_k -> target monomial."""
    ambient = mam.instance.ring
    assignment = {
        v: ambient._from_dict({mam.targets[v].exps: ambient.field.one}, sort=True)
        for v in mam.pring.vars
    }
    return f.substitute(assignment, ambient)


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


def subduce(
    instance: ResidualInstance,
    f: Polynomial,
    mam: MonomialAlgebraMap | None = None,
    max_steps: int = 10_000,
) -> Polynomial:
    """Subduction remainder: repeatedly cancel the leading term by a scalar
    multiple of a product of generators; returns the remainder (0 on a
    successful Sagbi reduction).  Generators are monic, so the scalar is
    just the current leading coefficient."""
    if mam is None:
        mam = initial_generators(instance)
    targets = [
        (k, mam.targets[v].exps) for k, v in enumerate(mam.pring.vars)
    ]
    memo: dict = {}
    steps = 0
    while f:
        steps += 1
        if steps > max_steps:
            raise SubductionFailure(f"no termination within {max_steps} steps")
        lm, lc = f._terms[0]
        factorization = _factor_over_semigroup(targets, lm, memo)
        if factorization is None:
            return f
        prod = instance.ring.one
        for idx in factorization:
            prod = prod * instance.polynomials[instance.labels[idx]]
        f = f - prod * lc
    return f


def verify_sagbi(kernel: ToricKernel) -> bool:
    """Sagbi certificate by the kernel-lift criterion.

    Every binomial generator of the toric kernel of the initial monomials,
    lifted to the corresponding difference of generator products, must
    subduce to zero; that certifies the initial algebra is generated by the
    initial monomials in every degree at once.  A subduction that fails to
    terminate within its step cap counts as a failed certificate.
    """
    mam = kernel.mam
    instance = mam.instance
    for g in kernel.generators:
        lifted = lift_to_generators(mam, g)
        try:
            remainder = subduce(instance, lifted, mam=mam)
        except SubductionFailure:
            return False
        if remainder:
            return False
    return True
