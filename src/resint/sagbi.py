"""The initial algebra of the generator family.

Leading monomials of the generators, the presentation (toric) kernel of
the monomial algebra they span, generated by the Hibi binomials of the
generator lattice, the tau order on presentation variables, the
squarefree-initial-term witness, and subduction.

The Sagbi property and the squarefree initial ideal follow from the two
straightening-law axioms (Hibi, "Distributive lattices, affine semigroup
rings and algebras with straightening laws", 1987; Conca, Herzog and
Valla, "Sagbi bases with applications to blow-up algebras", 1996), so
nothing here runs Buchberger:

- *Sagbi.*  The relations `verify_asl2` verifies, with their least-label
  condition, make the standard monomials span the algebra A (De Concini,
  Eisenbud and Procesi).  The `verify_asl1` certificate gives them
  pairwise distinct leading monomials.  So every nonzero f in A has lm(f)
  equal to the leading monomial of one standard monomial, a product of
  generator leading monomials.
- *Squarefree.*  By the `verify_asl1` certificate, the Hibi binomials B
  generate the kernel and the multichains are a K-basis of K[u]/(B).
  `verify_squarefree_initial` checks that each binomial leads with its
  incomparable product under tau.  The standard monomials of those leads
  are exactly the multichains, so the leads generate in_tau(B), and B is
  the reduced tau-basis: each trailing term is a chain.

`subduce` reduces in the algebra directly; the tests use it to
cross-check the Sagbi verdict.  The kernel is read off the integer
tables, so it is the same for an instance over any field, and its
presentation ring is over Q.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import linalg
from .groebner import BudgetExceeded
from .poset import incomparable, incomparable_pairs
from .ring import QQ, Polynomial, PolynomialRing, TauOrder, pvar
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

    Each is the largest monomial of the generator's packed table under the
    ambient order (`ResidualInstance.lead`): x[i][n]*y[n] for the Q's and
    the main diagonals for the minors.
    """
    pvars = [pvar(k) for k in range(1, len(instance.labels) + 1)]
    pring = PolynomialRing(QQ, pvars, TauOrder(tau_sequence(instance)))
    unpack = instance.packing.unpack
    targets = {}
    legend = {}
    for v, lab in zip(pvars, instance.labels):
        targets[v] = unpack(instance.lead(lab))
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
    """Generators of the presentation kernel, the Hibi binomials.

    `hibi` is False when `verify_asl1` refuted its certificate: the kernel
    is then unknown, `generators` is empty, and every check on it fails."""

    mam: MonomialAlgebraMap
    generators: tuple  # Polynomial in the presentation ring
    hibi: bool

    def legend_lines(self) -> list[str]:
        return [
            f"{v.text} = {self.mam.legend[v].text}" for v in self.mam.pring.vars
        ]


def toric_kernel(instance: ResidualInstance, hibi: bool) -> ToricKernel:
    """Kernel of the presentation-variable map onto the monomial algebra.

    `hibi` is the caller's `verify_asl1` verdict on the instance.  When it
    holds, the Hibi binomials Y_a*Y_b - Y_{a^b}*Y_{a v b}, one per
    incomparable pair, generate the kernel; they are returned sorted by
    the tau key of their leading monomials, and are the reduced tau-basis
    when `verify_squarefree_initial` holds (module docstring).
    """
    mam = initial_generators(instance)
    if not hibi:
        return ToricKernel(mam, (), hibi=False)
    poset = instance.poset
    y = {lab: mam.pring.var(v) for v, lab in mam.legend.items()}
    binomials = [
        y[a] * y[b] - y[poset.meet(a, b)] * y[poset.join(a, b)]
        for a, b in incomparable_pairs(poset)
    ]
    key = mam.pring.order.key
    binomials.sort(key=lambda g: key(g._terms[0][0]))
    return ToricKernel(mam, tuple(binomials), hibi=True)


def verify_squarefree_initial(kernel: ToricKernel) -> bool:
    """Leading terms of the kernel basis are squarefree products of
    incomparable presentation-variable pairs; with the lattice certificate,
    that makes the Hibi binomials the reduced tau-basis (module docstring)."""
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
            prod = prod * instance.polynomial(instance.labels[idx])
        f = f - prod * lc
    return f
