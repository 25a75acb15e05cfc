"""The initial algebra of the generator family.

Leading monomials of the generators, the presentation (toric) kernel of
the monomial algebra they span, generated by the Hibi binomials of the
generator lattice, the tau order on presentation variables, the
squarefree-initial-term check, and subduction.

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
- *Squarefree.*  By the `verify_asl1` certificate, the Hibi binomials B,
  Y_a*Y_b - Y_{a^b}*Y_{a v b} for each incomparable pair, generate the
  kernel, and the multichains are a K-basis of K[u]/(B).  The rank rises
  by exactly one on every cover (`BPoset`), and `tau_sequence` sorts by
  rank, so tau is a linear extension of the poset order.  The meet a^b
  lies strictly below a and b, and so below a v b: it is the tau-smallest
  of the four labels.  Grevlex over tau puts last the term that holds the
  tau-smallest variable, so Y_{a^b}*Y_{a v b} trails and each binomial
  leads with its squarefree incomparable product.  The standard monomials
  of those leads are exactly the multichains, so the leads generate
  in_tau(B), and B is the reduced tau-basis: each trailing term is a
  chain.  `verify_squarefree_initial` checks the one fact the argument
  reads off the order, that tau rises along every cover.

The kernel holds each binomial as labels, the lead pair (a, b) and the
trail pair (a^b, a v b), sorted as the tau key sorts two squarefree
leads: by the earlier, then the later, tau position of the lead.  No
presentation ring and no `Polynomial` is built; its texts are written
from the labels' canonical indices.  `tests/references.py` builds the
same binomials as `Polynomial`s in the presentation ring under
`TauOrder` and checks their leading terms, as a cross-check.  The kernel
reads only labels and the poset, so it is the same for an instance over
any field.

`initial_generators` and `subduce` reduce in the algebra directly; the
tests use them to cross-check the Sagbi verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import linalg
from .groebner import BudgetExceeded
from .labels import GeneratorLabel
from .poset import incomparable_pairs
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
    """Leading monomials of every generator, keyed by presentation variable
    of a ring under the tau order: what `subduce` factors over.

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


def semigroup_dimension(instance: ResidualInstance) -> int:
    """Rank over Q of the exponent vectors of the generators' leading
    monomials."""
    unpack = instance.packing.unpack
    return linalg.rank([unpack(instance.lead(lab)) for lab in instance.labels])


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


#: one Hibi binomial: the lead pair (a, b), then the trail pair (a^b, a v b)
Binomial = tuple[tuple[GeneratorLabel, GeneratorLabel], tuple[GeneratorLabel, GeneratorLabel]]


@dataclass
class ToricKernel:
    """Generators of the presentation kernel, the Hibi binomials, on labels.

    `tau` is the tau position of each label, by canonical index.  `hibi`
    is False when `verify_asl1` refuted its certificate: the kernel is
    then unknown, `generators` is empty, and every check on it fails."""

    instance: ResidualInstance
    tau: tuple[int, ...]
    generators: tuple[Binomial, ...]
    hibi: bool

    def legend_lines(self) -> list[str]:
        return [f"Y[{k}] = {lab.text}" for k, lab in enumerate(self.instance.labels, start=1)]

    def binomial_lines(self) -> list[str]:
        """Each binomial as Y[i]*Y[j] - Y[k]*Y[l], by the labels' 1-based
        canonical indices, each product's ascending: the text of the
        binomial in the presentation ring under the tau order when the
        lead pair leads there (`verify_squarefree_initial`)."""
        name = {lab: k for k, lab in enumerate(self.instance.labels, start=1)}

        def product(pair) -> str:
            i, j = sorted((name[pair[0]], name[pair[1]]))
            return f"Y[{i}]*Y[{j}]"

        return [f"{product(lead)} - {product(trail)}" for lead, trail in self.generators]


def toric_kernel(instance: ResidualInstance, hibi: bool) -> ToricKernel:
    """Kernel of the presentation-variable map onto the monomial algebra.

    `hibi` is the caller's `verify_asl1` verdict on the instance.  When it
    holds, the Hibi binomials Y_a*Y_b - Y_{a^b}*Y_{a v b}, one per
    incomparable pair, generate the kernel; they are returned sorted by
    the tau positions of their lead pairs, earlier then later, and are the
    reduced tau-basis when `verify_squarefree_initial` holds (module
    docstring).
    """
    tau = [0] * len(instance.labels)
    for position, k in enumerate(tau_sequence(instance)):
        tau[k] = position
    if not hibi:
        return ToricKernel(instance, tuple(tau), (), hibi=False)
    poset = instance.poset
    index = {lab: k for k, lab in enumerate(instance.labels)}

    def lead_key(pair) -> tuple[int, int]:
        s, t = tau[index[pair[0]]], tau[index[pair[1]]]
        return (s, t) if s < t else (t, s)

    pairs = sorted(incomparable_pairs(poset), key=lead_key)
    binomials = tuple(((a, b), (poset.meet(a, b), poset.join(a, b))) for a, b in pairs)
    return ToricKernel(instance, tuple(tau), binomials, hibi=True)


def verify_squarefree_initial(kernel: ToricKernel) -> bool:
    """Each kernel binomial leads with its squarefree incomparable product
    under tau, and with the lattice certificate the binomials are the
    reduced tau-basis: true when the certificate holds and tau rises along
    every cover, so that it is a linear extension (module docstring)."""
    tau = kernel.tau
    return kernel.hibi and all(tau[i] < tau[j] for i, j in kernel.instance.poset._cover_pairs())


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
