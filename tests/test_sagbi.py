"""Initial monomials, toric kernels, the tau order, squarefree leading
terms, and the subduction certificate."""

from __future__ import annotations

import random

import pytest

from resint.labels import M
from resint.poset import incomparable
from resint.residual import build_instance
from resint.sagbi import (
    initial_generators,
    lift_to_generators,
    mam_image,
    semigroup_dimension,
    subduce,
    tau_sequence,
    toric_kernel,
    verify_sagbi,
    verify_squarefree_initial,
)
from resint.ring import GF, IncompatibleField, xvar, yvar


# ---------------------------------------------------------------------------
# initial monomials


def test_initial_generators_22(inst22):
    mam = initial_generators(inst22)
    got = {mam.legend[v].text: mam.targets[v].exponents for v in mam.pring.vars}
    assert got == {
        "Q1": {xvar(1, 2): 1, yvar(2): 1},
        "Q2": {xvar(2, 2): 1, yvar(2): 1},
        "[1,2]": {xvar(1, 1): 1, xvar(2, 2): 1},
    }


def test_initial_generators_42_distinct(inst42):
    mam = initial_generators(inst42)
    monos = [tuple(sorted(m.exponents.items(), key=lambda kv: kv[0].text)) for m in mam.target_list()]
    assert len(monos) == 10
    assert len(set(monos)) == 10


def test_initial_generators_single_column():
    inst = build_instance(4, 1)
    mam = initial_generators(inst)
    for v in mam.pring.vars:
        lab = mam.legend[v]
        if lab.is_q:
            assert mam.targets[v].exponents == {xvar(lab.q_index, 1): 1, yvar(1): 1}
        else:
            assert mam.targets[v].exponents == {xvar(lab.rows[0], 1): 1}


# ---------------------------------------------------------------------------
# semigroup dimension


@pytest.mark.parametrize(
    "m,n,expected",
    [(4, 2, 7), (2, 2, 3), (3, 2, 5), (3, 3, 4), (5, 3, 10)],
)
def test_semigroup_dimension(m, n, expected):
    inst = build_instance(m, n)
    assert semigroup_dimension(initial_generators(inst)) == expected


def test_semigroup_dimension_single_column_records_m_plus_1():
    # the poset recipe would give m+1 witnesses at n=1; the semigroup rank
    # matches that number, while the true witness count is m
    inst = build_instance(4, 1)
    assert semigroup_dimension(initial_generators(inst)) == 5


@pytest.mark.parametrize("m", range(2, 7))
def test_semigroup_dimension_equals_poset_rank(m):
    for n in range(2, m + 1):
        inst = build_instance(m, n)
        assert semigroup_dimension(initial_generators(inst)) == inst.poset.poset_rank()


# ---------------------------------------------------------------------------
# the tau order


def test_tau_sequence_is_linear_extension(inst42):
    seq = tau_sequence(inst42)
    labels = [inst42.labels[k] for k in seq]
    from resint.poset import less_eq

    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            assert not (less_eq(b, a) and a != b)


def test_tau_order_breaks_rank_ties_q_first(inst42):
    seq = tau_sequence(inst42)
    labels = [inst42.labels[k].text for k in seq]
    assert labels.index("Q3") < labels.index("[1,2]")
    assert labels.index("Q4") < labels.index("[1,3]")
    assert labels.index("[1,4]") < labels.index("[2,3]")


def test_tau_order_total_and_multiplicative(inst42):
    mam = initial_generators(inst42)
    ring = mam.pring
    rng = random.Random(5)
    key = ring.order.key
    vars_ = list(ring.vars)
    for _ in range(50):
        a = ring.monomial({v: rng.randint(0, 2) for v in rng.sample(vars_, 3)})
        b = ring.monomial({v: rng.randint(0, 2) for v in rng.sample(vars_, 3)})
        c = ring.monomial({v: rng.randint(0, 2) for v in rng.sample(vars_, 3)})
        ka, kb = key(a.exps), key(b.exps)
        assert (ka > kb) or (kb > ka) or a.exps == b.exps  # total
        if ka > kb:  # multiplicative
            assert key((a * c).exps) > key((b * c).exps)


# ---------------------------------------------------------------------------
# toric kernels


def test_kernel_22_zero(inst22):
    assert not toric_kernel(inst22).generators


def test_kernel_33_zero(inst33):
    assert not toric_kernel(inst33).generators


def test_kernel_refuses_a_prime_field():
    with pytest.raises(IncompatibleField):
        toric_kernel(build_instance(3, 2, field=GF(101)))


def test_kernel_42_contains_minor_pair_binomial(inst42):
    # the underlying monomial identity, checked directly
    mam = initial_generators(inst42)
    by_label = {mam.legend[v].text: mam.targets[v] for v in mam.pring.vars}
    assert by_label["[1,4]"] * by_label["[2,3]"] == by_label["[1,3]"] * by_label["[2,4]"]
    kernel = toric_kernel(inst42)
    pos = {mam.legend[v].text: i for i, v in enumerate(mam.pring.vars)}
    wanted = None
    for g in kernel.generators:
        lm = g._terms[0][0]
        support = {i for i, e in enumerate(lm) if e}
        if support == {pos["[1,4]"], pos["[2,3]"]}:
            wanted = g
    assert wanted is not None and len(wanted) == 2


def test_kernel_42_size_matches_incomparable_pairs(inst42):
    from resint.poset import incomparable_pairs

    kernel = toric_kernel(inst42)
    assert len(kernel.generators) == len(incomparable_pairs(inst42.poset)) == 5


def test_kernel_generators_map_to_zero(inst42):
    kernel = toric_kernel(inst42)
    for g in kernel.generators:
        assert not mam_image(kernel.mam, g)


def test_kernel_generators_are_binomial_differences(inst42):
    kernel = toric_kernel(inst42)
    one = kernel.mam.pring.field.one
    for g in kernel.generators:
        assert len(g) == 2
        coeffs = sorted(c for _, c in g._terms)
        assert coeffs == [-one, one]


def test_kernel_legend_header(inst42):
    lines = toric_kernel(inst42).legend_lines()
    assert lines[0] == "Y[1] = Q1"
    assert lines[-1] == "Y[10] = [3,4]"


# ---------------------------------------------------------------------------
# squarefree leading terms


@pytest.mark.parametrize("m,n", [(4, 2), (3, 3), (3, 2), (2, 2)])
def test_squarefree_initial(m, n):
    inst = build_instance(m, n)
    assert verify_squarefree_initial(toric_kernel(inst))


def test_squarefree_leading_terms_are_incomparable_products(inst42):
    kernel = toric_kernel(inst42)
    mam = kernel.mam
    seen = set()
    for g in kernel.generators:
        lm = g._terms[0][0]
        assert all(e <= 1 for e in lm)
        support = [mam.pring.vars[i] for i, e in enumerate(lm) if e]
        assert len(support) == 2
        a, b = (mam.legend[v] for v in support)
        assert incomparable(a, b)
        seen.add(frozenset((a, b)))
    from resint.poset import incomparable_pairs

    assert seen == {frozenset(p) for p in incomparable_pairs(inst42.poset)}


# ---------------------------------------------------------------------------
# Sagbi subduction


def test_subduction_of_pluecker_lift(inst42):
    # [1,4][2,3] - [1,3][2,4] subduces in one step through -[1,2][3,4]
    f = (
        inst42.polynomials[M([1, 4])] * inst42.polynomials[M([2, 3])]
        - inst42.polynomials[M([1, 3])] * inst42.polynomials[M([2, 4])]
    )
    assert f == -1 * inst42.polynomials[M([1, 2])] * inst42.polynomials[M([3, 4])]
    assert not subduce(inst42, f, mam=initial_generators(inst42))


def test_subduction_remainder_outside_algebra(inst42):
    y1 = inst42.ring.var(yvar(1))
    # y1 alone is not in the monomial algebra
    assert subduce(inst42, y1, mam=initial_generators(inst42)) == y1


@pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (3, 3), (2, 2)])
def test_verify_sagbi(m, n):
    inst = build_instance(m, n)
    assert verify_sagbi(toric_kernel(inst))


def test_kernel_lifts_subduce_to_zero(inst42):
    kernel = toric_kernel(inst42)
    for g in kernel.generators:
        lifted = lift_to_generators(kernel.mam, g)
        assert not subduce(inst42, lifted, mam=kernel.mam)
