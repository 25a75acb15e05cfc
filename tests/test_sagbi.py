"""Initial monomials, toric kernels, the tau order, squarefree leading
terms, the Sagbi verdict, and subduction as its cross-check."""

from __future__ import annotations

import itertools
import random
import time
import types

import pytest

from references import (
    elimination_kernel,
    lift_to_generators,
    mam_image,
    polynomial_kernel,
    sagbi_by_subduction,
    squarefree_by_leading_terms,
)
from resint import groebner
from resint import sagbi as sagbi_module
from resint.cli import RunConfig, cmd_verify
from resint.groebner import BudgetExceeded
from resint.labels import M, Q
from resint.poset import incomparable, incomparable_pairs, verify_asl1, verify_asl2
from resint.residual import build_instance
from resint.sagbi import (
    initial_generators,
    semigroup_dimension,
    subduce,
    tau_sequence,
    toric_kernel,
    verify_squarefree_initial,
)
from resint.ring import GF, poly_text, xvar, yvar


# ---------------------------------------------------------------------------
# initial monomials


def test_initial_generators_22(inst22):
    mam = initial_generators(inst22)
    got = {mam.legend[v].text: mam.targets[v] for v in mam.pring.vars}
    ring = inst22.ring
    assert got == {
        "Q1": ring.monomial({xvar(1, 2): 1, yvar(2): 1}),
        "Q2": ring.monomial({xvar(2, 2): 1, yvar(2): 1}),
        "[1,2]": ring.monomial({xvar(1, 1): 1, xvar(2, 2): 1}),
    }


def test_initial_generators_42_distinct(inst42):
    mam = initial_generators(inst42)
    monos = [mam.targets[v] for v in mam.pring.vars]
    assert len(monos) == 10
    assert len(set(monos)) == 10


def test_initial_generators_single_column():
    inst = build_instance(4, 1)
    mam = initial_generators(inst)
    for v in mam.pring.vars:
        lab = mam.legend[v]
        if lab.is_q:
            assert mam.targets[v] == inst.ring.monomial({xvar(lab.q_index, 1): 1, yvar(1): 1})
        else:
            assert mam.targets[v] == inst.ring.monomial({xvar(lab.rows[0], 1): 1})


# ---------------------------------------------------------------------------
# semigroup dimension


@pytest.mark.parametrize(
    "m,n,expected",
    [(4, 2, 7), (2, 2, 3), (3, 2, 5), (3, 3, 4), (5, 3, 10)],
)
def test_semigroup_dimension(m, n, expected):
    inst = build_instance(m, n)
    assert semigroup_dimension(inst) == expected


def test_semigroup_dimension_single_column_records_m_plus_1():
    # the poset recipe would give m+1 witnesses at n=1; the semigroup rank
    # matches that number, while the true witness count is m
    inst = build_instance(4, 1)
    assert semigroup_dimension(inst) == 5


@pytest.mark.parametrize("m", range(2, 7))
def test_semigroup_dimension_equals_poset_rank(m):
    for n in range(2, m + 1):
        inst = build_instance(m, n)
        assert semigroup_dimension(inst) == inst.poset.poset_rank()


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
        ka, kb = key(a), key(b)
        assert (ka > kb) or (kb > ka) or a == b  # total
        if ka > kb:  # multiplicative
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert key(ac) > key(bc)


# ---------------------------------------------------------------------------
# toric kernels


def certified_kernel(inst):
    return toric_kernel(inst, verify_asl1(inst))


def test_kernel_22_zero(inst22):
    assert not certified_kernel(inst22).generators


def test_kernel_33_zero(inst33):
    assert not certified_kernel(inst33).generators


@pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (5, 2), (4, 3), (3, 3), (8, 1), (5, 3)])
def test_kernel_matches_elimination(m, n):
    inst = build_instance(m, n)
    kernel = certified_kernel(inst)
    assert kernel.hibi
    want = [poly_text(g) for g in elimination_kernel(inst)]
    assert [poly_text(g) for g in polynomial_kernel(initial_generators(inst))] == want
    assert kernel.binomial_lines() == want


#: the shapes of `test_kernel_matches_elimination`, and (7,3)
CROSS_CHECK_SHAPES = [(3, 2), (4, 2), (5, 2), (4, 3), (3, 3), (8, 1), (5, 3), (7, 3)]


@pytest.mark.parametrize("m,n", CROSS_CHECK_SHAPES)
def test_kernel_is_its_own_reduced_tau_basis(m, n):
    binomials = polynomial_kernel(initial_generators(build_instance(m, n)))
    texts = [poly_text(g) for g in binomials]
    # (3,3) is a chain: no pair, no binomial, nothing for Buchberger
    basis = groebner.buchberger(binomials).elements if texts else ()
    assert [poly_text(g) for g in basis] == texts


@pytest.mark.parametrize("m,n", CROSS_CHECK_SHAPES + [(6, 4)])
def test_the_label_pair_kernel_prints_as_the_polynomial_kernel(m, n):
    # texts, legend and verdict, byte for byte against the binomials built
    # as `Polynomial` products in the presentation ring under tau
    inst = build_instance(m, n)
    kernel = certified_kernel(inst)
    mam = initial_generators(inst)
    binomials = polynomial_kernel(mam)
    assert kernel.binomial_lines() == [poly_text(g) for g in binomials]
    assert kernel.legend_lines() == [f"{v.text} = {mam.legend[v].text}" for v in mam.pring.vars]
    assert verify_squarefree_initial(kernel) is squarefree_by_leading_terms(mam, binomials) is True
    assert len(kernel.generators) == len(incomparable_pairs(inst.poset))
    for (a, b), (low, high) in kernel.generators:
        assert incomparable(a, b)
        assert (low, high) == (inst.poset.meet(a, b), inst.poset.join(a, b))


def test_the_label_pair_kernel_prints_as_the_polynomial_kernel_over_a_prime_field():
    inst = build_instance(5, 3, field=GF(32003))
    kernel = toric_kernel(inst, verify_asl1(inst))
    mam = initial_generators(inst)
    assert kernel.binomial_lines() == [poly_text(g) for g in polynomial_kernel(mam)]
    assert kernel.legend_lines() == [f"{v.text} = {mam.legend[v].text}" for v in mam.pring.vars]


def test_a_tau_order_that_is_no_linear_extension_fails_both_squarefree_checks(monkeypatch, inst42):
    # with [2,3] first, the binomial of [1,4]*[2,3] leads with the chain
    # [1,3]*[2,4] in the presentation ring
    real = sagbi_module.tau_sequence

    def mixed(instance):
        first = instance.labels.index(M([2, 3]))
        return [first] + [k for k in real(instance) if k != first]

    monkeypatch.setattr(sagbi_module, "tau_sequence", mixed)
    mam = initial_generators(inst42)
    assert not squarefree_by_leading_terms(mam, polynomial_kernel(mam))
    assert not verify_squarefree_initial(certified_kernel(inst42))


@pytest.mark.parametrize("m,n", CROSS_CHECK_SHAPES)
def test_subduction_agrees_with_the_two_axioms(m, n):
    inst = build_instance(m, n)
    asl1 = verify_asl1(inst)
    assert asl1 and verify_asl2(inst)
    assert sagbi_by_subduction(initial_generators(inst), asl1)


def test_a_prime_field_instance_gives_the_q_kernel():
    # the axioms and the kernel read only the integer tables, whatever the field
    for m, n, p in [(3, 2, 101), (4, 2, 2), (5, 3, 3), (4, 1, 2)]:
        fp, q = build_instance(m, n, field=GF(p)), build_instance(m, n)
        asl1 = verify_asl1(fp)
        assert asl1 is verify_asl1(q) is True
        assert verify_asl2(fp)
        kernel, expected = toric_kernel(fp, asl1), toric_kernel(q, asl1)
        assert kernel.generators == expected.generators
        assert initial_generators(fp).targets == initial_generators(q).targets
        assert kernel.legend_lines() == expected.legend_lines()
        assert kernel.binomial_lines() == expected.binomial_lines()


def test_kernel_42_contains_minor_pair_binomial(inst42):
    # the underlying monomial identity, checked directly
    mam = initial_generators(inst42)
    by_label = {mam.legend[v].text: mam.targets[v] for v in mam.pring.vars}

    def times(a, b):
        return tuple(x + y for x, y in zip(by_label[a], by_label[b]))

    assert times("[1,4]", "[2,3]") == times("[1,3]", "[2,4]")
    pos = {mam.legend[v].text: i for i, v in enumerate(mam.pring.vars)}
    wanted = None
    for g in polynomial_kernel(mam):
        lm = g._terms[0][0]
        support = {i for i, e in enumerate(lm) if e}
        if support == {pos["[1,4]"], pos["[2,3]"]}:
            wanted = g
    assert wanted is not None and len(wanted) == 2


def test_kernel_42_size_matches_incomparable_pairs(inst42):
    from resint.poset import incomparable_pairs

    kernel = certified_kernel(inst42)
    assert len(kernel.generators) == len(incomparable_pairs(inst42.poset)) == 5


def test_kernel_generators_map_to_zero(inst42):
    mam = initial_generators(inst42)
    for g in polynomial_kernel(mam):
        assert not mam_image(mam, g)


def test_kernel_generators_are_binomial_differences(inst42):
    mam = initial_generators(inst42)
    one = mam.pring.field.one
    for g in polynomial_kernel(mam):
        assert len(g) == 2
        coeffs = sorted(c for _, c in g._terms)
        assert coeffs == [-one, one]


def test_kernel_legend_header(inst42):
    lines = certified_kernel(inst42).legend_lines()
    assert lines[0] == "Y[1] = Q1"
    assert lines[-1] == "Y[10] = [3,4]"


# ---------------------------------------------------------------------------
# squarefree leading terms


@pytest.mark.parametrize("m,n", [(4, 2), (3, 3), (3, 2), (2, 2)])
def test_squarefree_initial(m, n):
    inst = build_instance(m, n)
    assert verify_squarefree_initial(certified_kernel(inst))


def test_squarefree_leading_terms_are_incomparable_products(inst42):
    mam = initial_generators(inst42)
    seen = set()
    for g in polynomial_kernel(mam):
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
        inst42.polynomial(M([1, 4])) * inst42.polynomial(M([2, 3]))
        - inst42.polynomial(M([1, 3])) * inst42.polynomial(M([2, 4]))
    )
    assert f == -1 * inst42.polynomial(M([1, 2])) * inst42.polynomial(M([3, 4]))
    assert not subduce(inst42, f, mam=initial_generators(inst42))


def test_subduction_remainder_outside_algebra(inst42):
    y1 = inst42.ring.var(yvar(1))
    # y1 alone is not in the monomial algebra
    assert subduce(inst42, y1, mam=initial_generators(inst42)) == y1


@pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (3, 3), (2, 2)])
def test_verify_sagbi(tmp_path, m, n):
    report, code = cmd_verify(RunConfig(m=m, n=n, field_name="Q", output_dir=tmp_path), ["sagbi"])
    assert code == 0
    assert report["checks"]["sagbi"] == {"verdict": True, "holds_over": "Q"}


def test_kernel_lifts_subduce_to_zero(inst42):
    mam = initial_generators(inst42)
    for g in polynomial_kernel(mam):
        lifted = lift_to_generators(mam, g)
        assert not subduce(inst42, lifted, mam=mam)


def test_subduce_reads_the_clock_before_each_step(monkeypatch, inst42):
    # Q3^2 + Q2^2 + Q1^2 subduces in three steps, one square each; the
    # clock runs out at its third read, before the third step
    f = sum((inst42.polynomial(Q(i)) ** 2 for i in (1, 2, 3)), inst42.ring.zero)
    mam = initial_generators(inst42)
    assert not subduce(inst42, f, mam=mam, deadline=time.monotonic() + 60)
    reads = itertools.count()
    clock = types.SimpleNamespace(monotonic=lambda: 1e9 if next(reads) >= 2 else 0.0)
    monkeypatch.setattr(sagbi_module, "time", clock)
    with pytest.raises(BudgetExceeded) as hit:
        subduce(inst42, f, mam=mam, deadline=1.0)
    assert hit.value.stats == {"subduce_steps": 2}
