"""Instance construction, witness families, certificates, colon identity,
specializations, and the bound table."""

from __future__ import annotations

import random

import pytest

from resint.labels import M, Q
from resint.residual import (
    BadAssignment,
    BadShape,
    build_instance,
    expected_witness_count,
    hsop,
    identity_assignment,
    specialize,
    upper_bound_table,
    verify_ara_witness,
    verify_colon_identity,
)
from resint.ring import GF, det_laplace, xvar, yvar

FP = GF(32003)


# ---------------------------------------------------------------------------
# construction


def test_build_42_labels(inst42):
    assert [l.text for l in inst42.labels] == [
        "Q1", "Q2", "Q3", "Q4", "[1,2]", "[1,3]", "[1,4]", "[2,3]", "[2,4]", "[3,4]",
    ]


def test_build_22_labels(inst22):
    assert [l.text for l in inst22.labels] == ["Q1", "Q2", "[1,2]"]


def test_build_single_column():
    inst = build_instance(3, 1)
    assert [l.text for l in inst.labels] == ["Q1", "Q2", "Q3", "[1]", "[2]", "[3]"]
    ring = inst.ring
    assert inst.polynomials[M([2])] == ring.var(xvar(2, 1))
    assert inst.polynomials[Q(2)] == ring.var(xvar(2, 1)) * ring.var(yvar(1))


def test_build_bad_shape():
    with pytest.raises(BadShape):
        build_instance(2, 3)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 2), (3, 3), (5, 3)])
def test_generator_count(m, n):
    import math

    inst = build_instance(m, n)
    assert len(inst.labels) == m + math.comb(m, n)


# ---------------------------------------------------------------------------
# the witness family


def test_hsop_42_matches_worked_example(inst42):
    classes = [[l.text for l in cls] for cls in inst42.poset.rank_classes()]
    assert classes == [
        ["Q1"], ["Q2"], ["Q3", "[1,2]"], ["Q4", "[1,3]"], ["[1,4]", "[2,3]"], ["[2,4]"], ["[3,4]"],
    ]
    witnesses = hsop(inst42)
    assert len(witnesses) == 7
    q3_plus = inst42.polynomials[Q(3)] + inst42.polynomials[M([1, 2])]
    assert witnesses[2] == q3_plus


def test_hsop_22_chain(inst22):
    assert hsop(inst22) == inst22.generators()


def test_hsop_32_rank_classes(inst32):
    classes = [[l.text for l in cls] for cls in inst32.poset.rank_classes()]
    assert classes == [["Q1"], ["Q2"], ["Q3", "[1,2]"], ["[1,3]"], ["[2,3]"]]
    assert len(hsop(inst32)) == 5 == 2 * 2 + 1


def test_hsop_n1_branch():
    inst = build_instance(5, 1)
    witnesses = hsop(inst)
    assert witnesses == [inst.ring.var(xvar(i, 1)) for i in range(1, 6)]
    assert len(witnesses) == expected_witness_count(5, 1) == 5


@pytest.mark.parametrize("m", range(2, 9))
def test_hsop_count_formula(m):
    from resint.poset import BPoset

    for n in range(2, m + 1):
        # the count is pure combinatorics: one witness per rank class
        assert len(BPoset(m, n).rank_classes()) == n * (m - n + 1) + 1
        if m <= 6:
            assert len(hsop(build_instance(m, n))) == n * (m - n + 1) + 1


def test_hsop_elements_are_sums_of_generators(inst42):
    for cls, w in zip(inst42.poset.rank_classes(), hsop(inst42)):
        acc = inst42.ring.zero
        for lab in cls:
            acc = acc + inst42.polynomials[lab]
        assert acc == w


# ---------------------------------------------------------------------------
# radical-equality certificates


def test_verify_ara_22_all_syntactic():
    inst = build_instance(2, 2, field=FP)
    cert = verify_ara_witness(inst)
    assert cert.verdict
    assert all(c["method"] == "syntactic" for c in cert.checks)


@pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (3, 3)])
def test_verify_ara_witness(m, n):
    inst = build_instance(m, n, field=FP)
    cert = verify_ara_witness(inst)
    assert cert.verdict
    assert all(c["verdict"] for c in cert.checks)
    assert len(cert.hsop_texts) == expected_witness_count(m, n)


def test_verify_ara_n1():
    for m in range(1, 7):
        inst = build_instance(m, 1, field=FP)
        cert = verify_ara_witness(inst)
        assert cert.verdict
        assert len(cert.hsop_texts) == m


def test_certificate_json_shape():
    inst = build_instance(2, 2, field=FP)
    cert = verify_ara_witness(inst)
    data = cert.as_dict()
    assert set(data) == {"m", "n", "field", "hsop", "checks", "verdict"}
    assert data["field"] == "Fp(32003)"


def test_verify_ara_budget_carries_partial_certificate():
    from resint.groebner import Budget, BudgetExceeded

    inst = build_instance(3, 2, field=FP)
    with pytest.raises(BudgetExceeded) as err:
        verify_ara_witness(inst, budget=Budget(max_pairs=3))
    partial = err.value.stats["partial_certificate"]
    assert partial["verdict"] is None
    # syntactic hits still recorded; budgeted queries marked, none lost
    assert len(partial["checks"]) == len(inst.labels)
    assert any(c.get("budget_exceeded") for c in partial["checks"])
    assert any(c["method"] == "syntactic" and c["verdict"] for c in partial["checks"])


# ---------------------------------------------------------------------------
# colon identity


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
def test_colon_identity(m, n):
    inst = build_instance(m, n, field=FP)
    assert verify_colon_identity(inst)


def test_colon_identity_single_column():
    inst = build_instance(3, 1, field=FP)
    assert verify_colon_identity(inst)


# ---------------------------------------------------------------------------
# specialization


def test_specialize_identity(inst42):
    ideal, witnesses = specialize(inst42, identity_assignment(inst42), inst42.ring)
    assert list(ideal.generators) == inst42.generators()
    assert witnesses == hsop(inst42)


def test_specialize_partial_assignment_raises(inst42):
    assignment = identity_assignment(inst42)
    assignment.pop(xvar(1, 1))
    with pytest.raises(BadAssignment):
        specialize(inst42, assignment, inst42.ring)


def test_specialize_monomial_assignment(inst42):
    from resint.transcendence import special_assignment

    assignment = special_assignment(4, 2, inst42.ring)
    ideal, _ = specialize(inst42, assignment, inst42.ring)
    ring = inst42.ring
    for i in range(1, 5):
        specialized = inst42.polynomials[Q(i)].substitute(assignment, ring)
        assert specialized == ring.var(xvar(i, 1))


def test_specialize_bordered_block_33():
    # X sent to the 2x2 generic block plus an identity tail: the image ideal
    # is the (2, 2) family together with the extra y variables
    inst = build_instance(3, 3)
    ring = inst.ring
    assignment = {}
    for i in range(1, 4):
        for j in range(1, 4):
            if i <= 2 and j <= 2:
                assignment[xvar(i, j)] = ring.var(xvar(i, j))
            elif i == j:
                assignment[xvar(i, j)] = ring.one
            else:
                assignment[xvar(i, j)] = ring.zero
    for j in range(1, 4):
        assignment[yvar(j)] = ring.var(yvar(j))
    ideal, _ = specialize(inst, assignment, ring)
    x = lambda i, j: ring.var(xvar(i, j))
    y = lambda i: ring.var(yvar(i))
    expected = [
        x(1, 1) * y(1) + x(1, 2) * y(2),
        x(2, 1) * y(1) + x(2, 2) * y(2),
        y(3),
        x(1, 1) * x(2, 2) - x(1, 2) * x(2, 1),
    ]
    assert list(ideal.generators) == expected


def test_specialize_commutes_with_minors():
    # substituting into a minor equals the determinant of the substituted matrix
    rng = random.Random(20)
    inst = build_instance(3, 2)
    ring = inst.ring
    for _ in range(5):
        assignment = {}
        for v in ring.vars:
            coeffs = [rng.randint(-2, 2) for _ in range(2)]
            vs = rng.sample(ring.vars, 2)
            assignment[v] = ring.const(rng.randint(-3, 3)) + sum(
                (c * ring.var(w) for c, w in zip(coeffs, vs)), ring.zero
            )
        ideal_gens, _ = specialize(inst, assignment, ring)
        for lab in inst.labels:
            expected = inst.polynomials[lab].substitute(assignment, ring)
            if lab.rows is not None:
                matrix = [
                    [assignment[xvar(r, j)] for j in range(1, 3)] for r in lab.rows
                ]
                assert det_laplace(ring, matrix) == expected


def test_specialize_to_zero_raises(inst22):
    assignment = {v: inst22.ring.zero for v in inst22.ring.vars}
    with pytest.raises(BadAssignment):
        specialize(inst22, assignment, inst22.ring)


# ---------------------------------------------------------------------------
# the bound table


def test_upper_bound_rows():
    rows = {(r["m"], r["n"]): r for r in upper_bound_table(12)}
    assert rows[(4, 2)]["naive"] == 9
    assert rows[(4, 2)]["bound"] == 7
    assert rows[(4, 2)]["difference"] == 2
    assert rows[(5, 3)]["naive"] == 12
    assert rows[(5, 3)]["bound"] == 10
    assert rows[(6, 2)]["naive"] == 15
    assert rows[(6, 2)]["bound"] == 11
    for (m, n), r in rows.items():
        assert r["difference"] == m - n
        if m == n:
            assert r["naive"] == r["bound"]


def test_upper_bound_requires_min_shape():
    with pytest.raises(ValueError):
        upper_bound_table(1)
