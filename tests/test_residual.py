"""Instance construction, witness families, certificates, colon identity,
specializations, and the bound table."""

from __future__ import annotations

import itertools
import math
import random
import types
from fractions import Fraction

import pytest

from references import colon_identity_by_elimination, det_laplace, identity_assignment
from resint.groebner import Budget, BudgetExceeded, IdealBasis, _Packing, buchberger, radical_membership
from resint.labels import M, Q
from resint.poset import StraighteningRelation
from resint.residual import (
    BadAssignment,
    BadShape,
    build_instance,
    colon_family,
    expected_witness_count,
    hsop,
    specialize,
    upper_bound_table,
    verify_ara_witness,
    verify_colon_identity,
)
from resint.ring import (
    GF,
    QQ,
    GrevLex,
    Polynomial,
    PolynomialRing,
    minor,
    poly_text,
    q_entry,
    xvar,
    yvar,
)

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
    assert inst.polynomial(M([2])) == ring.var(xvar(2, 1))
    assert inst.polynomial(Q(2)) == ring.var(xvar(2, 1)) * ring.var(yvar(1))


def test_build_bad_shape():
    with pytest.raises(BadShape):
        build_instance(2, 3)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 2), (3, 3), (5, 3)])
def test_generator_count(m, n):
    inst = build_instance(m, n)
    assert len(inst.labels) == m + math.comb(m, n)


def _stored(inst):
    """Every object the instance holds, outside its ring and the code."""
    import gc
    import weakref

    skip = (type, types.FunctionType, types.ModuleType, weakref.ref, PolynomialRing)
    seen, todo = set(), [inst]
    while todo:
        obj = todo.pop()
        if id(obj) not in seen and not isinstance(obj, skip):
            seen.add(id(obj))
            yield obj
            todo.extend(gc.get_referents(obj))


@pytest.mark.parametrize("m,n", [(4, 2), (5, 3), (6, 1), (5, 5), (6, 4)])
def test_instance_builds_each_polynomial_on_first_read(monkeypatch, m, n):
    # build_instance calls neither minor nor q_entry; each polynomial,
    # unpacked from its table on every read, equals the one they build,
    # terms in the same order, the lead of each packed table is that
    # polynomial's leading monomial, and the instance keeps no polynomial
    import sys

    calls = {"minor": 0, "q_entry": 0}
    for module in [mod for name, mod in sys.modules.items() if name.startswith("resint")]:
        for name in calls:
            if hasattr(module, name):

                def counted(*args, _name=name, _real=getattr(module, name)):
                    calls[_name] += 1
                    return _real(*args)

                monkeypatch.setattr(module, name, counted)
    inst = build_instance(m, n)
    assert calls == {"minor": 0, "q_entry": 0}
    monkeypatch.undo()
    packing = _Packing(inst.ring)
    for lab in inst.labels:
        built = inst.polynomial(lab)
        expected = q_entry(inst.ring, lab.q_index) if lab.is_q else minor(inst.ring, lab.rows)
        assert built._terms == expected._terms
        assert inst.polynomial(lab) == built
        assert packing.unpack(inst.lead(lab)) == built.leading_monomial()
        # under lex a packed monomial is its own key, which `lead` relies on
        assert all(packing.key(e) == e for e in inst.packed[lab])
    assert list(inst.packed) == list(inst.labels)
    assert not any(isinstance(obj, Polynomial) for obj in _stored(inst))
    assert not hasattr(inst, "polynomials")
    with pytest.raises(KeyError):
        inst.polynomial(Q(m + 1))


def test_a_map_kept_after_its_instance_is_freed():
    # the map holds the instance weakly: a built value still reads, and an
    # unbuilt one raises ReferenceError, not an AttributeError on None
    import gc

    inst = build_instance(4, 2)
    packed = inst.packed
    built = packed[M((1, 2))]
    del inst
    gc.collect()
    assert packed[M((1, 2))] is built
    with pytest.raises(ReferenceError, match=r"\[3,4\].*freed"):
        packed[M((3, 4))]
    with pytest.raises(ReferenceError, match="Q1"):
        packed[Q(1)]


# ---------------------------------------------------------------------------
# the witness family


def test_hsop_42_matches_worked_example(inst42):
    classes = [[l.text for l in cls] for cls in inst42.poset.rank_classes()]
    assert classes == [
        ["Q1"], ["Q2"], ["Q3", "[1,2]"], ["Q4", "[1,3]"], ["[1,4]", "[2,3]"], ["[2,4]"], ["[3,4]"],
    ]
    witnesses = hsop(inst42)
    assert len(witnesses) == 7
    q3_plus = inst42.polynomial(Q(3)) + inst42.polynomial(M([1, 2]))
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
            acc = acc + inst42.polynomial(lab)
        assert acc == w


# ---------------------------------------------------------------------------
# radical-equality certificates


def test_verify_ara_22_all_syntactic():
    # (2,2) is a chain: every generator is its own witness, nothing to straighten
    cert = verify_ara_witness(build_instance(2, 2))
    assert cert.verdict
    assert cert.relations == []


@pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (3, 3), (6, 2)])
def test_verify_ara_witness(m, n):
    inst = build_instance(m, n)
    cert = verify_ara_witness(inst)
    assert cert.verdict
    assert all(r["verdict"] for r in cert.relations)
    classes = inst.poset.rank_classes()
    assert len(cert.relations) == sum(math.comb(len(cls), 2) for cls in classes)
    assert all(r["rank"] >= 2 for r in cert.relations)


def test_verify_ara_n1():
    for m in range(1, 7):
        cert = verify_ara_witness(build_instance(m, 1))
        assert cert.verdict
        assert [r["relation"] for r in cert.relations] == [f"Q{i} = y1*[{i}]" for i in range(1, m + 1)]


def test_verify_ara_n1_rejects_a_wrong_generator():
    inst = build_instance(3, 1)
    inst.packed[Q(2)] = inst.packed[Q(3)]
    assert verify_ara_witness(inst).verdict is False


def test_certificate_json_shape():
    data = verify_ara_witness(build_instance(3, 2)).as_dict()
    assert set(data) == {"m", "n", "holds_over", "relations", "verdict"}
    assert data["holds_over"] == "Z"
    assert data["relations"] == [
        {
            "pair": ["Q3", "[1,2]"],
            "rank": 3,
            "relation": "Q3*[1,2] = (-1)*Q1*[2,3] + (1)*Q2*[1,3]",
            "verdict": True,
        }
    ]


def test_verify_ara_budget_carries_partial_certificate():
    inst = build_instance(4, 2)
    with pytest.raises(BudgetExceeded) as err:
        verify_ara_witness(inst, budget=Budget(wall_seconds=1e-9))
    stats = err.value.stats
    partial = stats["partial_certificate"]
    assert partial["verdict"] is None
    assert stats["relations_checked"] == len(partial["relations"]) >= 1


def test_a_prime_field_instance_gives_the_q_radical_certificate():
    # the certificate reads only the integer tables, whatever the field
    for m, n, p in [(3, 2, 101), (4, 2, 2), (5, 3, 3), (4, 1, 2), (3, 3, 32003)]:
        certificate = verify_ara_witness(build_instance(m, n, field=GF(p))).as_dict()
        assert certificate == verify_ara_witness(build_instance(m, n)).as_dict()
        assert certificate["verdict"] is True


@pytest.mark.parametrize(
    "p,m,n",
    [(32003, m, n) for m, n in [(3, 2), (4, 2), (3, 3), (4, 3), (5, 2), (5, 3)]]
    + [(p, m, n) for p in (2, 3) for m, n in [(3, 2), (4, 2), (4, 3)]],
)
def test_radical_certificate_agrees_with_groebner(p, m, n):
    # the certificate over Z against Groebner radical membership over GF(p)
    assert verify_ara_witness(build_instance(m, n)).verdict
    inst = build_instance(m, n, field=GF(p))
    witnesses = IdealBasis(inst.ring, hsop(inst))
    assert all(radical_membership(g, witnesses) for g in inst.generators())


def _tamper(monkeypatch, change) -> StraighteningRelation:
    """Make every straightening relation the certificate reads go through
    `change`; return the tampered relation of one same-rank pair at (4,2)."""
    from resint import residual

    real = residual.straighten

    def tampered(instance, a, b):
        rel = real(instance, a, b)
        return StraighteningRelation(rel.left, change(rel))

    monkeypatch.setattr(residual, "straighten", tampered)
    return tampered(build_instance(4, 2), Q(3), M([1, 2]))


def test_radical_certificate_rejects_a_fraction(monkeypatch):
    def halve_first_term(rel):
        (c, pair), *rest = rel.right
        return ((Fraction(c, 2), pair), (Fraction(c, 2), pair), *rest)

    rel = _tamper(monkeypatch, halve_first_term)
    # still a true identity with least labels below: only the int check fails
    assert rel.verify(build_instance(4, 2)) and rel.min_label_condition()
    assert verify_ara_witness(build_instance(4, 2)).verdict is False


def test_radical_certificate_rejects_a_least_label_not_below(monkeypatch):
    def add_cancelling_left(rel):
        return (*rel.right, (1, rel.left), (-1, rel.left))

    rel = _tamper(monkeypatch, add_cancelling_left)
    assert rel.verify(build_instance(4, 2))
    assert verify_ara_witness(build_instance(4, 2)).verdict is False


def test_radical_certificate_rejects_a_false_identity(monkeypatch):
    def double_first_term(rel):
        (c, pair), *rest = rel.right
        return ((2 * c, pair), *rest)

    rel = _tamper(monkeypatch, double_first_term)
    assert rel.min_label_condition()
    assert verify_ara_witness(build_instance(4, 2)).verdict is False


# ---------------------------------------------------------------------------
# colon identity


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
def test_colon_identity(m, n):
    inst = build_instance(m, n, field=FP)
    assert verify_colon_identity(inst)


def test_colon_identity_single_column():
    inst = build_instance(3, 1, field=FP)
    assert verify_colon_identity(inst)


@pytest.mark.parametrize("p", [2, 3, 32003])
@pytest.mark.parametrize("m,n", [(2, 2), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 3)])
def test_colon_identity_matches_elimination(m, n, p):
    inst = build_instance(m, n, field=GF(p))
    assert verify_colon_identity(inst) is colon_identity_by_elimination(inst) is True


def _family(inst) -> dict:
    """`colon_family` of the instance's own Q_r."""
    return colon_family(inst, {r: inst.packed[Q(r)] for r in range(1, inst.m + 1)})


def _family_polynomials(inst) -> set:
    """`colon_family` as monic polynomials of the grevlex ring, its
    integer coefficients coerced into the instance's field."""
    ring = inst.ring.with_order(GrevLex())
    nvars, coerce = len(ring.vars), ring.field.coerce
    return {
        ring._from_dict({tuple(e.to_bytes(nvars, "little")): coerce(c) for e, c in g.items()}).monic()
        for g in _family(inst).values()
    }


@pytest.mark.parametrize("p", [2, 3, 32003, 0])
@pytest.mark.parametrize("m,n", [(3, 1), (8, 1), (4, 2), (5, 3), (6, 3), (8, 4)])
def test_colon_family_is_the_reduced_basis(m, n, p):
    # Buchberger's reduced grevlex basis of J is the monic closed family
    inst = build_instance(m, n, field=GF(p) if p else QQ)
    G = buchberger(inst.ideal(), order=GrevLex())
    assert set(G.elements) == _family_polynomials(inst)
    assert len(G) == sum(math.comb(m, k) for k in range(1, n + 1))


def test_colon_identity_rejects_a_wrong_cramer_identity(monkeypatch):
    # Q1 = x11*y1 enters only the Cramer identities: the family is still J's
    from resint import residual

    inst = build_instance(4, 2, field=FP)
    monkeypatch.setattr(residual, "colon_family", lambda i, qs, real=_family(inst): real)
    inst.packed[Q(1)] = _Packing.pack_dict(inst.ring.var(xvar(1, 1)) * inst.ring.var(yvar(1)))
    assert verify_colon_identity(inst) is False


@pytest.mark.parametrize("m,n,label", [(6, 2, Q(6)), (7, 2, M([5, 7])), (9, 3, M([2, 5, 9]))])
def test_colon_reads_every_generator_beyond_the_rows_1_to_2n(m, n, label):
    # the S-pairs and the Cramer identities use only the rows 1..2n; a
    # generator with a row beyond them enters only the renaming check
    inst = build_instance(m, n)
    assert verify_colon_identity(inst)
    table = inst.packed[label]
    top = max(table)
    inst.packed[label] = {**table, top: -table[top]}
    assert verify_colon_identity(inst) is False


# The criterion reduces only the pairs whose row union is 1..u, so it proves
# a Groebner basis only for a family closed under row renaming, as
# `colon_family` is.  Each mutation below breaks the family at rows 1..k,
# which are their own pattern.


@pytest.mark.parametrize("m,n,rows", [(5, 3, (1, 2)), (8, 4, (1, 2)), (8, 4, (1, 2, 3))])
def test_colon_criterion_rejects_a_family_without_one_g_K(monkeypatch, m, n, rows):
    from resint import residual

    def without(i, qs):
        family = colon_family(i, qs)
        del family[rows]
        return family

    monkeypatch.setattr(residual, "colon_family", without)
    assert verify_colon_identity(build_instance(m, n, field=FP)) is False


@pytest.mark.parametrize("m,n", [(5, 3), (8, 4)])
def test_colon_criterion_rejects_one_flipped_sign(monkeypatch, m, n):
    # g_{1,2} = Q1*x[2][n] - Q2*x[1][n]; flip the sign of its Q2 summand
    from resint import residual

    inst = build_instance(m, n)
    ring = inst.ring
    q1x, q2x = inst.polynomial(Q(1)) * ring.var(xvar(2, n)), inst.polynomial(Q(2)) * ring.var(xvar(1, n))

    assert _family(inst)[1, 2] == _Packing.pack_dict(q1x - q2x)

    def flipped(i, qs):
        family = colon_family(i, qs)
        family[1, 2] = _Packing.pack_dict(q1x + q2x)
        return family

    monkeypatch.setattr(residual, "colon_family", flipped)
    assert verify_colon_identity(inst) is False


def test_colon_leads_reject_y1(monkeypatch):
    # at n = 1 the family is the monomials x[r][1], a Groebner basis of any
    # ideal they generate; with y1*x[1][1] in place of x[1][1] the criterion
    # and the Cramer identities still pass, and only a lead shows y1
    from resint import residual

    def with_y1(i, qs):
        family = colon_family(i, qs)
        family[1,] = {e + 1: c for e, c in family[1,].items()}  # y1 is the lowest packed field
        return family

    monkeypatch.setattr(residual, "colon_family", with_y1)
    assert verify_colon_identity(build_instance(3, 1, field=FP)) is False


def test_colon_rejects_a_non_integer_monic_g_K(monkeypatch):
    # g_{1,2} + c*Q1 keeps its lead (Q1 has lower degree) and lies in J, so
    # the family is still a Groebner basis of J; only c = 1/2 puts a
    # non-integer coefficient in the monic family, so only then would the
    # verdict not hold over Z
    from resint import residual

    def plus(c):
        def family(i, qs):
            family = colon_family(i, qs)
            residual.add_product(family[1, 2], qs[1], {0: 1}, c)
            return family

        return family

    for c, verdict in ((1, True), (Fraction(1, 2), False)):
        monkeypatch.setattr(residual, "colon_family", plus(c))
        assert verify_colon_identity(build_instance(5, 3)) is verdict


@pytest.mark.parametrize("p", [2, 3, 32003])
@pytest.mark.parametrize("m,n", [(4, 2), (5, 3), (6, 1), (5, 5)])
def test_integer_instance_prints_as_the_prime_field_instance(m, n, p):
    # the texts of the Q instance read mod p are those of the F_p instance
    inst, fp = build_instance(m, n), build_instance(m, n, field=GF(p))
    for f, g in zip(hsop(inst), hsop(fp), strict=True):
        assert poly_text(f, GF(p)) == poly_text(g)
    for lab in inst.labels:
        assert poly_text(inst.polynomial(lab), GF(p)) == poly_text(fp.polynomial(lab))


def test_colon_budget_hit_has_the_same_keys_in_either_part(monkeypatch):
    # each clock read advances one second: the S-pair phase reads it once per
    # own-pattern pair, 12 at (4,2), the renaming check once per row set, so
    # two of the six minors are checked against the renamed [1,2]; the pair
    # budget stops the S-pair phase
    from resint import residual

    inst = build_instance(4, 2, field=FP)
    with pytest.raises(BudgetExceeded) as in_pairs:
        verify_colon_identity(inst, budget=Budget(max_pairs=2))
    clock = types.SimpleNamespace(monotonic=itertools.count().__next__)
    monkeypatch.setattr(residual, "time", clock)
    with pytest.raises(BudgetExceeded) as in_cramer:
        verify_colon_identity(inst, budget=Budget(wall_seconds=12 + 2))
    assert in_pairs.value.stats["pairs"] == 2
    assert in_pairs.value.stats["row_sets_checked"] == 0
    assert in_cramer.value.stats["pairs"] == 12
    assert in_cramer.value.stats["row_sets_checked"] == 2
    assert set(in_pairs.value.stats) == set(in_cramer.value.stats) >= {
        "input_hash", "order", "pairs", "max_terms", "row_sets_checked",
    }


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
    from references import special_assignment

    assignment = special_assignment(4, 2, inst42.ring)
    ideal, _ = specialize(inst42, assignment, inst42.ring)
    ring = inst42.ring
    for i in range(1, 5):
        specialized = inst42.polynomial(Q(i)).substitute(assignment, ring)
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
            expected = inst.polynomial(lab).substitute(assignment, ring)
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
