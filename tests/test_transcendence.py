"""The distinguished set D, the monomial specialization, exchange relations,
rational rewriting over D, and the full dimension certificate."""

from __future__ import annotations

import json
import time
import types
from pathlib import Path

import pytest

from references import closed_form as full_closed_form
from references import rewrite_in_full, special_assignment
from resint import transcendence as transcendence_module
from resint.groebner import Budget, BudgetExceeded, _Packing
from resint.labels import M, Q
from resint.poset import StraighteningRelation, add_product
from resint.residual import build_instance
from resint.ring import GF, ambient_ring, xvar, yvar
from resint.sagbi import semigroup_dimension
from resint.transcendence import (
    BadPluecker,
    DContext,
    DFraction,
    StructureViolation,
    _prefix,
    build_D,
    closed_form,
    independence_by_exponents,
    plucker_relation,
    specialize_D,
    spot_check_label,
    verify_rewrite,
    verify_transcendence_basis,
)

GOLDEN_D_TABLE = Path(__file__).parent / "golden" / "d_table.json"


# ---------------------------------------------------------------------------
# D itself


def test_build_D_42():
    D = build_D(4, 2)
    assert [l.text for l in D] == ["[1,3]", "[1,4]", "[1,2]", "Q1", "Q2", "Q3", "Q4"]
    assert len(D) == 7 == 2 * (4 - 2 + 1) + 1


def test_build_D_square():
    D = build_D(3, 3)
    assert [l.text for l in D] == ["[1,2,3]", "Q1", "Q2", "Q3"]
    assert len(D) == 4


def test_build_D_53_size():
    assert len(build_D(5, 3)) == 3 * (5 - 3 + 1) + 1 == 10


def test_build_D_requires_n_at_least_2():
    with pytest.raises(ValueError):
        build_D(3, 1)


# ---------------------------------------------------------------------------
# the monomial specialization


def test_special_matrix_shape():
    R = ambient_ring(4, 2)
    assignment = special_assignment(4, 2, R)
    assert assignment[xvar(1, 2)] == R.zero  # zeroed: j != 1, j != i, i <= n
    assert assignment[xvar(2, 2)] == R.var(xvar(2, 2))  # diagonal survives
    assert assignment[xvar(3, 2)] == R.var(xvar(3, 2))  # rows below n survive
    assert assignment[yvar(1)] == R.one
    assert assignment[yvar(2)] == R.zero


@pytest.mark.parametrize("m,n", [(4, 2), (5, 3), (3, 3)])
def test_special_pair_zero_pattern(m, n):
    R = ambient_ring(m, n)
    assignment = special_assignment(m, n, R)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            entry = assignment[xvar(i, j)]
            if j != 1 and j != i and i <= n:
                assert entry == R.zero
            else:
                assert entry == R.var(xvar(i, j))
    assert [assignment[yvar(j)] == R.one for j in range(1, n + 1)] == [
        j == 1 for j in range(1, n + 1)
    ]


def test_specialized_closed_forms_42():
    inst = build_instance(4, 2)
    specialized = {label: inst.unpack(form) for label, form in specialize_D(inst).items()}
    R = inst.ring
    assert specialized[Q(3)] == R.var(xvar(3, 1))
    assert specialized[M([1, 2])] == R.var(xvar(1, 1)) * R.var(xvar(2, 2))
    assert specialized[M([1, 3])] == R.var(xvar(3, 2)) * R.var(xvar(1, 1))


def test_closed_form_sign():
    # (-1)^(n+j) twists the sign when n + j is odd
    inst = build_instance(4, 3)
    R = inst.ring
    f = full_closed_form(R, 3, M([1, 3, 4]))  # deletes column j = 2: sign (-1)^5
    assert f == -(R.var(xvar(4, 2)) * R.var(xvar(1, 1)) * R.var(xvar(3, 3)))
    # the packed closed form is the same signed monomial
    assert closed_form(inst, M([1, 3, 4])) == _Packing.pack_dict(f)


@pytest.mark.parametrize("m", range(2, 7))
def test_closed_forms_match_substitution_everywhere(m):
    # the term filter of specialize_D against Polynomial.substitute, and
    # both against the closed forms (specialize_D raises on a mismatch)
    for n in range(2, m + 1):
        inst = build_instance(m, n)
        assignment = special_assignment(m, n, inst.ring)
        specialized = specialize_D(inst)
        assert list(specialized) == list(build_D(m, n))
        for label, form in specialized.items():
            poly = inst.unpack(form)
            assert poly._terms == inst.polynomial(label).substitute(assignment, inst.ring)._terms
            assert poly == full_closed_form(inst.ring, n, label)


def test_a_wrong_D_polynomial_fails_the_specialization(monkeypatch):
    inst = build_instance(5, 3)
    label = M([1, 2, 4])  # M_{4,3}: one of its terms survives the specialization
    table = inst.packed[label]
    (survivor,) = closed_form(inst, label)
    flipped = {e: -c if e == survivor else c for e, c in table.items()}
    assert sum(flipped[e] != c for e, c in table.items()) == 1
    monkeypatch.setitem(inst.packed, label, flipped)
    with pytest.raises(StructureViolation):
        specialize_D(inst)


def test_a_wrong_packed_closed_form_fails_the_specialization(monkeypatch):
    # the right table against a closed form with its sign flipped
    inst = build_instance(5, 3)
    real = transcendence_module.closed_form

    def closed_form(instance, label):
        form = real(instance, label)
        return {e: -c for e, c in form.items()} if label == M([1, 2, 4]) else form

    monkeypatch.setattr(transcendence_module, "closed_form", closed_form)
    with pytest.raises(StructureViolation, match=r"\[1,2,4\] specialized to"):
        specialize_D(inst)


# ---------------------------------------------------------------------------
# independence


@pytest.mark.parametrize(
    "m,n,rank",
    [(4, 2, 7), (3, 3, 4), (2, 2, 3), (3, 2, 5), (5, 3, 10)],
)
def test_independence_rank(m, n, rank):
    report = independence_by_exponents(build_instance(m, n))
    assert report.rank == rank == report.size
    assert report.verdict
    assert report.supports_distinct


def test_independence_matrix_shape_42():
    # 7 specialized monomials over the 10 ambient variables
    inst = build_instance(4, 2)
    specialized = specialize_D(inst)
    assert len(specialized) == 7
    some_poly = inst.unpack(next(iter(specialized.values())))
    assert len(some_poly.ring.vars) == 10


# ---------------------------------------------------------------------------
# exchange relations


def test_classical_three_term_relation(inst42):
    terms = plucker_relation(inst42.ring, (1,), (2, 3, 4))
    assert terms == [
        (1, (M([1, 2]), M([3, 4]))),
        (-1, (M([1, 3]), M([2, 4]))),
        (1, (M([1, 4]), M([2, 3]))),
    ]
    rel = StraighteningRelation.solve(terms, (M([1, 3]), M([2, 4])))
    assert rel.right == ((1, (M([1, 2]), M([3, 4]))), (1, (M([1, 4]), M([2, 3]))))
    assert rel.verify(inst42)


def test_collision_term_is_zero_by_convention(inst42):
    # row 1 of the big tuple is already in the small one: it gives no term
    inst = build_instance(5, 3)
    terms = plucker_relation(inst.ring, (1, 2), (1, 3, 4, 5))
    assert [pair for _, pair in terms] == [
        (M([1, 2, 3]), M([1, 4, 5])),
        (M([1, 2, 4]), M([1, 3, 5])),
        (M([1, 2, 5]), M([1, 3, 4])),
    ]
    assert StraighteningRelation.solve(terms, (M([1, 2, 4]), M([1, 3, 5]))).verify(inst)
    # at n = 2 the two terms left are one pair with opposite signs
    pair = (M([1, 3]), M([1, 4]))
    assert plucker_relation(inst42.ring, (1,), (1, 3, 4)) == [(-1, pair), (1, pair)]


def test_main_minor_exchange_relation_53():
    inst = build_instance(5, 3)
    # rewriting [1, 4, 5]: small = {1, 4}, big = {1, 2, 3, 5}
    terms = plucker_relation(inst.ring, (1, 4), (1, 2, 3, 5))
    rel = StraighteningRelation.solve(terms, (M([1, 4, 5]), M([1, 2, 3])))
    assert rel.left == (M([1, 2, 3]), M([1, 4, 5]))
    assert rel.verify(inst)


@pytest.mark.parametrize("seed", range(4))
def test_random_relations_expand_to_zero(seed):
    import random

    rng = random.Random(seed)
    inst = build_instance(6, 3)
    small = tuple(sorted(rng.sample(range(1, 7), 2)))
    big = tuple(sorted(rng.sample(range(1, 7), 4)))
    terms = plucker_relation(inst.ring, small, big)
    pairs = [pair for _, pair in terms]
    for pair in set(pairs):
        if pairs.count(pair) == 1:
            assert StraighteningRelation.solve(terms, pair).verify(inst)
        else:  # one pair written twice, with opposite signs
            assert sum(c for c, p in terms if p == pair) == 0


def test_malformed_tuples_rejected():
    R = ambient_ring(4, 2)
    with pytest.raises(BadPluecker):
        plucker_relation(R, (1, 2), (2, 3, 4))  # small too long
    with pytest.raises(BadPluecker):
        plucker_relation(R, (1,), (2, 3))  # big too short
    with pytest.raises(BadPluecker):
        plucker_relation(R, (1,), (4, 3, 2))  # not increasing
    with pytest.raises(BadPluecker):
        plucker_relation(R, (1,), (2, 3, 7))  # out of range


# ---------------------------------------------------------------------------
# rewriting over D


def test_rewrite_identity_on_D(inst42):
    ctx = DContext(inst42)
    for lab in build_D(4, 2):
        frac = ctx.fraction(lab)
        assert not any(frac.den)
        assert len(frac.num) == 1


def test_rewrite_23_over_D(inst42):
    # [2,3] = ([1,3] Q2 - [1,2] Q3) / Q1, denominators only Q1
    ctx = DContext(inst42)
    frac = ctx.fraction(M([2, 3]))
    assert verify_rewrite(ctx, M([2, 3]), frac)
    # the denominator is (power of [1,2], power of Q1)
    den_vars = [lab.text for lab, e in zip((M([1, 2]), Q(1)), frac.den) if e]
    assert den_vars == ["Q1"]


def test_rewrite_24_over_D(inst42):
    ctx = DContext(inst42)
    frac = ctx.fraction(M([2, 4]))
    assert verify_rewrite(ctx, M([2, 4]), frac)


@pytest.mark.parametrize("m,n", [(4, 2), (5, 3), (6, 4)])
@pytest.mark.parametrize("p", [2, 32003])
def test_a_prime_field_instance_gives_the_q_certificate(m, n, p):
    # every table is integer, so the field the instance names is not read
    q_cert = verify_transcendence_basis(build_instance(m, n))
    p_cert = verify_transcendence_basis(build_instance(m, n, field=GF(p)))
    assert p_cert.verdict is q_cert.verdict is True
    assert p_cert.dimension == q_cert.dimension == n * (m - n + 1) + 1
    assert p_cert.rewrites == q_cert.rewrites
    assert p_cert.spot_check == q_cert.spot_check
    assert p_cert.as_dict() == q_cert.as_dict()


def test_rewrite_denominators_only_main_minor_and_q1():
    # a denominator is the pair (power of [1..n], power of Q1), so it is
    # supported on those two by type; the full substitution confirms it
    for m, n in ((4, 2), (5, 3), (6, 3)):
        inst = build_instance(m, n)
        ctx = DContext(inst)
        for lab in inst.labels:
            frac = ctx.fraction(lab)
            assert verify_rewrite(ctx, lab, frac)
            assert len(frac.den) == 2


@pytest.mark.parametrize("m,n", [(4, 2), (5, 3), (6, 3), (6, 4), (8, 3)])
def test_rewrite_on_the_cell_matches_the_full_substitution(m, n):
    # every fraction, where the certificate substitutes only its spot-check
    # label's
    inst = build_instance(m, n)
    ctx = DContext(inst)
    for lab in inst.labels:
        frac = ctx.fraction(lab)
        assert verify_rewrite(ctx, lab, frac) is rewrite_in_full(ctx, lab, frac) is True


@pytest.mark.parametrize("m,n", [(4, 2), (5, 3), (6, 4)])
def test_a_flipped_numerator_coefficient_fails_on_the_cell_and_in_full(m, n):
    inst = build_instance(m, n)
    ctx = DContext(inst)
    for lab in inst.labels:
        frac = ctx.fraction(lab)
        e, c = next(iter(frac.num.items()))
        flipped = DFraction({**frac.num, e: -c}, frac.den)
        assert not verify_rewrite(ctx, lab, flipped)
        assert not rewrite_in_full(ctx, lab, flipped)


def test_the_d_degree_guard_rejects_what_the_cell_misses(monkeypatch):
    # den * ([1..n] - 1) is zero on the cell, where [1..n] is 1, but not in
    # K[X, y]; its den term has one minor fewer than label * den
    inst = build_instance(5, 3)
    ctx = DContext(inst)
    label = spot_check_label(ctx)
    frac = ctx.fraction(label)
    main, q1 = (_Packing.var(ctx.position[lab]) for lab in (M([1, 2, 3]), Q(1)))
    den = frac.den[0] * main + frac.den[1] * q1
    wrong = DFraction(add_product(dict(frac.num), {den: 1}, {main: 1, 0: -1}, 1), frac.den)
    assert not rewrite_in_full(ctx, label, wrong)
    assert not verify_rewrite(ctx, label, wrong)
    # with the guard switched off, the cell substitution alone accepts it
    monkeypatch.setattr(transcendence_module, "_d_degrees_match", lambda *args: True)
    assert verify_rewrite(ctx, label, wrong)


@pytest.mark.parametrize("m,n", [(4, 2), (5, 3), (6, 3), (6, 4), (8, 3), (7, 5)])
def test_tabled_denominators_match_the_built_fractions(m, n):
    # the fractions come from a second context that builds the labels in
    # reverse order, so neither result depends on the build order
    inst = build_instance(m, n)
    ctx, fresh = DContext(inst), DContext(inst)
    dens = {lab: fresh.fraction(lab).den for lab in reversed(inst.labels)}
    for lab in inst.labels:
        assert ctx.denominator(lab) == dens[lab]


@pytest.mark.parametrize("m,n", [(5, 3), (9, 3)])
def test_the_certificate_builds_only_the_spot_labels_numerators(m, n, monkeypatch):
    requested, contexts = set(), []
    real = DContext.fraction

    def fraction(self, label):
        contexts.append(self)
        requested.add(label)
        return real(self, label)

    monkeypatch.setattr(DContext, "fraction", fraction)
    cert = verify_transcendence_basis(build_instance(m, n))
    assert cert.verdict
    (ctx,) = set(contexts)
    spot = spot_check_label(ctx)
    closure, stack = set(), [spot]
    while stack:
        lab = stack.pop()
        if lab not in closure:
            closure.add(lab)
            if lab in ctx.identities:
                stack.extend(l for _, pair in ctx.identities[lab].right for l in pair)
    assert requested == closure
    assert 2 <= len(closure - set(ctx.D)) <= 4 < len(ctx.identities)


def d_table() -> dict[str, dict[str, list]]:
    """Every label's fraction over D, as a prefix tree, at four sizes."""
    out = {}
    for m, n in ((4, 2), (5, 3), (6, 3), (6, 4)):
        inst = build_instance(m, n)
        ctx = DContext(inst)
        out[f"{m},{n}"] = {lab.text: _prefix(ctx, ctx.fraction(lab)) for lab in inst.labels}
    return out


def test_d_table_matches_golden():
    # one label a line; a changed identity, pivot or sign in
    # DContext._build shows as a changed fraction
    assert d_table() == json.loads(GOLDEN_D_TABLE.read_text())


# ---------------------------------------------------------------------------
# the full certificate


@pytest.mark.parametrize("m,n,dim", [(4, 2, 7), (3, 2, 5), (3, 3, 4)])
def test_transcendence_certificate(m, n, dim):
    cert = verify_transcendence_basis(build_instance(m, n))
    assert cert.verdict
    assert cert.dimension == dim
    assert all(r["verified"] for r in cert.rewrites)


def test_certificate_json_roundtrip():
    cert = verify_transcendence_basis(build_instance(3, 2))
    data = json.loads(json.dumps(cert.as_dict()))
    assert data["dimension"] == 5
    assert data["independence"]["rank"] == 5
    # the report's shape: the per-label rewrites stay on the certificate
    assert "rewrites" not in data
    assert [set(r) for r in cert.rewrites] == [{"label", "verified"}] * 6


def test_a_flipped_identity_coefficient_fails_its_pattern(monkeypatch):
    # the bordered relation is solved once, for the pattern [2,3] at (4,2),
    # and that solution gets a coefficient flipped: every label of the
    # pattern fails, and so does the spot-check, whose fraction is built
    # from the renamed pattern identities
    real = StraighteningRelation.solve

    def solve(terms, left):
        rel = real(terms, left)
        if set(left) == {M([2, 3]), Q(1)}:
            (c, pair), *rest = rel.right
            rel = StraighteningRelation(rel.left, ((-c, pair), *rest))
        return rel

    monkeypatch.setattr(StraighteningRelation, "solve", staticmethod(solve))
    cert = verify_transcendence_basis(build_instance(4, 2))
    assert [r["label"] for r in cert.rewrites if not r["verified"]] == ["[2,3]", "[2,4]", "[3,4]"]
    assert cert.spot_check == {"label": "[2,3]", "verified": False}
    assert not cert.verdict


@pytest.mark.parametrize(
    "m,n,patterns",
    [(8, 4, 5), (12, 4, 5), (16, 4, 5), (9, 5, 12), (16, 5, 12), (4, 2, 1), (9, 3, 2)],
)
def test_one_identity_is_solved_per_row_pattern(m, n, patterns, monkeypatch):
    # 2^(n-1) - n exchange patterns and one bordered one, whatever m
    calls = []
    for name in ("plucker_relation", "bordered_relation"):
        real = getattr(transcendence_module, name)
        monkeypatch.setattr(
            transcendence_module, name, lambda *args, real=real: calls.append(args) or real(*args)
        )
    inst = build_instance(m, n)
    cert = verify_transcendence_basis(inst)
    assert cert.verdict
    assert len(calls) == patterns < len(inst.labels) - len(build_D(m, n))


@pytest.mark.parametrize("m,n", [(5, 3), (8, 4), (9, 5)])
def test_each_identity_is_its_pattern_identity_renamed(m, n):
    # the renamed identities against the direct solve on the label's rows
    inst = build_instance(m, n)
    ctx = DContext(inst)
    main = M(range(1, n + 1))
    for lab in inst.labels:
        if lab in ctx.position:
            continue
        ctx.denominator(lab)
        rows = lab.rows
        if rows[0] == 1:
            terms, pivot = plucker_relation(inst.ring, rows[:-1], main.rows + rows[-1:]), main
        else:
            terms, pivot = transcendence_module.bordered_relation((1,) + rows), Q(1)
        assert ctx.identities[lab] == StraighteningRelation.solve(terms, (lab, pivot))
        assert ctx.verdict(lab)


def test_broken_fraction_addition_is_caught_by_the_spot_check(monkeypatch):
    # the identities never read a fraction, so all of them still verify
    real = DContext.add

    def add(self, a, b):
        return real(self, a, DFraction({e: -c for e, c in b.num.items()}, b.den))

    monkeypatch.setattr(DContext, "add", add)
    cert = verify_transcendence_basis(build_instance(5, 3))
    assert all(r["verified"] for r in cert.rewrites)
    assert cert.spot_check == {"label": "[2,4,5]", "verified": False}
    assert not cert.verdict


@pytest.mark.parametrize(
    "m,n,label",
    [(3, 2, "[2,3]"), (5, 3, "[2,4,5]"), (6, 4, "[2,3,5,6]"), (3, 3, None)],
)
def test_spot_check_label(m, n, label):
    # the first tabled label whose denominator has both the main minor and
    # Q1; at n = 2 no denominator has the main minor, so the first tabled
    # one; none when every label is in D
    inst = build_instance(m, n)
    cert = verify_transcendence_basis(inst)
    assert cert.verdict
    assert cert.spot_check == (label and {"label": label, "verified": True})
    if label and n > 2:
        ctx = DContext(inst)
        main_power, q1_power = ctx.fraction(spot_check_label(ctx)).den
        assert main_power and q1_power


def test_certificate_honours_the_wall_budget():
    with pytest.raises(BudgetExceeded) as hit:
        verify_transcendence_basis(build_instance(4, 2), budget=Budget(wall_seconds=1e-9))
    assert hit.value.stats == {"labels_checked": 0}


def test_certificate_reads_the_budget_before_the_spot_check(monkeypatch):
    # the clock passes the deadline while the verdict of the last label,
    # [3,4], is read: only the spot-check is left to stop
    late = []
    real = DContext.verdict

    def verdict(self, label):
        late.extend([True] if label == M([3, 4]) else [])
        return real(self, label)

    clock = types.SimpleNamespace(monotonic=lambda: time.monotonic() + (1e9 if late else 0))
    monkeypatch.setattr(DContext, "verdict", verdict)
    monkeypatch.setattr(transcendence_module, "time", clock)
    with pytest.raises(BudgetExceeded) as hit:
        verify_transcendence_basis(build_instance(4, 2))
    assert hit.value.stats == {"labels_checked": 10}


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_triple_dimension_agreement(m, n):
    # three independent computations of one number
    inst = build_instance(m, n)
    from_poset = inst.poset.poset_rank()
    from_semigroup = semigroup_dimension(inst)
    from_transcendence = verify_transcendence_basis(inst).dimension
    assert from_poset == from_semigroup == from_transcendence == n * (m - n + 1) + 1
