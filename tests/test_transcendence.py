"""The distinguished set D, the monomial specialization, exchange relations,
rational rewriting over D, and the full dimension certificate."""

from __future__ import annotations

import json
import time
import types
from pathlib import Path

import pytest

from references import rewrite_in_full
from resint import transcendence as transcendence_module
from resint.groebner import Budget, BudgetExceeded, _Packing
from resint.labels import M, Q
from resint.poset import StraighteningRelation
from resint.residual import build_instance
from resint.ring import GF, IncompatibleField, ambient_ring, xvar, yvar
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
    special_assignment,
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
    specialized = specialize_D(build_instance(4, 2))
    R = next(iter(specialized.values())).ring
    assert specialized[Q(3)] == R.var(xvar(3, 1))
    assert specialized[M([1, 2])] == R.var(xvar(1, 1)) * R.var(xvar(2, 2))
    assert specialized[M([1, 3])] == R.var(xvar(3, 2)) * R.var(xvar(1, 1))


def test_closed_form_sign():
    # (-1)^(n+j) twists the sign when n + j is odd
    R = ambient_ring(4, 3)
    f = closed_form(R, 3, M([1, 3, 4]))  # deletes column j = 2: sign (-1)^5
    assert f == -(R.var(xvar(4, 2)) * R.var(xvar(1, 1)) * R.var(xvar(3, 3)))


@pytest.mark.parametrize("m", range(2, 7))
def test_closed_forms_match_substitution_everywhere(m):
    # the term filter of specialize_D against Polynomial.substitute, and
    # both against the closed forms (specialize_D raises on a mismatch)
    for n in range(2, m + 1):
        inst = build_instance(m, n)
        assignment = special_assignment(m, n, inst.ring)
        specialized = specialize_D(inst)
        assert list(specialized) == list(build_D(m, n))
        for label, poly in specialized.items():
            assert poly._terms == inst.polynomial(label).substitute(assignment, inst.ring)._terms


def test_a_wrong_D_polynomial_fails_the_specialization(monkeypatch):
    inst = build_instance(5, 3)
    label = M([1, 2, 4])  # M_{4,3}: one of its terms survives the specialization
    table = inst.packed[label]
    (survivor,) = _Packing.pack_dict(closed_form(inst.ring, 3, label))
    flipped = {e: -c if e == survivor else c for e, c in table.items()}
    assert sum(flipped[e] != c for e, c in table.items()) == 1
    monkeypatch.setitem(inst.packed, label, flipped)
    with pytest.raises(StructureViolation):
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
    specialized = specialize_D(build_instance(4, 2))
    assert len(specialized) == 7
    some_poly = next(iter(specialized.values()))
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
    den = frac.den_poly()
    legend_text = {v.text: ctx.legend[v].text for v in ctx.dring.vars}
    den_vars = [legend_text[v.text] for v, e in zip(den.ring.vars, den.leading_monomial()) if e]
    assert den_vars == ["Q1"]


def test_rewrite_24_over_D(inst42):
    ctx = DContext(inst42)
    frac = ctx.fraction(M([2, 4]))
    assert verify_rewrite(ctx, M([2, 4]), frac)


def test_rewrite_refuses_a_prime_field():
    inst = build_instance(3, 2, field=GF(101))
    with pytest.raises(IncompatibleField):
        DContext(inst)
    with pytest.raises(IncompatibleField):
        verify_transcendence_basis(inst)


def test_rewrite_denominators_only_main_minor_and_q1():
    for m, n in ((4, 2), (5, 3), (6, 3)):
        inst = build_instance(m, n)
        ctx = DContext(inst)
        allowed = {ctx.position[M(range(1, n + 1))], ctx.position[Q(1)]}
        for lab in inst.labels:
            frac = ctx.fraction(lab)
            assert verify_rewrite(ctx, lab, frac)
            for i, e in enumerate(frac.den):
                if e:
                    assert i in allowed


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
        (e, c), *_ = frac.num._terms
        flipped = DFraction(ctx.dring._from_dict({**dict(frac.num._terms), e: -c}), frac.den)
        assert not verify_rewrite(ctx, lab, flipped)
        assert not rewrite_in_full(ctx, lab, flipped)


def test_the_d_degree_guard_rejects_what_the_cell_misses(monkeypatch):
    # den * ([1..n] - 1) is zero on the cell, where [1..n] is 1, but not in
    # K[X, y]; its den term has one minor fewer than label * den
    inst = build_instance(5, 3)
    ctx = DContext(inst)
    label = spot_check_label(ctx)
    frac = ctx.fraction(label)
    main = ctx.dring.var(ctx.dvars[ctx.position[M([1, 2, 3])]])
    wrong = DFraction(frac.num + frac.den_poly() * (main - ctx.dring.one), frac.den)
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
        out[f"{m},{n}"] = {lab.text: _prefix(ctx.fraction(lab)) for lab in inst.labels}
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


def test_a_flipped_identity_coefficient_fails_its_label(monkeypatch):
    # the recorded identity of [2,3] is broken after it is solved: the
    # per-label check sees it, and so does the spot-check, whose fraction
    # is built from that recorded identity
    real = DContext._build

    def build(self, label):
        real(self, label)
        if label == M([2, 3]):
            rel = self.identities[label]
            (c, pair), *rest = rel.right
            self.identities[label] = StraighteningRelation(rel.left, ((-c, pair), *rest))

    monkeypatch.setattr(DContext, "_build", build)
    cert = verify_transcendence_basis(build_instance(4, 2))
    assert [r["label"] for r in cert.rewrites if not r["verified"]] == ["[2,3]"]
    assert cert.spot_check == {"label": "[2,3]", "verified": False}
    assert not cert.verdict


def test_broken_fraction_addition_is_caught_by_the_spot_check(monkeypatch):
    # the identities never read a fraction, so all of them still verify
    real = DFraction.__add__
    monkeypatch.setattr(DFraction, "__add__", lambda self, other: real(self, other.scale(-1)))
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
        den = ctx.fraction(spot_check_label(ctx)).den
        assert den[ctx.position[M(range(1, n + 1))]] and den[ctx.position[Q(1)]]


def test_certificate_honours_the_wall_budget():
    with pytest.raises(BudgetExceeded) as hit:
        verify_transcendence_basis(build_instance(4, 2), budget=Budget(wall_seconds=1e-9))
    assert hit.value.stats == {"labels_checked": 0}


def test_certificate_reads_the_budget_before_the_spot_check(monkeypatch):
    # the clock passes the deadline while the identity of the last label,
    # [3,4], is checked: only the spot-check is left to stop
    late = []
    real = StraighteningRelation.verify

    def verify(self, instance):
        late.extend([True] if M([3, 4]) in self.left else [])
        return real(self, instance)

    clock = types.SimpleNamespace(monotonic=lambda: time.monotonic() + (1e9 if late else 0))
    monkeypatch.setattr(StraighteningRelation, "verify", verify)
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
