"""Buchberger engine, normal forms, radical membership, dimension, and the
elimination colon, intersection and ideal equality of `references.py`.

sympy plays the independent computer-algebra oracle for the cross-checked
values; frozen expected bases were produced by it and are asserted
literally as well.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from groebner_runs import collect_runs
from references import BlockOrder, colon_by_elimination, ideal_equal, intersect_by_elimination
from resint import groebner
from resint.groebner import (
    EXPONENT_LIMIT,
    Budget,
    BudgetExceeded,
    EMPTY_VARIETY_DIMENSION,
    IdealBasis,
    _lcm,
    _Packing,
    _Reducers,
    buchberger,
    normal_form,
    quotient_dimension,
    radical_membership,
)
from resint.residual import build_instance
from resint.ring import (
    GF,
    QQ,
    GrevLex,
    Lex,
    PolynomialRing,
    TauOrder,
    ambient_ring,
    minor,
    poly_text,
    q_entry,
    xvar,
    yvar,
)

FP = GF(32003)


# ---------------------------------------------------------------------------
# sympy bridge


def to_sympy(f, symbol_map):
    expr = sp.Integer(0)
    for exps, coeff in f._terms:
        term = sp.Rational(coeff) if f.ring.field == QQ else sp.Integer(coeff)
        for v, e in zip(f.ring.vars, exps):
            term *= symbol_map[v] ** e
        expr += term
    return expr


def sympy_symbols(ring):
    return {v: sp.Symbol(v.text.replace("[", "_").replace("]", "")) for v in ring.vars}


def sympy_groebner(polys, ring, modulus=None):
    symbol_map = sympy_symbols(ring)
    gens_desc = tuple(symbol_map[v] for v in reversed(ring.vars))
    exprs = [to_sympy(p, symbol_map) for p in polys]
    if modulus:
        return sp.groebner(exprs, *gens_desc, order="grevlex", modulus=modulus), symbol_map
    return sp.groebner(exprs, *gens_desc, order="grevlex"), symbol_map


# ---------------------------------------------------------------------------
# buchberger basics


def test_monomial_ideal_is_its_own_basis():
    R = ambient_ring(2, 2)
    x11 = R.var(xvar(1, 1))
    G = buchberger(IdealBasis(R, [x11]))
    assert list(G) == [x11]


def test_unit_ideal_two_s_steps():
    # S(x11*y1 - 1, x11^2) -> -x11, then S(x11, x11*y1 - 1) -> 1
    R = ambient_ring(1, 1, field=FP)
    x11, y1 = R.var(xvar(1, 1)), R.var(yvar(1))
    G = buchberger(IdealBasis(R, [x11 * y1 - R.one, x11 * x11]))
    assert G.is_unit()


def test_ri22_grevlex_reduced_basis_frozen():
    # frozen from an independent sympy run: generators are already reduced
    R = ambient_ring(2, 2, order=GrevLex())
    I = IdealBasis(R, [q_entry(R, 1), q_entry(R, 2), minor(R, [1, 2])])
    G = buchberger(I)
    texts = sorted(poly_text(g) for g in G)
    assert texts == [
        "x[1][2]*x[2][1] - x[1][1]*x[2][2]",
        "x[1][2]*y[2] + x[1][1]*y[1]",
        "x[2][2]*y[2] + x[2][1]*y[1]",
    ]


def test_ri22_grevlex_matches_live_sympy():
    R = ambient_ring(2, 2, order=GrevLex())
    polys = [q_entry(R, 1), q_entry(R, 2), minor(R, [1, 2])]
    G = buchberger(IdealBasis(R, polys))
    sympy_G, symbol_map = sympy_groebner(polys, R)
    mine = {sp.expand(to_sympy(g, symbol_map) / sp.LC(to_sympy(g, symbol_map), *[symbol_map[v] for v in reversed(R.vars)])) for g in G}
    theirs = {sp.expand(e / sp.LC(e, *[symbol_map[v] for v in reversed(R.vars)])) for e in sympy_G.exprs}
    assert mine == theirs


def test_randomized_bases_match_sympy():
    # differential test: same ideal, same order, same reduced basis
    rng = random.Random(42)
    for _ in range(25):
        m, n = rng.choice([(2, 2), (3, 2), (2, 1), (3, 1)])
        R = ambient_ring(m, n, field=GF(101), order=GrevLex())
        polys = []
        for _ in range(rng.randint(2, 4)):
            f = R.zero
            for _ in range(rng.randint(1, 3)):
                mono = R.one
                for _ in range(rng.randint(1, 3)):
                    mono = mono * R.var(rng.choice(R.vars))
                f = f + rng.randint(1, 100) * mono
            if f:
                polys.append(f)
        if not polys:
            continue
        G = buchberger(IdealBasis(R, polys))
        symbol_map = sympy_symbols(R)
        gens_desc = tuple(symbol_map[v] for v in reversed(R.vars))
        Gs = sp.groebner(
            [to_sympy(p, symbol_map) for p in polys],
            *gens_desc, order="grevlex", modulus=101,
        )
        assert len(G) == len(Gs.polys)
        for g in G:
            assert Gs.reduce(to_sympy(g, symbol_map))[1] == 0
        for e in Gs.exprs:
            mine = normal_form(_from_sympy(e, R, symbol_map), G)
            assert not mine


def _from_sympy(expr, ring, symbol_map):
    inverse = {s: v for v, s in symbol_map.items()}
    poly = sp.Poly(expr, *symbol_map.values())
    terms = []
    for mono_exps, coeff in poly.terms():
        expmap = {
            inverse[s]: e for s, e in zip(symbol_map.values(), mono_exps) if e
        }
        terms.append((int(coeff) % 101, expmap))
    return ring.from_terms(terms)


def test_all_s_polynomials_reduce_to_zero():
    # the defining property of a Groebner basis, asserted directly
    R = ambient_ring(3, 2, field=FP, order=GrevLex())
    polys = [q_entry(R, i) for i in (1, 2, 3)] + [minor(R, r) for r in [(1, 2), (1, 3), (2, 3)]]
    G = buchberger(IdealBasis(R, polys))
    elems = list(G.elements)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            fi, fj = elems[i], elems[j]
            li, lj = fi.leading_monomial(), fj.leading_monomial()
            lcm = tuple(map(max, li, lj))
            s = (
                R._from_dict({tuple(a - b for a, b in zip(lcm, li)): R.field.one}) * fi
                - R._from_dict({tuple(a - b for a, b in zip(lcm, lj)): R.field.one}) * fj
            )
            assert not normal_form(s, G)


def test_reduced_basis_is_autoreduced():
    # no monomial of an element is divisible by another element's lead
    R = ambient_ring(3, 2, field=FP, order=GrevLex())
    polys = [q_entry(R, i) for i in (1, 2, 3)] + [minor(R, r) for r in [(1, 2), (1, 3), (2, 3)]]
    G = buchberger(IdealBasis(R, polys))
    for i, g in enumerate(G.elements):
        assert g._terms[0][1] == R.field.one
        for j, h in enumerate(G.elements):
            if i == j:
                continue
            lh = h.leading_monomial()
            for mono, _ in g._terms:
                assert not all(a <= b for a, b in zip(lh, mono))


def test_reduced_basis_unique_under_permutation():
    R = ambient_ring(3, 2, field=FP, order=GrevLex())
    polys = [q_entry(R, i) for i in (1, 2, 3)] + [minor(R, r) for r in [(1, 2), (1, 3), (2, 3)]]
    base = [poly_text(g) for g in buchberger(IdealBasis(R, polys))]
    rng = random.Random(7)
    for _ in range(4):
        shuffled = polys[:]
        rng.shuffle(shuffled)
        assert [poly_text(g) for g in buchberger(IdealBasis(R, shuffled))] == base


# ---------------------------------------------------------------------------
# normal form


def test_normal_form_of_generators_is_zero(inst22):
    I = inst22.ideal()
    G = buchberger(I, order=GrevLex())
    for g in I.generators:
        assert not normal_form(g, G)


def test_normal_form_of_one_in_proper_ideal(inst22):
    G = buchberger(inst22.ideal(), order=GrevLex())
    assert normal_form(inst22.ring.one, G) == inst22.ring.one


def test_normal_form_zero_input(inst22):
    G = buchberger(inst22.ideal(), order=GrevLex())
    y1 = inst22.ring.var(yvar(1))
    q2 = inst22.polynomial(inst22.labels[1])
    assert not normal_form(y1 * q2 - y1 * q2, G)


def test_normal_form_idempotent(inst32):
    G = buchberger(inst32.ideal(), order=GrevLex())
    rng = random.Random(3)
    ring = inst32.ring
    for _ in range(10):
        f = ring.zero
        for _ in range(4):
            v1, v2 = rng.sample(ring.vars, 2)
            f = f + rng.randint(-5, 5) * ring.var(v1) * ring.var(v2)
        r = normal_form(f, G)
        assert normal_form(r, G) == r


# ---------------------------------------------------------------------------
# radical membership


def test_radical_square_root():
    R = ambient_ring(1, 1, field=FP)
    x11 = R.var(xvar(1, 1))
    assert radical_membership(x11, IdealBasis(R, [x11 * x11]))


def test_radical_negative():
    R = ambient_ring(1, 1, field=FP)
    x11, y1 = R.var(xvar(1, 1)), R.var(yvar(1))
    assert not radical_membership(y1, IdealBasis(R, [x11]))


def hsop_32(field=FP):
    from resint.residual import hsop

    inst = build_instance(3, 2, field=field)
    return inst, hsop(inst)


def test_radical_hsop_32_contains_minor():
    inst, witnesses = hsop_32()
    I = IdealBasis(inst.ring, witnesses)
    target = minor(inst.ring, [1, 2])
    assert radical_membership(target, I)


def test_radical_hsop_32_sympy_oracle():
    inst, witnesses = hsop_32()
    symbol_map = sympy_symbols(inst.ring)
    t = sp.Symbol("t")
    gens_desc = tuple(symbol_map[v] for v in reversed(inst.ring.vars)) + (t,)
    target = to_sympy(minor(inst.ring, [1, 2]), symbol_map)
    exprs = [to_sympy(w, symbol_map) for w in witnesses] + [1 - t * target]
    G = sp.groebner(exprs, *gens_desc, order="grevlex", modulus=32003)
    assert list(G.exprs) == [sp.Integer(1)]
    # and a non-member stays out in both engines
    y1 = to_sympy(inst.ring.var(yvar(1)), symbol_map)
    G2 = sp.groebner(
        [to_sympy(w, symbol_map) for w in witnesses] + [1 - t * y1],
        *gens_desc,
        order="grevlex",
        modulus=32003,
    )
    assert list(G2.exprs) != [sp.Integer(1)]
    assert not radical_membership(inst.ring.var(yvar(1)), IdealBasis(inst.ring, witnesses))


def test_radical_monotone_under_products_and_powers():
    R = ambient_ring(2, 2, field=FP)
    x11, x12 = R.var(xvar(1, 1)), R.var(xvar(1, 2))
    y1 = R.var(yvar(1))
    rng = random.Random(11)
    I = IdealBasis(R, [x11 * x11, x12 * y1])
    members = [f for f in (x11, x11 * x12, x11 + x12 * y1) if radical_membership(f, I)]
    assert members
    for f in members:
        for _ in range(3):
            v = R.var(rng.choice(R.vars))
            assert radical_membership(f * v, I)
        assert radical_membership(f**2, I)
        assert radical_membership(f**3, I)


# ---------------------------------------------------------------------------
# colon and intersection, by the elimination reference


def test_colon_principal():
    R = ambient_ring(1, 1, field=FP)
    x11 = R.var(xvar(1, 1))
    C = colon_by_elimination(IdealBasis(R, [x11 * x11]), IdealBasis(R, [x11]))
    assert ideal_equal(C, IdealBasis(R, [x11]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_self_linkage(n):
    ring = PolynomialRing(FP, [yvar(i) for i in range(1, n + 1)])
    ys = [ring.var(yvar(i)) for i in range(1, n + 1)]
    I = IdealBasis(ring, ys[:-1] + [ys[-1] * ys[-1]])
    J = IdealBasis(ring, ys)
    assert ideal_equal(colon_by_elimination(I, J), J)


def test_colon_22_equals_residual_ideal(inst22, fp):
    inst = build_instance(2, 2, field=fp)
    ring = inst.ring
    I = IdealBasis(ring, [q_entry(ring, 1), q_entry(ring, 2)])
    J = IdealBasis(ring, [ring.var(yvar(1)), ring.var(yvar(2))])
    C = colon_by_elimination(I, J)
    assert ideal_equal(C, inst.ideal())


def test_colon_22_sympy_oracle(fp):
    # independent check of the same equality: mutual reduction via sympy
    inst = build_instance(2, 2, field=fp)
    ring = inst.ring
    I = IdealBasis(ring, [q_entry(ring, 1), q_entry(ring, 2)])
    J = IdealBasis(ring, [ring.var(yvar(1)), ring.var(yvar(2))])
    C = colon_by_elimination(I, J)
    symbol_map = sympy_symbols(ring)
    gens_desc = tuple(symbol_map[v] for v in reversed(ring.vars))
    G_ri = sp.groebner(
        [to_sympy(g, symbol_map) for g in inst.generators()],
        *gens_desc, order="grevlex", modulus=32003,
    )
    for g in C.generators:
        assert G_ri.reduce(to_sympy(g, symbol_map))[1] == 0
    G_colon = sp.groebner(
        [to_sympy(g, symbol_map) for g in C.generators],
        *gens_desc, order="grevlex", modulus=32003,
    )
    for g in inst.generators():
        assert G_colon.reduce(to_sympy(g, symbol_map))[1] == 0
    # and every colon generator really multiplies (y) back into (Q)
    G_q = sp.groebner(
        [to_sympy(g, symbol_map) for g in I.generators],
        *gens_desc, order="grevlex", modulus=32003,
    )
    for g in C.generators:
        for yv in J.generators:
            prod = to_sympy(g, symbol_map) * to_sympy(yv, symbol_map)
            assert G_q.reduce(sp.expand(prod))[1] == 0


def test_colon_by_zero_raises():
    R = ambient_ring(1, 1, field=FP)
    x11 = R.var(xvar(1, 1))
    with pytest.raises(ValueError):
        colon_by_elimination(IdealBasis(R, [x11]), [R.zero])


def test_intersection_simple():
    R = ambient_ring(2, 2, field=FP)
    x11, x12 = R.var(xvar(1, 1)), R.var(xvar(1, 2))
    I = intersect_by_elimination(IdealBasis(R, [x11]), IdealBasis(R, [x12]))
    assert ideal_equal(I, IdealBasis(R, [x11 * x12]))


# ---------------------------------------------------------------------------
# ideal equality, by the reference


def test_ideal_equal_syntactic(inst22):
    I = inst22.ideal()
    assert ideal_equal(I, I)


def test_ideal_equal_distinguishes_powers():
    R = ambient_ring(1, 1, field=FP)
    x11 = R.var(xvar(1, 1))
    assert not ideal_equal(IdealBasis(R, [x11]), IdealBasis(R, [x11 * x11]))


# ---------------------------------------------------------------------------
# quotient dimension


def test_dimension_single_variable():
    ring = PolynomialRing(FP, [xvar(1, 1), xvar(1, 2)])
    I = IdealBasis(ring, [ring.var(xvar(1, 1))])
    assert quotient_dimension(I) == 1


def test_dimension_unit_ideal():
    ring = PolynomialRing(FP, [xvar(1, 1)])
    I = IdealBasis(ring, [ring.one])
    assert quotient_dimension(I) == EMPTY_VARIETY_DIMENSION


@pytest.mark.parametrize(
    "m,n",
    [(m, n) for m in range(2, 5) for n in range(1, m + 1)],
)
def test_dimension_of_residual_ideal(m, n):
    # quotient dimension mn + n - m, the height-m consistency check
    inst = build_instance(m, n, field=FP)
    assert quotient_dimension(inst.ideal()) == m * n + n - m


def test_budget_exceeded_carries_stats():
    inst = build_instance(3, 2, field=FP)
    with pytest.raises(BudgetExceeded) as err:
        buchberger(inst.ideal(), order=GrevLex(), budget=Budget(max_pairs=2))
    assert err.value.stats["pairs"] >= 2
    assert "max_terms" in err.value.stats


# ---------------------------------------------------------------------------
# the packed engine: integer keys and SWAR monomial arithmetic


NVARS = 6
ORDERS = [Lex(), GrevLex(), TauOrder([3, 0, 5, 1, 4, 2]), BlockOrder([[4, 1], [0, 2, 3, 5]])]


def packing(order):
    return _Packing(PolynomialRing(QQ, [yvar(i) for i in range(1, NVARS + 1)], order))


# small exponents make divisibility and equal keys common; large ones reach
# the top of the field
exponent = st.one_of(st.integers(0, 2), st.integers(0, EXPONENT_LIMIT - 1))
exponents = st.tuples(*[exponent] * NVARS)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ORDERS), exponents, exponents)
def test_integer_key_orders_like_order_key(order, a, b):
    pk = packing(order)
    ka, kb = pk.key(pk.pack(a)), pk.key(pk.pack(b))
    ta, tb = order.key(a), order.key(b)
    assert (ka < kb, ka == kb) == (ta < tb, ta == tb)
    pa, pb = pk.pair_key(pk.pack(a)), pk.pair_key(pk.pack(b))
    assert (pa < pb, pa == pb) == ((sum(a), ta) < (sum(b), tb), (sum(a), ta) == (sum(b), tb))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORDERS), exponents, exponents)
def test_integer_key_is_linear(order, a, b):
    pk = packing(order)
    a = tuple(x // 2 for x in a)
    b = tuple(x // 2 for x in b)
    s = tuple(x + y for x, y in zip(a, b))
    assert pk.key(pk.pack(s)) == pk.key(pk.pack(a)) + pk.key(pk.pack(b))
    assert pk.pair_key(pk.pack(s)) == pk.pair_key(pk.pack(a)) + pk.pair_key(pk.pack(b))


def test_grevlex_key_reads_the_exponent_bytes():
    # a grevlex packing keys by the degree above the big-endian exponents,
    # not by folded weights; on every monomial with exponents 0..2 in four
    # variables, and at the top of the field, it orders as `GrevLex.key`
    # and is linear
    order = GrevLex()
    ring = PolynomialRing(QQ, [yvar(i) for i in range(1, 5)], order)
    pk = _Packing(ring)
    top = EXPONENT_LIMIT - 1
    monos = list(itertools.product(range(3), repeat=4)) + [(top, 0, 0, 0), (0, 0, 0, top), (top,) * 4]
    key = {e: pk.key(pk.pack(e)) for e in monos}
    assert sorted(monos, key=key.__getitem__) == sorted(monos, key=order.key)
    assert key[(1, 2, 0, 1)] == (4 << 8 * 4 + 1) - int.from_bytes(bytes((1, 2, 0, 1)), "big")
    for a, b in itertools.product(monos[:81], repeat=2):
        s = tuple(x + y for x, y in zip(a, b))
        assert pk.key(pk.pack(s)) == key[a] + key[b]
    half = (top // 2,) * 4
    assert pk.key(pk.pack((top - 1,) * 4)) == 2 * pk.key(pk.pack(half))


@settings(max_examples=300, deadline=None)
@given(exponents, exponents)
def test_packed_divisibility_lcm_and_product(a, b):
    pk = packing(GrevLex())
    guard = pk.guard
    pa, pb = pk.pack(a), pk.pack(b)
    assert pk.unpack(pa) == a
    assert (not (pa - pb) & guard) == all(y <= x for x, y in zip(a, b))
    assert pk.unpack(_lcm(pa, pb, guard)) == tuple(map(max, a, b))
    product = tuple(x + y for x, y in zip(a, b))
    overflow = max(product) >= EXPONENT_LIMIT
    assert bool((pa + pb) & guard) == overflow
    if not overflow:
        assert pk.unpack(pa + pb) == product


@settings(max_examples=100, deadline=None)
@given(st.lists(exponents, min_size=1, max_size=12), exponents)
def test_first_divisor_is_the_first_in_basis_order(leads, e):
    pk = packing(GrevLex())
    leads = [tuple(x % 3 for x in lead) for lead in leads]
    reducers = _Reducers(pk.guard, NVARS, [[(0, pk.pack(lead), 1)] for lead in leads])
    expected = next(
        (i for i, lead in enumerate(leads) if all(x <= y for x, y in zip(lead, e))), -1
    )
    assert reducers.divisor(pk.pack(e)) == expected


def test_exponent_at_field_limit_raises_budget_exceeded():
    R = ambient_ring(1, 1, field=FP)
    x, y = R.var(xvar(1, 1)), R.var(yvar(1))
    with pytest.raises(BudgetExceeded, match="exponent overflow"):
        buchberger(IdealBasis(R, [x**EXPONENT_LIMIT - y]))
    assert buchberger(IdealBasis(R, [x ** (EXPONENT_LIMIT - 1) - y])).elements


def test_product_past_field_limit_raises_budget_exceeded():
    # under lex x is the lead of x - y^100; reducing x^2 by it twice needs
    # y^200, past the field, so the run stops instead of wrapping around
    R = ambient_ring(1, 1, field=FP, order=Lex())
    x, y = R.var(xvar(1, 1)), R.var(yvar(1))
    with pytest.raises(BudgetExceeded, match="exponent overflow") as err:
        buchberger(IdealBasis(R, [x - y**100, x**2 + y]))
    assert err.value.stats["pairs"] == 0
    G = buchberger(IdealBasis(R, [x - y**100]))
    with pytest.raises(BudgetExceeded, match="exponent overflow"):
        normal_form(x**2, G)
    assert normal_form(x * y, G) == y**101


def test_wall_clock_budget_is_checked_inside_a_reduction(monkeypatch):
    # the clock reads as expired only inside the reducer, so the raise can
    # come from nowhere else; seeding (x21 - x11, (x11 + x21 + y1)^25)
    # takes hundreds of reduction steps in one call
    def clock():
        return 1e9 if sys._getframe(1).f_code.co_name == "_reduce" else 0.0

    monkeypatch.setattr(groebner.time, "monotonic", clock)
    R = ambient_ring(2, 1, field=FP, order=GrevLex())
    x11, x21, y1 = R.var(xvar(1, 1)), R.var(xvar(2, 1)), R.var(yvar(1))
    gens = [x21 - x11, (x11 + x21 + y1) ** 25]
    with pytest.raises(BudgetExceeded, match="wall-clock") as err:
        buchberger(IdealBasis(R, gens), budget=Budget(wall_seconds=60))
    assert err.traceback[-1].name == "_reduce"
    assert err.value.stats["pairs"] == 0


GOLDEN_RUNS = Path(__file__).parent / "golden" / "groebner_runs.json"


def test_groebner_runs_match_golden(monkeypatch):
    # pairs, peak terms and bases of every run of a small workload over both
    # fields and all four order kinds, pinned from the tuple-exponent engine;
    # that engine also ran 1002 reductions there (seeds, S-polynomials, tail
    # reductions, normal forms), and a pair criterion that dropped fewer
    # pairs would reduce more S-polynomials
    real = groebner._reduce
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_reduce", counting)
    assert collect_runs() == json.loads(GOLDEN_RUNS.read_text())
    assert len(calls) == 1002
