"""Polynomial arithmetic, monomial orders, minors, bordered determinants."""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import d_polynomials, det_laplace, monomial_text_by_sort, polynomial_kernel
from resint import ring as ring_module
from resint.groebner import _extended_ring
from resint.labels import GeneratorLabel, M, Q
from resint.poset import StraighteningRelation, bordered_relation, straighten
from resint.residual import build_instance
from resint.ring import (
    GF,
    QQ,
    BadIndex,
    BadRowSet,
    GrevLex,
    IncompatibleField,
    NotIncomparable,
    PolynomialRing,
    VariableId,
    ZeroPolynomial,
    ambient_ring,
    minor,
    monomial_text,
    poly_text,
    pvar,
    q_entry,
    xvar,
    yvar,
)
from resint.sagbi import initial_generators
from resint.transcendence import DContext


def leibniz_minor(ring, rows):
    """Independent oracle: signed permutation sum, term by term."""
    n = ring.n
    acc = ring.zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = ring.const(sign)
        for i, r in enumerate(rows):
            term = term * ring.var(xvar(r, perm[i] + 1))
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# add / mul examples


def test_add_cancellation():
    R = ambient_ring(2, 2)
    x11, y1 = R.var(xvar(1, 1)), R.var(yvar(1))
    assert (x11 + y1) + (-y1) == x11


def test_add_identity():
    R = ambient_ring(2, 2)
    f = q_entry(R, 1) * q_entry(R, 2)
    assert R.zero + f == f


def test_add_merges_coefficients():
    R = ambient_ring(2, 2)
    x11, x12 = R.var(xvar(1, 1)), R.var(xvar(1, 2))
    y1, y2 = R.var(yvar(1)), R.var(yvar(2))
    lhs = (x11 * y1 + x12 * y2) + x11 * y1
    assert lhs == 2 * x11 * y1 + x12 * y2


def test_mul_by_one():
    R = ambient_ring(3, 2)
    f = minor(R, [1, 3]) + q_entry(R, 2)
    assert f * R.one == f


def test_difference_of_squares():
    R = ambient_ring(2, 2)
    x11, x12 = R.var(xvar(1, 1)), R.var(xvar(1, 2))
    assert (x11 - x12) * (x11 + x12) == x11 * x11 - x12 * x12


def test_q1_squared_by_hand():
    # (x11 y1 + x12 y2)^2 expanded manually
    R = ambient_ring(2, 2)
    x11, x12 = R.var(xvar(1, 1)), R.var(xvar(1, 2))
    y1, y2 = R.var(yvar(1)), R.var(yvar(2))
    q1 = q_entry(R, 1)
    expected = x11**2 * y1**2 + 2 * x11 * x12 * y1 * y2 + x12**2 * y2**2
    assert q1 * q1 == expected


def test_mixed_fields_raise():
    a = ambient_ring(2, 2, field=QQ).one
    b = ambient_ring(2, 2, field=GF(32003)).one
    with pytest.raises(IncompatibleField):
        a + b


def test_mixed_primes_raise():
    a = ambient_ring(2, 2, field=GF(5)).one
    b = ambient_ring(2, 2, field=GF(7)).one
    with pytest.raises(IncompatibleField):
        a * b


def test_large_mersenne_prime_field_is_fast():
    start = time.monotonic()
    field = GF(2**61 - 1)
    assert time.monotonic() - start < 0.5
    assert field.mul(field.inv(3), 3) == 1


@pytest.mark.parametrize("composite", [1, 561, 3215031751, 2**61 + 1])
def test_composites_rejected(composite):
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7
    with pytest.raises(ValueError, match="not prime"):
        GF(composite)


def test_prime_fields_agree_with_trial_division():
    def accepted(p):
        try:
            GF(p)
        except ValueError:
            return False
        return True

    def trial(p):
        return p >= 2 and all(p % q for q in range(2, int(p**0.5) + 1))

    assert [p for p in range(3000) if accepted(p)] == [p for p in range(3000) if trial(p)]


def test_prime_beyond_64_bits_rejected():
    with pytest.raises(ValueError, match="2\\*\\*64"):
        GF(2**89 - 1)


# ---------------------------------------------------------------------------
# leading monomials (the two formulas everything relies on)


def test_leading_monomial_of_q():
    R = ambient_ring(4, 2)
    lm = q_entry(R, 3).leading_monomial()
    assert lm == R.monomial({xvar(3, 2): 1, yvar(2): 1})


def test_leading_monomial_of_minor():
    R = ambient_ring(4, 2)
    lm = minor(R, [2, 4]).leading_monomial()
    assert lm == R.monomial({xvar(2, 1): 1, xvar(4, 2): 1})


@pytest.mark.parametrize("m", range(1, 7))
def test_leading_monomial_formulas_all_shapes(m):
    for n in range(1, m + 1):
        R = ambient_ring(m, n)
        for i in range(1, m + 1):
            expected = {xvar(i, n): 1, yvar(n): 1}
            assert q_entry(R, i).leading_monomial() == R.monomial(expected)
        for rows in itertools.combinations(range(1, m + 1), n):
            expected = {xvar(r, j + 1): 1 for j, r in enumerate(rows)}
            assert minor(R, rows).leading_monomial() == R.monomial(expected)


def test_lex_orders_declared_sequence():
    R = ambient_ring(2, 2)
    y1, y2 = R.var(yvar(1)), R.var(yvar(2))
    assert (y1 + y2).leading_monomial() == R.monomial({yvar(2): 1})


def test_leading_monomial_of_zero_raises():
    R = ambient_ring(2, 2)
    with pytest.raises(ZeroPolynomial):
        R.zero.leading_monomial()


# ---------------------------------------------------------------------------
# minors


def test_minor_2x2():
    R = ambient_ring(2, 2)
    expected = R.var(xvar(1, 1)) * R.var(xvar(2, 2)) - R.var(xvar(1, 2)) * R.var(xvar(2, 1))
    assert minor(R, [1, 2]) == expected


def test_minor_rows_1_4():
    R = ambient_ring(4, 2)
    expected = R.var(xvar(1, 1)) * R.var(xvar(4, 2)) - R.var(xvar(1, 2)) * R.var(xvar(4, 1))
    assert minor(R, [1, 4]) == expected


@pytest.mark.parametrize(
    "m,n,rows",
    [
        (3, 3, (1, 2, 3)),
        (4, 3, (1, 3, 4)),
        (5, 4, (1, 2, 4, 5)),
        (6, 2, (2, 5)),
        (5, 5, (1, 2, 3, 4, 5)),
    ],
)
def test_minor_against_leibniz_oracle(m, n, rows):
    R = ambient_ring(m, n)
    assert minor(R, rows) == leibniz_minor(R, rows)


@pytest.mark.parametrize("m,n", [(3, 1), (4, 2), (6, 3), (8, 4), (6, 5), (7, 5)])
def test_minor_equals_the_cofactor_expansion(m, n):
    R = ambient_ring(m, n)
    for rows in itertools.combinations(range(1, m + 1), n):
        matrix = [[R.var(xvar(r, j)) for j in range(1, n + 1)] for r in rows]
        assert minor(R, rows)._terms == det_laplace(R, matrix)._terms


def test_minor_bad_rows():
    R = ambient_ring(4, 2)
    with pytest.raises(BadRowSet):
        minor(R, [2, 2])
    with pytest.raises(BadRowSet):
        minor(R, [3, 1])
    with pytest.raises(BadRowSet):
        minor(R, [1, 5])


# ---------------------------------------------------------------------------
# q_entry


def test_q_entry_examples():
    R = ambient_ring(4, 2)
    assert poly_text(q_entry(R, 1)) == "x[1][2]*y[2] + x[1][1]*y[1]"
    R1 = ambient_ring(3, 1)
    assert q_entry(R1, 2) == R1.var(xvar(2, 1)) * R1.var(yvar(1))
    R3 = ambient_ring(3, 3)
    expected = sum(
        (R3.var(xvar(2, j)) * R3.var(yvar(j)) for j in (1, 2, 3)), R3.zero
    )
    assert q_entry(R3, 2) == expected


def test_q_entry_bad_index():
    R = ambient_ring(3, 2)
    with pytest.raises(BadIndex):
        q_entry(R, 4)
    with pytest.raises(BadIndex):
        q_entry(R, 0)


# ---------------------------------------------------------------------------
# bordered determinants


def test_bordered_cofactors_rows12_j3(inst32):
    terms = bordered_relation((1, 2, 3))
    assert terms == [(1, (Q(1), M([2, 3]))), (-1, (Q(2), M([1, 3]))), (1, (Q(3), M([1, 2])))]
    rel = StraighteningRelation.solve(terms, (Q(3), M([1, 2])))
    assert rel.right == ((-1, (Q(1), M([2, 3]))), (1, (Q(2), M([1, 3]))))
    assert rel.verify(inst32)


def test_bordered_4rows_n3():
    terms = bordered_relation((1, 2, 3, 4))
    assert len(terms) == 4
    rel = StraighteningRelation.solve(terms, (Q(4), M([1, 2, 3])))
    assert rel.verify(build_instance(4, 3))


def test_bordered_rejects_comparable_shape(inst42):
    # the bordered relation straightens Q_j * [rows] only for j > max(rows)
    with pytest.raises(NotIncomparable):
        straighten(inst42, Q(2), M([1, 3]))
    with pytest.raises(NotIncomparable):
        straighten(inst42, Q(3), M([1, 3]))


@pytest.mark.parametrize("m", range(2, 7))
def test_bordered_expansion_vanishes_everywhere(m):
    for n in range(1, m):
        inst = build_instance(m, n)
        for rows in itertools.combinations(range(1, m + 1), n + 1):
            rel = StraighteningRelation.solve(
                bordered_relation(rows), (Q(rows[-1]), M(rows[:-1]))
            )
            assert rel.verify(inst)


# ---------------------------------------------------------------------------
# randomized algebra properties


def polys(ring, max_terms=4, max_exp=2):
    variables = st.sampled_from(ring.vars)
    monomial = st.dictionaries(variables, st.integers(1, max_exp), max_size=3)
    coeff = st.integers(-9, 9)
    term = st.tuples(coeff, monomial)
    return st.lists(term, max_size=max_terms).map(ring.from_terms)


RQ = ambient_ring(2, 2)
RP = ambient_ring(2, 2, field=GF(101))


@settings(max_examples=60, deadline=None)
@given(polys(RQ), polys(RQ), polys(RQ))
def test_ring_axioms_rational(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)


@settings(max_examples=60, deadline=None)
@given(polys(RP), polys(RP), polys(RP))
def test_ring_axioms_prime_field(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(polys(RQ), polys(RQ))
def test_leading_monomial_multiplicative(f, g):
    if not f or not g:
        return
    lf, lg = f.leading_monomial(), g.leading_monomial()
    assert (f * g).leading_monomial() == tuple(a + b for a, b in zip(lf, lg))


def substitute_by_hand(f, images, target):
    """Oracle: each term as a plain product, one factor per unit of exponent."""
    acc = target.zero
    for exps, c in f._terms:
        term = target.const(c)
        for img, k in zip(images, exps):
            for _ in range(k):
                term = term * img
        acc = acc + term
    return acc


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([RQ, RP]).flatmap(
        lambda R: st.tuples(
            polys(R, max_terms=6, max_exp=3),
            st.lists(polys(R, max_terms=3), min_size=len(R.vars), max_size=len(R.vars)),
        )
    )
)
def test_substitute_matches_term_by_term_products(case):
    # repeated powers of one image across terms exercise the power memo
    f, images = case
    R = f.ring
    got = f.substitute(dict(zip(R.vars, images)), R)
    assert got._terms == substitute_by_hand(f, images, R)._terms


@settings(max_examples=40, deadline=None)
@given(polys(RQ))
def test_one_is_least_monomial(f):
    # multiplying by a variable can only raise the leading monomial
    if not f:
        return
    for v in RQ.vars:
        key = RQ.order.key
        assert key((f * RQ.var(v)).leading_monomial()) > key(f.leading_monomial())


def assert_q_element(got, value: Fraction):
    """`got` is `value` as an element of Q: an int exactly when integral."""
    assert got == value
    assert type(got) is (int if value.denominator == 1 else Fraction)


rationals = st.one_of(
    st.integers(-30, 30), st.fractions(min_value=-20, max_value=20, max_denominator=12)
)


@settings(max_examples=300, deadline=None)
@given(rationals, rationals)
def test_rational_field_matches_fraction_arithmetic(p, q):
    p, q = Fraction(p), Fraction(q)
    a, b = QQ.coerce(p), QQ.coerce(q)
    assert_q_element(a, p)
    assert_q_element(b, q)
    assert_q_element(QQ.coerce(p.numerator), Fraction(p.numerator))
    assert_q_element(QQ.add(a, b), p + q)
    assert_q_element(QQ.sub(a, b), p - q)
    assert_q_element(QQ.mul(a, b), p * q)
    assert_q_element(QQ.neg(a), -p)
    if q:
        assert_q_element(QQ.div(a, b), p / q)
        assert_q_element(QQ.inv(b), 1 / q)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, b)


def test_rational_coefficients_stay_ints(inst42):
    # every certificate polynomial has integer coefficients; a Fraction here
    # means some layer stopped keeping integral values as ints
    from resint.labels import M, Q
    from references import expand_labels
    from resint.transcendence import DContext

    context = DContext(inst42)
    polys = inst42.generators()
    polys.append(expand_labels(inst42, (Q(3), M([1, 2]), M([2, 4]))))
    coefficients = [c for f in polys for _, c in f._terms]
    # the fractions' numerators are packed dicts over D
    coefficients += [c for label in inst42.labels for c in context.fraction(label).num.values()]
    assert coefficients and all(type(c) is int for c in coefficients)


# ---------------------------------------------------------------------------
# structure invariants and serialization


def test_monomial_exponent_map_is_sparse():
    R = ambient_ring(3, 2)
    exps = (q_entry(R, 1) * q_entry(R, 1)).leading_monomial()
    sparse = {v: e for v, e in zip(R.vars, exps) if e}
    assert all(e > 0 for e in sparse.values())
    assert sum(exps) == sum(sparse.values())
    assert R.monomial(sparse) == exps


def test_serialization_rational_signs():
    R = ambient_ring(2, 2)
    f = minor(R, [1, 2]) - R.const(Fraction(1, 2))
    assert poly_text(f) == "x[1][1]*x[2][2] - x[1][2]*x[2][1] - 1/2"


def test_serialization_half_from_a_division():
    R = ambient_ring(2, 2)
    f = (minor(R, [1, 2]) * 2 - R.one) * QQ.div(1, 2)
    assert poly_text(f) == "x[1][1]*x[2][2] - x[1][2]*x[2][1] - 1/2"
    assert [type(c) for _, c in f._terms] == [int, int, Fraction]
    # doubling clears the one denominator: every coefficient is an int again
    assert poly_text(f * 2) == "2*x[1][1]*x[2][2] - 2*x[1][2]*x[2][1] - 1"
    assert all(type(c) is int for _, c in (f * 2)._terms)


def test_serialization_prime_field_residues():
    R = ambient_ring(2, 2, field=GF(7))
    f = minor(R, [1, 2])
    assert poly_text(f) == "x[1][1]*x[2][2] + 6*x[1][2]*x[2][1]"


def test_serialization_zero():
    R = ambient_ring(2, 2)
    assert poly_text(R.zero) == "0"


def test_serialization_read_over_a_prime_field():
    # each coefficient prints as its residue, and a residue 0 drops its term
    R = ambient_ring(2, 2)
    x = lambda i, j: R.var(xvar(i, j))
    f = 2 * x(1, 1) * x(2, 2) - x(1, 2) * x(2, 1) + 3
    assert poly_text(f, GF(2)) == "x[1][2]*x[2][1] + 1"
    assert poly_text(f, GF(3)) == "2*x[1][1]*x[2][2] + 2*x[1][2]*x[2][1]"
    assert poly_text(f, QQ) == poly_text(f) == "2*x[1][1]*x[2][2] - x[1][2]*x[2][1] + 3"
    assert poly_text(2 * x(1, 1), GF(2)) == "0"


def _rendered_by_sort(f, monkeypatch) -> str:
    """`poly_text` with each monomial rendered by the per-term sort."""
    with monkeypatch.context() as patch:
        patch.setattr(ring_module, "monomial_text", monomial_text_by_sort)
        return poly_text(f)


def _assert_renders_as_by_sort(polys, monkeypatch):
    for f in polys:
        for e, _ in f._terms:
            assert monomial_text(f.ring, e) == monomial_text_by_sort(f.ring, e)
        assert poly_text(f) == _rendered_by_sort(f, monkeypatch)


@pytest.mark.parametrize("m,n", [(3, 2), (4, 1), (5, 3)])
def test_a_monomial_prints_as_its_sorted_factors(m, n):
    # the display table prints an exponent tuple as the per-term sort does:
    # in the ambient ring, whose display order is its variable sequence
    # rotated, and in a ring whose display order is no rotation, squares too
    R = ambient_ring(m, n)
    nv = len(R.vars)
    shuffled = PolynomialRing(QQ, R.vars[1::2] + R.vars[::2])
    monomials = [tuple(e) for e in itertools.product((0, 1), repeat=nv)][:: max(1, 2**nv // 300)]
    monomials += [tuple(2 if i == j else e[i] for i in range(nv)) for j, e in enumerate(monomials[:nv])]
    for ring in (R, shuffled):
        for e in monomials:
            assert monomial_text(ring, e) == monomial_text_by_sort(ring, e)


def _signed_and_squared(R, m, n):
    """Q_1**2, a negative coefficient and a Fraction coefficient."""
    main = minor(R, tuple(range(1, n + 1)))
    return q_entry(R, 1) ** 2 - main * 3 + q_entry(R, m) * R.const(Fraction(2, 3))


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("m,n", [(4, 2), (6, 5), (11, 3)])
def test_poly_text_matches_the_per_term_sort_on_ambient_rings(m, n, field, monkeypatch):
    R = ambient_ring(m, n, field=field)
    polys = [minor(R, rows) for rows in itertools.combinations(range(1, m + 1), n)]
    polys += [q_entry(R, i) for i in range(1, m + 1)]
    polys.append(_signed_and_squared(R, m, n))
    _assert_renders_as_by_sort(polys, monkeypatch)
    if m == 11:
        # rows compare as ints: 10 and 11 display after 9
        assert "x[9][1]*x[10][2]*x[11][3]" in poly_text(minor(R, (9, 10, 11)))
    if field == QQ:
        text = poly_text(_signed_and_squared(R, m, n))
        assert " - 3*x[1][1]*" in text and f"2/3*x[{m}][1]*y[1]" in text
        assert "^2" in text


def test_poly_text_matches_the_per_term_sort_on_the_presentation_ring(monkeypatch):
    mam = initial_generators(build_instance(5, 2))
    pring = mam.pring
    assert pvar(15) in pring.index
    top = pring.var(pvar(15))
    polys = list(polynomial_kernel(mam)) + [pring.var(pvar(2)) * top**2 - top * pring.const(Fraction(1, 2))]
    _assert_renders_as_by_sort(polys, monkeypatch)
    assert poly_text(pring.var(pvar(2)) * top) == "Y[2]*Y[15]"


def test_poly_text_matches_the_per_term_sort_on_the_d_ring(monkeypatch):
    instance = build_instance(5, 3)
    context = DContext(instance)
    # the packed fractions unpacked into the presentation ring of D
    pairs = [d_polynomials(context, context.fraction(lab)) for lab in instance.labels]
    dring = pairs[0][0].ring
    product = dring.one
    for v in dring.vars:
        product = product * dring.var(v)
    polys = [num for num, _ in pairs] + [den for _, den in pairs]
    polys.append(product * dring.var(dring.vars[1]) - dring.const(Fraction(-5, 7)))
    _assert_renders_as_by_sort(polys, monkeypatch)
    assert poly_text(product).startswith("Y[1]*Y[2]*Y[3]*")
    assert poly_text(product).endswith("*Y[9]*Y[10]")


def test_poly_text_matches_the_per_term_sort_on_slack_rings(monkeypatch):
    R = ambient_ring(4, 2)
    ext, t = _extended_ring(R, GrevLex())
    ext2, t1 = _extended_ring(ext, GrevLex())
    assert (t.text, t1.text) == ("t", "t1")
    q1 = q_entry(R, 1).convert(ext2)
    polys = [
        ext2.one - ext2.var(t1) * minor(R, (1, 2)).convert(ext2),
        ext2.var(t) ** 2 * ext2.var(t1) * q1 * 5 - ext2.var(t) * ext2.const(Fraction(3, 4)),
        ext.one - ext.var(t) * q_entry(R, 3).convert(ext),
    ]
    _assert_renders_as_by_sort(polys, monkeypatch)
    assert "x[1][1]*y[1]*t^2*t1" in poly_text(polys[1])


def test_exact_division_roundtrip():
    from references import exact_div

    R = ambient_ring(3, 2)
    f, g = minor(R, [1, 2]), q_entry(R, 3)
    assert exact_div(f * g, g) == f
    with pytest.raises(ValueError):
        exact_div(f * g + R.one, g)


def test_grevlex_is_degree_graded():
    R = ambient_ring(2, 2, order=GrevLex())
    f = R.var(xvar(1, 1)) ** 3 + R.var(xvar(2, 2)) * R.var(yvar(1))
    assert sum(f.leading_monomial()) == 3


# ---------------------------------------------------------------------------
# interned labels and variables


def test_labels_and_variables_are_interned():
    assert M([1, 2]) is M((1, 2)) is M(r for r in (1, 2))
    assert Q(3) is Q(3)
    assert xvar(1, 2) is xvar(1, 2)
    assert yvar(2) is yvar(2)


def test_interned_labels_keep_their_surface():
    import copy
    import pickle

    q, m = Q(3), M((1, 4))
    assert (q.text, m.text, repr(m)) == ("Q3", "[1,4]", "[1,4]")
    assert (q.sort_key, m.sort_key) == ((0, (3,)), (1, (1, 4)))
    assert (q.is_q, q.q_index, q.rows) == (True, 3, None)
    assert (m.is_q, m.q_index, m.rows) == (False, None, (1, 4))
    # the hash of the (q_index, rows) pair, as before interning
    assert (hash(q), hash(m)) == (hash((3, None)), hash((None, (1, 4))))
    assert GeneratorLabel(q_index=3) == q and GeneratorLabel(rows=(1, 4)) == m
    assert q != m and q != Q(4) and m != M((1, 3)) and Q(1) != M((1,))
    assert copy.deepcopy(m) == m and pickle.loads(pickle.dumps(q)) == q
    for bad in ((2, 1), [1, 1]):
        with pytest.raises(ValueError):
            M(bad)
    with pytest.raises(ValueError):
        GeneratorLabel()
    with pytest.raises(ValueError):
        GeneratorLabel(q_index=1, rows=(1,))


def test_interned_variables_keep_their_surface():
    import copy
    import pickle

    v = xvar(2, 3)
    assert (v.kind, v.indices, v.text, repr(v)) == ("x", (2, 3), "x[2][3]", "x[2][3]")
    assert (yvar(4).text, pvar(5).text) == ("y[4]", "Y[5]")
    assert v == VariableId("x", (2, 3)) and hash(v) == hash(("x", (2, 3)))
    assert v != xvar(3, 2) and yvar(1) != pvar(1)
    assert copy.deepcopy(v) == v and pickle.loads(pickle.dumps(v)) == v
    with pytest.raises(ValueError):
        VariableId("z", (1,))
