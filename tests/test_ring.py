"""Polynomial arithmetic, monomial orders, minors, bordered determinants."""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resint.ring import (
    GF,
    QQ,
    BadIndex,
    BadRowSet,
    GrevLex,
    IncompatibleField,
    NotIncomparable,
    ZeroPolynomial,
    ambient_ring,
    bordered_determinant,
    det_bareiss,
    det_laplace,
    minor,
    poly_text,
    q_entry,
    xvar,
    yvar,
)


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
    assert lm.exponents == {xvar(3, 2): 1, yvar(2): 1}


def test_leading_monomial_of_minor():
    R = ambient_ring(4, 2)
    lm = minor(R, [2, 4]).leading_monomial()
    assert lm.exponents == {xvar(2, 1): 1, xvar(4, 2): 1}


@pytest.mark.parametrize("m", range(1, 7))
def test_leading_monomial_formulas_all_shapes(m):
    for n in range(1, m + 1):
        R = ambient_ring(m, n)
        for i in range(1, m + 1):
            expected = {xvar(i, n): 1, yvar(n): 1}
            assert q_entry(R, i).leading_monomial().exponents == expected
        for rows in itertools.combinations(range(1, m + 1), n):
            expected = {xvar(r, j + 1): 1 for j, r in enumerate(rows)}
            assert minor(R, rows).leading_monomial().exponents == expected


def test_lex_orders_declared_sequence():
    R = ambient_ring(2, 2)
    y1, y2 = R.var(yvar(1)), R.var(yvar(2))
    assert (y1 + y2).leading_monomial().exponents == {yvar(2): 1}


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
    [(3, 3, (1, 2, 3)), (4, 3, (1, 3, 4)), (5, 4, (1, 2, 4, 5)), (6, 2, (2, 5))],
)
def test_minor_against_leibniz_oracle(m, n, rows):
    R = ambient_ring(m, n)
    assert minor(R, rows) == leibniz_minor(R, rows)


def test_minor_bad_rows():
    R = ambient_ring(4, 2)
    with pytest.raises(BadRowSet):
        minor(R, [2, 2])
    with pytest.raises(BadRowSet):
        minor(R, [3, 1])
    with pytest.raises(BadRowSet):
        minor(R, [1, 5])


def test_laplace_and_bareiss_agree_small():
    # the two determinant routes must agree where both apply
    for m, n in [(3, 3), (4, 4), (4, 3)]:
        R = ambient_ring(m, n)
        for rows in itertools.combinations(range(1, m + 1), n):
            matrix = [[R.var(xvar(r, j)) for j in range(1, n + 1)] for r in rows]
            assert det_laplace(R, matrix) == det_bareiss(R, matrix)


def test_laplace_and_bareiss_agree_generic_5x5():
    R = ambient_ring(5, 5)
    matrix = [[R.var(xvar(r, j)) for j in range(1, 6)] for r in range(1, 6)]
    assert det_laplace(R, matrix) == det_bareiss(R, matrix)
    assert minor(R, [1, 2, 3, 4, 5]) == det_bareiss(R, matrix)


def test_bareiss_handles_zero_pivots():
    R = ambient_ring(5, 5)
    x = lambda i, j: R.var(xvar(i, j))
    matrix = [[R.zero] * 5 for _ in range(5)]
    # permutation-like matrix with polynomial entries off the diagonal
    entries = [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)]
    for k, (i, j) in enumerate(entries):
        matrix[i][j] = x(k + 1, (k % 5) + 1)
    lap = det_laplace(R, matrix)
    assert det_bareiss(R, matrix) == lap
    assert lap  # nonzero


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


def test_bordered_cofactors_rows12_j3():
    R = ambient_ring(3, 2)
    exp = bordered_determinant(R, [1, 2], 3)
    assert exp.terms == [(1, 1, (2, 3)), (-1, 2, (1, 3)), (1, 3, (1, 2))]
    assert not exp.expand()


def test_bordered_4rows_n3():
    R = ambient_ring(4, 3)
    exp = bordered_determinant(R, [1, 2, 3], 4)
    assert len(exp.terms) == 4
    assert not exp.expand()


def test_bordered_rejects_comparable_shape():
    R = ambient_ring(4, 2)
    with pytest.raises(NotIncomparable):
        bordered_determinant(R, [1, 3], 2)
    with pytest.raises(NotIncomparable):
        bordered_determinant(R, [1, 3], 3)


@pytest.mark.parametrize("m", range(2, 7))
def test_bordered_expansion_vanishes_everywhere(m):
    for n in range(1, m):
        R = ambient_ring(m, n)
        for rows in itertools.combinations(range(1, m + 1), n):
            for j in range(rows[-1] + 1, m + 1):
                assert not bordered_determinant(R, rows, j).expand()


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
    assert (f * g).leading_monomial() == f.leading_monomial() * g.leading_monomial()


def substitute_by_hand(f, images, target):
    """Oracle: each term as a plain product, one factor per unit of exponent."""
    acc = target.zero
    for c, mono in f.terms:
        term = target.const(c)
        for img, k in zip(images, mono.exps):
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
    assert got.terms == substitute_by_hand(f, images, R).terms


@settings(max_examples=40, deadline=None)
@given(polys(RQ))
def test_one_is_least_monomial(f):
    # multiplying by a variable can only raise the leading monomial
    if not f:
        return
    for v in RQ.vars:
        key = RQ.order.key
        assert key((f * RQ.var(v)).leading_monomial().exps) > key(
            f.leading_monomial().exps
        )


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
    from resint.poset import expand_labels
    from resint.transcendence import DContext

    context = DContext(inst42)
    polys = list(inst42.polynomials.values())
    polys.append(expand_labels(inst42, (Q(3), M([1, 2]), M([2, 4]))))
    polys.extend(context.fraction(label).num for label in inst42.labels)
    coefficients = [c for f in polys for c, _ in f.terms]
    assert coefficients and all(type(c) is int for c in coefficients)


# ---------------------------------------------------------------------------
# structure invariants and serialization


def test_monomial_exponent_map_is_sparse():
    R = ambient_ring(3, 2)
    mono = (q_entry(R, 1) * q_entry(R, 1)).leading_monomial()
    assert all(e > 0 for e in mono.exponents.values())
    assert mono.degree == sum(mono.exponents.values())


def test_serialization_rational_signs():
    R = ambient_ring(2, 2)
    f = minor(R, [1, 2]) - R.const(Fraction(1, 2))
    assert poly_text(f) == "x[1][1]*x[2][2] - x[1][2]*x[2][1] - 1/2"


def test_serialization_half_from_a_division():
    R = ambient_ring(2, 2)
    f = (minor(R, [1, 2]) * 2 - R.one) * QQ.div(1, 2)
    assert poly_text(f) == "x[1][1]*x[2][2] - x[1][2]*x[2][1] - 1/2"
    assert [type(c) for c, _ in f.terms] == [int, int, Fraction]
    # doubling clears the one denominator: every coefficient is an int again
    assert poly_text(f * 2) == "2*x[1][1]*x[2][2] - 2*x[1][2]*x[2][1] - 1"
    assert all(type(c) is int for c, _ in (f * 2).terms)


def test_serialization_prime_field_residues():
    R = ambient_ring(2, 2, field=GF(7))
    f = minor(R, [1, 2])
    assert poly_text(f) == "x[1][1]*x[2][2] + 6*x[1][2]*x[2][1]"


def test_serialization_zero():
    R = ambient_ring(2, 2)
    assert poly_text(R.zero) == "0"


def test_exact_division_roundtrip():
    R = ambient_ring(3, 2)
    f, g = minor(R, [1, 2]), q_entry(R, 3)
    assert (f * g).exact_div(g) == f
    with pytest.raises(ValueError):
        (f * g + R.one).exact_div(g)


def test_grevlex_is_degree_graded():
    R = ambient_ring(2, 2, order=GrevLex())
    f = R.var(xvar(1, 1)) ** 3 + R.var(xvar(2, 2)) * R.var(yvar(1))
    assert f.leading_monomial().degree == 3
