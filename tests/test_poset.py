"""Order relation, Hasse diagrams, ranks, meets and joins, standard
monomials, straightening, the two ASL axioms, and the wonderful-poset
condition."""

from __future__ import annotations

import itertools
import json
import random
import types
from pathlib import Path

import pytest

import references
from references import (
    asl1_by_expansion,
    cover_pairs_by_triples,
    det_laplace,
    distributive_by_pairs,
    distributive_by_triples,
    enumerate_standard_monomials,
    expand_labels,
    is_standard,
    lattice_tables,
    on_cell_by_filter,
    reexpands_in_full,
    straighten_by_solve,
    up_sets,
)
from resint import poset as poset_module
from resint.groebner import Budget, BudgetExceeded, _Packing
from resint.labels import M, Q, canonical_labels
from resint.poset import (
    BPoset,
    StraighteningRelation,
    _on_cell,
    bordered_relation,
    incomparable,
    incomparable_pairs,
    is_wonderful,
    less_eq,
    packed_minor,
    straighten,
    straighten_product,
    verify_asl1,
    verify_asl2,
    witness_chain,
)
from resint.residual import build_instance
from resint.ring import GF, QQ, NotIncomparable, xvar
from resint.transcendence import DContext

GOLDEN_RELATIONS = Path(__file__).parent / "golden" / "straighten_relations.json"


# ---------------------------------------------------------------------------
# the order


def test_order_examples():
    assert less_eq(Q(2), M([1, 3]))
    assert incomparable(Q(3), M([1, 2]))
    assert incomparable(M([1, 4]), M([2, 3]))
    assert less_eq(Q(1), Q(3))
    assert not less_eq(Q(3), Q(1))
    assert less_eq(M([1, 3]), M([2, 3]))
    assert not less_eq(M([1, 2]), Q(4))  # a minor is never below a Q


def test_order_axioms_exhaustive():
    # reflexive, antisymmetric, transitive for every shape up to m = 6
    for m in range(1, 7):
        for n in range(1, m + 1):
            labels = canonical_labels(m, n)
            for a in labels:
                assert less_eq(a, a)
            for a, b in itertools.permutations(labels, 2):
                if less_eq(a, b) and less_eq(b, a):
                    raise AssertionError(f"antisymmetry broke at {a}, {b}")
            for a, b, c in itertools.product(labels, repeat=3):
                if less_eq(a, b) and less_eq(b, c):
                    assert less_eq(a, c)


# ---------------------------------------------------------------------------
# Hasse diagrams


def test_hasse_42_exact_edges(inst42):
    edges = {(a.text, b.text) for a, b in inst42.poset.hasse_edges()}
    assert edges == {
        ("Q1", "Q2"),
        ("Q2", "Q3"),
        ("Q2", "[1,2]"),
        ("Q3", "Q4"),
        ("Q3", "[1,3]"),
        ("[1,2]", "[1,3]"),
        ("Q4", "[1,4]"),
        ("[1,3]", "[1,4]"),
        ("[1,3]", "[2,3]"),
        ("[1,4]", "[2,4]"),
        ("[2,3]", "[2,4]"),
        ("[2,4]", "[3,4]"),
    }
    assert len(inst42.poset.hasse_edges()) == 12


def test_hasse_22_chain(inst22):
    assert [(a.text, b.text) for a, b in inst22.poset.hasse_edges()] == [
        ("Q1", "Q2"),
        ("Q2", "[1,2]"),
    ]


def test_hasse_32_brute_force_cover_oracle(inst32):
    poset = inst32.poset
    labels = poset.elements
    expected = set()
    for a, b in itertools.permutations(labels, 2):
        if not (less_eq(a, b) and a != b):
            continue
        if any(
            c != a and c != b and less_eq(a, c) and less_eq(c, b) for c in labels
        ):
            continue
        expected.add((a, b))
    assert set(poset.hasse_edges()) == expected


@pytest.mark.parametrize("m,n", [(4, 2), (6, 3), (8, 4), (9, 5), (12, 4), (8, 1), (5, 5), (1, 1)])
def test_threshold_order_sets_match_less_eq(m, n):
    # the down-set bitsets, built from per-coordinate thresholds of the row
    # coordinates, and the up-sets transposed from them, against less_eq
    # on every ordered pair
    poset = BPoset(m, n)
    E, up = poset.elements, up_sets(poset)
    for j, b in enumerate(E):
        for i, a in enumerate(E):
            assert (poset._down[j] >> i & 1, up[i] >> j & 1) == (less_eq(a, b),) * 2


@pytest.mark.parametrize("m,n", [(4, 2), (6, 3), (8, 4), (9, 5), (12, 4), (8, 1), (5, 5), (6, 5)])
def test_bitset_covers_match_the_triple_test(m, n):
    poset = BPoset(m, n)
    assert poset._cover_pairs() == cover_pairs_by_triples(poset)


@pytest.mark.parametrize("m,n", [(2, 2), (4, 2), (5, 3), (9, 5), (6, 6)])
def test_hasse_edges_come_in_sort_key_order(m, n):
    edges = BPoset(m, n).hasse_edges()
    assert edges == sorted(edges, key=lambda ab: (ab[0].sort_key, ab[1].sort_key))


@pytest.mark.parametrize("m,n", [(4, 2), (6, 3), (8, 4), (9, 5)])
def test_incomparable_pairs_match_the_less_eq_filter(m, n):
    poset = BPoset(m, n)
    pairs = itertools.combinations(poset.elements, 2)
    assert incomparable_pairs(poset) == [(a, b) for a, b in pairs if incomparable(a, b)]


def test_hasse_transitive_reduction_closes_to_full_order(inst42):
    poset = inst42.poset
    reach = {e: {e} for e in poset.elements}
    changed = True
    edges = poset.hasse_edges()
    while changed:
        changed = False
        for a, b in edges:
            new = reach[b] - reach[a]
            if new:
                reach[a] |= new
                changed = True
    for a in poset.elements:
        for b in poset.elements:
            assert (b in reach[a]) == poset.leq(a, b)


def test_dot_export(inst42):
    dot = inst42.poset.to_dot()
    assert dot.startswith("digraph")
    assert '"Q1"' in dot and '"[1,2]"' in dot
    assert dot.count("->") == 12


# ---------------------------------------------------------------------------
# rank


def test_rank_examples(inst42):
    poset = inst42.poset
    assert poset.rank(Q(1)) == 1
    assert poset.rank(M([1, 2])) == 3
    assert poset.poset_rank() == 7


def recursive_rank(poset, e, memo):
    if e in memo:
        return memo[e]
    below = [u for u in poset.elements if poset.lt(u, e)]
    value = 1 + max((recursive_rank(poset, u, memo) for u in below), default=0)
    memo[e] = value
    return value


@pytest.mark.parametrize("m", range(2, 9))
def test_rank_two_routes_agree(m):
    for n in range(2, m + 1):
        poset = BPoset(m, n)
        memo = {}
        for e in poset.elements:
            assert poset.rank(e) == recursive_rank(poset, e, memo)


@pytest.mark.parametrize("m,n", [(6, 1), (5, 5), (9, 5), (12, 4)])
def test_closed_rank_is_the_longest_chain(m, n):
    poset = BPoset(m, n)
    memo = {}
    assert all(poset.rank(e) == recursive_rank(poset, e, memo) for e in poset.elements)


@pytest.mark.parametrize("m", range(2, 9))
def test_poset_rank_formula(m):
    for n in range(2, m + 1):
        assert BPoset(m, n).poset_rank() == n * (m - n + 1) + 1


def test_rank_classes_partition(inst42):
    poset = inst42.poset
    classes = poset.rank_classes()
    assert len(classes) == poset.poset_rank()
    flat = [e for cls in classes for e in cls]
    assert sorted(flat, key=lambda l: l.sort_key) == sorted(
        poset.elements, key=lambda l: l.sort_key
    )


# ---------------------------------------------------------------------------
# witness chains


def test_witness_chain_42():
    chain = witness_chain(4, 2)
    assert [l.text for l in chain] == ["Q1", "Q2", "[1,2]", "[1,3]", "[1,4]", "[2,4]", "[3,4]"]


def test_witness_chain_22():
    assert [l.text for l in witness_chain(2, 2)] == ["Q1", "Q2", "[1,2]"]


def test_witness_chain_33():
    chain = witness_chain(3, 3)
    assert [l.text for l in chain] == ["Q1", "Q2", "Q3", "[1,2,3]"]
    assert len(chain) == 3 * (3 - 3 + 1) + 1


@pytest.mark.parametrize("m", range(1, 8))
def test_witness_chain_is_a_maximum_chain(m):
    for n in range(1, m + 1):
        chain = witness_chain(m, n)
        assert len(chain) == n * (m - n + 1) + 1
        for a, b in zip(chain, chain[1:]):
            assert less_eq(a, b) and a != b
        assert len(chain) == BPoset(m, n).poset_rank()


# ---------------------------------------------------------------------------
# standard monomials


def test_standard_monomials_degree_zero(inst42):
    assert enumerate_standard_monomials(inst42.poset, 0) == [()]


def test_standard_monomials_degree_one(inst42):
    singles = enumerate_standard_monomials(inst42.poset, 1)
    assert len(singles) == 10
    assert all(is_standard(ls) for ls in singles)


def test_standard_monomials_chain_count(inst22):
    # multichains of length 2 in a 3-chain: C(4, 2) = 6
    chains = enumerate_standard_monomials(inst22.poset, 2)
    assert len(chains) == 6
    assert all(is_standard(ls) for ls in chains)


def test_is_standard():
    assert is_standard([Q(1), Q(2), M([1, 2])])
    assert not is_standard([Q(3), M([1, 2])])


# ---------------------------------------------------------------------------
# straightening


def test_straighten_q_minor(inst42):
    rel = straighten(inst42, Q(3), M([1, 2]))
    as_map = {tuple(l.text for l in pair): c for c, pair in rel.right}
    assert as_map == {("Q2", "[1,3]"): 1, ("Q1", "[2,3]"): -1}
    assert rel.verify(inst42)
    assert rel.min_label_condition()


def test_straighten_minor_minor_pluecker(inst42):
    rel = straighten(inst42, M([1, 4]), M([2, 3]))
    as_map = {tuple(l.text for l in pair): c for c, pair in rel.right}
    assert as_map == {("[1,3]", "[2,4]"): 1, ("[1,2]", "[3,4]"): -1}
    assert rel.verify(inst42)
    assert rel.min_label_condition()


def test_straighten_comparable_raises(inst42):
    with pytest.raises(NotIncomparable):
        straighten(inst42, Q(1), Q(2))
    with pytest.raises(NotIncomparable):
        straighten(inst42, Q(2), M([1, 2]))


def test_solve_needs_exactly_one_matching_term():
    terms = bordered_relation((1, 2, 3))
    with pytest.raises(ValueError):
        StraighteningRelation.solve(terms, (Q(2), M([1, 2])))  # no such term
    pair = (M([1, 3]), M([1, 4]))
    with pytest.raises(ValueError):
        StraighteningRelation.solve([(-1, pair), (1, pair)], pair)  # two such terms


def test_straighten_product_reexpands(inst42):
    combo = (Q(4), M([1, 2]), M([2, 3]))
    expansion = straighten_product(inst42, combo)
    rebuilt = inst42.ring.zero
    for labels, coeff in expansion.items():
        assert is_standard(labels)
        rebuilt = rebuilt + expand_labels(inst42, labels) * coeff
    assert rebuilt == expand_labels(inst42, combo)


# ---------------------------------------------------------------------------
# the ASL axioms


# verify_asl1 holds in every degree; asl1_by_expansion is its bounded
# cross-check


def test_asl1_42_degree3(inst42):
    assert verify_asl1(inst42)
    assert asl1_by_expansion(inst42, 3)


def test_asl1_22_any_degree(inst22):
    assert verify_asl1(inst22)
    assert asl1_by_expansion(inst22, 4)


def test_asl1_33_degree2(inst33):
    assert verify_asl1(inst33)
    assert asl1_by_expansion(inst33, 2)


@pytest.mark.parametrize("m,n", [(2, 2), (4, 2), (5, 3), (4, 1)])
def test_lattice_tables_match_brute_force(m, n):
    poset = BPoset(m, n)
    E = poset.elements
    for a, b in itertools.product(E, E):
        lower = [c for c in E if poset.leq(c, a) and poset.leq(c, b)]
        upper = [c for c in E if poset.leq(a, c) and poset.leq(b, c)]
        assert all(poset.leq(c, poset.meet(a, b)) for c in lower)
        assert all(poset.leq(poset.join(a, b), c) for c in upper)
        assert poset.meet(a, b) in lower and poset.join(a, b) in upper


@pytest.mark.parametrize("m,n", [(4, 2), (6, 3), (8, 4), (9, 5), (12, 4), (8, 1), (5, 5), (1, 1)])
def test_closed_meet_and_join_match_the_reference_tables(m, n):
    # the componentwise min and max of the row coordinates against the
    # tables read off the order bitsets, on every ordered pair
    poset = BPoset(m, n)
    E, pos = poset.elements, poset._pos
    closed = (
        [[pos[poset.meet(a, b)] for b in E] for a in E],
        [[pos[poset.join(a, b)] for b in E] for a in E],
    )
    assert closed == lattice_tables(poset)


@pytest.mark.parametrize(
    "size, pairs, lattice",
    [
        (4, {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}, True),
        (5, {(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4), (3, 4)}, False),
        (5, {(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)}, False),
        (3, {(0, 2), (1, 2)}, False),
    ],
    ids=["square", "pentagon", "diamond", "no meet"],
)
def test_asl1_needs_a_distributive_lattice(monkeypatch, size, pairs, lattice):
    # both reference tests of the lattice that verify_asl1 proves
    # distributive, on injected orders: the pentagon and the diamond are
    # the lattices that are not distributive.  The closed-form covers read
    # labels, so the injected order's covers come from the triple test
    poset = BPoset(2, 2)
    poset.elements = tuple(range(size))
    leq = [[i == j or (i, j) in pairs for j in range(size)] for i in range(size)]
    poset._down = [sum(leq[i][j] << i for i in range(size)) for j in range(size)]
    monkeypatch.setattr(poset, "_cover_pairs", lambda: cover_pairs_by_triples(poset))
    assert distributive_by_pairs(poset) is lattice
    assert distributive_by_triples(poset) is lattice


@pytest.mark.parametrize("m,n", [(4, 2), (6, 3), (8, 4), (9, 4), (8, 1), (5, 5)])
def test_pair_criterion_matches_the_triple_test(m, n):
    # Birkhoff's pair criterion against the distributive law on every
    # triple; both hold, and verify_asl1 passes
    inst = build_instance(m, n)
    assert distributive_by_pairs(inst.poset)
    assert distributive_by_triples(inst.poset)
    assert verify_asl1(inst)


def straighten_relation_texts() -> dict[str, list[str]]:
    """The text of every straightening relation at (4,2), (4,3), (5,3) over Q."""
    out = {}
    for m, n in ((4, 2), (4, 3), (5, 3)):
        inst = build_instance(m, n)
        out[f"{m},{n}"] = [straighten(inst, a, b).text for a, b in incomparable_pairs(inst.poset)]
    return out


def test_straighten_relations_match_golden():
    # golden written by json.dumps(straighten_relation_texts(), indent=1)
    assert straighten_relation_texts() == json.loads(GOLDEN_RELATIONS.read_text())


@pytest.mark.parametrize("m,n", [(4, 2), (5, 3), (7, 3), (6, 4), (8, 3)])
def test_the_pattern_table_gives_each_pair_its_own_relation(m, n):
    inst = build_instance(m, n)
    for a, b in incomparable_pairs(inst.poset):
        assert straighten(inst, a, b) == straighten_by_solve(inst, a, b)


def _pair_rows(pair) -> list[int]:
    return sorted({r for l in pair for r in ((l.q_index,) if l.is_q else l.rows)})


def _is_own_pattern(pair) -> bool:
    rows = _pair_rows(pair)
    return rows == list(range(1, len(rows) + 1))


@pytest.mark.parametrize("m,n", [(4, 2), (6, 3), (7, 3), (8, 4)])
def test_each_pattern_pair_is_an_incomparable_own_pattern_pair(m, n):
    # what verify_asl2 rests on: renaming a pair's rows to 1..k in order
    # gives an incomparable pair of the same instance whose rows are 1..k
    pairs = incomparable_pairs(BPoset(m, n))
    own = set(filter(_is_own_pattern, pairs))
    for pair in pairs:
        f = {r: i for i, r in enumerate(_pair_rows(pair), start=1)}
        renamed = [Q(f[l.q_index]) if l.is_q else M(f[r] for r in l.rows) for l in pair]
        assert tuple(sorted(renamed, key=lambda l: l.sort_key)) in own


@pytest.mark.parametrize("m,n,patterns", [(7, 3, 11), (8, 3, 11), (9, 4, 72)])
def test_asl2_straightens_one_pair_per_row_pattern(monkeypatch, m, n, patterns):
    calls = []
    real = poset_module.straighten

    def counted(instance, a, b):
        calls.append((a, b))
        return real(instance, a, b)

    monkeypatch.setattr(poset_module, "straighten", counted)
    assert verify_asl2(build_instance(m, n))
    assert len(calls) == len(set(calls)) == patterns
    assert all(map(_is_own_pattern, calls))


def test_asl2_reexpands_one_relation_per_row_pattern(reexpansions):
    # (8,3) has 490 incomparable pairs in 11 row patterns
    inst = build_instance(8, 3)
    assert verify_asl2(inst)
    assert len(incomparable_pairs(inst.poset)) == 490
    assert len(reexpansions) == 11


@pytest.mark.parametrize(
    "m,n,field", [(6, 2, QQ), (6, 3, QQ), (6, 3, GF(32003)), (8, 4, QQ), (7, 5, QQ), (5, 5, QQ), (4, 1, QQ)]
)
def test_the_closed_cell_restriction_matches_the_term_filter(m, n, field):
    # every label on every big cell, m = n and n = 1 included, as packed
    # dicts compared exactly; the restriction is integer whatever the
    # instance's field, and read in that field it is the filtered generator
    inst = build_instance(m, n, field)
    for cell in itertools.combinations(range(1, m + 1), n):
        for label in inst.labels:
            terms = _on_cell(inst, label, cell)
            assert all(type(c) is int for c in terms.values())
            assert {e: field.coerce(c) for e, c in terms.items()} == on_cell_by_filter(inst, label, cell)
            assert _on_cell(inst, label, cell) is terms


@pytest.mark.parametrize("m,n", [(5, 3), (6, 4)])
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "F32003"])
def test_the_shared_packed_minor_matches_cofactor_expansion(m, n, field):
    # every row and column subset of each size, the empty minor included,
    # against det_laplace of the X submatrix, packed; the minor is integer
    # whatever the instance's field, and read in that field it is the
    # determinant over that field
    inst = build_instance(m, n, field)
    ring = inst.ring
    for k in range(n + 1):
        for rows in itertools.combinations(range(1, m + 1), k):
            for cols in itertools.combinations(range(1, n + 1), k):
                sub = [[ring.var(xvar(r, c)) for c in cols] for r in rows]
                minor = packed_minor(inst, rows, cols)
                assert all(type(c) is int for c in minor.values())
                assert {e: field.coerce(c) for e, c in minor.items()} == _Packing.pack_dict(det_laplace(ring, sub))


@pytest.mark.parametrize("m,n", [(4, 2), (7, 3), (9, 3), (9, 4), (11, 5)])
def test_asl2_lists_every_own_pattern_pair_in_order(m, n):
    # an own-pattern pair uses rows 1..k with k <= 2n, so the pairs among
    # elements with last row coordinate <= 2n hold all of them, in the
    # order they have among all pairs
    poset = BPoset(m, n)
    listed = incomparable_pairs(poset, 2 * n)
    every, kept = incomparable_pairs(poset), set(listed)
    assert [p for p in every if p in kept] == listed
    assert [p for p in every if _is_own_pattern(p)] == [p for p in listed if _is_own_pattern(p)]


def cell_test_relations(kind, m, n):
    """The instance and its relations: one straightening relation per row
    pattern (in pattern rows), or every identity of the D-table."""
    inst = build_instance(m, n)
    if kind == "patterns":
        for a, b in incomparable_pairs(inst.poset):
            straighten(inst, a, b)
        return inst, list(inst._straighten_table.values())
    context = DContext(inst)
    for label in inst.labels:
        context.fraction(label)
    return inst, list(context.identities.values())


CELL_TEST_SETS = [
    ("patterns", 4, 2),
    ("patterns", 6, 3),
    ("patterns", 7, 3),
    ("patterns", 8, 4),
    ("d_table", 6, 4),
    ("d_table", 8, 3),
]


@pytest.mark.parametrize("kind,m,n", CELL_TEST_SETS)
def test_the_cell_reexpansion_agrees_with_the_full_one(kind, m, n):
    inst, relations = cell_test_relations(kind, m, n)
    assert relations
    for rel in relations:
        assert rel._reexpands(inst)
        assert reexpands_in_full(rel, inst)


def tampered_relations(rel, field):
    """A flipped first coefficient, a dropped right-hand term and, for a
    minor x minor relation, an extra Q x minor term."""
    (coeff, pair), *rest = rel.right
    yield StraighteningRelation(rel.left, ((field.neg(coeff), pair), *rest))
    yield StraighteningRelation(rel.left, tuple(rest))
    if not any(l.is_q for l in rel.left):
        yield StraighteningRelation(rel.left, (*rel.right, (field.one, (Q(1), rel.left[1]))))


@pytest.mark.parametrize("kind,m,n", CELL_TEST_SETS)
def test_a_tampered_relation_fails_on_the_cell_and_in_full(kind, m, n):
    inst, relations = cell_test_relations(kind, m, n)
    extra_terms = 0
    for rel in relations:
        for bad in tampered_relations(rel, inst.field):
            extra_terms += len(bad.right) > len(rel.right)
            assert not bad._reexpands(inst)
            assert not reexpands_in_full(bad, inst)
    assert extra_terms


#: an incomparable product of (4,2) whose straightening has two terms
TAMPERED = (Q(3), M([1, 2]))


def tamper_straightening(monkeypatch, tamper):
    """asl1_by_expansion sees `tamper(expansion)` as the straightening of TAMPERED."""
    real = references.straighten_product

    def tampered(instance, labels, *args, **kwargs):
        expansion = real(instance, labels, *args, **kwargs)
        return tamper(dict(expansion)) if tuple(labels) == TAMPERED else expansion

    monkeypatch.setattr(references, "straighten_product", tampered)


def test_asl1_rejects_a_dropped_term(monkeypatch):
    tamper_straightening(monkeypatch, lambda e: dict(list(e.items())[1:]))
    assert not asl1_by_expansion(build_instance(4, 2), 2)


def test_asl1_rejects_a_scaled_coefficient(monkeypatch):
    def scale_first(e):
        first = next(iter(e))
        e[first] = e[first] * 2
        return e

    tamper_straightening(monkeypatch, scale_first)
    assert not asl1_by_expansion(build_instance(4, 2), 2)


def test_asl1_rejects_a_non_standard_expansion(monkeypatch):
    # the product itself re-expands to the target; only its shape is wrong
    tamper_straightening(monkeypatch, lambda e: {TAMPERED: 1})
    assert not asl1_by_expansion(build_instance(4, 2), 2)


def test_asl1_rejects_a_shared_leading_monomial(monkeypatch):
    # Q2 gets Q1's packed table, which verify_asl1 reads and the expansion
    # reads through `polynomial`: so Q1 and Q2 share a leading monomial,
    # and so do the standard monomials Q1*Q1 and Q1*Q2
    inst = build_instance(4, 2)
    monkeypatch.setitem(inst.packed, Q(2), inst.packed[Q(1)])
    assert inst.lead(Q(2)) == inst.lead(Q(1))
    assert inst.polynomial(Q(2)).leading_monomial() == inst.polynomial(Q(1)).leading_monomial()
    assert not verify_asl1(inst)
    assert not asl1_by_expansion(inst, 2)
    monkeypatch.undo()
    assert verify_asl1(inst)


@pytest.mark.parametrize("m,n,degree", [(4, 2, 3), (5, 3, 2)])
def test_summed_leading_monomial_is_the_products(m, n, degree):
    # lm(fg) = lm(f) + lm(g): the monomial algebra verify_asl1 compares
    # with the Hibi ring is spanned by the sums of generators' leading
    # monomials
    inst = build_instance(m, n)
    zero = (0,) * len(inst.ring.vars)
    for d in range(degree + 1):
        for chain in enumerate_standard_monomials(inst.poset, d):
            assert is_standard(chain)
            product = expand_labels(inst, chain)
            lms = (inst.polynomial(l).leading_monomial() for l in chain)
            assert tuple(map(sum, zip(zero, *lms))) == product._terms[0][0]


def test_straighten_product_reads_the_clock_before_each_step(monkeypatch):
    # the clock is past the deadline before the first rewrite step
    monkeypatch.setattr(poset_module, "time", types.SimpleNamespace(monotonic=lambda: 2.0))
    with pytest.raises(BudgetExceeded) as hit:
        straighten_product(build_instance(4, 2), TAMPERED, deadline=1.0)
    assert hit.value.stats == {"rewrite_steps": 1}


def test_asl2_42_exhaustive(inst42):
    pairs = incomparable_pairs(inst42.poset)
    assert len(pairs) == 5
    assert verify_asl2(inst42)


def test_asl2_22_vacuous(inst22):
    assert incomparable_pairs(inst22.poset) == []
    assert verify_asl2(inst22)


def test_asl2_33_vacuous(inst33):
    assert incomparable_pairs(inst33.poset) == []
    assert verify_asl2(inst33)


def test_asl2_rejects_a_scaled_coefficient(monkeypatch):
    # min_label_condition still holds; only the re-expansion can tell
    inst = build_instance(4, 2)
    a, b = incomparable_pairs(inst.poset)[-1]
    real = poset_module.straighten

    def tampered(instance, x, y):
        rel = real(instance, x, y)
        if (x, y) != (a, b):
            return rel
        (coeff, pair), *rest = rel.right
        return StraighteningRelation(rel.left, ((coeff * 2, pair), *rest))

    monkeypatch.setattr(poset_module, "straighten", tampered)
    assert not verify_asl2(inst)
    monkeypatch.undo()
    assert verify_asl2(inst)


def test_asl_checks_honour_the_wall_budget():
    inst = build_instance(4, 2)
    budget = Budget(wall_seconds=1e-9)
    with pytest.raises(BudgetExceeded) as hit:
        verify_asl1(inst, budget=budget)
    assert hit.value.stats == {"lattice_rows_checked": 0}
    with pytest.raises(BudgetExceeded) as hit:
        verify_asl2(inst, budget=budget)
    assert "pairs_checked" in hit.value.stats


# ---------------------------------------------------------------------------
# wonderful posets


def test_wonderful_42(inst42):
    assert is_wonderful(inst42.poset)


def test_wonderful_chain(inst22):
    assert is_wonderful(inst22.poset)


@pytest.mark.parametrize("m", range(2, 7))
def test_wonderful_all_shapes(m):
    for n in range(2, m + 1):
        assert is_wonderful(BPoset(m, n))


@pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (5, 3), (4, 4)])
def test_wonderful_fails_with_any_one_cover_dropped(monkeypatch, m, n):
    # is_wonderful reads the covers and the minimal elements off
    # _cover_pairs; without any one cover the verdict is False
    poset = BPoset(m, n)
    pairs = poset._cover_pairs()
    for k in range(len(pairs)):
        monkeypatch.setattr(poset, "_cover_pairs", lambda k=k: pairs[:k] + pairs[k + 1 :])
        assert not is_wonderful(poset)


class FakePoset:
    """Explicit-relation poset exposing the same surface as BPoset."""

    def __init__(self, elements, pairs):
        self.elements = list(elements)
        closure = {(a, a) for a in elements} | set(pairs)
        changed = True
        while changed:
            changed = False
            for a, b in list(closure):
                for c, d in list(closure):
                    if b == c and (a, d) not in closure:
                        closure.add((a, d))
                        changed = True
        self._closure = closure
        # bit i of _down[j] is set when element i <= element j
        self._down = [
            sum(1 << i for i, a in enumerate(self.elements) if (a, b) in closure)
            for b in self.elements
        ]

    def leq(self, a, b):
        return (a, b) in self._closure

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def _cover_pairs(self):
        """(i, j) by element index with element j covering element i, read
        off the closure."""
        E = self.elements
        return [
            (i, j)
            for i, a in enumerate(E)
            for j, b in enumerate(E)
            if self.lt(a, b) and not any(self.lt(a, c) and self.lt(c, b) for c in E)
        ]


def test_wonderful_detects_failure():
    # covers b1, b2 of a; gamma above both; no common cover below gamma
    bad = FakePoset(
        ["a", "b1", "b2", "mid", "top"],
        [("a", "b1"), ("a", "b2"), ("b1", "mid"), ("mid", "top"), ("b2", "top")],
    )
    assert not is_wonderful(bad)
    good = FakePoset(
        ["a", "b1", "b2", "top"],
        [("a", "b1"), ("a", "b2"), ("b1", "top"), ("b2", "top")],
    )
    assert is_wonderful(good)


def is_wonderful_brute_force(poset) -> bool:
    """Reference for `is_wonderful`: the cover-compatibility condition with
    +-infinity checked literally, every cover recomputed inside the loops."""
    E = list(poset.elements)
    lt = poset.lt

    def covers_of(alpha) -> list:
        # alpha is an element or None for -infinity; covers stay inside E
        if alpha is None:
            above = [b for b in E if not any(lt(c, b) for c in E)]
            return above
        above = [b for b in E if lt(alpha, b)]
        return [
            b for b in above if not any(lt(alpha, c) and lt(c, b) for c in E)
        ]

    def is_maximal(x) -> bool:
        return not any(lt(x, c) for c in E)

    def covers_both(beta, b1, b2) -> bool:
        if beta is None:  # +infinity
            return is_maximal(b1) and is_maximal(b2)
        for b in (b1, b2):
            if not lt(b, beta) or any(lt(b, c) and lt(c, beta) for c in E):
                return False
        return True

    for alpha in [None] + E:
        cov = covers_of(alpha)
        for b1, b2 in itertools.combinations(cov, 2):
            gammas = [g for g in E if lt(b1, g) and lt(b2, g)] + [None]
            for gamma in gammas:
                found = False
                for beta in E:
                    if gamma is not None and not poset.leq(beta, gamma):
                        continue
                    if covers_both(beta, b1, b2):
                        found = True
                        break
                if not found and gamma is None and covers_both(None, b1, b2):
                    found = True
                if not found:
                    return False
    return True


def random_fake_poset(rng, size):
    """The transitive closure of random edges i -> j (i < j) on `size` points."""
    density = rng.choice((0.2, 0.35, 0.5))
    edges = [(i, j) for i, j in itertools.combinations(range(size), 2) if rng.random() < density]
    return FakePoset(range(size), edges)


def test_wonderful_matches_brute_force_on_random_posets():
    rng = random.Random(2024)
    verdicts = set()
    for _ in range(600):
        poset = random_fake_poset(rng, rng.randint(1, 7))
        verdict = is_wonderful(poset)
        assert verdict == is_wonderful_brute_force(poset)
        verdicts.add(verdict)
    assert verdicts == {True, False}  # both outcomes were exercised
