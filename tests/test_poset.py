"""Order relation, Hasse diagrams, ranks, standard monomials, straightening,
the two ASL axioms, and the wonderful-poset condition."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from resint import poset as poset_module
from resint.labels import M, Q, canonical_labels
from resint.poset import (
    BPoset,
    StandardMonomial,
    StraighteningRelation,
    enumerate_standard_monomials,
    hasse_edges,
    incomparable,
    incomparable_pairs,
    is_standard,
    is_wonderful,
    less_eq,
    straighten,
    straighten_product,
    verify_asl1,
    verify_asl2,
    witness_chain,
)
from resint.residual import build_instance
from resint.ring import NotIncomparable

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
    edges = {(a.text, b.text) for a, b in hasse_edges(inst42.poset)}
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
    assert len(hasse_edges(inst42.poset)) == 12


def test_hasse_22_chain(inst22):
    assert [(a.text, b.text) for a, b in hasse_edges(inst22.poset)] == [
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
    assert set(hasse_edges(poset)) == expected


def test_hasse_transitive_reduction_closes_to_full_order(inst42):
    poset = inst42.poset
    reach = {e: {e} for e in poset.elements}
    changed = True
    edges = hasse_edges(poset)
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


@pytest.mark.parametrize("m", range(2, 8))
def test_witness_chain_is_a_maximum_chain(m):
    for n in range(2, m + 1):
        chain = witness_chain(m, n)
        assert len(chain) == n * (m - n + 1) + 1
        for a, b in zip(chain, chain[1:]):
            assert less_eq(a, b) and a != b
        assert len(chain) == BPoset(m, n).poset_rank()


# ---------------------------------------------------------------------------
# standard monomials


def test_standard_monomials_degree_zero(inst42):
    assert enumerate_standard_monomials(inst42.poset, 0) == [StandardMonomial(())]


def test_standard_monomials_degree_one(inst42):
    singles = enumerate_standard_monomials(inst42.poset, 1)
    assert len(singles) == 10


def test_standard_monomials_chain_count(inst22):
    # multichains of length 2 in a 3-chain: C(4, 2) = 6
    assert len(enumerate_standard_monomials(inst22.poset, 2)) == 6


def test_is_standard():
    assert is_standard([Q(1), Q(2), M([1, 2])])
    assert not is_standard([Q(3), M([1, 2])])


def test_standard_monomial_enforces_chain():
    StandardMonomial((Q(1), Q(2)))
    with pytest.raises(ValueError):
        StandardMonomial((Q(3), M([1, 2])))


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


def test_straighten_product_reexpands(inst42):
    from resint.poset import expand_labels

    combo = (Q(4), M([1, 2]), M([2, 3]))
    expansion = straighten_product(inst42, combo)
    rebuilt = inst42.ring.zero
    for labels, coeff in expansion.items():
        assert is_standard(labels)
        rebuilt = rebuilt + expand_labels(inst42, labels) * coeff
    assert rebuilt == expand_labels(inst42, combo)


# ---------------------------------------------------------------------------
# the ASL axioms


def test_asl1_42_degree3(inst42):
    assert verify_asl1(inst42, 3)


def test_asl1_22_any_degree(inst22):
    assert verify_asl1(inst22, 4)


def test_asl1_33_degree2(inst33):
    assert verify_asl1(inst33, 2)


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


#: an incomparable product of (4,2) whose straightening has two terms
TAMPERED = (Q(3), M([1, 2]))


def tamper_straightening(monkeypatch, tamper):
    """verify_asl1 sees `tamper(expansion)` as the straightening of TAMPERED."""
    real = poset_module.straighten_product

    def tampered(instance, labels, *args, **kwargs):
        expansion = real(instance, labels, *args, **kwargs)
        return tamper(dict(expansion)) if tuple(labels) == TAMPERED else expansion

    monkeypatch.setattr(poset_module, "straighten_product", tampered)


def test_asl1_rejects_a_dropped_term(monkeypatch):
    tamper_straightening(monkeypatch, lambda e: dict(list(e.items())[1:]))
    assert not verify_asl1(build_instance(4, 2), 2)


def test_asl1_rejects_a_scaled_coefficient(monkeypatch):
    def scale_first(e):
        first = next(iter(e))
        e[first] = e[first] * 2
        return e

    tamper_straightening(monkeypatch, scale_first)
    assert not verify_asl1(build_instance(4, 2), 2)


def test_asl1_rejects_a_non_standard_expansion(monkeypatch):
    # the product itself re-expands to the target; only its shape is wrong
    tamper_straightening(monkeypatch, lambda e: {TAMPERED: 1})
    assert not verify_asl1(build_instance(4, 2), 2)


def test_asl1_rejects_a_shared_leading_monomial(monkeypatch):
    real = poset_module.expand_labels
    twin, other = (Q(1), Q(1)), (Q(1), Q(2))

    def expand(instance, labels):
        return real(instance, twin if tuple(labels) == other else labels)

    monkeypatch.setattr(poset_module, "expand_labels", expand)
    assert not verify_asl1(build_instance(4, 2), 2)


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


def test_asl2_sampling_path(inst42):
    assert verify_asl2(inst42, sample=2, seed=5)


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

    def leq(self, a, b):
        return (a, b) in self._closure

    def lt(self, a, b):
        return a != b and self.leq(a, b)


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
