"""The generator poset: order, ranks, Hasse diagrams, standard monomials,
straightening relations, the two straightening-law axioms, and the
wonderful-poset cover condition.

Functions that expand labels into actual polynomials take the residual
instance (which owns the ring and the label -> polynomial map) as their
first argument.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import linalg
from .groebner import BudgetExceeded
from .labels import GeneratorLabel, M, Q, canonical_labels
from .ring import NotIncomparable, Polynomial, bordered_determinant


class StraighteningBudgetExceeded(BudgetExceeded):
    """The straightening rewrite loop ran past its step cap."""

    def __init__(self, message: str, steps: int):
        super().__init__(message, {"rewrite_steps": steps})


def less_eq(a: GeneratorLabel, b: GeneratorLabel) -> bool:
    """The three-clause partial order on generator labels.

    Q_i <= Q_j when i <= j; Q_j <= [i1..in] when j <= in; minors compare
    componentwise on their row sets.  A minor is never below a Q.
    """
    if a.is_q and b.is_q:
        return a.q_index <= b.q_index
    if a.is_q:
        return a.q_index <= b.rows[-1]
    if b.is_q:
        return False
    return all(x <= y for x, y in zip(a.rows, b.rows))


def incomparable(a: GeneratorLabel, b: GeneratorLabel) -> bool:
    return not less_eq(a, b) and not less_eq(b, a)


class BPoset:
    """The finite poset of generator labels for one (m, n)."""

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.elements: tuple[GeneratorLabel, ...] = tuple(canonical_labels(m, n))
        self._pos = {e: i for i, e in enumerate(self.elements)}
        size = len(self.elements)
        leq = [[False] * size for _ in range(size)]
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                leq[i][j] = less_eq(a, b)
        self._leq = leq
        self._ranks: list[int] | None = None
        self._covers: list[tuple[int, int]] | None = None

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self._pos

    def leq(self, a: GeneratorLabel, b: GeneratorLabel) -> bool:
        return self._leq[self._pos[a]][self._pos[b]]

    def lt(self, a: GeneratorLabel, b: GeneratorLabel) -> bool:
        return a != b and self.leq(a, b)

    # -- covers and rank ----------------------------------------------------

    def _cover_pairs(self) -> list[tuple[int, int]]:
        if self._covers is None:
            size = len(self.elements)
            leq = self._leq
            covers = []
            for i in range(size):
                for j in range(size):
                    if i == j or not leq[i][j]:
                        continue
                    if any(
                        k != i and k != j and leq[i][k] and leq[k][j]
                        for k in range(size)
                    ):
                        continue
                    covers.append((i, j))
            self._covers = covers
        return self._covers

    def hasse_edges(self) -> list[tuple[GeneratorLabel, GeneratorLabel]]:
        """All cover pairs (a, b): a < b with nothing strictly between."""
        pairs = [
            (self.elements[i], self.elements[j]) for i, j in self._cover_pairs()
        ]
        pairs.sort(key=lambda ab: (ab[0].sort_key, ab[1].sort_key))
        return pairs

    def _rank_vector(self) -> list[int]:
        # longest path over the Hasse DAG; canonical order is a linear
        # extension, so a single forward sweep suffices
        if self._ranks is None:
            size = len(self.elements)
            preds: list[list[int]] = [[] for _ in range(size)]
            for i, j in self._cover_pairs():
                preds[j].append(i)
            ranks = [1] * size
            for j in range(size):
                if preds[j]:
                    ranks[j] = 1 + max(ranks[i] for i in preds[j])
            self._ranks = ranks
        return self._ranks

    def rank(self, e: GeneratorLabel) -> int:
        """Number of elements in the longest chain ending at e."""
        return self._rank_vector()[self._pos[e]]

    def poset_rank(self) -> int:
        return max(self._rank_vector())

    def rank_classes(self) -> list[list[GeneratorLabel]]:
        """Elements grouped by rank, ranks ascending; classes partition B."""
        classes: list[list[GeneratorLabel]] = [[] for _ in range(self.poset_rank())]
        for e in self.elements:
            classes[self.rank(e) - 1].append(e)
        return classes

    def to_dot(self) -> str:
        """Hasse diagram in DOT, smaller elements rendered above."""
        lines = ["digraph hasse {", "  rankdir=TB;", '  node [shape=plaintext];']
        for e in self.elements:
            lines.append(f'  "{e.text}";')
        for a, b in self.hasse_edges():
            lines.append(f'  "{a.text}" -> "{b.text}" [dir=none];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def hasse_edges(poset: BPoset) -> list[tuple[GeneratorLabel, GeneratorLabel]]:
    return poset.hasse_edges()


def witness_chain(m: int, n: int) -> list[GeneratorLabel]:
    """An explicit maximum chain: Q1<..<Qn<[1..n]<... of length n(m-n+1)+1.

    After the Q prefix, the minor coordinates are walked up one unit at a
    time, last coordinate first, until [m-n+1..m] is reached.
    """
    if n < 2:
        raise ValueError("the chain pattern needs n >= 2")
    chain = [Q(i) for i in range(1, n + 1)]
    rows = list(range(1, n + 1))
    chain.append(M(rows))
    for pos in range(n - 1, -1, -1):
        target = m - n + pos + 1
        while rows[pos] < target:
            rows[pos] += 1
            chain.append(M(rows))
    return chain


def is_wonderful(poset: BPoset) -> bool:
    """Exhaustive check of the cover-compatibility condition with +-infinity."""
    E = list(poset.elements)
    lt = poset.lt

    def covers_of(alpha) -> list[GeneratorLabel]:
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


# ---------------------------------------------------------------------------
# standard monomials


@dataclass(frozen=True)
class StandardMonomial:
    """A multichain of labels, kept in canonical (linear-extension) order."""

    labels: tuple[GeneratorLabel, ...]

    def __post_init__(self):
        for a, b in zip(self.labels, self.labels[1:]):
            if not less_eq(a, b):
                raise ValueError(f"{a.text}, {b.text} do not form a chain")

    @property
    def degree(self) -> int:
        return len(self.labels)

    @property
    def text(self) -> str:
        return "*".join(l.text for l in self.labels) if self.labels else "1"

    def __repr__(self):
        return self.text


def _sorted_labels(labels: Iterable[GeneratorLabel]) -> tuple[GeneratorLabel, ...]:
    return tuple(sorted(labels, key=lambda l: l.sort_key))


def is_standard(labels: Sequence[GeneratorLabel]) -> bool:
    """Pairwise comparability; for canonically sorted labels this reduces
    to comparability of adjacent entries (the sort is a linear extension)."""
    ls = _sorted_labels(labels)
    return all(less_eq(ls[i], ls[i + 1]) for i in range(len(ls) - 1))


def enumerate_standard_monomials(poset: BPoset, degree: int) -> list[StandardMonomial]:
    """All multichains of the given length, in canonical order."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    E = poset.elements
    out: list[StandardMonomial] = []

    def grow(start: int, last: GeneratorLabel | None, picked: list[GeneratorLabel]):
        if len(picked) == degree:
            out.append(StandardMonomial(tuple(picked)))
            return
        for i in range(start, len(E)):
            e = E[i]
            if last is None or poset.leq(last, e):
                picked.append(e)
                grow(i, e, picked)
                picked.pop()

    grow(0, None, [])
    return out


def expand_labels(instance, labels: Iterable[GeneratorLabel]) -> Polynomial:
    """Product in the ambient ring of the polynomials behind the labels."""
    polys = [instance.polynomials[l] for l in labels]
    if not polys:
        return instance.ring.one
    result = polys[0]
    for p in polys[1:]:
        result = result * p
    return result


# ---------------------------------------------------------------------------
# straightening


@dataclass(frozen=True)
class StraighteningRelation:
    """left[0]*left[1] = sum of coeff * (product of the standard pair)."""

    left: tuple[GeneratorLabel, GeneratorLabel]
    right: tuple[tuple[object, tuple[GeneratorLabel, GeneratorLabel]], ...]

    def min_label_condition(self) -> bool:
        a, b = self.left
        for _, pair in self.right:
            least = pair[0]
            if not (less_eq(least, a) and least != a and less_eq(least, b) and least != b):
                return False
        return True

    def verify(self, instance) -> bool:
        """Re-expand both sides independently of `straighten` and compare;
        the right-hand side is summed into one dict."""
        ring = instance.ring
        mul, add = ring.field.mul, ring.field.add
        rhs: dict = {}
        for coeff, pair in self.right:
            for e, c in expand_labels(instance, pair)._terms:
                prod = mul(c, coeff)
                rhs[e] = add(rhs[e], prod) if e in rhs else prod
        return expand_labels(instance, self.left) == ring._from_dict(rhs)

    @property
    def text(self) -> str:
        terms = []
        for c, pair in self.right:
            mono = "*".join(l.text for l in pair)
            terms.append(f"({c})*{mono}")
        lhs = "*".join(l.text for l in self.left)
        return f"{lhs} = " + (" + ".join(terms) if terms else "0")


def straighten(instance, a: GeneratorLabel, b: GeneratorLabel) -> StraighteningRelation:
    """Standard-monomial expansion of an incomparable product.

    The Q-times-minor case reads the relation off the vanishing bordered
    determinant; the minor-times-minor case solves for the coordinates of
    the expanded product in the basis of standard monomials of that shape
    (unique once the standard monomials are known independent).
    """
    if not incomparable(a, b):
        raise NotIncomparable(f"{a.text} and {b.text} are comparable")
    cache = instance._straighten_cache
    key = tuple(sorted((a, b), key=lambda l: l.sort_key))
    if key in cache:
        return cache[key]
    field = instance.ring.field
    if a.is_q or b.is_q:
        q, mnr = (a, b) if a.is_q else (b, a)
        j, rows = q.q_index, mnr.rows
        # incomparability of Q_j with the minor means exactly j > last row
        exp = bordered_determinant(instance.ring, rows, j)
        sign_j = next(s for s, qi, _ in exp.terms if qi == j)
        right = []
        for s, qi, complement in exp.terms:
            if qi == j:
                continue
            coeff = field.coerce(-s * sign_j)
            right.append((coeff, (Q(qi), M(complement))))
        rel = StraighteningRelation(key, tuple(right))
    else:
        content = sorted(a.rows + b.rows)
        degree = len(a.rows)
        candidates = []
        for rows_c in itertools.combinations(sorted(set(content)), degree):
            rest = list(content)
            for r in rows_c:
                rest.remove(r)
            rows_d = tuple(rest)
            if any(rows_d[i] >= rows_d[i + 1] for i in range(len(rows_d) - 1)):
                continue
            c_lab, d_lab = M(rows_c), M(rows_d)
            if less_eq(c_lab, d_lab):
                candidates.append((c_lab, d_lab))
        candidates = sorted(set(candidates), key=lambda p: (p[0].sort_key, p[1].sort_key))
        target = dict(expand_labels(instance, (a, b))._terms)
        expansions = [dict(expand_labels(instance, pair)._terms) for pair in candidates]
        monos = sorted({e for p in expansions + [target] for e in p})
        matrix = [[p.get(mo, field.zero) for p in expansions] for mo in monos]
        rhs = [target.get(mo, field.zero) for mo in monos]
        sol = linalg.solve_field(field, matrix, rhs)
        if sol is None:
            raise ValueError(f"no standard expansion found for {a.text}*{b.text}")
        right = tuple(
            (c, pair) for c, pair in zip(sol, candidates) if c != field.zero
        )
        rel = StraighteningRelation(key, right)
    cache[key] = rel
    return rel


def straighten_product(
    instance, labels: Sequence[GeneratorLabel], max_steps: int = 100_000
) -> dict[tuple[GeneratorLabel, ...], object]:
    """Rewrite a product of generators as a combination of standard monomials."""
    field = instance.ring.field
    result: dict[tuple[GeneratorLabel, ...], object] = {}
    work = [(field.one, _sorted_labels(labels))]
    steps = 0
    while work:
        steps += 1
        if steps > max_steps:
            raise StraighteningBudgetExceeded(
                f"gave up after {max_steps} rewrite steps", steps
            )
        coeff, ls = work.pop()
        bad = next(
            (i for i in range(len(ls) - 1) if not less_eq(ls[i], ls[i + 1])),
            None,
        )
        if bad is None:
            old = result.get(ls, field.zero)
            new = field.add(old, coeff)
            if new == field.zero:
                result.pop(ls, None)
            else:
                result[ls] = new
            continue
        rel = straighten(instance, ls[bad], ls[bad + 1])
        rest = ls[:bad] + ls[bad + 2:]
        for c, pair in rel.right:
            work.append((field.mul(coeff, c), _sorted_labels(rest + pair)))
    return result


def verify_asl1(instance, degree: int) -> bool:
    """Distinct leading monomials of standard monomials, and spanning.

    Degree by degree up to the bound, in one pass over the sorted products
    of generators, each expanded once: the standard ones (multichains) have
    leading monomials no other one shares, and every product straightens
    to a standard combination that re-expands to it.
    """
    poset = instance.poset
    field = instance.ring.field
    for d in range(degree + 1):
        lms = set()
        for combo in itertools.combinations_with_replacement(poset.elements, d):
            target = expand_labels(instance, combo)
            if is_standard(combo):
                lm = target._terms[0][0]
                if lm in lms:
                    return False
                lms.add(lm)
            if d < 2:
                continue
            expansion = straighten_product(instance, combo)
            if not all(is_standard(ls) for ls in expansion):
                return False
            rebuilt: dict = {}
            for ls, c in expansion.items():
                # a standard product straightens to itself
                p = target if ls == combo else expand_labels(instance, ls)
                for e, pc in p._terms:
                    prod = field.mul(pc, c)
                    rebuilt[e] = field.add(rebuilt[e], prod) if e in rebuilt else prod
            if {e: c for e, c in rebuilt.items() if c != field.zero} != dict(target._terms):
                return False
        if len(lms) != len(enumerate_standard_monomials(poset, d)):
            return False
    return True


def incomparable_pairs(poset: BPoset) -> list[tuple[GeneratorLabel, GeneratorLabel]]:
    return [
        (a, b)
        for a, b in itertools.combinations(poset.elements, 2)
        if incomparable(a, b)
    ]


def verify_asl2(instance, sample: int | None = None, seed: int = 0) -> bool:
    """Straighten every incomparable pair; certify identity and least labels.

    With `sample`, only a seeded random subset of the pairs is checked
    (for instances too large to enumerate exhaustively).
    """
    pairs = incomparable_pairs(instance.poset)
    if sample is not None and sample < len(pairs):
        import random

        pairs = random.Random(seed).sample(pairs, sample)
    for a, b in pairs:
        rel = straighten(instance, a, b)
        if not rel.min_label_condition():
            return False
        if not rel.verify(instance):
            return False
    return True
