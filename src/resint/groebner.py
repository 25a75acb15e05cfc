"""Buchberger engine and the ideal-theoretic toolbox built on it.

Provides reduced Groebner bases, normal forms, radical membership
through the slack-variable trick, and the combinatorial Krull dimension of
a quotient read off the initial ideal.

The engine (buchberger, normal_form and the heap-division reducer behind
them) runs on packed monomials: each exponent vector is one int with an
8-bit field per variable whose top bit is a guard, so divisibility, product
and lcm are a few integer operations, and each monomial order is folded
into one linear integer key.  Exponents must stay below EXPONENT_LIMIT
(128); an input or a product that would reach it raises BudgetExceeded,
never a wrong basis.  Polynomials keep tuple exponents: the engine packs
on entry and unpacks the basis or remainder it returns.
"""

from __future__ import annotations

import hashlib
import heapq
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import mul
from typing import Iterable, Sequence

from .ring import (
    GrevLex,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    VariableId,
    poly_text,
    tvar,
)


class BudgetExceeded(Exception):
    """A Groebner run ran over its resource budget; carries partial stats."""

    def __init__(self, message: str, stats: dict):
        super().__init__(message)
        self.stats = stats


@dataclass(frozen=True)
class Budget:
    """Per-run resource caps so CI failures stay diagnosable."""

    max_pairs: int = 200_000
    max_terms: int = 2_000_000
    wall_seconds: float = 600.0


DEFAULT_BUDGET = Budget()

#: Krull dimension reported for the unit ideal (empty variety).
EMPTY_VARIETY_DIMENSION = -1


@dataclass
class RunTrace:
    """Machine-readable record of one Groebner run."""

    input_hash: str
    order: str
    pairs: int = 0
    max_terms: int = 0
    wall_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "input_hash": self.input_hash,
            "order": self.order,
            "pairs": self.pairs,
            "max_terms": self.max_terms,
            "wall_seconds": round(self.wall_seconds, 6),
        }


class IdealBasis:
    """A generating set: nonzero, deduplicated up to scalar multiple."""

    def __init__(self, ring: PolynomialRing, generators: Iterable[Polynomial]):
        gens = []
        seen = set()
        for g in generators:
            if g.ring.vars != ring.vars or g.ring.field != ring.field:
                g = g.convert(ring)
            if not g:
                continue
            key = g.monic()._terms
            if key in seen:
                continue
            seen.add(key)
            gens.append(g)
        if not gens:
            raise ValueError("an ideal basis needs at least one nonzero generator")
        self.ring = ring
        self.generators = tuple(gens)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return f"IdealBasis({len(self.generators)} gens over {self.ring.field.name})"


class GroebnerBasis:
    """A reduced Groebner basis with its order and run statistics."""

    def __init__(self, ring: PolynomialRing, elements: Sequence[Polynomial], trace: RunTrace):
        self.ring = ring
        self.elements = tuple(elements)
        self.trace = trace

    def is_unit(self) -> bool:
        return len(self.elements) == 1 and self.elements[0].is_constant()

    @cached_property
    def _packed(self) -> tuple:
        """The packing and the reducers normal_form divides by."""
        pk = _Packing(self.ring)
        return pk, _Reducers(pk.guard, pk.nvars, [pk.pack_terms(g) for g in self.elements])

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"GroebnerBasis({len(self.elements)} elements, {self.ring.order.kind})"


def _input_hash(gens: Sequence[Polynomial], order: MonomialOrder) -> str:
    h = hashlib.sha256()
    h.update(order.kind.encode())
    for g in sorted(poly_text(p) for p in gens):
        h.update(g.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# packed monomials
#
# The engine works on exponent vectors packed into one int: variable i owns
# bits [8i, 8i + 8), and the top bit of each field is a guard that every
# exponent below EXPONENT_LIMIT leaves clear.  Then b divides a iff
# (a - b) & guard == 0, the product is a + b, a product whose exponent
# overflows shows as a set guard bit, and the lcm is a SWAR max.  The order
# key is linear: the order's weight rows are folded into one integer weight
# per variable, so key(a + b) = key(a) + key(b).  Polynomials keep tuple
# exponents; the engine packs on entry and unpacks what it returns.  The
# big-cell restrictions of `poset` and the colon certificate of `residual`
# compute on packed dicts {monomial: coefficient} throughout, and read the
# layout only through `_Packing`.

FIELD_BITS = 8
#: every exponent the engine sees, inputs and products alike, stays below this
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)


def _overflow(trace: RunTrace | None) -> BudgetExceeded:
    return BudgetExceeded(
        f"exponent overflow: the Groebner engine holds exponents below {EXPONENT_LIMIT}",
        trace.as_dict() if trace is not None else {},
    )


class _Packing:
    """Packed exponent vectors of one ring and the integer key of its order.

    key() orders packed monomials exactly as the ring order's key() orders
    their tuples, as long as every exponent is below EXPONENT_LIMIT: each
    folded row gets a bit width wider than the spread of its values.  A
    grevlex key is read off the bytes instead: the degree, shifted above
    the exponents read as one big-endian number from the least variable
    on, minus that number.  A larger exponent of an earlier variable makes
    a monomial smaller at equal degree, as `GrevLex.key` has it.
    pair_key() orders by (total degree, key), the pair-selection order.
    Both are linear in the exponents.
    """

    def __init__(self, ring: PolynomialRing):
        n = len(ring.vars)
        self.nvars = n
        self.guard = int.from_bytes(bytes([EXPONENT_LIMIT]) * n, "little")
        self._order = ring.order
        if isinstance(ring.order, GrevLex):
            shift = FIELD_BITS * n + 1

            def key(m: int) -> int:
                b = m.to_bytes(n, "little")
                return (sum(b) << shift) - int.from_bytes(b, "big")

            self.key = key

    # the keys' weights are built on first use: unpacking needs none
    @cached_property
    def weights(self) -> tuple[int, ...]:
        n = self.nvars
        rows = self._order.weight_rows(n)
        top = EXPONENT_LIMIT - 1
        width = 1 + max(((top * sum(map(abs, row))).bit_length() for row in rows), default=0)
        last = len(rows) - 1
        return tuple(
            sum(row[i] << (width * (last - r)) for r, row in enumerate(rows)) for i in range(n)
        )

    @cached_property
    def degree_shift(self) -> int:
        return 1 + ((EXPONENT_LIMIT - 1) * sum(map(abs, self.weights))).bit_length()

    def key(self, m: int) -> int:
        return sum(map(mul, self.weights, m.to_bytes(self.nvars, "little")))

    def pair_key(self, m: int) -> int:
        exps = m.to_bytes(self.nvars, "little")
        return (sum(exps) << self.degree_shift) + sum(map(mul, self.weights, exps))

    def unpack(self, m: int) -> tuple[int, ...]:
        return tuple(m.to_bytes(self.nvars, "little"))

    @staticmethod
    def pack(exps: tuple[int, ...], trace: RunTrace | None = None) -> int:
        if exps and max(exps) >= EXPONENT_LIMIT:
            raise _overflow(trace)
        return int.from_bytes(bytes(exps), "little")

    @staticmethod
    def pack_dict(f: Polynomial) -> dict:
        """f's terms as a dict {packed monomial: coefficient}."""
        return {_Packing.pack(e): c for e, c in f._terms}

    @staticmethod
    def var(index: int) -> int:
        """The packed monomial of the variable at `index`."""
        return 1 << FIELD_BITS * index

    @staticmethod
    def fields(index: int, count: int = 1) -> int:
        """The bits of the `count` exponent fields from variable `index` on:
        a packed monomial uses one of those variables exactly when its AND
        with them is nonzero."""
        return (1 << FIELD_BITS * count) - 1 << FIELD_BITS * index

    def pack_terms(self, f: Polynomial, trace: RunTrace | None = None) -> list:
        """f's terms as (key, packed monomial, coefficient), in f's order."""
        out = []
        for e, c in f._terms:
            m = self.pack(e, trace)
            out.append((self.key(m), m, c))
        return out

    def polynomial(self, ring: PolynomialRing, terms: list) -> Polynomial:
        return Polynomial(ring, tuple((self.unpack(m), c) for _, m, c in terms))


def _lcm(a: int, b: int, guard: int) -> int:
    """Fieldwise max of two packed monomials."""
    ge = ((a | guard) - b) & guard  # the guard bit of each field where a >= b
    return b ^ ((a ^ b) & (ge - (ge >> (FIELD_BITS - 1))))


def _monic(terms: list, field) -> list:
    lc = terms[0][2]
    if lc == field.one:
        return terms
    return [(k, m, field.div(c, lc)) for k, m, c in terms]


def _is_constant(terms: list) -> bool:
    return all(m == 0 for _, m, _ in terms)


class _Reducers:
    """Monic packed polynomials to divide by, in basis order.

    Each entry is (lead, lead key, fieldwise max of all its monomials,
    tail terms).  divisor(e) is the index of the first entry whose lead
    divides e, or -1.  Leads are bucketed by their largest variable, which
    e must contain for the lead to divide it, so a lookup scans only the
    buckets of e's variables.
    """

    def __init__(self, guard: int, nvars: int, polys: Iterable[list] = ()):
        self.guard = guard
        self.nvars = nvars
        self.entries: list[tuple] = []
        self.leads: list[int] = []
        self.buckets: list[list] = [[] for _ in range(nvars + 1)]  # last: lead 1
        for terms in polys:
            self.append(terms)

    def append(self, terms: list):
        key, lead, _ = terms[0]
        top = lead
        for _, m, _ in terms:
            top = _lcm(top, m, self.guard)
        idx = len(self.leads)
        self.entries.append((lead, key, top, tuple(terms[1:])))
        self.leads.append(lead)
        bucket = (lead.bit_length() - 1) // FIELD_BITS if lead else self.nvars
        self.buckets[bucket].append((idx, lead))

    def divisor(self, e: int) -> int:
        guard = self.guard
        eg = e | guard  # (eg - lead) keeps every guard bit iff lead divides e
        n = found = len(self.leads)
        for var in compress(range(self.nvars + 1), e.to_bytes(self.nvars, "little") + b"\1"):
            for idx, lead in self.buckets[var]:
                if idx >= found:
                    break
                if (eg - lead) & guard == guard:
                    found = idx
                    break
        return found if found < n else -1


#: the reducer reads the clock once per this many reduction steps
CLOCK_STEPS = 256


def _reduce(
    f: dict,
    heap: list,
    reducers: _Reducers,
    field,
    trace: RunTrace | None = None,
    deadline: float | None = None,
) -> list:
    """Full normal form of f modulo the reducers, as terms in descending order.

    f maps packed monomials to nonzero coefficients; heap holds
    (-key, monomial) for every monomial of f (stale entries are skipped).
    Each step takes the largest monomial left and reduces it by the first
    entry whose lead divides it, as heap division does.
    """
    zero = field.zero
    add, mul, neg = field.add, field.mul, field.neg
    guard = reducers.guard
    entries = reducers.entries
    divisor = reducers.divisor
    out = []
    steps = 0
    while heap:
        negkey, e = heapq.heappop(heap)
        c = f.pop(e, zero)
        if c == zero:
            continue
        idx = divisor(e)
        if idx < 0:
            out.append((-negkey, e, c))
            continue
        lead, lead_key, top, tail = entries[idx]
        shift = e - lead
        if (top + shift) & guard:
            raise _overflow(trace)
        shift_key = -negkey - lead_key
        nc = neg(c)
        for k, m, tc in tail:
            m += shift
            term = mul(nc, tc)
            old = f.get(m)
            if old is None:
                f[m] = term
                heapq.heappush(heap, (-k - shift_key, m))
            else:
                new = add(old, term)
                if new == zero:
                    del f[m]
                else:
                    f[m] = new
        if trace is not None and len(f) > trace.max_terms:
            trace.max_terms = len(f)
        steps += 1
        if deadline is not None and steps % CLOCK_STEPS == 0 and time.monotonic() > deadline:
            raise BudgetExceeded("wall-clock budget exhausted", trace.as_dict())
    return out


def _reduce_terms(terms: list, reducers: _Reducers, field, trace=None, deadline=None) -> list:
    f = {m: c for _, m, c in terms}
    heap = [(-k, m) for k, m, _ in terms]
    heapq.heapify(heap)
    return _reduce(f, heap, reducers, field, trace, deadline)


def _s_remainder(
    pk: _Packing,
    reducers: _Reducers,
    i: int,
    j: int,
    lcm: int,
    field,
    trace: RunTrace | None = None,
    deadline: float | None = None,
) -> list:
    """Full normal form of the S-polynomial of reducers i and j, whose
    leads have the given lcm, modulo all the reducers."""
    # S-polynomial of the two monic entries, without the cancelled lcm
    lead_i, lead_key_i, top_i, tail_i = reducers.entries[i]
    lead_j, lead_key_j, top_j, tail_j = reducers.entries[j]
    si, sj = lcm - lead_i, lcm - lead_j
    if (top_i + si) & pk.guard or (top_j + sj) & pk.guard:
        raise _overflow(trace)
    lcm_key = pk.key(lcm)
    ki, kj = lcm_key - lead_key_i, lcm_key - lead_key_j
    s: dict = {}
    heap = []
    for k, m, c in tail_i:
        m += si
        s[m] = c
        heap.append((-k - ki, m))
    for k, m, c in tail_j:
        m += sj
        old = s.get(m)
        if old is None:
            s[m] = field.sub(field.zero, c)
            heap.append((-k - kj, m))
        else:
            new = field.sub(old, c)
            if new == field.zero:
                del s[m]
            else:
                s[m] = new
    heapq.heapify(heap)
    return _reduce(s, heap, reducers, field, trace, deadline)


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f on division by G; zero iff f lies in the ideal."""
    if f.ring.vars != G.ring.vars or f.ring.field != G.ring.field:
        f = f.convert(G.ring)
    elif f.ring.order is not G.ring.order:
        f = f.convert(G.ring)
    pk, reducers = G._packed
    rem = _reduce_terms(pk.pack_terms(f), reducers, G.ring.field)
    return pk.polynomial(G.ring, rem)


# ---------------------------------------------------------------------------
# Buchberger


def buchberger(
    I: IdealBasis | Sequence[Polynomial],
    order: MonomialOrder | None = None,
    budget: Budget | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by I.

    Classic Buchberger with the coprime and chain pair-discarding criteria
    and degree-graded normal pair selection.  The reduced basis is unique
    for a fixed order, so permuting the input cannot change the output.
    Short-circuits as soon as the ideal is seen to contain a unit.
    """
    if isinstance(I, IdealBasis):
        ring = I.ring
        gens = list(I.generators)
    else:
        gens = list(I)
        if not gens:
            raise ValueError("empty generating set")
        ring = gens[0].ring
    if order is not None:
        ring = ring.with_order(order)
        gens = [g.convert(ring) for g in gens]
    budget = budget or DEFAULT_BUDGET
    trace = RunTrace(_input_hash(gens, ring.order), ring.order.kind)
    start = time.monotonic()
    deadline = start + budget.wall_seconds

    field = ring.field
    pk = _Packing(ring)
    guard = pk.guard
    polys: list[list] = []  # monic packed terms, in basis order
    reducers = _Reducers(guard, pk.nvars)
    leads = reducers.leads
    done: list[set[int]] = []  # done[i]: every k whose pair with i was popped

    def add_element(terms: list):
        polys.append(terms)
        reducers.append(terms)
        done.append(set())

    # seed with the (monic) inter-reduced input
    seeds = sorted(
        (pk.pack_terms(g.monic(), trace) for g in gens if g), key=lambda terms: terms[0][0]
    )
    for terms in seeds:
        rem = _reduce_terms(terms, reducers, field, trace, deadline)
        if rem:
            add_element(_monic(rem, field))
    if any(_is_constant(terms) for terms in polys):
        trace.wall_seconds = time.monotonic() - start
        return GroebnerBasis(ring, [ring.one], trace)

    pairs: list[tuple[int, int, int]] = []
    # the pair key is linear: key(lcm) = key(lm_k) + key(lm_t) - key(gcd),
    # and the few distinct gcds get their key computed once
    lead_pair_keys: list[int] = []
    gcd_pair_keys: dict[int, int] = {}

    def push_pairs(t: int):
        lt = leads[t]
        kt = pk.pair_key(lt)
        lead_pair_keys.append(kt)
        ltg = lt | guard
        for k in range(t):
            lk = leads[k]
            ge = (ltg - lk) & guard  # the gcd, as in _lcm: lk where lt >= lk
            gcd = lt ^ ((lt ^ lk) & (ge - (ge >> (FIELD_BITS - 1))))
            kg = gcd_pair_keys.get(gcd)
            if kg is None:
                kg = gcd_pair_keys[gcd] = pk.pair_key(gcd)
            heapq.heappush(pairs, (lead_pair_keys[k] + kt - kg, k, t))

    for t in range(len(polys)):
        push_pairs(t)

    unit = False
    while pairs:
        if trace.pairs >= budget.max_pairs or trace.max_terms >= budget.max_terms:
            raise BudgetExceeded("pair/term budget exhausted", trace.as_dict())
        if time.monotonic() - start > budget.wall_seconds:
            raise BudgetExceeded("wall-clock budget exhausted", trace.as_dict())
        _, i, j = heapq.heappop(pairs)
        done_i, done_j = done[i], done[j]
        if j in done_i:
            continue
        done_i.add(j)
        done_j.add(i)
        trace.pairs += 1
        li, lj = leads[i], leads[j]
        lcm = _lcm(li, lj, guard)
        # coprime criterion
        if lcm == li + lj:
            continue
        # chain criterion: some k with lm_k | lcm and both sibling pairs done
        # (the intersection never holds i or j themselves)
        if any(not (lcm - leads[k]) & guard for k in done_i & done_j):
            continue
        rem = _s_remainder(pk, reducers, i, j, lcm, field, trace, deadline)
        if not rem:
            continue
        h = _monic(rem, field)
        if _is_constant(h):
            unit = True
            break
        add_element(h)
        push_pairs(len(polys) - 1)

    if unit:
        elements = [ring.one]
    else:
        reduced = _interreduce(polys, leads, guard, pk.nvars, field, trace)
        elements = [pk.polynomial(ring, h) for h in reduced]
    trace.wall_seconds = time.monotonic() - start
    return GroebnerBasis(ring, elements, trace)


def _interreduce(polys: list, leads: list, guard: int, nvars: int, field, trace: RunTrace) -> list:
    """Minimalize and tail-reduce a packed Groebner basis; sort by lead."""
    # minimal: drop g whose lm is divisible by another's lm
    keep = [
        terms
        for idx, (terms, lm) in enumerate(zip(polys, leads))
        if not any(
            jdx != idx and not (lm - other) & guard and (other != lm or jdx < idx)
            for jdx, other in enumerate(leads)
        )
    ]
    # reduce each element's tail modulo the others: in a minimal basis no
    # lead divides another lead or any monomial below it, so dividing by all
    # of keep picks the same divisors as dividing by the others
    reducers = _Reducers(guard, nvars, keep)
    reduced = [[terms[0]] + _reduce_terms(terms[1:], reducers, field, trace) for terms in keep]
    reduced.sort(key=lambda terms: terms[0][0])
    return reduced


# ---------------------------------------------------------------------------
# radical membership


def _extended_ring(ring: PolynomialRing, order: MonomialOrder) -> tuple[PolynomialRing, VariableId]:
    """Adjoin a fresh slack variable below every other variable."""
    k = 0
    while tvar(k) in ring.index:
        k += 1
    aux = tvar(k)
    ext = PolynomialRing(ring.field, (aux, *ring.vars), order)
    return ext, aux


def radical_membership(f: Polynomial, I: IdealBasis, budget: Budget | None = None) -> bool:
    """Whether f lies in the radical of I.

    Decided by testing 1 in I + (1 - t*f) in the ring extended by a fresh
    slack t (placed below every other variable); the Groebner run uses
    grevlex, as unit detection does not depend on the order.
    """
    ext, aux = _extended_ring(I.ring, GrevLex())
    gens = [g.convert(ext) for g in I.generators]
    gens.append(ext.one - ext.var(aux) * f.convert(ext))
    return buchberger(gens, budget=budget).is_unit()


# ---------------------------------------------------------------------------
# quotient dimension


def quotient_dimension(
    I: IdealBasis,
    order: MonomialOrder | None = None,
    budget: Budget | None = None,
) -> int:
    """Krull dimension of ring/I from the initial ideal of a reduced basis.

    dim = max |U| over variable subsets U containing the support of no
    leading monomial; equivalently nvars minus a minimum hitting set of the
    supports.  The unit ideal reports EMPTY_VARIETY_DIMENSION (-1).
    """
    G = buchberger(I, order=order or GrevLex(), budget=budget)
    if G.is_unit():
        return EMPTY_VARIETY_DIMENSION
    nvars = len(G.ring.vars)
    supports = sorted(
        {frozenset(i for i, e in enumerate(g._terms[0][0]) if e) for g in G.elements},
        key=len,
    )
    # strip supersets: hitting a subset hits its supersets
    minimal: list[frozenset[int]] = []
    for s in supports:
        if not any(t <= s for t in minimal):
            minimal.append(s)
    best = nvars  # size of the best hitting set found so far

    def search(idx: int, chosen: frozenset[int], size: int):
        nonlocal best
        if size >= best:
            return
        while idx < len(minimal) and minimal[idx] & chosen:
            idx += 1
        if idx == len(minimal):
            best = size
            return
        for v in sorted(minimal[idx]):
            search(idx + 1, chosen | {v}, size + 1)

    search(0, frozenset(), 0)
    return nvars - best
