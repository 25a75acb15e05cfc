"""The residual-intersection objects: the generator family, the witness
ideal, rank-sum systems of parameters, specializations, and the end-to-end
radical-equality and colon-identity certificates.

The colon certificate computes on packed dicts {monomial: coefficient}
(`groebner._Packing`); its minors of X come from `poset.packed_minor`,
the table the big-cell restrictions read, and its products from
`poset.add_product`.
"""

from __future__ import annotations

import itertools
import operator
import time
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .groebner import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceeded,
    IdealBasis,
    RunTrace,
    _input_hash,
    _lcm,
    _monic,
    _Packing,
    _Reducers,
    _s_remainder,
)
from .labels import GeneratorLabel, M, Q, canonical_labels
from .poset import BPoset, add_product, packed_minor, straighten
from .ring import (
    QQ,
    GrevLex,
    Polynomial,
    PolynomialRing,
    VariableId,
    ambient_ring,
    xvar,
    yvar,
)


class BadShape(Exception):
    """Raised when m < n."""


class BadAssignment(Exception):
    """Raised for partial specialization assignments."""


class _OnRequest(dict):
    """The packed tables of one instance's generators built so far, by
    label: `packed[label]`, for a label of the instance that has none,
    builds its table (`ResidualInstance._packed`) and keeps it.  A table
    set is kept as set; deleting one makes the next read build it again.

    It holds the instance weakly: the instance holds the map, and a cycle
    would keep each instance, with all its tables, alive until the cyclic
    garbage collector next runs.  So a map kept after its instance is
    freed still reads the tables it has built, and raises ReferenceError
    for any other."""

    def __init__(self, instance: "ResidualInstance"):
        self._instance = weakref.ref(instance)
        self._known = frozenset(instance.labels)

    def __missing__(self, key):
        if key not in self._known:
            raise KeyError(key)
        instance = self._instance()
        if instance is None:
            raise ReferenceError(
                f"cannot build {key.text}: its ResidualInstance has been freed; "
                "keep the instance, not only its map"
            )
        value = self[key] = instance._packed(key)
        return value


class ResidualInstance:
    """The generators of the witness algebra for one (m, n), each built on
    request.

    Carries the ambient ring (ordered so the two leading-monomial formulas
    hold), the canonical label list (Q1..Qm then minors in lexicographic
    row order -- golden files depend on this), and `packed`, the one
    stored form of each generator: a label-keyed map whose entry, a packed
    dict {monomial: integer coefficient} (`groebner._Packing`), is built
    on first read and kept.  A minor's table is `poset.packed_minor` on
    the columns 1..n; Q_r's is its n terms x[r][j] * y_j.  The tables are
    the same whatever `field` is: every check and every printed text reads
    them, so a test that corrupts a generator sets its table.  `field` is
    the field of the `Polynomial` views only: `polynomial(label)`,
    `generators` and `hsop` unpack a table into the ring over `field` on
    every call and keep nothing; of the checks only the input hash of a
    `colon` budget hit calls them.
    """

    def __init__(self, m: int, n: int, field=QQ):
        if not (m >= n >= 1):
            raise BadShape(f"need m >= n >= 1, got ({m}, {n})")
        self.m = m
        self.n = n
        self.ring = ambient_ring(m, n, field=field)
        self.labels: tuple[GeneratorLabel, ...] = tuple(canonical_labels(m, n))
        self.packed = _OnRequest(self)
        self._poset: BPoset | None = None
        # by row pattern, for the instance's life: `poset.straighten`, `.verify`
        self._straighten_table: dict = {}
        self._verified: dict = {}
        # packed generators on a big cell by (label, cell), for `poset._on_cell`
        self._cells: dict = {}
        # packed minors of X by (rows, columns), for `poset.packed_minor`: the
        # generators' tables, the cell restrictions and `colon_family`
        self._minors: dict = {}

    @cached_property
    def packing(self) -> _Packing:
        """The packing of the ring, to unpack the tables' monomials."""
        return _Packing(self.ring)

    def _packed(self, label: GeneratorLabel) -> dict:
        if label.is_q:
            var, index, r = _Packing.var, self.ring.index, label.q_index
            # in the order of `ring.q_entry`'s terms
            return {var(index[xvar(r, j)]) + var(index[yvar(j)]): 1 for j in range(self.n, 0, -1)}
        return packed_minor(self, label.rows, tuple(range(1, self.n + 1)))

    def unpack(self, table: dict) -> Polynomial:
        """A packed table as a `Polynomial` over the instance's field, each
        coefficient coerced and a term whose image is 0 left out: descending
        packed monomials are descending in lex (`lead`)."""
        unpack, coerce = self.packing.unpack, self.field.coerce
        terms = ((unpack(e), coerce(c)) for e, c in sorted(table.items(), reverse=True))
        return Polynomial(self.ring, tuple(term for term in terms if term[1]))

    def polynomial(self, label: GeneratorLabel) -> Polynomial:
        """`label`'s generator, unpacked from its table on every call."""
        return self.unpack(self.packed[label])

    def lead(self, label: GeneratorLabel) -> int:
        """The leading monomial of `label`, packed: the largest monomial of
        its packed table under the ring order.  That order is lex, and
        under lex a packed monomial is its own key (`_Packing.key`: the
        variable at index i weighs 1 << FIELD_BITS * i)."""
        return max(self.packed[label])

    @property
    def field(self):
        return self.ring.field

    @property
    def poset(self) -> BPoset:
        if self._poset is None:
            self._poset = BPoset(self.m, self.n)
        return self._poset

    def generators(self) -> list[Polynomial]:
        return list(map(self.polynomial, self.labels))

    def ideal(self) -> IdealBasis:
        return IdealBasis(self.ring, self.generators())

    def __repr__(self):
        return f"ResidualInstance(m={self.m}, n={self.n}, {self.field.name})"


def build_instance(m: int, n: int, field=QQ) -> ResidualInstance:
    """Instance of the m + C(m, n) generators, whose packed tables are
    built on request."""
    return ResidualInstance(m, n, field=field)


# ---------------------------------------------------------------------------
# the rank-sum witness family


def hsop(instance: ResidualInstance) -> list[Polynomial]:
    """The arithmetic-rank witnesses.

    For n >= 2: for each rank r the sum of all generators of that rank,
    n(m-n+1)+1 polynomials in all.  Distinct generators share no monomial
    (the no-cancellation argument in `cli._texts`), so a witness's packed
    table is the union of its rank class's tables, unpacked once.  For
    n = 1 the poset recipe would give m+1 elements, one more than the true
    arithmetic rank, so that case returns the m column variables
    x[1][1], ..., x[m][1] instead.
    """
    if instance.n == 1:
        return [instance.ring.var(xvar(i, 1)) for i in range(1, instance.m + 1)]
    sums = []
    for cls in instance.poset.rank_classes():
        table: dict = {}
        for lab in cls:
            table.update(instance.packed[lab])
        sums.append(instance.unpack(table))
    return sums


def expected_witness_count(m: int, n: int) -> int:
    return n * (m - n + 1) + 1 if n >= 2 else m


# ---------------------------------------------------------------------------
# certificates


@dataclass
class HsopCertificate:
    """The radical-equality certificate of one instance: the identities it
    rests on, each with its verdict.  They have integer coefficients, so the
    certificate holds over Z and in every characteristic."""

    m: int
    n: int
    relations: list[dict]
    verdict: bool | None

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "holds_over": "Z",
            "relations": self.relations,
            "verdict": self.verdict,
        }


def verify_ara_witness(instance: ResidualInstance, budget: Budget | None = None) -> HsopCertificate:
    """Certify sqrt(witnesses) = sqrt(residual ideal) over Z.

    Every witness is a sum of generators, so one containment is immediate.
    The other goes by induction on rank.  The bottom rank class is Q1, the
    witness s_1.  For gamma of rank r >= 2,

        gamma^2 = gamma * s_r - sum over the other delta of rank r of gamma * delta,

    and each gamma * delta is an incomparable product that straightens into
    products whose first factor lies strictly below gamma, so has lower rank
    and is in the radical already.  Each same-rank pair's relation must
    re-expand, satisfy the least-label condition and have int coefficients:
    then it holds in Z[X, y], and the induction in every characteristic.
    For n = 1 the witnesses are the minors [i] = x[i][1] and
    Q_i = y_1 * [i], compared on the packed tables.

    The wall-clock budget is read after each relation; when it runs out,
    BudgetExceeded carries the relations checked so far as a partial
    certificate.
    """
    deadline = time.monotonic() + (budget or DEFAULT_BUDGET).wall_seconds
    relations: list[dict] = []
    if instance.n == 1:
        index = instance.ring.index
        y1 = _Packing.var(index[yvar(1)])
        verdict = True
        for i in range(1, instance.m + 1):
            x = _Packing.var(index[xvar(i, 1)])
            ok = instance.packed[M((i,))] == {x: 1} and instance.packed[Q(i)] == {x + y1: 1}
            verdict = verdict and ok
            relations.append(
                {"pair": [f"Q{i}", f"[{i}]"], "rank": None, "relation": f"Q{i} = y1*[{i}]", "verdict": ok}
            )
        return HsopCertificate(instance.m, instance.n, relations, verdict)
    classes = instance.poset.rank_classes()
    verdict = classes[0] == [Q(1)]
    for rank, cls in enumerate(classes, start=1):
        for a, b in itertools.combinations(cls, 2):
            rel = straighten(instance, a, b)
            ok = (
                all(type(c) is int for c, _ in rel.right)
                and rel.min_label_condition()
                and rel.verify(instance)
            )
            verdict = verdict and ok
            relations.append(
                {"pair": [a.text, b.text], "rank": rank, "relation": rel.text, "verdict": ok}
            )
            if time.monotonic() > deadline:
                partial = HsopCertificate(instance.m, instance.n, relations, None)
                raise BudgetExceeded(
                    "wall-clock budget exhausted",
                    {"relations_checked": len(relations), "partial_certificate": partial.as_dict()},
                )
    return HsopCertificate(instance.m, instance.n, relations, verdict)


def _pattern(a: int, b: int) -> tuple[int, int]:
    """The own pattern of two row sets given as bitmasks: both renamed
    into 1..u, u the size of their union, in order, as a sorted pair."""
    union, bit, pa, pb = a | b, 1, 0, 0
    while union:
        low = union & -union
        pa |= bit if a & low else 0
        pb |= bit if b & low else 0
        union ^= low
        bit <<= 1
    return (pa, pb) if pa < pb else (pb, pa)


def colon_family(instance: ResidualInstance, qs: dict[int, dict]) -> dict[tuple[int, ...], dict]:
    """The family g_K, 1 <= |K| <= n, of J = I_n(X) + (X y), by row set K
    inside the rows of `qs`, each as a packed dict {monomial: coefficient};
    `qs` holds Q_r packed, by r.

    For k = |K| < n, g_K = det[Q_K | X on rows K, columns n-k+2..n],
    expanded along its first column: the sum over the t-th row r of K of
    (-1)^t * Q_r * det(X on K - r, columns n-k+2..n), an explicit
    (X y)-combination.  So g_{r} = Q_r.  For k = n, g_K = [K]; at n = 1
    the family is the minors [r].  [K] is its table in `instance.packed`.
    """
    n = instance.n
    family = {}
    for k in range(1, n + 1):
        cols = tuple(range(n - k + 2, n + 1))
        for K in itertools.combinations(sorted(qs), k):
            if k == n:
                family[K] = instance.packed[M(K)]
                continue
            g: dict = {}
            for t, r in enumerate(K):
                add_product(g, qs[r], packed_minor(instance, K[:t] + K[t + 1 :], cols), (-1) ** t)
            family[K] = g
    return family


def verify_colon_identity(instance: ResidualInstance, budget: Budget | None = None) -> bool:
    """Certify (X y) : (y) = J, where J = I_n(X) + (X y) is the generator ideal.

    Let G be `colon_family` on all the rows, in the ambient grevlex order.
    It is computed on the rows 1..min(m, 2n) only, and five parts make the
    proof:

    - Renaming.  Every Q_r and every minor [R] is Q_1, or [1..n], with the
      exponent fields of its row i moved to row r_i (checked, so every
      generator's table is read).  An order-preserving row renaming f is
      an injective ring map that keeps y and sends x[i][j] to x[f(i)][j],
      so it sends Q_i to Q_f(i), [K] to [f(K)], g_K to g_f(K), and every
      identity among them to the renamed identity.  It keeps the grevlex
      order on its image, since the variables are ordered by row, then
      column.
    - Membership.  Each g_K is Q_r, a minor [K], or an explicit
      (X y)-combination, so G lies in J; it holds every Q_r (n >= 2) and
      every minor, so it generates J.  At n = 1, G is the minors [r], and
      Q_r = y1 * [r] is a Cramer identity below.
    - Buchberger's criterion, at own-pattern pairs.  g_K uses only the
      rows K, and its lead uses every row of K (checked on the rows
      1..2n, and so, renamed, for every K).  A lead of g_C divides a
      monomial only when every row of C occurs in it, so reducing an
      S-pair with row union U divides only by g_C with C in U and stays in
      the rows U: it is the renamed reduction of the pair's pattern, the
      pair renamed into the rows 1..|U|, and |U| <= 2n.  Call a pair lifted
      when its S-polynomial reduces to zero or its leads are coprime
      (Buchberger's product criterion).  If the S-syzygies of lifted pairs
      span every S-syzygy of the leads, G is a Groebner basis (the lifting
      theorem; Cox-Little-O'Shea, ch. 2 sec. 9).  The S-syzygy of (A, B)
      is a sum of monomial multiples of those of (A, C) and (C, B) when the
      lead of g_C divides the lcm of A and B (Buchberger's chain
      criterion).  So the own-pattern pairs, those whose row union is
      1..u, are taken by ascending lcm, and each must have coprime leads,
      chain through some g_C to two patterns taken before it, or reduce to
      zero.  Renaming sends every pair to its pattern and keeps reductions
      and chains, so then every S-syzygy is in the span, and G is a
      Groebner basis of J.
    - Leads.  No lead contains y1.  Then J : y1 = J: if y1 * f is in J and
      h is the normal form of f, then y1 * h is in J, and no lead divides a
      monomial of y1 * h, since none contains y1; so y1 * h is reduced,
      hence zero.  J is homogeneous, so this is Bayer-Stillman's
      in(J : y1) = in(J) : y1.
    - Cramer.  For R = 1..n and each column j, Cramer's rule gives
      y_j * [R] = sum over the t-th row r of R of (-1)^(t+j) * Q_r *
      det(X on R - r, columns other than j), an (X y)-combination
      (checked).  Renamed, it holds for every n-row set R: so J is in
      (X y) : (y).

    Then (X y) : (y) is in (X y) : y1, which is in J : y1 = J.  Every
    identity is compared on packed monomials.  A false verdict means the
    certificate failed, not that the identity does.

    The tables are integer, so the verdict holds over Z, in every
    characteristic.  Every monic g_K must have `int` coefficients
    (checked).  So each S-pair reduction divides only by monic integer
    polynomials: its quotients and remainder are integer, and it is a
    standard representation over Z.  Read mod p, a monic lead keeps its
    monomial and a quotient term can only vanish, so the representation
    stays standard over F_p; the chains and the lead tests read only the
    leads, and the Cramer identities are integer identities.

    The S-pair phase counts own-pattern pairs against the pair budget,
    tracks the largest intermediate polynomial against the term budget and
    reads the clock once per pair; the renaming check reads it once per
    n-row set.  A budget hit carries those counts and the row sets checked.
    """
    budget = budget or DEFAULT_BUDGET
    start = time.monotonic()
    deadline = start + budget.wall_seconds
    ring, m, n = instance.ring, instance.m, instance.n
    pk = _Packing(ring.with_order(GrevLex()))
    trace = RunTrace("", "grevlex")

    def exhausted(message: str, checked: int) -> BudgetExceeded:
        trace.input_hash = _input_hash(instance.generators(), GrevLex())
        trace.wall_seconds = time.monotonic() - start
        return BudgetExceeded(message, {**trace.as_dict(), "row_sets_checked": checked})

    qs = {r: instance.packed[Q(r)] for r in range(1, min(m, 2 * n) + 1)}
    # monic, with terms in descending grevlex; the shortest divide first
    family = []
    for K, g in colon_family(instance, qs).items():
        if g:
            terms = sorted(((pk.key(e), e, c) for e, c in g.items()), reverse=True)
            family.append((K, _monic(terms, QQ)))
    if not all(type(c) is int for _, terms in family for _, _, c in terms):
        return False
    family.sort(key=lambda entry: (len(entry[1]), entry[1][0][0]))
    reducers = _Reducers(pk.guard, pk.nvars, [terms for _, terms in family])
    leads = reducers.leads

    y1 = _Packing.fields(ring.index[yvar(1)])
    row = {r: _Packing.fields(ring.index[xvar(r, 1)], n) for r in range(1, m + 1)}
    for lead, (K, _) in zip(leads, family):
        if lead & y1 or not all(lead & row[r] for r in K):
            return False

    # own-pattern pairs, whose row union is 1..u, by ascending lcm
    guard = pk.guard
    masks = [sum(1 << r - 1 for r in K) for K, _ in family]
    pairs = []
    for j, lead_j in enumerate(leads):
        for i, lead_i in enumerate(leads[:j]):
            union = masks[i] | masks[j]
            if not union & (union + 1):
                lcm = _lcm(lead_i, lead_j, guard)
                pairs.append((pk.key(lcm), i, j, lcm))
    pairs.sort()
    lifted = set()  # patterns whose S-syzygy is a sum of lifted ones
    for _, i, j, lcm in pairs:
        if trace.pairs >= budget.max_pairs or trace.max_terms >= budget.max_terms:
            raise exhausted("pair/term budget exhausted", 0)
        if time.monotonic() > deadline:
            raise exhausted("wall-clock budget exhausted", 0)
        trace.pairs += 1
        a, b = masks[i], masks[j]
        chained = lcm == leads[i] + leads[j] or any(
            not (lcm - lead) & guard
            and c != i
            and c != j
            and _pattern(a, masks[c]) in lifted
            and _pattern(masks[c], b) in lifted
            for c, lead in enumerate(leads)
        )
        if not chained and _s_remainder(pk, reducers, i, j, lcm, QQ, trace):
            return False
        lifted.add(_pattern(a, b))

    columns = tuple(range(1, n + 1))
    det = instance.packed[M(columns)]
    for j in range(n):
        cramer: dict = {}
        for t in range(n):
            sub = packed_minor(instance, columns[:t] + columns[t + 1 :], columns[:j] + columns[j + 1 :])
            add_product(cramer, qs[t + 1], sub, (-1) ** (t + j))
        y = _Packing.var(ring.index[yvar(j + 1)])
        if cramer != {e + y: c for e, c in det.items()}:
            return False

    def renaming(table: dict, k: int):
        # rows -> `table` with the exponent fields of its row i moved to row
        # rows[i-1], i = 1..k; a row's n fields are consecutive, so a move
        # multiplies them by a power of two
        fields = [row[i] for i in range(1, k + 1)]
        fields.insert(0, ~sum(fields))  # the fields that stay
        split = [(tuple(map(e.__and__, fields)), c) for e, c in table.items()]

        def renamed(rows: tuple[int, ...]) -> dict:
            moves = (1, *(row[r] // row[i] for i, r in enumerate(rows, 1)))
            return {sum(map(operator.mul, parts, moves)): c for parts, c in split}

        return renamed

    q_renamed, minor_renamed = renaming(qs[1], 1), renaming(det, n)
    if any(instance.packed[Q(r)] != q_renamed((r,)) for r in range(1, m + 1)):
        return False
    for checked, rows in enumerate(itertools.combinations(range(1, m + 1), n)):
        if time.monotonic() > deadline:
            raise exhausted("wall-clock budget exhausted", checked)
        if instance.packed[M(rows)] != minor_renamed(rows):
            return False
    return True


# ---------------------------------------------------------------------------
# specialization


def specialize(
    instance: ResidualInstance,
    assignment: Mapping[VariableId, Polynomial],
    target: PolynomialRing,
) -> tuple[IdealBasis, list[Polynomial]]:
    """Push the generators and witnesses through a total substitution.

    Whether the image ideal is again a bona fide residual intersection is
    not checked; downstream radical-containment checks are the caller's
    business.
    """
    missing = [v for v in instance.ring.vars if v not in assignment]
    if missing:
        raise BadAssignment(
            "assignment missing " + ", ".join(v.text for v in missing)
        )
    spec_gens = [
        instance.polynomial(lab).substitute(assignment, target)
        for lab in instance.labels
    ]
    if all(not g for g in spec_gens):
        raise BadAssignment("specialization sent every generator to zero")
    spec_hsop = [w.substitute(assignment, target) for w in hsop(instance)]
    return IdealBasis(target, [g for g in spec_gens if g]), spec_hsop


# ---------------------------------------------------------------------------
# the upper-bound comparison table


def upper_bound_table(max_m: int) -> list[dict]:
    """Rows (m, n, naive, witness_count, difference) for all n <= m <= max_m.

    naive is the subadditive bound (mn - n^2 + 1) + m; the witness column
    is n(m-n+1)+1; their gap is exactly m - n, which is asserted.
    """
    if max_m < 2:
        raise ValueError("need max_m >= 2")
    rows = []
    for m in range(1, max_m + 1):
        for n in range(1, m + 1):
            naive = (m * n - n * n + 1) + m
            bound = n * (m - n + 1) + 1
            diff = naive - bound
            assert diff == m - n, f"gap identity failed at ({m}, {n})"
            rows.append(
                {"m": m, "n": n, "naive": naive, "bound": bound, "difference": diff}
            )
    return rows
