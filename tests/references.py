"""Independent cross-checks for the certificates, by direct computation.

`colon_identity_by_elimination` computes (X y) : (y) as an intersection of
single colons, each by eliminating a slack variable, and compares it with
the generator ideal by mutual normal forms.  `elimination_kernel` computes
the toric kernel by a block-order elimination in the ambient ring plus the
presentation ring, with no use of the generator lattice.
`polynomial_kernel` builds the Hibi binomials as `Polynomial` products in
the presentation ring under `TauOrder`, and `squarefree_by_leading_terms`
reads their leading terms, where `sagbi.toric_kernel` holds them as label
pairs and `sagbi.verify_squarefree_initial` reads the tau positions on the
covers.  `identity_assignment` is the identity specialization.
`asl1_by_expansion` checks the first straightening-law axiom degree by
degree: every standard monomial (multichain) up to the degree has a
leading monomial no other one shares, read off its expanded product, and
every other product straightens to standard monomials that re-expand to
it.  `sagbi_by_subduction` checks the Sagbi property by the
kernel-lift criterion instead of the two axioms.  `straighten_by_solve`
solves each incomparable pair's straightening relation for that pair
alone, with `Polynomial` products, where `poset.straighten` solves once
per row pattern.  `reexpands_in_full` re-expands a quadratic identity
in all of K[X, y], where `StraighteningRelation.verify` re-expands it on
the big cell of one minor.  `on_cell_by_filter` restricts a generator to
that cell by filtering its terms, where `poset._on_cell` builds the
restriction in closed form; both give packed dicts {monomial:
coefficient}, with monomials packed by `groebner._Packing`.
`row_reduce_dense` eliminates on dense rows to the reduced echelon form,
cleared above and below each pivot, and `rank_by_rref` and
`solve_by_rref` read a rank and a solution off it, where `linalg`
eliminates forward only on sparse rows and solves by back substitution.  `special_assignment` is the specialization of
`transcendence.specialize_D` as a map of `Polynomial`s, and `closed_form`
its predicted value on a D element as a `Polynomial`, where
`specialize_D` filters packed terms and compares them with packed closed
forms.  `d_polynomials` unpacks a fraction over D into the presentation
ring of D, and `rewrite_in_full` substitutes the D polynomials into it
in all of K[X, y], where `transcendence.verify_rewrite` substitutes the
packed cell tables on the big cell of the main minor.  `cover_pairs_by_triples` finds the covers of a poset by testing
every triple, where `BPoset` lists them in closed form.
`lattice_tables` reads every meet and join off the down-set bitsets and
the up-sets `up_sets` transposes from them, where
`BPoset.meet` and `BPoset.join` take the componentwise min and max of the
row coordinates.  `distributive_by_pairs` tests Birkhoff's criterion on
every pair of those tables, and `distributive_by_triples` the
distributive law on every triple, where `verify_asl1` proves the lattice
distributive from the row coordinates.  Both also decide posets that are
not the generator poset.
`monomial_text_by_sort` renders a monomial by sorting its variables per
term, where `ring.monomial_text` walks the ring's display table.
`texts_from_tables` prints every generator and witness term by term from
the packed tables, where `cli._texts` fills one template of [1..n] and
one of Q per call.
`det_laplace` expands a determinant of polynomials by cofactors, where
`ring.minor` sums signed permutations and `poset.packed_minor` expands
packed dicts, memoised per (rows, columns).
`BlockOrder` and `exact_div` are the order and the division the
eliminations use.  All are bounded: the eliminations grow fast with the
instance, the axiom check proves nothing past its degree, and subduction
expands every lifted binomial.

`groebner.buchberger` is called through its module, so that
`groebner_runs.py` records the eliminations' runs.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from resint import groebner, linalg
from resint.groebner import IdealBasis, _Packing
from resint.labels import M, Q
from resint.poset import (
    StraighteningRelation,
    bordered_relation,
    incomparable,
    incomparable_pairs,
    less_eq,
    straighten_product,
)
from resint.ring import (
    QQ,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    _display_key,
    _unit_row,
    monomial_text,
    pvar,
    q_entry,
    tvar,
    xvar,
    yvar,
)
from resint.sagbi import (
    MonomialAlgebraMap,
    SubductionFailure,
    initial_generators,
    subduce,
    tau_sequence,
)


class BlockOrder(MonomialOrder):
    """Block order: earlier blocks compared first, grevlex inside a block.

    Realizes elimination orders: putting the variables to eliminate in the
    front block makes the block-free part of a Groebner basis a basis of
    the elimination ideal.
    """

    kind = "block"

    def __init__(self, blocks):
        self.blocks = tuple(tuple(b) for b in blocks)

    def key(self, exps):
        return tuple(
            (sum(exps[i] for i in blk), tuple(-exps[i] for i in blk))
            for blk in self.blocks
        )

    def weight_rows(self, nvars):
        rows = []
        for blk in self.blocks:
            rows.append(tuple(int(i in blk) for i in range(nvars)))
            rows.extend(_unit_row(nvars, i, -1) for i in blk)
        return rows


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f/g; raises ValueError if g does not divide."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    f._check(g)
    field = f.ring.field
    rem = dict(f._terms)
    quo: dict = {}
    key = f.ring.order.key
    ge, gc = g._terms[0]
    while rem:
        e = max(rem, key=key)
        c = rem[e]
        qe = tuple(a - b for a, b in zip(e, ge))
        if any(x < 0 for x in qe):
            raise ValueError("not exactly divisible")
        qc = field.div(c, gc)
        quo[qe] = qc
        for te, tc in g._terms:
            me = tuple(a + b for a, b in zip(qe, te))
            s = field.sub(rem.get(me, field.zero), field.mul(qc, tc))
            if s == field.zero:
                rem.pop(me, None)
            else:
                rem[me] = s
    return f.ring._from_dict(quo, sort=True)


def ideal_equal(I: IdealBasis, J: IdealBasis, budget=None) -> bool:
    """Literal equality of ideals via mutual normal-form reduction."""
    GI = groebner.buchberger(I, budget=budget)
    GJ = groebner.buchberger(J, budget=budget)
    return all(not groebner.normal_form(g, GJ) for g in I.generators) and all(
        not groebner.normal_form(g, GI) for g in J.generators
    )


def intersect_by_elimination(I: IdealBasis, J: IdealBasis, budget=None) -> IdealBasis:
    """I cap J = (u*I + (1-u)*J) cap base ring, with the fresh slack u
    appended last and eliminated by a block order."""
    base = I.ring
    k = 0
    while tvar(k) in base.index:
        k += 1
    aux = tvar(k)
    aux_index = len(base.vars)
    ext = PolynomialRing(base.field, (*base.vars, aux), BlockOrder([[aux_index], range(aux_index)]))
    u = ext.var(aux)
    gens = [u * g.convert(ext) for g in I.generators]
    gens += [(ext.one - u) * g.convert(ext) for g in J.generators]
    G = groebner.buchberger(gens, budget=budget)
    inter = [
        base._from_dict({e[:-1]: c for e, c in g._terms}, sort=True)
        for g in G.elements
        if all(e[-1] == 0 for e, _ in g._terms)
    ]
    if not inter:
        raise ValueError("intersection of nonzero ideals came out zero")
    return IdealBasis(base, inter)


def colon_by_elimination(I: IdealBasis, divisors, budget=None) -> IdealBasis:
    """The colon I : (divisors), as the intersection over the divisors g of
    I : g; each single colon is (I cap (g)) / g, the division exact.
    ValueError when every divisor is zero."""
    partial = None
    for g in IdealBasis(I.ring, divisors).generators:
        inter = intersect_by_elimination(I, IdealBasis(I.ring, [g]), budget=budget)
        quo = IdealBasis(I.ring, [exact_div(h, g) for h in inter.generators])
        partial = quo if partial is None else intersect_by_elimination(partial, quo, budget=budget)
    return partial


def identity_assignment(instance) -> dict:
    """Every ambient variable to itself: the specialization that is the
    identity on the instance's ring."""
    return {v: instance.ring.var(v) for v in instance.ring.vars}


def colon_identity_by_elimination(instance, budget=None) -> bool:
    """(X y) : (y) equals the generator ideal, as literal ideals."""
    ring = instance.ring
    qs = IdealBasis(ring, [q_entry(ring, i) for i in range(1, instance.m + 1)])
    ys = [ring.var(yvar(j)) for j in range(1, instance.n + 1)]
    return ideal_equal(colon_by_elimination(qs, ys, budget=budget), instance.ideal(), budget=budget)


def mam_image(mam: MonomialAlgebraMap, f: Polynomial) -> Polynomial:
    """Image of a presentation polynomial under Y_k -> target monomial."""
    ambient = mam.instance.ring
    assignment = {
        v: ambient._from_dict({mam.targets[v]: ambient.field.one}, sort=True)
        for v in mam.pring.vars
    }
    return f.substitute(assignment, ambient)


def elimination_kernel(instance, budget=None) -> tuple[Polynomial, ...]:
    """Reduced tau-order basis of the presentation kernel, by elimination.

    The graph ideal (Y_k - target_k) in the combined ring, ambient block
    compared first, presentation block under the tau order; the
    ambient-free part is then re-reduced in the presentation ring.  The
    instance must be over Q.
    """
    mam = initial_generators(instance)
    ambient = instance.ring
    pring = mam.pring
    n_amb = len(ambient.vars)
    tau_positions = [n_amb + i for i in tau_sequence(instance)]
    order = BlockOrder([list(range(n_amb)), tau_positions])
    combined = PolynomialRing(QQ, ambient.vars + pring.vars, order)
    gens = []
    for v in pring.vars:
        mono_poly = ambient._from_dict({mam.targets[v]: QQ.one}, sort=True)
        gens.append(combined.var(v) - mono_poly.convert(combined))
    G = groebner.buchberger(gens, budget=budget)
    kernel_gens = [
        pring._from_dict({e[n_amb:]: c for e, c in g._terms}, sort=True)
        for g in G.elements
        if all(not any(e[:n_amb]) for e, _ in g._terms)
    ]
    if not kernel_gens:
        return ()
    basis = groebner.buchberger(IdealBasis(pring, kernel_gens), budget=budget).elements
    for g in basis:
        if len(g) != 2 or mam_image(mam, g):
            raise AssertionError(f"kernel element {g} is not a binomial with image zero")
    return tuple(basis)


def polynomial_kernel(mam: MonomialAlgebraMap) -> tuple[Polynomial, ...]:
    """The Hibi binomials Y_a*Y_b - Y_{a^b}*Y_{a v b}, one per incomparable
    pair, as `Polynomial` products in the presentation ring, sorted by the
    tau key of their leading monomials: the kernel `sagbi.toric_kernel`
    holds as label pairs."""
    poset = mam.instance.poset
    y = {lab: mam.pring.var(v) for v, lab in mam.legend.items()}
    binomials = [
        y[a] * y[b] - y[poset.meet(a, b)] * y[poset.join(a, b)]
        for a, b in incomparable_pairs(poset)
    ]
    key = mam.pring.order.key
    binomials.sort(key=lambda g: key(g._terms[0][0]))
    return tuple(binomials)


def squarefree_by_leading_terms(mam: MonomialAlgebraMap, binomials) -> bool:
    """Each binomial's leading monomial in the presentation ring is a
    squarefree product of two incomparable presentation variables, read
    off its terms, where `sagbi.verify_squarefree_initial` proves it from
    the tau order's positions on the covers."""
    for g in binomials:
        lm = g._terms[0][0]
        if any(e > 1 for e in lm):
            return False
        support = [mam.pring.vars[i] for i, e in enumerate(lm) if e]
        if len(support) != 2:
            return False
        a, b = (mam.legend[v] for v in support)
        if not incomparable(a, b):
            return False
    return True


def expand_labels(instance, labels) -> Polynomial:
    """Product in the ambient ring of the polynomials behind the labels."""
    polys = [instance.polynomial(l) for l in labels]
    if not polys:
        return instance.ring.one
    result = polys[0]
    for p in polys[1:]:
        result = result * p
    return result


def straighten_by_solve(instance, a, b) -> StraighteningRelation:
    """The relation of one incomparable pair, solved for that pair alone:
    the bordered determinant for Q x minor, and for minor x minor the
    coordinates of the expanded product in the standard monomials of its
    shape, found by one linear solve over `Polynomial` products."""
    key = tuple(sorted((a, b), key=lambda l: l.sort_key))
    field = instance.ring.field
    if key[0].is_q:
        q, mnr = key
        return StraighteningRelation.solve(bordered_relation(mnr.rows + (q.q_index,)), key)
    content = sorted(a.rows + b.rows)
    candidates = set()
    for rows_c in itertools.combinations(sorted(set(content)), len(a.rows)):
        rest = list(content)
        for r in rows_c:
            rest.remove(r)
        if len(set(rest)) == len(rest) and less_eq(M(rows_c), M(rest)):
            candidates.add((M(rows_c), M(rest)))
    candidates = sorted(candidates, key=lambda p: (p[0].sort_key, p[1].sort_key))
    target = dict(expand_labels(instance, key)._terms)
    expansions = [dict(expand_labels(instance, pair)._terms) for pair in candidates]
    monos = sorted({e for p in expansions + [target] for e in p})
    matrix = [[p.get(mo, field.zero) for p in expansions] for mo in monos]
    sol = linalg.solve_field(field, matrix, [target.get(mo, field.zero) for mo in monos])
    if sol is None:
        raise ValueError(f"no standard expansion found for {a.text}*{b.text}")
    return StraighteningRelation(key, tuple((c, p) for c, p in zip(sol, candidates) if c != field.zero))


def reexpands_in_full(rel: StraighteningRelation, instance) -> bool:
    """left - sum of coeff * pair, with `Polynomial` products, is zero."""
    diff = expand_labels(instance, rel.left)
    for coeff, pair in rel.right:
        diff = diff - expand_labels(instance, pair) * coeff
    return not diff


def on_cell_by_filter(instance, label, cell) -> dict:
    """`label`'s polynomial on the big cell of the sorted n-row set `cell`,
    where those rows of X form the identity matrix, as a packed dict
    {monomial: coefficient}.

    A filter over the instance's terms: a term that uses x[cell[k]][j] with
    j != k+1 is dropped, and x[cell[k]][k+1] is set to 1 (its exponent to
    0).  y is untouched."""
    index = instance.ring.index
    ones, zeros = [], []
    for k, r in enumerate(cell, start=1):
        for j in range(1, instance.n + 1):
            (ones if j == k else zeros).append(index[xvar(r, j)])
    terms = {}
    for e, c in instance.polynomial(label)._terms:
        if any(e[p] for p in zeros):
            continue
        e = list(e)
        for p in ones:
            e[p] = 0
        terms[_Packing.pack(tuple(e))] = c
    return terms


def row_reduce_dense(field, a: list[list], cols: int) -> list[int]:
    """Reduce the rows of `a` in place over `field`, looking for pivots in
    the first `cols` columns only; returns the pivot columns.  Pivot rows
    come first, each scaled to a leading 1 and cleared above and below."""
    zero = field.zero
    rows = len(a)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][c] != zero), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(x, inv) for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != zero:
                f = a[i][c]
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return pivots


def rank_by_rref(matrix: list[list]) -> int:
    """The rank over Q of a matrix of elements of Q, by `row_reduce_dense`."""
    a = [[QQ.coerce(x) for x in row] for row in matrix]
    return len(row_reduce_dense(QQ, a, len(a[0]) if a else 0))


def solve_by_rref(field, matrix: list[list], rhs: list) -> list | None:
    """A solution of A x = b over `field`, free variables 0, read off the
    reduced rows of `row_reduce_dense`; None if inconsistent."""
    a = [[field.coerce(x) for x in row] + [field.coerce(b)] for row, b in zip(matrix, rhs)]
    cols = len(matrix[0]) if a else 0
    pivots = row_reduce_dense(field, a, cols)
    if any(row[cols] != field.zero for row in a[len(pivots) :]):
        return None
    x = [field.zero] * cols
    for i, c in enumerate(pivots):
        x[c] = a[i][cols]
    return x


def special_assignment(m: int, n: int, ring: PolynomialRing) -> dict:
    """The specialized matrices: X keeps column 1, the diagonal, and the
    rows below n (zero elsewhere); y becomes the first unit vector."""
    out: dict = {}
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            zero = j != 1 and j != i and i <= n
            out[xvar(i, j)] = ring.zero if zero else ring.var(xvar(i, j))
    for j in range(1, n + 1):
        out[yvar(j)] = ring.one if j == 1 else ring.zero
    return out


def closed_form(ring: PolynomialRing, n: int, label) -> Polynomial:
    """The predicted specialization of a D element: Q_i -> x[i][1], the main
    minor -> the diagonal product, M_{i,j} -> (-1)^(n+j) x[i][j] times the
    diagonal with x[j][j] deleted."""
    if label.is_q:
        return ring.var(xvar(label.q_index, 1))
    rows = label.rows
    if rows == tuple(range(1, n + 1)):
        prod = ring.one
        for k in range(1, n + 1):
            prod = prod * ring.var(xvar(k, k))
        return prod
    i = rows[-1]
    j = next(r for r in range(1, n + 1) if r not in rows)
    prod = ring.var(xvar(i, j))
    for k in range(1, n + 1):
        if k != j:
            prod = prod * ring.var(xvar(k, k))
    return prod if (n + j) % 2 == 0 else -prod


def d_polynomials(context, frac) -> tuple[Polynomial, Polynomial]:
    """frac's numerator and denominator as `Polynomial`s in the presentation
    ring of D, over Q in lex order, where Y[k] stands for D[k-1]."""
    size = len(context.D)
    ring = PolynomialRing(QQ, [pvar(k) for k in range(1, size + 1)])
    num = ring._from_dict({tuple(e.to_bytes(size, "little")): c for e, c in frac.num.items()})
    den = [0] * size
    for lab, power in zip((M(range(1, context.instance.n + 1)), Q(1)), frac.den):
        den[context.position[lab]] = power
    return num, ring._from_dict({tuple(den): 1})


def rewrite_in_full(context, label, frac) -> bool:
    """Cleared-denominator identity poly(label) * den == num, with the D
    polynomials substituted into the fraction in all of K[X, y]."""
    instance = context.instance
    num, den = d_polynomials(context, frac)
    assignment = {v: instance.polynomial(lab) for v, lab in zip(num.ring.vars, context.D)}
    num = num.substitute(assignment, instance.ring)
    den = den.substitute(assignment, instance.ring)
    return instance.polynomial(label) * den == num


def cover_pairs_by_triples(poset) -> list[tuple[int, int]]:
    """(i, j) by element index with i < j in the poset and no k strictly
    between them, i ascending, then j."""
    size = len(poset.elements)

    def leq(i, j):
        return poset._down[j] >> i & 1

    return [
        (i, j)
        for i in range(size)
        for j in range(size)
        if i != j
        and leq(i, j)
        and not any(k != i and k != j and leq(i, k) and leq(k, j) for k in range(size))
    ]


def det_laplace(ring: PolynomialRing, matrix: list[list[Polynomial]]) -> Polynomial:
    """Cofactor expansion along the first row of a square matrix."""
    size = len(matrix)
    if size == 0:
        return ring.one
    if size == 1:
        return matrix[0][0]
    acc = ring.zero
    for k in range(size):
        entry = matrix[0][k]
        if not entry:
            continue
        sub = [[row[j] for j in range(size) if j != k] for row in matrix[1:]]
        cof = det_laplace(ring, sub)
        term = entry * cof
        acc = acc + term if k % 2 == 0 else acc - term
    return acc


def monomial_text_by_sort(ring: PolynomialRing, exps: tuple[int, ...]) -> str:
    """Render exponents with x[i][j] factors first, then y, t, Y."""
    pairs = sorted(
        ((v, e) for v, e in zip(ring.vars, exps) if e),
        key=lambda ve: _display_key(ve[0]),
    )
    parts = [v.text if e == 1 else f"{v.text}^{e}" for v, e in pairs]
    return "*".join(parts) if parts else "1"


def texts_from_tables(instance, field) -> tuple[list[str], list[str]]:
    """The generator and witness texts of `cli._texts`, printed term by
    term from the packed tables: each term's coefficient coerced into
    `field` (a term whose image is 0 left out), its monomial unpacked and
    printed by `monomial_text`, a generator's terms sorted by their packed
    monomials (lex), and a witness's terms merged from its rank class's in
    the same order."""
    unpack, rational = instance.packing.unpack, field == QQ

    def terms(label) -> list[tuple[int, str]]:
        out = []
        for e, c in instance.packed[label].items():
            c = field.coerce(c)
            if not c:
                continue
            sep = " + "
            if rational and c < 0:
                sep, c = " - ", -c
            mono = monomial_text(instance.ring, unpack(e))
            out.append((e, sep + (str(c) if mono == "1" else mono if c == 1 else f"{c}*{mono}")))
        out.sort(reverse=True)
        return out

    def joined(terms) -> str:
        text = "".join(map(itemgetter(1), terms))
        return "-" + text[3:] if text[1] == "-" else text[3:]

    if instance.n == 1:
        generators = [joined(terms(lab)) for lab in instance.labels]
        return generators, generators[instance.m :]
    by_label, witnesses = {}, []
    for cls in instance.poset.rank_classes():
        parts = [terms(lab) for lab in cls]
        by_label.update((lab, joined(p)) for lab, p in zip(cls, parts))
        witnesses.append(joined(sorted(itertools.chain.from_iterable(parts), reverse=True)))
    return [by_label[lab] for lab in instance.labels], witnesses


def up_sets(poset) -> list[int]:
    """Up-sets as bitsets by element index, transposed from the down-sets:
    bit j of up[i] is set exactly when bit i of down[j] is."""
    up = [0] * len(poset._down)
    for j, down in enumerate(poset._down):
        for i in range(down.bit_length()):
            up[i] |= (down >> i & 1) << j
    return up


def lattice_tables(poset) -> tuple[list[list], list[list]]:
    """Meet and join tables by element index, None where none exists, read
    off the down-set bitsets and the up-sets transposed from them.

    Canonical order is a linear extension, so a meet can only be the
    last element common to both down-sets, and it is one when its own
    down-set is that whole intersection; joins are read off the up-sets
    alike, from the first common element."""

    def table(sets, pick):
        return [
            [pick(c) if c and sets[pick(c)] == c else None for c in (s & t for t in sets)]
            for s in sets
        ]

    return (
        table(poset._down, lambda c: c.bit_length() - 1),
        table(up_sets(poset), lambda c: (c & -c).bit_length() - 1),
    )


def distributive_by_pairs(poset) -> bool:
    """Every pair has a meet and a join, and phi(a v b) = phi(a) | phi(b)
    for every pair, where phi(a) is the set of join-irreducibles below a
    (Birkhoff's criterion), read off the meet and join tables.

    Why the pair test decides distributivity.  In a finite lattice the
    join-irreducibles J are the elements with exactly one lower cover (the
    bottom has none), and every a is the join of phi(a) = down(a) & J, by
    induction on down(a).  So a <= b exactly when phi(a) <= phi(b), and
    phi is injective.  phi(a ^ b) = phi(a) & phi(b) always holds, and
    phi(a v b) contains phi(a) | phi(b) always.  If L is distributive, a
    j in J below a v b is j = (j ^ a) v (j ^ b), so j = j ^ a or j = j ^ b
    and j lies in phi(a) | phi(b): the test passes.  If the test passes,
    phi is an injective lattice map into the subsets of J, so L is a
    sublattice of a distributive lattice, hence distributive."""
    meet, join = lattice_tables(poset)
    if any(None in row for row in meet + join):
        return False
    lower_covers = [0] * len(poset.elements)
    for _, j in poset._cover_pairs():
        lower_covers[j] += 1
    irreducible = sum(1 << j for j, count in enumerate(lower_covers) if count == 1)
    phi = [d & irreducible for d in poset._down]
    return all(
        phi[ab] == phi[a] | phi[b] for a, join_a in enumerate(join) for b, ab in enumerate(join_a)
    )


def distributive_by_triples(poset) -> bool:
    """Every pair has a meet and a join, and a^(b v c) = (a^b) v (a^c) for
    every triple, read off the meet and join tables."""
    meet, join = lattice_tables(poset)
    if any(None in row for row in meet + join):
        return False
    return all(
        [meet_a[x] for x in join_b] == [join_ab[y] for y in meet_a]
        for meet_a in meet
        for join_b, join_ab in zip(join, (join[k] for k in meet_a))
    )


def is_standard(labels) -> bool:
    """Pairwise comparability; for canonically sorted labels this reduces
    to comparability of adjacent entries (the sort is a linear extension)."""
    ls = sorted(labels, key=lambda l: l.sort_key)
    return all(less_eq(ls[i], ls[i + 1]) for i in range(len(ls) - 1))


def enumerate_standard_monomials(poset, degree: int) -> list[tuple]:
    """All multichains of the given length, in canonical order, each a
    label tuple as `straighten_product` keys its standard monomials."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return [
        combo
        for combo in itertools.combinations_with_replacement(poset.elements, degree)
        if is_standard(combo)
    ]


def asl1_by_expansion(instance, degree: int) -> bool:
    """Axiom 1 up to `degree`, in one pass over the sorted products of
    generators: distinct leading monomials of the expanded standard
    products, and a straightening of each other product that re-expands
    to it."""
    field = instance.ring.field
    for d in range(degree + 1):
        lms = set()
        for combo in itertools.combinations_with_replacement(instance.poset.elements, d):
            target = expand_labels(instance, combo)
            if is_standard(combo):
                lm = target._terms[0][0]
                if lm in lms:
                    return False
                lms.add(lm)
                continue
            expansion = straighten_product(instance, combo)
            if not all(is_standard(ls) for ls in expansion):
                return False
            rebuilt: dict = {}
            for ls, c in expansion.items():
                for e, pc in expand_labels(instance, ls)._terms:
                    prod = field.mul(pc, c)
                    rebuilt[e] = field.add(rebuilt[e], prod) if e in rebuilt else prod
            if {e: c for e, c in rebuilt.items() if c != field.zero} != dict(target._terms):
                return False
        if len(lms) != len(enumerate_standard_monomials(instance.poset, d)):
            return False
    return True


def lift_to_generators(mam: MonomialAlgebraMap, f: Polynomial) -> Polynomial:
    """Replace each presentation variable by its actual generator."""
    instance = mam.instance
    assignment = {
        v: instance.polynomial(mam.legend[v]) for v in mam.pring.vars
    }
    return f.substitute(assignment, instance.ring)


def sagbi_by_subduction(mam: MonomialAlgebraMap, hibi: bool) -> bool:
    """Sagbi certificate by the kernel-lift criterion.

    Every binomial generator of the toric kernel of the initial monomials
    (`polynomial_kernel`), lifted to the corresponding difference of
    generator products, must subduce to zero; that certifies the initial
    algebra is generated by the initial monomials in every degree at once.
    A kernel without its Hibi certificate (`hibi` false), or a subduction
    that fails to terminate within its step cap, counts as a failed
    certificate.
    """
    if not hibi:
        return False
    for g in polynomial_kernel(mam):
        try:
            remainder = subduce(mam.instance, lift_to_generators(mam, g), mam=mam)
        except SubductionFailure:
            return False
        if remainder:
            return False
    return True
