"""Exact sparse multivariate polynomial arithmetic over Q and prime fields.

Everything downstream (Groebner engine, poset straightening, Sagbi
subduction, transcendence certificates) is built on the types here:
variables, monomial orders, monomials, polynomials, and the determinant
constructors for the generic matrix of indeterminates.

Coefficients over Q are ints while they are integers and reduced
Fractions only after a division leaves a remainder; over F_p they are
residues in 0..p-1.

All values are immutable after construction; operations are pure.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class IncompatibleField(Exception):
    """Raised when two operands disagree on coefficient field or variables."""


class ZeroPolynomial(Exception):
    """Raised when an operation needs a nonzero polynomial."""


class BadRowSet(Exception):
    """Raised for row lists that are not strictly increasing in range."""


class BadIndex(Exception):
    """Raised for a row index outside 1..m."""


class NotIncomparable(Exception):
    """Raised when a bordered determinant is requested for j <= max(rows)."""


# ---------------------------------------------------------------------------
# coefficient fields


def _from_fraction(q: Fraction):
    """An integral Fraction as its numerator; any other Fraction as is."""
    return q.numerator if q.denominator == 1 else q


class RationalField:
    """The rationals; an element is an `int` when it is an integer and a
    reduced `fractions.Fraction` otherwise.

    Every polynomial the certificates multiply has integer coefficients, so
    the arithmetic stays on ints until a division leaves a remainder.  An
    int and the Fraction of the same value agree in `str`, `==`, `hash` and
    `<`, so no text or hash depends on which of the two holds a value.
    """

    name = "Q"

    zero = 0
    one = 1

    def coerce(self, a):
        if type(a) is int:
            return a
        if isinstance(a, Fraction):
            return _from_fraction(a)
        if isinstance(a, int):
            return int(a)
        raise IncompatibleField(f"cannot coerce {a!r} into Q")

    def add(self, a, b):
        c = a + b
        return c if type(c) is int else _from_fraction(c)

    def sub(self, a, b):
        c = a - b
        return c if type(c) is int else _from_fraction(c)

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int else _from_fraction(c)

    def neg(self, a):
        return -a

    def inv(self, a):
        return self.div(1, a)

    def div(self, a, b):
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return q if r == 0 else Fraction(a, b)
        return _from_fraction(a / b)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


#: Miller-Rabin with these bases decides primality exactly for n < 2**64.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 2**64."""
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p; elements are ints in 0..p-1, arithmetic never mixes primes."""

    def __init__(self, p: int):
        if p >= 1 << 64:
            raise ValueError(f"{p} is too large: prime fields need p < 2**64")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1

    @property
    def name(self) -> str:
        return f"Fp({self.p})"

    def coerce(self, a) -> int:
        if isinstance(a, int):
            return a % self.p
        if isinstance(a, Fraction):
            return a.numerator * pow(a.denominator, -1, self.p) % self.p
        raise IncompatibleField(f"cannot coerce {a!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()

#: Default prime for Groebner-heavy verification runs.
DEFAULT_PRIME = 32003


def GF(p: int) -> PrimeField:
    return PrimeField(p)


# ---------------------------------------------------------------------------
# variables


class VariableId:
    """A variable of the session universe: x[i][j], y[i], t (slack), Y[k].

    kind is one of "x", "y", "t", "p"; the indices tuple carries (row, col)
    for x, (index,) for y and p, and an aux counter for slacks (0 is the
    canonical Rabinowitsch slack, printed plainly as `t`).
    """

    __slots__ = ("kind", "indices", "_hash")

    def __init__(self, kind: str, indices: tuple[int, ...] = ()):
        if kind not in ("x", "y", "t", "p"):
            raise ValueError(f"unknown variable kind {kind!r}")
        self.kind = kind
        self.indices = indices
        self._hash = hash((kind, indices))

    @property
    def text(self) -> str:
        if self.kind == "x":
            i, j = self.indices
            return f"x[{i}][{j}]"
        if self.kind == "y":
            return f"y[{self.indices[0]}]"
        if self.kind == "p":
            return f"Y[{self.indices[0]}]"
        k = self.indices[0] if self.indices else 0
        return "t" if k == 0 else f"t{k}"

    def __eq__(self, other):
        return (
            isinstance(other, VariableId)
            and other.kind == self.kind
            and other.indices == self.indices
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.text


def xvar(i: int, j: int) -> VariableId:
    return VariableId("x", (i, j))


def yvar(i: int) -> VariableId:
    return VariableId("y", (i,))


def tvar(k: int = 0) -> VariableId:
    return VariableId("t", (k,))


def pvar(k: int) -> VariableId:
    return VariableId("p", (k,))


# ---------------------------------------------------------------------------
# monomial orders
#
# An order works on dense exponent tuples relative to a ring's variable
# sequence, which is listed ascending: vars[0] is the least variable.
# key() is monotone (bigger key = bigger monomial).  weight_rows() gives
# the same order as integer rows: two monomials compare as the tuples of
# their row values (sum of row[i] * exps[i]) compare, exactly as their
# key() values do; the Groebner engine folds the rows into one linear
# integer key.


def _unit_row(nvars: int, i: int, value: int = 1) -> tuple[int, ...]:
    return tuple(value if j == i else 0 for j in range(nvars))


class MonomialOrder:
    kind = "abstract"

    def key(self, exps: tuple[int, ...]):
        raise NotImplementedError

    def weight_rows(self, nvars: int) -> list[tuple[int, ...]]:
        raise NotImplementedError

    def __repr__(self):
        return self.kind


class Lex(MonomialOrder):
    """Lexicographic order read from the largest variable downward.

    With the canonical ambient sequence y1<...<yn<x11<...<xmn this is the
    order under which Q_i leads with x[i][n]*y[n] and a maximal minor leads
    with its main diagonal.
    """

    kind = "lex"

    def key(self, exps):
        return exps[::-1]

    def weight_rows(self, nvars):
        return [_unit_row(nvars, i) for i in reversed(range(nvars))]


class GrevLex(MonomialOrder):
    """Graded reverse lexicographic order over the ring sequence."""

    kind = "grevlex"

    def key(self, exps):
        return (sum(exps), tuple(-e for e in exps))

    def weight_rows(self, nvars):
        return [(1,) * nvars] + [_unit_row(nvars, i, -1) for i in range(nvars)]


class TauOrder(MonomialOrder):
    """Grevlex over a declared ascending sequence of variable positions.

    Used on presentation variables: the sequence is a linear extension of
    the poset order on the initial monomials, so quadratic kernel binomials
    lead with their incomparable product.
    """

    kind = "tau"

    def __init__(self, sequence: Sequence[int]):
        self.sequence = tuple(sequence)

    def key(self, exps):
        return (sum(exps), tuple(-exps[i] for i in self.sequence))

    def weight_rows(self, nvars):
        return [(1,) * nvars] + [_unit_row(nvars, i, -1) for i in self.sequence]


class BlockOrder(MonomialOrder):
    """Block order: earlier blocks compared first, grevlex inside a block.

    Realizes elimination orders: putting the variables to eliminate in the
    front block makes the block-free part of a Groebner basis a basis of
    the elimination ideal.
    """

    kind = "block"

    def __init__(self, blocks: Sequence[Sequence[int]]):
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


# ---------------------------------------------------------------------------
# monomials and polynomials


class Monomial:
    """A monomial of a fixed ring; exposes the zero-free exponent map."""

    __slots__ = ("ring", "exps")

    def __init__(self, ring: "PolynomialRing", exps: tuple[int, ...]):
        self.ring = ring
        self.exps = exps

    @property
    def exponents(self) -> dict[VariableId, int]:
        return {v: e for v, e in zip(self.ring.vars, self.exps) if e}

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.ring, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        exps = tuple(a - b for a, b in zip(self.exps, other.exps))
        if any(e < 0 for e in exps):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(self.ring, exps)

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(self.ring, tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and other.exps == self.exps
            and other.ring.vars == self.ring.vars
        )

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return monomial_text(self.ring, self.exps)


_KIND_DISPLAY_RANK = {"x": 0, "y": 1, "t": 2, "p": 3}


def _display_key(v: VariableId) -> tuple:
    return (_KIND_DISPLAY_RANK[v.kind], v.indices)


def monomial_text(ring: "PolynomialRing", exps: tuple[int, ...]) -> str:
    """Render exponents with x[i][j] factors first, then y, t, Y."""
    pairs = sorted(
        ((v, e) for v, e in zip(ring.vars, exps) if e),
        key=lambda ve: _display_key(ve[0]),
    )
    parts = [v.text if e == 1 else f"{v.text}^{e}" for v, e in pairs]
    return "*".join(parts) if parts else "1"


class Polynomial:
    """Immutable sparse polynomial; terms sorted descending in the ring order."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: "PolynomialRing", terms: tuple):
        self.ring = ring
        self._terms = terms  # tuple of (exps, coeff), descending, no zeros

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    @property
    def terms(self) -> list[tuple[object, Monomial]]:
        return [(c, Monomial(self.ring, e)) for e, c in self._terms]

    def leading_monomial(self, order: MonomialOrder | None = None) -> Monomial:
        if not self._terms:
            raise ZeroPolynomial("the zero polynomial has no leading monomial")
        if order is None or order is self.ring.order:
            return Monomial(self.ring, self._terms[0][0])
        key = order.key
        return Monomial(self.ring, max((e for e, _ in self._terms), key=key))

    def leading_coefficient(self):
        if not self._terms:
            raise ZeroPolynomial("the zero polynomial has no leading coefficient")
        return self._terms[0][1]

    def constant_value(self):
        """Coefficient of the constant monomial (0 if absent)."""
        zero_exps = (0,) * len(self.ring.vars)
        for e, c in self._terms:
            if e == zero_exps:
                return c
        return self.ring.field.zero

    def is_constant(self) -> bool:
        return all(not any(e) for e, _ in self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            return -1
        return max(sum(e) for e, _ in self._terms)

    def coefficient_of(self, mono: Monomial):
        for e, c in self._terms:
            if e == mono.exps:
                return c
        return self.ring.field.zero

    def monomials(self) -> list[Monomial]:
        return [Monomial(self.ring, e) for e, _ in self._terms]

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring.field != other.ring.field:
            raise IncompatibleField(
                f"mixed coefficient fields {self.ring.field.name} vs {other.ring.field.name}"
            )
        if self.ring.vars != other.ring.vars:
            raise IncompatibleField("operands live in different variable universes")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check(other)
        d = dict(self._terms)
        field = self.ring.field
        for e, c in other._terms:
            if e in d:
                s = field.add(d[e], c)
                if s == field.zero:
                    del d[e]
                else:
                    d[e] = s
            else:
                d[e] = c
        return self.ring._from_dict(d, sort=True)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, tuple((e, neg(c)) for e, c in self._terms))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self.ring.const(other).__sub__(self)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = self.ring.field.coerce(other)
            if c == self.ring.field.zero:
                return self.ring.zero
            mul = self.ring.field.mul
            return Polynomial(self.ring, tuple((e, mul(cc, c)) for e, cc in self._terms))
        self._check(other)
        # over a field a product of nonzero coefficients is nonzero;
        # _from_dict drops the sums that cancel
        mul, add = self.ring.field.mul, self.ring.field.add
        d: dict = {}
        for e1, c1 in self._terms:
            for e2, c2 in other._terms:
                e = tuple(map(operator.add, e1, e2))
                prod = mul(c1, c2)
                d[e] = add(d[e], prod) if e in d else prod
        return self.ring._from_dict(d, sort=True)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def exact_div(self, g: "Polynomial") -> "Polynomial":
        """Exact quotient self/g; raises ValueError if g does not divide."""
        if not g:
            raise ZeroDivisionError("division by the zero polynomial")
        self._check(g)
        field = self.ring.field
        rem = dict(self._terms)
        quo: dict = {}
        key = self.ring.order.key
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
        return self.ring._from_dict(quo, sort=True)

    def monic(self) -> "Polynomial":
        if not self._terms:
            return self
        lc = self._terms[0][1]
        if lc == self.ring.field.one:
            return self
        div = self.ring.field.div
        return Polynomial(self.ring, tuple((e, div(c, lc)) for e, c in self._terms))

    # -- structure ----------------------------------------------------------

    def substitute(
        self, assignment: Mapping[VariableId, "Polynomial"], target: "PolynomialRing"
    ) -> "Polynomial":
        """Evaluate under a total assignment of this ring's variables.

        Each power of an image is computed once per call, and the terms are
        summed into one dict that is sorted once.
        """
        images = []
        for v in self.ring.vars:
            if v not in assignment:
                raise KeyError(f"assignment missing {v.text}")
            images.append(assignment[v])
        field = target.field
        powers: dict = {}
        d: dict = {}
        for e, c in self._terms:
            term = target.one
            for i, exp in enumerate(e):
                if exp:
                    if (i, exp) not in powers:
                        powers[i, exp] = images[i] ** exp
                    term = powers[i, exp] if term is target.one else term * powers[i, exp]
            c = field.coerce(c)
            for te, tc in term._terms:
                prod = field.mul(tc, c)
                d[te] = field.add(d[te], prod) if te in d else prod
        return target._from_dict(d, sort=True)

    def convert(self, target: "PolynomialRing") -> "Polynomial":
        """Reinterpret in a ring whose variables include this ring's."""
        pos = []
        for v in self.ring.vars:
            if v not in target.index:
                raise IncompatibleField(f"target ring lacks {v.text}")
            pos.append(target.index[v])
        nz = len(target.vars)
        d = {}
        coerce = target.field.coerce
        for e, c in self._terms:
            exps = [0] * nz
            for p, ee in zip(pos, e):
                exps[p] = ee
            d[tuple(exps)] = coerce(c)
        return target._from_dict(d, sort=True)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not self._terms:
                return other == 0
            if self.is_constant():
                return self._terms[0][1] == self.ring.field.coerce(other)
            return NotImplemented
        if other.ring.vars != self.ring.vars or other.ring.field != self.ring.field:
            return False
        # term tuples may be sorted under different active orders
        return other._terms == self._terms or dict(other._terms) == dict(self._terms)

    def __hash__(self):
        return hash(frozenset(self._terms))

    def __repr__(self):
        return poly_text(self)

    __str__ = __repr__


def poly_text(f: Polynomial) -> str:
    """Canonical text form used for golden files and reports.

    Terms descend in the polynomial's ring order; rational coefficients are
    reduced fractions with an explicit sign, prime-field coefficients are
    residues in 0..p-1.
    """
    if not f._terms:
        return "0"
    rational = isinstance(f.ring.field, RationalField)
    out = []
    for i, (e, c) in enumerate(f._terms):
        mono = monomial_text(f.ring, e)
        if rational and c < 0:
            sep = "-" if i == 0 else " - "
            mag = -c
        else:
            sep = "" if i == 0 else " + "
            mag = c
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        out.append(sep + body)
    return "".join(out)


class PolynomialRing:
    """A fixed field, an ascending variable sequence, and an active order."""

    def __init__(
        self,
        field,
        variables: Sequence[VariableId],
        order: MonomialOrder | None = None,
    ):
        self.field = field
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variables in ring")
        self.index = {v: i for i, v in enumerate(self.vars)}
        self.order = order if order is not None else Lex()
        self._zero_exps = (0,) * len(self.vars)
        self.zero = Polynomial(self, ())
        self.one = Polynomial(self, ((self._zero_exps, field.one),))

    def _from_dict(self, d: dict, sort: bool = True) -> Polynomial:
        zero = self.field.zero
        items = [(e, c) for e, c in d.items() if c != zero]
        if sort:
            key = self.order.key
            items.sort(key=lambda ec: key(ec[0]), reverse=True)
        return Polynomial(self, tuple(items))

    def const(self, c) -> Polynomial:
        c = self.field.coerce(c)
        if c == self.field.zero:
            return self.zero
        return Polynomial(self, ((self._zero_exps, c),))

    def var(self, v: VariableId) -> Polynomial:
        i = self.index[v]
        exps = tuple(1 if j == i else 0 for j in range(len(self.vars)))
        return Polynomial(self, ((exps, self.field.one),))

    def monomial(self, exponents: Mapping[VariableId, int]) -> Monomial:
        exps = [0] * len(self.vars)
        for v, e in exponents.items():
            if e < 0:
                raise ValueError("negative exponent")
            if e:
                exps[self.index[v]] = e
        return Monomial(self, tuple(exps))

    def from_terms(self, terms: Iterable[tuple[object, Mapping[VariableId, int]]]) -> Polynomial:
        d: dict = {}
        for c, expmap in terms:
            mono = self.monomial(expmap)
            c = self.field.coerce(c)
            d[mono.exps] = self.field.add(d.get(mono.exps, self.field.zero), c)
        return self._from_dict(d, sort=True)

    def with_order(self, order: MonomialOrder) -> "PolynomialRing":
        return PolynomialRing(self.field, self.vars, order)

    def convert_all(self, polys: Iterable[Polynomial]) -> list[Polynomial]:
        return [p.convert(self) for p in polys]

    def __repr__(self):
        return f"PolynomialRing({self.field.name}, {len(self.vars)} vars, {self.order.kind})"

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and other.field == self.field
            and other.vars == self.vars
            and type(other.order) is type(self.order)
        )

    def __hash__(self):
        return hash((self.field, self.vars, self.order.kind))


# ---------------------------------------------------------------------------
# the session universe for an (m, n) instance


def ambient_variables(m: int, n: int, slack: bool = False) -> list[VariableId]:
    """Canonical ascending sequence: [t,] y1..yn, x11, x12, ..., xmn."""
    vs: list[VariableId] = [tvar()] if slack else []
    vs.extend(yvar(i) for i in range(1, n + 1))
    vs.extend(xvar(i, j) for i in range(1, m + 1) for j in range(1, n + 1))
    return vs


def ambient_ring(
    m: int,
    n: int,
    field=QQ,
    order: MonomialOrder | None = None,
    slack: bool = False,
) -> PolynomialRing:
    """The polynomial ring K[X, y] for an m x n matrix of indeterminates."""
    if not (m >= n >= 1):
        raise ValueError("need m >= n >= 1")
    ring = PolynomialRing(field, ambient_variables(m, n, slack=slack), order)
    ring.m = m
    ring.n = n
    return ring


def q_entry(ring: PolynomialRing, i: int) -> Polynomial:
    """The i-th entry of X*y: sum_j x[i][j]*y[j]."""
    m, n = ring.m, ring.n
    if not (1 <= i <= m):
        raise BadIndex(f"row {i} outside 1..{m}")
    return ring.from_terms(
        (1, {xvar(i, j): 1, yvar(j): 1}) for j in range(1, n + 1)
    )


def _check_rows(ring: PolynomialRing, rows: Sequence[int]) -> tuple[int, ...]:
    m, n = ring.m, ring.n
    rows = tuple(rows)
    if len(rows) != n or any(rows[i] >= rows[i + 1] for i in range(len(rows) - 1)):
        raise BadRowSet(f"rows {rows} are not a strictly increasing {n}-subset")
    if rows[0] < 1 or rows[-1] > m:
        raise BadRowSet(f"rows {rows} out of range 1..{m}")
    return rows


def minor(ring: PolynomialRing, rows: Sequence[int]) -> Polynomial:
    """The maximal minor of X on the given strictly increasing rows.

    Entries are distinct variables, so no cancellation can occur and the
    cofactor expansion produces the n! signed terms directly; fraction-free
    elimination is far slower on this shape and is reserved for general
    polynomial matrices (see determinant()).
    """
    rows = _check_rows(ring, rows)
    n = ring.n
    matrix = [[ring.var(xvar(r, j)) for j in range(1, n + 1)] for r in rows]
    return det_laplace(ring, matrix)


def determinant(ring: PolynomialRing, matrix: list[list[Polynomial]]) -> Polynomial:
    """Exact determinant: Laplace for size <= 4, Bareiss beyond."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix is not square")
    if size <= 4:
        return det_laplace(ring, matrix)
    return det_bareiss(ring, matrix)


def det_laplace(ring: PolynomialRing, matrix: list[list[Polynomial]]) -> Polynomial:
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


def det_bareiss(ring: PolynomialRing, matrix: list[list[Polynomial]]) -> Polynomial:
    """Fraction-free Gaussian elimination; divisions are exact by design."""
    a = [row[:] for row in matrix]
    size = len(a)
    sign = 1
    prev = ring.one
    for k in range(size - 1):
        if not a[k][k]:
            pivot_row = next((r for r in range(k + 1, size) if a[r][k]), None)
            if pivot_row is None:
                return ring.zero
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num.exact_div(prev)
            a[i][k] = ring.zero
        prev = a[k][k]
    det = a[size - 1][size - 1]
    return det if sign == 1 else -det


class BorderedExpansion:
    """Cofactor expansion of a singular bordered determinant.

    For a sorted (n+1)-row set R, the (n+1)x(n+1) determinant of the X rows
    of R with the column (Q_r)_{r in R} appended vanishes identically; the
    cofactor list along that column relates the products Q_r * [R minus r].
    Each term is (sign, q_index, minor_rows).
    """

    def __init__(self, ring: PolynomialRing, all_rows: tuple[int, ...]):
        self.ring = ring
        self.all_rows = all_rows
        self.terms: list[tuple[int, int, tuple[int, ...]]] = []
        size = len(all_rows)
        for k, r in enumerate(all_rows, start=1):
            sign = 1 if (k + size) % 2 == 0 else -1
            complement = tuple(rr for rr in all_rows if rr != r)
            self.terms.append((sign, r, complement))

    def expand(self) -> Polynomial:
        acc = self.ring.zero
        for sign, q_idx, rows in self.terms:
            prod = q_entry(self.ring, q_idx) * minor(self.ring, rows)
            acc = acc + prod if sign == 1 else acc - prod
        return acc


def bordered_determinant(ring: PolynomialRing, rows: Sequence[int], j: int) -> BorderedExpansion:
    """Unexpanded cofactor list of the bordered determinant; expands to 0."""
    rows = _check_rows(ring, rows)
    if j <= rows[-1]:
        raise NotIncomparable(f"need j > {rows[-1]}, got {j}")
    if j > ring.m:
        raise BadIndex(f"row {j} outside 1..{ring.m}")
    return BorderedExpansion(ring, rows + (j,))


def singular_expansion(ring: PolynomialRing, all_rows: Sequence[int]) -> BorderedExpansion:
    """Cofactor expansion for any sorted (n+1)-row set (no shape condition)."""
    all_rows = tuple(all_rows)
    if any(all_rows[i] >= all_rows[i + 1] for i in range(len(all_rows) - 1)):
        raise BadRowSet(f"{all_rows} not strictly increasing")
    if len(all_rows) != ring.n + 1 or all_rows[0] < 1 or all_rows[-1] > ring.m:
        raise BadRowSet(f"{all_rows} is not an (n+1)-subset of 1..{ring.m}")
    return BorderedExpansion(ring, all_rows)
