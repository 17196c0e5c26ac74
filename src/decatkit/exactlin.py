"""Exact linear algebra over Q, prime fields, and integer Laurent polynomials.

Everything in this module is exact: rationals are ints, or `fractions.Fraction`
where a division happened; prime field elements are ints in [0, p); Laurent
polynomial coefficients are ints. A field is its characteristic `p` (None for
Q) and one conversion `of`; all other arithmetic is plain Python `+` and `*`
on exact numbers, with `of` applied once to each entry that is stored.
Matrices are sparse (dict keyed by (row, col)) and vectors are columns, so a
map C -> D is a matrix with D-many rows and C-many columns and composition is
left multiplication. A `LaurentMatrix` is one dict of int coefficients keyed
by (row, col, exponent of t), so a power of t is integer key arithmetic.

All elimination goes through one kernel, `Echelon`: an incremental sparse
row-echelon basis whose rows are indexed by their pivot column, so reducing a
vector visits only the pivots it touches. Over Q its rows are primitive
integer vectors, so no fraction arithmetic happens while eliminating; over
F_p they are residue rows with pivot 1. `matrix_rank` inserts the rows of a
matrix and `nullspace` reduces its tagged columns.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any modulus used here."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The rationals; a stateless singleton, see QQ below."""

    p = None

    def of(self, x):
        """An int unchanged, anything else as a `Fraction`."""
        return x if type(x) is int else Fraction(x)

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()


@dataclasses.dataclass(frozen=True)
class PrimeField:
    """F_p with elements represented as ints in [0, p)."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def of(self, x) -> int:
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        return x % self.p


@dataclasses.dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial in one variable t.

    `terms` is a sorted tuple of (exponent, coefficient) pairs with nonzero
    coefficients; the zero polynomial has empty terms. t is the formal shift
    variable; a matrix of these is a `LaurentMatrix`.
    """

    terms: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def from_dict(coeffs: Mapping[int, int]) -> "LaurentPoly":
        return LaurentPoly(tuple(sorted((e, c) for e, c in coeffs.items() if c != 0)))

    @staticmethod
    def t_power(m: int) -> "LaurentPoly":
        return LaurentPoly(((m, 1),))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly.from_dict(acc)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(acc)


def geometric_shift_sum(count: int) -> LaurentPoly:
    """1 + t^2 + t^4 + ... with `count` terms."""
    return LaurentPoly.from_dict({2 * i: 1 for i in range(count)})


@dataclasses.dataclass
class LaurentMatrix:
    """Matrix over the integer Laurent polynomials as graded terms: `terms`
    maps (row, col, exp) to the nonzero int coefficient of t^exp in entry
    (row, col). The one constructor checks every position and coefficient,
    and keeps `terms` itself, not a copy.
    """

    nrows: int
    ncols: int
    terms: dict[tuple[int, int, int], int]

    def __post_init__(self):
        for (i, j, e), c in self.terms.items():
            if not (0 <= i < self.nrows and 0 <= j < self.ncols):
                raise ValueError(f"term position ({i}, {j}) outside {self.nrows} x {self.ncols}")
            if not c:
                raise ValueError(f"zero coefficient of t^{e} at ({i}, {j})")


@dataclasses.dataclass
class SparseMatrix:
    """Sparse matrix of exact scalars.

    Over Q the entries are ints wherever no division happened, and Fractions
    elsewhere; over F_p they are residues in [0, p).

    No stored zeros, no out-of-range indices, no duplicate positions; the
    constructors enforce this. Entry values need + and * by each other, and
    truthiness (zero is falsy). Sums, scalings and transposes are test helpers.
    """

    nrows: int
    ncols: int
    entries: dict[tuple[int, int], object]

    def __post_init__(self):
        for (i, j), v in self.entries.items():
            if not (0 <= i < self.nrows and 0 <= j < self.ncols):
                raise ValueError(f"entry position ({i}, {j}) outside {self.nrows} x {self.ncols}")
            if not v:
                raise ValueError(f"stored zero at ({i}, {j}); drop zeros before construction")

    @staticmethod
    def from_triples(nrows: int, ncols: int, triples: Iterable[tuple[int, int, object]]) -> "SparseMatrix":
        entries: dict[tuple[int, int], object] = {}
        for i, j, v in triples:
            if (i, j) in entries:
                raise ValueError(f"duplicate entry position ({i}, {j})")
            if v:
                entries[(i, j)] = v
        return SparseMatrix(nrows, ncols, entries)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot compose {self.nrows}x{self.ncols} with {other.nrows}x{other.ncols}")
        by_row: dict[int, list[tuple[int, object]]] = {}
        for (j, k), v in other.entries.items():
            by_row.setdefault(j, []).append((k, v))
        acc: dict[tuple[int, int], object] = {}
        for (i, j), u in self.entries.items():
            for k, v in by_row.get(j, ()):
                pos = (i, k)
                w = acc.get(pos)
                s = u * v if w is None else w + u * v
                if s:
                    acc[pos] = s
                elif pos in acc:
                    del acc[pos]
        return SparseMatrix(self.nrows, other.ncols, acc)

    def kron(self, other: "SparseMatrix") -> "SparseMatrix":
        out = {}
        for (i, j), u in self.entries.items():
            for (k, l), v in other.entries.items():
                out[(i * other.nrows + k, j * other.ncols + l)] = u * v
        return SparseMatrix(self.nrows * other.nrows, self.ncols * other.ncols, out)

    def columns(self) -> dict[int, dict[int, object]]:
        """The nonzero columns, {col: {row: value}}, grouped in one pass."""
        by_col: dict[int, dict[int, object]] = {}
        for (i, j), v in self.entries.items():
            by_col.setdefault(j, {})[i] = v
        return by_col

    def rows(self) -> Iterator[tuple[int, dict[int, object]]]:
        by_row: dict[int, dict[int, object]] = {}
        for (i, j), v in self.entries.items():
            by_row.setdefault(i, {})[j] = v
        return iter(sorted(by_row.items()))


class Echelon:
    """Incremental sparse row-echelon basis of a subspace, over QQ or F_p.

    Vectors are dicts {column: value}. `rows` maps each pivot to its stored
    row, in insertion order; a row's pivot is its smallest column. Over Q a
    stored row is a primitive integer vector with positive pivot; over F_p it
    is a residue row with pivot 1. `reduce` finds the pivot columns of a
    vector through this index, never scanning the rows.
    """

    def __init__(self, field):
        self.field = field
        self.p = field.p
        self.rows: dict[int, dict[int, int]] = {}

    def reduce(self, vec: Mapping[int, object]) -> dict[int, int]:
        """The remainder r: no pivot column is in r, and s * vec - r is in the
        span for some s != 0 (1 over F_p). r holds integers over Q, primitive,
        and residues over F_p. A caller that needs s tags vec with a 1 in a
        column no row holds, as `nullspace` does: r's entry there is s.
        Pivot columns of r are cleared smallest first from a heap: eliminating
        a row only adds columns past its pivot, so each pivot is cleared at
        most once. The span and its pivots determine r, so the elimination
        order does not change it.
        """
        p = self.p
        if p is None:
            den = math.lcm(*(v.denominator for v in vec.values()))
            r = {j: v.numerator * (den // v.denominator) for j, v in vec.items() if v}
            g = math.gcd(*r.values()) or 1
            if g != 1:
                r = {j: x // g for j, x in r.items()}
        else:
            # Int entries reduce directly; only a Fraction needs `of` to divide.
            of = self.field.of
            r = {j: x for j, v in vec.items() if (x := v % p if type(v) is int else of(v))}
        rows = self.rows
        heap = [j for j in r if j in rows]
        heapq.heapify(heap)
        while heap:
            pivot = heapq.heappop(heap)
            c = r.get(pivot)
            if not c:
                continue
            row = rows[pivot]
            a = row[pivot]
            if a != 1:
                # Over Q only: scale r so that the pivot entries cancel.
                g = math.gcd(a, c)
                a //= g
                c //= g
                if a != 1:
                    for j in r:
                        r[j] *= a
            for j, w in row.items():
                x = r.get(j)
                if x is None:
                    # A new entry: nonzero, and possibly a later pivot.
                    r[j] = -c * w % p if p else -c * w
                    if j in rows:
                        heapq.heappush(heap, j)
                    continue
                x -= c * w
                if p:
                    x %= p
                if x:
                    r[j] = x
                else:
                    del r[j]
            if not r:
                break
            if p is None:
                g = math.gcd(*r.values())
                if g != 1:
                    r = {j: x // g for j, x in r.items()}
        return r

    def insert(self, vec: Mapping[int, object]) -> bool:
        """Add vec to the span; False when it was already there."""
        r = self.reduce(vec)
        if not r:
            return False
        self._store(r)
        return True

    def _store(self, r: dict[int, int]) -> None:
        """Add a nonzero reduced vector as a row, normalizing its pivot."""
        pivot = min(r)
        lead = r[pivot]
        if self.p is not None:
            if lead != 1:
                inv = pow(lead, -1, self.p)
                r = {j: x * inv % self.p for j, x in r.items()}
        elif lead < 0:
            r = {j: -x for j, x in r.items()}
        self.rows[pivot] = r


def matrix_rank(m: SparseMatrix, field) -> int:
    """Exact rank over the given field."""
    echelon = Echelon(field)
    for _, row in m.rows():
        echelon.insert(row)
    return len(echelon.rows)


def nullspace(m: SparseMatrix, field) -> list[list]:
    """Basis of the right kernel, as dense column vectors of field elements.

    Column j, tagged with a 1 in position nrows + j, is reduced against the
    columns before it. If only the tag part survives, that part is a kernel
    vector, scaled to have entry 1 at j; otherwise the column joins the basis
    of the column space.
    """
    cols = m.columns()
    echelon = Echelon(field)
    basis = []
    for j in range(m.ncols):
        col = cols.get(j, {})
        col[m.nrows + j] = 1
        r = echelon.reduce(col)
        if min(r) < m.nrows:
            echelon._store(r)
            continue
        lead = r[m.nrows + j]
        vec = [0] * m.ncols
        for i, v in r.items():
            vec[i - m.nrows] = field.of(Fraction(v, lead))
        basis.append(vec)
    return basis


class ComplexError(ValueError):
    """Raised when candidate differentials fail to square to zero."""


class InvariantError(RuntimeError):
    """Raised when an internal invariant of a computation fails: a bug, not bad input."""


@dataclasses.dataclass
class FiniteComplex:
    """A finite cochain complex of column-vector spaces over a fixed field.

    dims[j] is the dimension in degree j; maps[j] sends degree j to
    degree j+1 and has shape dims[j+1] x dims[j].
    """

    field: object
    dims: tuple[int, ...]
    maps: tuple[SparseMatrix, ...]

    def __post_init__(self):
        if len(self.maps) != max(len(self.dims) - 1, 0):
            raise ValueError(f"expected {len(self.dims) - 1} maps, got {len(self.maps)}")
        for j, m in enumerate(self.maps):
            if (m.nrows, m.ncols) != (self.dims[j + 1], self.dims[j]):
                raise ValueError(
                    f"map {j} has shape {m.nrows}x{m.ncols}, expected {self.dims[j + 1]}x{self.dims[j]}"
                )

    def check_complex(self) -> None:
        for j in range(len(self.maps) - 1):
            if not (self.maps[j].entries and self.maps[j + 1].entries):
                continue
            # The product stores no zero sum, but over F_p a sum may vanish mod p.
            values = (self.maps[j + 1] @ self.maps[j]).entries.values()
            if any(map(self.field.of, values) if self.field.p else values):
                raise ComplexError(f"differential squared is nonzero leaving degree {j}")

    def homology_dims(self) -> dict[int, int]:
        self.check_complex()
        ranks = [matrix_rank(m, self.field) if m.entries else 0 for m in self.maps]
        out = {}
        for j, d in enumerate(self.dims):
            r_out = ranks[j] if j < len(ranks) else 0
            r_in = ranks[j - 1] if j > 0 else 0
            out[j] = d - r_out - r_in
        return out
