"""Truncated highest-weight modules for gl_n and their characters.

Highest weights are passed *shifted* (the staircase shift already added, see
`decatkit.weights`); the module stores and acts through the unshifted weight.

The module basis is PBW: ordered monomials in the lowering generators e_ij
(i > j), ordered ascending in (j, i); for gl_3 the order is e_21, e_31, e_32.
A monomial's depth is the root height of its weight drop, and a window keeps
those of depth <= D: a prefix of one lambda-free table per n (`_pbw_table`),
kept for the whole process, grown to the deepest window built and shared by
every weight and depth, whose monomials run in (depth, exponents) order.

Both module kinds hand out their action only as `column(x, col)`: e_x times
basis vector col, as {row: nonzero field value}. A window's column is the
table's, whose entries are interned affine forms (c0, ..., cn), meaning
c0 + sum c_i lambda_i; the window evaluates each form once in its field and
hands out a fresh dict. One commutation step over Z[lambda] builds a column
on first read. Write the basis vector as e_g v_rest, with g the first
generator of its monomial. Then e_x e_g v_rest is the monomial with one more
x when x is lowering and x <= g, the weight times the vector when x is
Cartan (never stored), and otherwise e_g (e_x v_rest) + [e_x, e_g] v_rest,
where e_x and the bracket act on the shorter v_rest and e_g carries no lambda.
A lowering e_x sends a monomial of depth d to depth d + ht(x), so its column
leaves the window exactly when d + ht(x) > D: `column` refuses it, and
`action(x)`, which assembles a matrix from columns, records it in
`truncation_losses`. Raising and Cartan operators never increase depth.

`simple_quotient` builds the finite-dimensional simple module L(lambda)
directly on Gelfand-Tsetlin patterns (Molev, arXiv math/0211289, Thm. 2.3),
with no Verma window. A pattern has rows lambda_k1 >= ... >= lambda_kk for
k = 1..n, top row the unshifted lambda, each row between the one above it:
lambda_k,i >= lambda_k-1,i >= lambda_k,i+1. Its weight has component k equal
to the sum of row k minus the sum of row k - 1. With l_ki = lambda_ki - i + 1,
E_kk is diagonal and E_k,k+1 (E_k+1,k) moves one entry of row k up (down) by
one, with coefficient
  E_k,k+1: -prod_{j<=k+1} (l_ki - l_k+1,j) / prod_{j!=i} (l_ki - l_kj),
  E_k+1,k:  prod_{j<=k-1} (l_ki - l_k-1,j) / prod_{j!=i} (l_ki - l_kj);
a term whose pattern breaks betweenness is dropped. Only these columns are
stored; any other is built on first read as a column commutator,
E_ij = [E_i,j-1, E_j-1,j] and E_ji = [E_j,j-1, E_j-1,i]. Over F_p each
denominator is a nonzero integer of size at most lam'_1 - lam'_n (lam'
shifted), so primes above that spread (the large-prime hypothesis, the
lowest alcove) are required, and below it the construction refuses.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import math
from fractions import Fraction

from decatkit import liealg, weights
from decatkit.exactlin import QQ, InvariantError, PrimeField, SparseMatrix, matrix_rank

Pair = tuple[int, int]
CharacterTable = dict[weights.Weight, int]


def lowering_generators(n: int) -> list[Pair]:
    """Pairs (i, j) with i > j, ascending in (j, i): the transposes of the
    strict upper pairs, in their order."""
    return [(j, i) for i, j in liealg.strict_triangular(n).pairs]


def generator_height(pair: Pair) -> int:
    """Depth change of e_ij: i - j (negative for raising operators)."""
    i, j = pair
    return i - j


class _WeightModule:
    """Weight spaces and the column protocol shared by both module kinds; a
    finite kind keeps its columns in `columns` and supplies `_build_column`,
    one missing column, unreduced."""

    depth: int | None = None  # window depth; a finite module has none

    def __init__(self, n: int, field, basis_weight, columns: dict[Pair, dict[int, dict[int, object]]] | None = None):
        self.n = n
        self.field = field
        self.basis_weight = tuple(basis_weight)
        self._columns = columns  # {pair: {col: column}}, the memo

    @property
    def dim(self) -> int:
        return len(self.basis_weight)

    @functools.cached_property
    def weight_index(self) -> dict[weights.Weight, list[int]]:
        """Basis indices of each weight space, keyed by unshifted weight."""
        index: dict[weights.Weight, list[int]] = {}
        for k, w in enumerate(self.basis_weight):
            index.setdefault(w, []).append(k)
        return index

    def _height(self, pair: Pair) -> int:
        """Depth change of e_pair, which must be a generator of gl_n."""
        i, j = pair
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"generator ({i}, {j}) outside gl_{self.n}")
        return generator_height(pair)

    def _fits(self, col: int, height: int) -> bool:
        """Whether an operator of this height keeps basis vector `col` inside."""
        return True

    def _check(self, pair: Pair, col: int) -> None:
        if not 0 <= col < self.dim:
            raise IndexError(f"basis vector {col} outside 0..{self.dim - 1}")
        if not self._fits(col, self._height(pair)):
            raise ValueError(f"e_{pair} moves basis vector {col} out of the depth window")

    def column(self, pair: Pair, col: int) -> dict[int, object]:
        """e_pair times basis vector `col`, as {row: nonzero field value};
        built on first read and kept for the module's lifetime."""
        done = self._columns.get(pair)
        if done is not None:
            hit = done.get(col)
            if hit is not None:
                return hit
        self._check(pair, col)
        # Built from field elements and ints, so over F_p a residue is `% p`.
        p = self.field.p
        out = {row: r for row, v in self._build_column(pair, col).items() if (r := v % p if p else v)}
        self._columns.setdefault(pair, {})[col] = out
        return out

    def _apply(self, acc: dict, pair: Pair, vec: dict) -> dict:
        """acc += e_pair vec, for vec a {col: value} vector; unreduced."""
        for mid, u in vec.items():
            for row, v in self.column(pair, mid).items():
                acc[row] = acc.get(row, 0) + u * v
        return acc

    def _commutator(self, x: Pair, y: Pair, col: int) -> dict:
        """x(y v) - y(x v) for v basis vector `col`; unreduced."""
        acc = self._apply({}, x, self.column(y, col))
        return self._apply(acc, y, {mid: -u for mid, u in self.column(x, col).items()})

    def bracket_violations(self) -> list[tuple[Pair, Pair, int]]:
        """(x, y, col) for each basis vector v where x(y v) - y(x v) differs
        from [e_x, e_y] v, read through `column` alone. On a window only
        columns where e_x, e_y and e_x e_y all stay inside are compared."""
        gl = liealg.gl(self.n)
        p = self.field.p
        bad = []
        for x, y in itertools.product(gl.pairs, repeat=2):
            hx, hy = generator_height(x), generator_height(y)
            bracket = gl.bracket(x, y).items()
            for col in range(self.dim):
                if not self._fits(col, max(hx, hy, hx + hy)):
                    continue
                acc = self._commutator(x, y, col)
                for z, c in bracket:
                    self._apply(acc, z, {col: -c})
                if any(v % p if p else v for v in acc.values()):
                    bad.append((x, y, col))
        return bad


def _monomials(heights: list[int], depth: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total height exactly `depth`, in ascending order."""
    if not heights:
        return [] if depth else [()]
    return [(m, *t) for m in range(depth // heights[0] + 1) for t in _monomials(heights[1:], depth - m * heights[0])]


class _PBWTable:
    """The lambda-free PBW basis and columns of gl_n (module docstring)."""

    def __init__(self, n: int):
        self.n, self.gens, self.gl = n, lowering_generators(n), liealg.gl(n)
        self.pos = {g: k for k, g in enumerate(self.gens)}
        self.monos, self.depths, self.drops, self.index = [], [], [], {}  # index: monomial -> position
        self.columns = {x: {} for x in self.gl.pairs if x[0] != x[1]}  # {pair: {col: {row: form}}}
        self.forms: dict[tuple[int, ...], tuple[int, ...]] = {}  # each form -> its one interned copy
        self.slices: dict = {}  # CE slice templates by weight offset, built by `cohomology`
        self.one = self.form(1, *[0] * n)

    def form(self, *coeffs: int) -> tuple[int, ...]:
        """The interned form c0 + c1 lambda_1 + ... + cn lambda_n."""
        return self.forms.setdefault(coeffs, coeffs)

    def grow(self, depth: int) -> int:
        """Extend the basis through `depth`; the number of monomials up to it."""
        heights, roots = [generator_height(g) for g in self.gens], [self.gl.weight(g) for g in self.gens]
        for d in range(self.depths[-1] + 1 if self.depths else 0, depth + 1):
            for mono in _monomials(heights, d):
                self.index[mono] = len(self.monos)
                self.monos.append(mono)
                self.depths.append(d)
                self.drops.append(tuple(-sum(m * r[c] for m, r in zip(mono, roots)) for c in range(self.n)))
        return bisect.bisect_right(self.depths, depth)

    def column(self, pair: Pair, col: int) -> dict[int, tuple[int, ...]]:
        """e_pair times monomial `col` as {row: form}: the stored dict, or a
        fresh one for a Cartan pair."""
        i, j = pair
        if i == j:
            return {col: self.form(-self.drops[col][i - 1], *(int(k == i) for k in range(1, self.n + 1)))}
        out = self.columns[pair].get(col)
        if out is None:
            out = self.columns[pair][col] = self._build(pair, col)
        return out

    def _build(self, pair: Pair, col: int) -> dict[int, tuple[int, ...]]:
        """One commutation step (module docstring)."""
        mono = self.monos[col]
        lead = next((k for k, e in enumerate(mono) if e), None)
        k = self.pos.get(pair)
        if k is not None and (lead is None or k <= lead):
            return {self.index[mono[:k] + (mono[k] + 1,) + mono[k + 1 :]]: self.one}
        if lead is None:
            return {}
        g = self.gens[lead]
        rest = self.index[mono[:lead] + (mono[lead] - 1,) + mono[lead + 1 :]]
        terms, acc = [], {}
        # e_g (e_x v_rest), each lowering entry a scalar, then [e_x, e_g] v_rest.
        for mid, f in self.column(pair, rest).items():
            for row, s in self.column(g, mid).items():
                if any(s[1:]):
                    raise InvariantError(f"a lowering column of e_{g} below {self.monos[rest]} carries a lambda term")
                terms.append((row, s[0], f))
        for z, c in self.gl.bracket(pair, g).items():
            terms += [(row, c, f) for row, f in self.column(z, rest).items()]
        for row, c, f in terms:
            a = acc.get(row)
            acc[row] = [c * x for x in f] if a is None else [y + c * x for y, x in zip(a, f)]
        return {row: self.form(*a) for row, a in acc.items() if any(a)}


_pbw_table = functools.cache(_PBWTable)


class TruncatedVerma(_WeightModule):
    """Depth-truncated universal highest-weight module for gl_n: the depth-D
    prefix of the PBW table of gl_n, at highest weight lambda."""

    def __init__(self, n: int, lam_shifted: weights.Weight, depth: int, field=QQ):
        if len(lam_shifted) != n:
            raise ValueError(f"weight {lam_shifted} is not length {n}")
        if depth < 0:
            raise ValueError(f"depth must be nonnegative, got {depth}")
        self.depth = depth
        self.lam_shifted = tuple(lam_shifted)
        self.lam = weights.unshift(self.lam_shifted)
        self._table = table = _pbw_table(n)
        self._values: dict[tuple[int, ...], object] = {}  # form -> its value at lambda in the field
        self.truncation_losses: list[tuple[Pair, int]] = []
        self._action_cache: dict[Pair, SparseMatrix] = {}
        drops = table.drops[: table.grow(depth)]
        super().__init__(n, field, [tuple(l - d for l, d in zip(self.lam, drop)) for drop in drops])

    @functools.cached_property
    def basis(self) -> list[tuple[int, ...]]:
        return self._table.monos[: self.dim]

    def _fits(self, col: int, height: int) -> bool:
        return self._table.depths[col] + height <= self.depth

    def column(self, pair: Pair, col: int) -> dict[int, object]:
        """e_pair times basis vector `col`, as {row: nonzero field value}: the
        table's column, each form evaluated once per module, in a fresh dict."""
        self._check(pair, col)
        return self.evaluate(self._table.column(pair, col).items())

    def evaluate(self, terms) -> dict:
        """{key: nonzero value} of (key, affine form) pairs; each form is valued at lambda once per module."""
        values, out = self._values, {}
        for key, form in terms:
            if (v := values.get(form)) is None:
                v = values[form] = self.field.of(sum(c * x for c, x in zip(form, (1, *self.lam))))
            if v:
                out[key] = v
        return out

    def action(self, pair: Pair) -> SparseMatrix:
        """Matrix of e_pair on the window, columns indexed by the basis."""
        if pair in self._action_cache:
            return self._action_cache[pair]
        height = self._height(pair)
        triples = []
        for col in range(self.dim):
            if not self._fits(col, height):
                self.truncation_losses.append((pair, col))
                continue
            triples.extend((row, col, v) for row, v in self.column(pair, col).items())
        mat = SparseMatrix.from_triples(self.dim, self.dim, triples)
        self._action_cache[pair] = mat
        return mat


def verma_character(n: int, lam_shifted: weights.Weight, depth: int) -> CharacterTable:
    """Weight-space dimensions of the depth window, via partition counts: the
    Borel case of `coverma_character`."""
    return coverma_character(liealg.ParabolicData((1,) * n), {tuple(lam_shifted): 1}, depth)


def coverma_character(par: liealg.ParabolicData, levi_character: CharacterTable, depth: int) -> CharacterTable:
    """Character of the coinduced module window: Levi character times the
    symmetric-algebra character of the opposite nilradical.

    Weights drop by sums of the positive cross-block roots, i.e. the
    underlying space is the symmetric algebra on the opposite nilradical
    tensored with the Levi module. `verma_character` is the Borel case.
    """
    n = par.n
    nil = par.nilradical()
    cross = [nil.weight(p) for p in nil.pairs]
    table = weights.multiset_character(cross, n, depth)
    out: CharacterTable = {}
    for w_shifted, mult in levi_character.items():
        lw = weights.unshift(tuple(w_shifted))
        for nu, count in table.items():
            key = weights.shift(tuple(a - b for a, b in zip(lw, nu)))
            out[key] = out.get(key, 0) + mult * count
    return out


def weyl_dim(lam_shifted: weights.Weight) -> int:
    """Dimension of the simple module with the given shifted highest weight.

    The shifted coordinates absorb the staircase, so the product formula is
    prod_{i<j} (l_i - l_j) / (j - i).
    """
    n = len(lam_shifted)
    val = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            val *= Fraction(lam_shifted[i] - lam_shifted[j], j - i)
    if val.denominator != 1:
        raise InvariantError(f"Weyl product {val} is not an integer")
    return int(val)


@dataclasses.dataclass
class InductionReport:
    ell: int
    p: int
    dim: int
    expected: int
    x_powers: list[int]


def gl2_parabolic_induction_dim(ell: int, p: int) -> InductionReport:
    """Fiber dimension of the degree-ell coinduced jet space for gl_2 mod p.

    Model: decompose a 2x2 matrix as unipotent times lower triangular,
    a11 = b11 + x b21, a21 = b21, and expand the degree-ell coefficient
    functions a11^d a21^(ell-d) in powers of x. The x-span has dimension
    ell + 1 exactly when every binomial C(d, m) with m <= d <= ell that the
    expansion meets survives mod p; for ell < p that is all of them. The
    report lists which powers of x are hit.
    """
    if ell < 0:
        raise ValueError("degree must be nonnegative")
    field = PrimeField(p)
    # Column (m, e) = coefficient of x^m b11^e b21^(ell-e); row d = input monomial.
    cols: dict[tuple[int, int], int] = {}
    triples = []
    for d in range(ell + 1):
        coeff = 1
        for m in range(d + 1):
            # coeff = C(d, m); the b-monomial is b11^(d-m) b21^(ell-d+m).
            key = (m, d - m)
            col = cols.setdefault(key, len(cols))
            if v := field.of(coeff):
                triples.append((d, col, v))
            coeff = coeff * (d - m) // (m + 1)
    mat = SparseMatrix.from_triples(ell + 1, max(len(cols), 1), triples)
    rank = matrix_rank(mat, field)
    hit = sorted({m for (m, _e), col in cols.items() if any(c == col for (_r, c) in mat.entries)})
    return InductionReport(ell=ell, p=p, dim=rank, expected=ell + 1, x_powers=hit)


class FiniteWeightModule(_WeightModule):
    """A finite-dimensional gl_n weight module given by `columns`, {pair:
    {col: {row: nonzero field value}}} with every basis index under each
    Chevalley generator e_kk, e_k,k+1, e_k+1,k. A pair it leaves out is
    built on first read as a column commutator (module docstring)."""

    def _build_column(self, pair: Pair, col: int) -> dict[int, object]:
        i, j = pair
        if abs(i - j) < 2:
            raise ValueError(f"no column {col} of the Chevalley generator e_{pair} was given")
        x, y = ((i, j - 1), (j - 1, j)) if i < j else ((i, i - 1), (i - 1, j))
        return self._commutator(x, y, col)


def simple_quotient(n: int, lam_shifted: weights.Weight, field=QQ) -> FiniteWeightModule:
    """The finite-dimensional simple module L(lambda), on Gelfand-Tsetlin patterns.

    Requires a strictly decreasing shifted weight (regular dominant), and
    over F_p a prime above its spread lam'_1 - lam'_n: the large-prime
    hypothesis, under which no pattern denominator vanishes mod p and the
    module is simple. The basis and the action are those of the module
    docstring; every coefficient is an exact Fraction until one `field.of`.
    """
    lam_shifted = tuple(lam_shifted)
    if list(lam_shifted) != sorted(lam_shifted, reverse=True) or len(set(lam_shifted)) != n:
        raise ValueError(f"shifted weight {lam_shifted} must be strictly decreasing")
    spread = lam_shifted[0] - lam_shifted[-1]
    if field.p is not None and field.p <= spread:
        raise ValueError(
            f"large-prime hypothesis fails: p = {field.p} is not above the spread {spread} "
            f"of {lam_shifted}, so a Gelfand-Tsetlin denominator may vanish mod p"
        )
    # Each pattern is its rows, shortest first; the last row is lambda.
    patterns = [(weights.unshift(lam_shifted),)]
    for _ in range(n - 1):
        patterns = [
            (below,) + pat
            for pat in patterns
            for below in itertools.product(*(range(b, a + 1) for a, b in itertools.pairwise(pat[0])))
        ]
    dim = len(patterns)
    index = {pat: c for c, pat in enumerate(patterns)}
    basis_weight = tuple(tuple(b - a for a, b in itertools.pairwise([0, *map(sum, pat)])) for pat in patterns)

    def moved(pat, k, i, step):
        row = pat[k - 1]
        return pat[: k - 1] + (row[:i] + (row[i] + step,) + row[i + 1 :],) + pat[k:]

    chevalley = [(k, l) for k in range(1, n + 1) for l in (k - 1, k, k + 1) if 1 <= l <= n]
    columns = {pair: {c: {} for c in range(dim)} for pair in chevalley}
    for c, pat in enumerate(patterns):
        for k, w in enumerate(basis_weight[c], 1):
            if v := field.of(w):
                columns[k, k][c][c] = v
        # ell[k] is row k as l_k1, ..., l_kk; row 0 is empty.
        ell = [[x - i for i, x in enumerate(row)] for row in ((),) + pat]
        for k in range(1, n):
            for i, x in enumerate(ell[k]):
                den = math.prod(x - y for j, y in enumerate(ell[k]) if j != i)
                up = Fraction(-math.prod(x - y for y in ell[k + 1]), den)
                down = Fraction(math.prod(x - y for y in ell[k - 1]), den)
                for pair, step, coeff in (((k, k + 1), 1, up), ((k + 1, k), -1, down)):
                    if (r := index.get(moved(pat, k, i, step))) is not None and (v := field.of(coeff)):
                        columns[pair][c][r] = v
    return FiniteWeightModule(n, field, basis_weight, columns)
