"""Truncated highest-weight modules for gl_n and their characters.

Highest weights are passed *shifted* (the staircase shift already added, see
`decatkit.weights`); the module stores and acts through the unshifted weight.

The module basis is PBW: ordered monomials in the lowering generators e_ij
(i > j), ordered ascending in (j, i); for gl_3 the order is e_21, e_31, e_32.
A monomial's depth is the root height of its total weight drop, and the
module keeps exactly the basis vectors of depth <= D.

`column(x, col)` builds one column by one commutation step. Write the
basis vector as e_g v_rest, with g the first generator of its monomial. Then
e_x e_g v_rest is the monomial with one more x when x is lowering and
x <= g, the weight times the vector when x is Cartan, and otherwise
e_g (e_x v_rest) + [e_x, e_g] v_rest, where e_x and the bracket act on the
shorter v_rest. Each column is built on first read, reduced into the field
and kept for the module's lifetime; `action(x)` assembles its matrix from
those same columns. A lowering e_x sends a monomial of depth d to depth
d + ht(x), so its column leaves the window exactly when d + ht(x) > D:
`column` refuses it, and `action` records it in `truncation_losses`.
Raising and Cartan operators never increase depth, so their matrices are
exact on the window.

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
a term whose pattern breaks betweenness is dropped. Every other generator is
a commutator, E_ij = [E_i,j-1, E_j-1,j] and E_ji = [E_j,j-1, E_j-1,i]. Over
F_p each denominator is a nonzero integer of size at most lam'_1 - lam'_n
(lam' shifted), so primes above that spread (the large-prime hypothesis, the
lowest alcove) are required, and below it the construction refuses.
"""

from __future__ import annotations

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
    """Weight-space bookkeeping shared by both module kinds."""

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

    def weight_dims(self) -> CharacterTable:
        """Dimension of each weight space, keyed by shifted weight."""
        return {weights.shift(w): len(idx) for w, idx in self.weight_index.items()}


class TruncatedVerma(_WeightModule):
    """Depth-truncated universal highest-weight module for gl_n."""

    def __init__(self, n: int, lam_shifted: weights.Weight, depth: int, field=QQ):
        if len(lam_shifted) != n:
            raise ValueError(f"weight {lam_shifted} is not length {n}")
        if depth < 0:
            raise ValueError(f"depth must be nonnegative, got {depth}")
        self.n = n
        self.field = field
        self.depth = depth
        self.lam_shifted = tuple(lam_shifted)
        self.lam = weights.unshift(self.lam_shifted)
        self.gens_low = lowering_generators(n)
        self._gen_pos = {g: k for k, g in enumerate(self.gens_low)}
        self._gl = liealg.gl(n)
        self._heights = [generator_height(g) for g in self.gens_low]
        self.basis = self._enumerate_basis()
        self.basis_index = {m: k for k, m in enumerate(self.basis)}
        self.basis_weight = [self._monomial_weight(m) for m in self.basis]
        self.truncation_losses: list[tuple[Pair, int]] = []
        self._action_cache: dict[Pair, SparseMatrix] = {}
        self._columns: dict[Pair, dict[int, dict[int, int]]] = {}

    def _enumerate_basis(self) -> list[tuple[int, ...]]:
        monos: list[tuple[int, ...]] = []

        def rec(idx: int, left: int, acc: list[int]):
            if idx == len(self.gens_low):
                monos.append(tuple(acc))
                return
            h = self._heights[idx]
            for m in range(left // h + 1):
                rec(idx + 1, left - m * h, acc + [m])

        rec(0, self.depth, [])
        return sorted(monos, key=lambda m: (self.monomial_depth(m), m))

    def monomial_depth(self, mono: tuple[int, ...]) -> int:
        return sum(m * h for m, h in zip(mono, self._heights))

    def _monomial_weight(self, mono: tuple[int, ...]) -> weights.Weight:
        w = list(self.lam)
        for m, (i, j) in zip(mono, self.gens_low):
            w[i - 1] += m
            w[j - 1] -= m
        return tuple(w)

    def _height(self, pair: Pair) -> int:
        """Depth change of e_pair, which must be a generator of gl_n."""
        i, j = pair
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"generator ({i}, {j}) outside gl_{self.n}")
        return generator_height(pair)

    def action(self, pair: Pair) -> SparseMatrix:
        """Matrix of e_pair on the window, columns indexed by the basis."""
        if pair in self._action_cache:
            return self._action_cache[pair]
        height = self._height(pair)
        triples = []
        for col, mono in enumerate(self.basis):
            if self.monomial_depth(mono) + height > self.depth:
                self.truncation_losses.append((pair, col))
                continue
            triples.extend((row, col, v) for row, v in self.column(pair, col).items())
        mat = SparseMatrix.from_triples(self.dim, self.dim, triples)
        self._action_cache[pair] = mat
        return mat

    def column(self, pair: Pair, col: int) -> dict[int, int]:
        """e_pair times basis vector `col`, as {row: nonzero field value},
        by the one-step rule of the module docstring; built on first read."""
        done = self._columns.setdefault(pair, {})
        if col in done:
            return done[col]
        mono = self.basis[col]
        if self.monomial_depth(mono) + self._height(pair) > self.depth:
            raise ValueError(f"e_{pair} moves basis vector {col} out of the depth window")
        i, j = pair
        lead = next((k for k, e in enumerate(mono) if e), None)
        if i == j:
            acc = {col: self.basis_weight[col][i - 1]}
        elif i > j and (lead is None or self._gen_pos[pair] <= lead):
            k = self._gen_pos[pair]
            acc = {self.basis_index[mono[:k] + (mono[k] + 1,) + mono[k + 1 :]]: 1}
        elif lead is None:
            acc = {}
        else:
            g = self.gens_low[lead]
            rest = self.basis_index[mono[:lead] + (mono[lead] - 1,) + mono[lead + 1 :]]
            acc = {}
            for mid, a in self.column(pair, rest).items():
                for row, b in self.column(g, mid).items():
                    acc[row] = acc.get(row, 0) + a * b
            for z, c in self._gl.bracket(pair, g).items():
                for row, b in self.column(z, rest).items():
                    acc[row] = acc.get(row, 0) + c * b
        # Every coefficient is an int, so over F_p a residue is `% p`.
        p = self.field.p
        out = {row: r for row, v in acc.items() if (r := v % p if p else v)}
        done[col] = out
        return out

    def bracket_violations(self) -> list[tuple[Pair, Pair, int]]:
        """Columns where [A_x, A_y] disagrees with the bracket's matrix.

        Only columns whose full commutator path stays inside the window are
        compared; everything else is unavoidably truncated and flagged at
        action-build time instead. An empty list means the truncated action
        is a Lie algebra representation on the safe region.
        """
        all_pairs = self._gl.pairs
        bad = []
        mats = {g: self.action(g) for g in all_pairs}
        for x in all_pairs:
            for y in all_pairs:
                hx, hy = generator_height(x), generator_height(y)
                comm = mats[x] @ mats[y] - mats[y] @ mats[x]
                expect = SparseMatrix.zeros(self.dim, self.dim)
                for z, c in self._gl.bracket(x, y).items():
                    expect = expect + mats[z].scaled(c)
                diff = (comm - expect).map_values(self.field.of)
                if diff.is_zero():
                    continue
                for (_, col), _v in diff.entries.items():
                    d = self.monomial_depth(self.basis[col])
                    if (
                        d + hx <= self.depth
                        and d + hy <= self.depth
                        and d + hx + hy <= self.depth
                    ):
                        bad.append((x, y, col))
        return bad


def verma_character(n: int, lam_shifted: weights.Weight, depth: int) -> CharacterTable:
    """Weight-space dimensions of the depth window, via partition counts."""
    lam = weights.unshift(tuple(lam_shifted))
    table = weights.multiset_character(weights.positive_roots(n), n, depth)
    out: CharacterTable = {}
    for nu, count in table.items():
        w = tuple(a - b for a, b in zip(lam, nu))
        out[weights.shift(w)] = count
    return out


def coverma_character(par: liealg.ParabolicData, levi_character: CharacterTable, depth: int) -> CharacterTable:
    """Character of the coinduced module window: Levi character times the
    symmetric-algebra character of the opposite nilradical.

    Weights drop by sums of the positive cross-block roots, i.e. the
    underlying space is the symmetric algebra on the opposite nilradical
    tensored with the Levi module. In the Borel case the co-Verma window
    matches `verma_character`.
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


@dataclasses.dataclass
class FiniteWeightModule(_WeightModule):
    """A finite-dimensional gl_n weight module, all action matrices stored."""

    n: int
    field: object
    basis_weight: tuple[weights.Weight, ...]
    actions: dict[Pair, SparseMatrix]

    def __post_init__(self):
        self._columns: dict[Pair, dict[int, dict[int, object]]] = {}

    def action(self, pair: Pair) -> SparseMatrix:
        if pair not in self.actions:
            raise KeyError(f"no action stored for {pair}")
        return self.actions[pair]

    def column(self, pair: Pair, col: int) -> dict[int, object]:
        """Column `col` of the stored matrix, grouped once per pair."""
        if pair not in self._columns:
            self._columns[pair] = self.action(pair).columns()
        return self._columns[pair].get(col, {})


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

    mats = {
        (k, k): SparseMatrix.from_triples(dim, dim, [(c, c, w[k - 1]) for c, w in enumerate(basis_weight)])
        for k in range(1, n + 1)
    }
    for k in range(1, n):
        up, down = [], []
        for c, pat in enumerate(patterns):
            # ell[k] is row k as l_k1, ..., l_kk; row 0 is empty.
            ell = [[x - i for i, x in enumerate(row)] for row in ((),) + pat]
            for i, x in enumerate(ell[k]):
                den = math.prod(x - y for j, y in enumerate(ell[k]) if j != i)
                if (r := index.get(moved(pat, k, i, 1))) is not None:
                    up.append((r, c, Fraction(-math.prod(x - y for y in ell[k + 1]), den)))
                if (r := index.get(moved(pat, k, i, -1))) is not None:
                    down.append((r, c, Fraction(math.prod(x - y for y in ell[k - 1]), den)))
        mats[k, k + 1] = SparseMatrix.from_triples(dim, dim, up)
        mats[k + 1, k] = SparseMatrix.from_triples(dim, dim, down)
    # Commutators, shortest first, so both factors are already built.
    for d in range(2, n):
        for i in range(1, n - d + 1):
            j = i + d
            for x, y, pair in (((i, j - 1), (j - 1, j), (i, j)), ((j, j - 1), (j - 1, i), (j, i))):
                mats[pair] = mats[x] @ mats[y] - mats[y] @ mats[x]
    actions = {pair: mats[pair].map_values(field.of) for pair in liealg.gl(n).pairs}
    return FiniteWeightModule(n=n, field=field, basis_weight=basis_weight, actions=actions)
