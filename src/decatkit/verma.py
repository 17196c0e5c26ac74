"""Truncated highest-weight modules for gl_n and their characters.

Highest weights are passed *shifted* (the staircase shift already added, see
`decatkit.weights`); the module stores and acts through the unshifted weight.

The module basis is PBW: ordered monomials in the lowering generators e_ij
(i > j), ordered ascending in (j, i); for gl_3 the order is e_21, e_31, e_32.
A monomial's depth is the root height of its total weight drop, and the
module keeps exactly the basis vectors of depth <= D.

`action(x)` builds each column by one commutation step. Write the basis
vector as e_g v_rest, with g the first generator of its monomial. Then
e_x e_g v_rest is the monomial with one more x when x is lowering and
x <= g, the weight times the vector when x is Cartan, and otherwise
e_g (e_x v_rest) + [e_x, e_g] v_rest, where e_x and the bracket act on the
shorter v_rest. Columns are memoized for the length of one `action` call.
A lowering e_x sends a monomial of depth d to depth d + ht(x), so its column
leaves the window exactly when d + ht(x) > D; each such column is recorded
in `truncation_losses` and not computed. Raising and Cartan operators never
increase depth, so their matrices are exact on the window.

`simple_quotient` builds the finite-dimensional quotient by the submodule
generated by all singular vectors (vectors killed by every simple raising
operator); within the depth window the lowering closure of those vectors is
exact because depth only grows along a lowering monomial.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from decatkit import liealg, weights
from decatkit.exactlin import QQ, Echelon, InvariantError, PrimeField, SparseMatrix, matrix_rank, nullspace

Pair = tuple[int, int]
CharacterTable = dict[weights.Weight, int]


def lowering_generators(n: int) -> list[Pair]:
    """Pairs (i, j) with i > j, ascending in (j, i)."""
    return [(i, j) for j in range(1, n) for i in range(j + 1, n + 1)]


def generator_height(pair: Pair) -> int:
    """Depth change of e_ij: i - j (negative for raising operators)."""
    i, j = pair
    return i - j


class _WeightModule:
    """Weight-space bookkeeping and column reads shared by both module kinds."""

    @property
    def dim(self) -> int:
        return len(self.basis_weight)

    def weight_dims(self) -> CharacterTable:
        """Dimension of each weight space, keyed by shifted weight."""
        return {weights.shift(w): len(idx) for w, idx in self.weight_index.items()}

    def action_columns(self, pair: Pair) -> dict[int, dict[int, object]]:
        """`action(pair).columns()`, grouped once per pair and kept."""
        cols = self._columns.get(pair)
        if cols is None:
            cols = self._columns[pair] = self.action(pair).columns()
        return cols


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
        self.weight_index: dict[weights.Weight, list[int]] = {}
        for k, w in enumerate(self.basis_weight):
            self.weight_index.setdefault(w, []).append(k)
        self.truncation_losses: list[tuple[Pair, int]] = []
        self._action_cache: dict[Pair, SparseMatrix] = {}
        self._columns: dict[Pair, dict[int, dict[int, object]]] = {}

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

    def action(self, pair: Pair) -> SparseMatrix:
        """Matrix of e_pair on the window, columns indexed by the basis."""
        if pair in self._action_cache:
            return self._action_cache[pair]
        i, j = pair
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"generator ({i}, {j}) outside gl_{self.n}")
        height = generator_height(pair)
        store: dict[Pair, dict[int, dict[int, int]]] = {}
        triples = []
        for col, mono in enumerate(self.basis):
            if height > 0 and self.monomial_depth(mono) + height > self.depth:
                self.truncation_losses.append((pair, col))
                continue
            for row, coeff in self._column(store, pair, col).items():
                v = self.field.of(coeff)
                if not self.field.is_zero(v):
                    triples.append((row, col, v))
        mat = SparseMatrix.from_triples(self.dim, self.dim, triples)
        self._action_cache[pair] = mat
        return mat

    def _column(self, store, x: Pair, col: int) -> dict[int, int]:
        """e_x times basis vector `col`, as {basis index: int coefficient},
        by the one-step rule of the module docstring; `store` memoizes it."""
        done = store.setdefault(x, {})
        if col in done:
            return done[col]
        i, j = x
        mono = self.basis[col]
        lead = next((k for k, e in enumerate(mono) if e), None)
        if i == j:
            w = self.basis_weight[col][i - 1]
            out = {col: w} if w else {}
        elif i > j and (lead is None or self._gen_pos[x] <= lead):
            k = self._gen_pos[x]
            out = {self.basis_index[mono[:k] + (mono[k] + 1,) + mono[k + 1 :]]: 1}
        elif lead is None:
            out = {}
        else:
            g = self.gens_low[lead]
            rest = self.basis_index[mono[:lead] + (mono[lead] - 1,) + mono[lead + 1 :]]
            acc: dict[int, int] = {}
            for mid, a in self._column(store, x, rest).items():
                for row, b in self._column(store, g, mid).items():
                    acc[row] = acc.get(row, 0) + a * b
            for z, c in self._gl.bracket(x, g).items():
                for row, b in self._column(store, z, rest).items():
                    acc[row] = acc.get(row, 0) + c * b
            out = {row: v for row, v in acc.items() if v}
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
                    expect = expect + mats[z].scaled(self.field.of(c))
                diff = comm - expect
                if isinstance(self.field, PrimeField):
                    diff = diff.map_values(self.field.of)
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


def coverma_character(
    par: liealg.ParabolicData,
    levi_character: CharacterTable,
    depth: int,
    nilradical_side: str = "opposite",
) -> CharacterTable:
    """Character of the coinduced module window: Levi character times the
    symmetric-algebra character of the chosen nilradical.

    `nilradical_side="opposite"` (default) drops weights by sums of the
    positive cross-block roots, i.e. the underlying space is the symmetric
    algebra on the opposite nilradical tensored with the Levi module;
    "same" adds those roots instead. Both are exposed because the convention
    is a genuine choice; tests pin the default through the Borel case, where
    the co-Verma window must match `verma_character`.
    """
    if nilradical_side not in ("opposite", "same"):
        raise ValueError(f"nilradical_side must be 'opposite' or 'same', got {nilradical_side!r}")
    n = par.n
    nil = par.nilradical("upper")
    cross = [nil.weight(p) for p in nil.pairs]
    table = weights.multiset_character(cross, n, depth)
    sign = -1 if nilradical_side == "opposite" else 1
    out: CharacterTable = {}
    for w_shifted, mult in levi_character.items():
        lw = weights.unshift(tuple(w_shifted))
        for nu, count in table.items():
            key = weights.shift(tuple(a + sign * b for a, b in zip(lw, nu)))
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
            v = field.of(coeff)
            if not field.is_zero(v):
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
        self.weight_index: dict[weights.Weight, list[int]] = {}
        for k, w in enumerate(self.basis_weight):
            self.weight_index.setdefault(w, []).append(k)
        self._columns: dict[Pair, dict[int, dict[int, object]]] = {}

    def action(self, pair: Pair) -> SparseMatrix:
        if pair not in self.actions:
            raise KeyError(f"no action stored for {pair}")
        return self.actions[pair]


def simple_quotient(n: int, lam_shifted: weights.Weight, field=QQ) -> FiniteWeightModule:
    """The finite-dimensional simple quotient of the highest-weight module.

    Requires a strictly decreasing shifted weight (regular dominant). Builds
    the depth window down to the lowest weight, finds all singular vectors
    (common kernel of the simple raising operators below the top), closes
    them under lowering operators, and quotients.
    """
    lam_shifted = tuple(lam_shifted)
    if list(lam_shifted) != sorted(lam_shifted, reverse=True) or len(set(lam_shifted)) != n:
        raise ValueError(f"shifted weight {lam_shifted} must be strictly decreasing")
    lowest = tuple(sorted(lam_shifted))
    drop = tuple(a - b for a, b in zip(lam_shifted, lowest))
    depth = weights.root_height(drop)
    if depth is None:
        raise InvariantError(f"lowest weight {lowest} is not below {lam_shifted}")
    verma = TruncatedVerma(n, lam_shifted, depth, field)

    simple_raisings = [(i, i + 1) for i in range(1, n)]
    raising_cols = [verma.action_columns(g) for g in simple_raisings]

    spans: dict[weights.Weight, Echelon] = {}

    queue: list[tuple[weights.Weight, dict[int, object]]] = []
    for w, members in verma.weight_index.items():
        if w == verma.lam:
            continue
        rows = []
        row_offset = 0
        for cols in raising_cols:
            for k, col in enumerate(members):
                for row_idx, v in cols.get(col, {}).items():
                    rows.append((row_offset + row_idx, k, v))
            row_offset += verma.dim
        stacked = SparseMatrix.from_triples(row_offset, len(members), rows)
        for kernel_vec in nullspace(stacked, field):
            vec = {members[k]: v for k, v in enumerate(kernel_vec) if not field.is_zero(v)}
            if vec:
                queue.append((w, vec))

    while queue:
        w, vec = queue.pop()
        if not spans.setdefault(w, Echelon(field)).insert(vec):
            continue
        for g in verma.gens_low:
            cols = verma.action_columns(g)
            img: dict[int, object] = {}
            for idx, c in vec.items():
                for row_idx, v in cols.get(idx, {}).items():
                    nv = field.add(img.get(row_idx, 0), field.mul(c, v))
                    if field.is_zero(nv):
                        img.pop(row_idx, None)
                    else:
                        img[row_idx] = nv
            if img:
                any_idx = next(iter(img))
                queue.append((verma.basis_weight[any_idx], img))

    pivots = {pivot for span in spans.values() for pivot, _ in span.rows}
    kept = [k for k in range(verma.dim) if k not in pivots]
    new_index = {old: new for new, old in enumerate(kept)}
    basis_weight = tuple(verma.basis_weight[k] for k in kept)

    actions: dict[Pair, SparseMatrix] = {}
    for pair in liealg.gl(n).pairs:
        cols = verma.action(pair).columns()
        triples = []
        for old in kept:
            img = cols.get(old, {})
            span = spans.get(verma.basis_weight[next(iter(img))]) if img else None
            if span is not None:
                s, r = span.reduce(img)
                img = {row_idx: field.of(Fraction(v) / s) for row_idx, v in r.items()}
            for row_idx, v in img.items():
                if row_idx not in new_index:
                    raise InvariantError("reduced vector touched a pivot")
                triples.append((new_index[row_idx], new_index[old], v))
        actions[pair] = SparseMatrix.from_triples(len(kept), len(kept), triples)
    return FiniteWeightModule(n=n, field=field, basis_weight=basis_weight, actions=actions)
