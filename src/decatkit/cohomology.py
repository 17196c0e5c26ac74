"""Nilpotent cochain complexes in a fixed weight slice, and their shadows.

For a gl_n weight module M (truncated highest-weight or finite-dimensional,
anything exposing n, field, depth, weight_index and column(pair, basis
index)), the cochain space in degree j is spanned by xi_I tensor v where I
is a j-subset of the positive roots, read off the strict upper pairs in lex
order as their adjoint weights, and v a basis vector; the cochain's weight
is wt(v) minus the sum of the roots in I. Fixing a slice weight mu picks out
a finite subcomplex because the differential preserves weight. The
differential is the standard alternating-sum formula: an action term moving
one root onto the module and a contraction term pairing two roots through
their bracket.

All of that formula but the module depends on n alone: the root subsets
grouped by weight offset, each (j+1)-subset's signed action terms, and its
contraction terms summed per j-subset. `_skeleton(n)` builds these once per
n. A slice's cochains come in cells, one per subset with a nonzero weight
space, found by one lookup per offset group; `cohomology_table` finds every
slice's cells in one pass over module weights and offset groups. Raising
columns are read through `module.column` only at basis vectors of cells.

Raising operators never increase depth, so on a depth-truncated module every
slice complex with window depth >= ht(lambda - mu) is computed exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator

from decatkit import liealg, weights
from decatkit.exactlin import QQ, FiniteComplex, InvariantError, PrimeField, SparseMatrix
from decatkit.verma import TruncatedVerma, simple_quotient, weyl_dim

Pair = tuple[int, int]


@functools.cache
def _skeleton(n: int):
    """The slice skeleton of gl_n: (pairs, subsets, groups, action, contraction).

    subsets[j] lists the j-subsets of root indices in combinations order.
    groups lists (offset, places), one per distinct root sum of a subset,
    with places the (j, t) of every subsets[j][t] of that sum. For
    big = subsets[j+1][t], action[j][t] lists (small, root, sign) and
    contraction[j][t] lists (small, coefficient), with small an index into
    subsets[j].
    """
    nilpotent = liealg.strict_triangular(n)
    roots = [nilpotent.weight(pair) for pair in nilpotent.pairs]
    root_of = {pair: k for k, pair in enumerate(nilpotent.pairs)}
    subsets = [list(itertools.combinations(range(len(roots)), j)) for j in range(len(roots) + 1)]
    where = [{subset: t for t, subset in enumerate(level)} for level in subsets]
    offsets = [
        [tuple(sum(roots[k][c] for k in subset) for c in range(n)) for subset in level]
        for level in subsets
    ]
    groups: dict[weights.Weight, list[tuple[int, int]]] = {}
    for j, level in enumerate(offsets):
        for t, off in enumerate(level):
            groups.setdefault(off, []).append((j, t))
    action, contraction = [], []
    for j, level in enumerate(subsets[1:]):
        action.append([
            [(where[j][big[:a] + big[a + 1 :]], k, -1 if a % 2 else 1) for a, k in enumerate(big)]
            for big in level
        ])
        contraction.append([])
        for t, big in enumerate(level):
            terms: dict[int, int] = {}
            for a, b in itertools.combinations(range(len(big)), 2):
                rest = tuple(x for u, x in enumerate(big) if u not in (a, b))
                for z, c in nilpotent.bracket(nilpotent.pairs[big[a]], nilpotent.pairs[big[b]]).items():
                    s = root_of[z]
                    if s in rest:
                        continue
                    small = tuple(sorted(rest + (s,)))
                    key = where[j][small]
                    if offsets[j][key] != offsets[j + 1][t]:
                        raise InvariantError("contraction term left the slice")
                    terms[key] = terms.get(key, 0) + (-1) ** (a + b + small.index(s)) * c
            contraction[j].append([(small, c) for small, c in terms.items() if c])
    return nilpotent.pairs, subsets, list(groups.items()), action, contraction


@dataclasses.dataclass
class SliceComplex:
    """The slice cochain complex at a fixed weight, with labeled bases."""

    mu_shifted: weights.Weight
    complex: FiniteComplex
    bases: list[list[tuple[tuple[int, ...], int]]]

    def homology_dims(self) -> dict[int, int]:
        return self.complex.homology_dims()


def slice_required_depth(module, mu_shifted: weights.Weight) -> int | None:
    """Window depth needed for an exact slice at mu on a truncated module.

    None means the slice is exact at any depth: either the module is finite,
    or mu lies outside the cone under the highest weight, where the full
    module has no cochains in this slice anyway.
    """
    if module.depth is None:
        return None
    lam = module.lam_shifted
    return weights.root_height(tuple(l - m for l, m in zip(lam, mu_shifted)))


def _slice_cells(module, mu: weights.Weight) -> list[list[tuple[int, list[int]]]]:
    """The cells of the slice at unshifted mu: cells[j] holds (t, members) for
    each j-subset subsets[j][t] whose weight mu + offset has basis vectors
    `members`, in subset order. Degree j's cochains are (subset, member)."""
    pairs, _, groups, _, _ = _skeleton(module.n)
    cells: list[list[tuple[int, list[int]]]] = [[] for _ in range(len(pairs) + 1)]
    for off, places in groups:
        members = module.weight_index.get(tuple(map(operator.add, mu, off)))
        if members:
            for j, t in places:
                cells[j].append((t, members))
    for level in cells:
        level.sort()
    return cells


def _slice_complex(module, cells) -> FiniteComplex:
    """The complex of one slice, given as its cells: degree j's basis runs
    through cells[j], each cell's members in turn."""
    pairs, _, _, action, contraction = _skeleton(module.n)
    column, p = module.column, module.field.p
    index, dims = [], []  # index[j]: {t: (first basis index, members)}
    for level in cells:
        at, index_j = 0, {}
        for t, members in level:
            index_j[t] = (at, members)
            at += len(members)
        index.append(index_j)
        dims.append(at)

    mats = []
    for j in range(len(pairs)):
        entries: dict[tuple[int, int], object] = {}
        for t, (row0, big_members) in index[j + 1].items():
            slot = {m: row0 + u for u, m in enumerate(big_members)}
            for small, k, sign in action[j][t]:
                col0, small_members = index[j].get(small, (0, ()))
                for u, m in enumerate(small_members):
                    for m2, val in column(pairs[k], m).items():
                        row = slot.get(m2)
                        if row is None:
                            raise InvariantError("action term left the slice")
                        entries[row, col0 + u] = entries.get((row, col0 + u), 0) + sign * val
            # A contraction term keeps the weight, so small and big share members.
            for small, c in contraction[j][t]:
                col0 = index[j][small][0]
                for u in range(len(big_members)):
                    entries[row0 + u, col0 + u] = entries.get((row0 + u, col0 + u), 0) + c
        # Field elements times ints: over F_p a residue is `% p`, over Q exact.
        entries = {pos: x for pos, v in entries.items() if (x := v % p if p else v)}
        mats.append(SparseMatrix(dims[j + 1], dims[j], entries))
    return FiniteComplex(field=module.field, dims=tuple(dims), maps=tuple(mats))


def ce_slice(module, mu_shifted: weights.Weight) -> SliceComplex:
    """Cochain complex of the module in the given shifted weight slice."""
    required = slice_required_depth(module, mu_shifted)
    if required is not None and required > module.depth:
        raise ValueError(
            f"slice at {tuple(mu_shifted)} sits at depth {required}, beyond the "
            f"window depth {module.depth}; rebuild the module with depth >= {required}"
        )
    subsets = _skeleton(module.n)[1]
    cells = _slice_cells(module, weights.unshift(tuple(mu_shifted)))
    cx = _slice_complex(module, cells)
    bases = [[(subsets[j][t], m) for t, members in level for m in members] for j, level in enumerate(cells)]
    return SliceComplex(mu_shifted=tuple(mu_shifted), complex=cx, bases=bases)


def _exact_slice(module, mu: weights.Weight) -> bool:
    """False at unshifted mu outside the cone or deeper than the window."""
    if module.depth is None:
        return True
    required = slice_required_depth(module, weights.shift(mu))
    return required is not None and required <= module.depth


def cohomology_table(module) -> dict[tuple[int, weights.Weight], int]:
    """All nonzero slice cohomology, keyed by (degree, shifted slice weight).

    On a truncated module, slices deeper than the window are skipped: their
    complexes are cut off mid-weight and would report classes whose killing
    coboundaries lie just past the truncation edge.
    """
    pairs, _, groups, _, _ = _skeleton(module.n)
    slices: dict[weights.Weight, list | bool] = {}
    for w, members in module.weight_index.items():
        for off, places in groups:
            mu = tuple(map(operator.sub, w, off))
            cells = slices.get(mu)
            if cells is None:
                cells = slices[mu] = _exact_slice(module, mu) and [[] for _ in range(len(pairs) + 1)]
            if cells:
                for j, t in places:
                    cells[j].append((t, members))
    # Shifting adds one vector to every weight, so this is shifted order too.
    kept = sorted((mu, cells) for mu, cells in slices.items() if cells)
    out: dict[tuple[int, weights.Weight], int] = {}
    for mu, cells in kept:
        for level in cells:
            level.sort()
        for deg, dim in _slice_complex(module, cells).homology_dims().items():
            if dim:
                out[(deg, weights.shift(mu))] = dim
    return out


@dataclasses.dataclass
class BlocksReport:
    """One pair of the vanishing sweep: slice cohomology of the module with
    highest shifted weight b at slice weight a, over F_p."""

    n: int
    p: int
    a: weights.Weight
    b: weights.Weight
    cochain_dims: tuple[int, ...]
    homology: dict[int, int]
    nonvanishing: bool
    componentwise_leq: bool
    root_order_leq: bool
    block_congruent: bool

    @property
    def counterexample(self) -> bool:
        return self.nonvanishing and not self.block_congruent


def verify_blocks_vanishing(n: int, a_shifted: weights.Weight, b_shifted: weights.Weight, p: int) -> BlocksReport:
    """Slice cohomology of the weight-b highest-weight module at weight a,
    over F_p, with the congruence and ordering flags used by the sweep.

    When a is not below b in the root order, no cochain weight of the module
    meets the slice: the report is all zeros, read off the root order without
    building a module or a slice.
    """
    a_shifted, b_shifted = tuple(a_shifted), tuple(b_shifted)
    ht = weights.root_height(tuple(x - y for x, y in zip(b_shifted, a_shifted)))
    if ht is None:
        return _blocks_report(n, p, a_shifted, b_shifted, None)
    sc = ce_slice(TruncatedVerma(n, b_shifted, ht, PrimeField(p)), a_shifted)
    return _blocks_report(n, p, a_shifted, b_shifted, (sc.complex.dims, sc.homology_dims()))


def _blocks_report(n: int, p: int, a: weights.Weight, b: weights.Weight, found) -> BlocksReport:
    """One pair's report from its slice's (cochain dims, homology dims), or
    all zeros for found None: a is not below b."""
    if found is None:
        dims = (0,) * (n * (n - 1) // 2 + 1)
        hom = dict.fromkeys(range(len(dims)), 0)
    else:
        dims, hom = found
    return BlocksReport(
        n=n,
        p=p,
        a=a,
        b=b,
        cochain_dims=dims,
        homology=hom,
        nonvanishing=any(hom.values()),
        componentwise_leq=weights.componentwise_leq(a, b),
        root_order_leq=found is not None,
        block_congruent=weights.block_congruent(a, b, p),
    )


@dataclasses.dataclass
class SweepReport:
    n: int
    p: int
    max_entry: int
    pairs: int
    nonvanishing_pairs: int
    counterexamples: list[BlocksReport]
    componentwise_always: bool
    root_order_always: bool
    nonvanishing: list[BlocksReport]
    reports: list[BlocksReport]


def blocks_sweep(n: int, p: int, max_entry: int) -> SweepReport:
    """All ordered pairs of shifted weights with entries in 0..max_entry."""
    field = PrimeField(p)
    grid = list(itertools.product(range(max_entry + 1), repeat=n))
    reports: list[BlocksReport] = []
    for b in grid:
        hts = [weights.root_height(tuple(x - y for x, y in zip(b, a))) for a in grid]
        module = TruncatedVerma(n, b, max(h for h in hts if h is not None), field)
        # Slice-major: the weights below b are fewer than the module's weights.
        for a, ht in zip(grid, hts):
            found = None
            if ht is not None:
                cx = _slice_complex(module, _slice_cells(module, weights.unshift(a)))
                found = (cx.dims, cx.homology_dims())
            reports.append(_blocks_report(n, p, a, b, found))
    nonvan = [r for r in reports if r.nonvanishing]
    return SweepReport(
        n=n,
        p=p,
        max_entry=max_entry,
        pairs=len(reports),
        nonvanishing_pairs=len(nonvan),
        counterexamples=[r for r in reports if r.counterexample],
        componentwise_always=all(r.componentwise_leq for r in nonvan),
        root_order_always=all(r.root_order_leq for r in nonvan),
        nonvanishing=nonvan,
        reports=reports,
    )


@dataclasses.dataclass
class PatternReport:
    """Slice cohomology of a finite simple module against the reflection
    pattern: one class in degree inv(w) at each orbit weight w(lambda)."""

    n: int
    lam_shifted: weights.Weight
    module_dim: int
    expected_dim: int
    table: dict[tuple[int, weights.Weight], int]
    expected: dict[tuple[int, weights.Weight], int]
    matches: bool


def kostant_pattern_report(n: int, lam_shifted: weights.Weight, field=QQ) -> PatternReport:
    """Check the full slice-cohomology table of the simple quotient against
    the permutation-orbit pattern."""
    lam_shifted = tuple(lam_shifted)
    module = simple_quotient(n, lam_shifted, field)
    table = cohomology_table(module)
    expected = {
        (weights.inversions(sigma), weights.apply_perm(sigma, lam_shifted)): 1
        for sigma in weights.weyl_elements(n)
    }
    return PatternReport(
        n=n,
        lam_shifted=lam_shifted,
        module_dim=module.dim,
        expected_dim=weyl_dim(lam_shifted),
        table=table,
        expected=expected,
        matches=table == expected,
    )
