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

All of that formula but the module depends on n alone. `_skeleton(n)`
builds it once per n: the root subsets grouped by weight offset, and each
subset's contraction terms, read off the few nonzero brackets. A cochain
cell is named by its subset, whose action faces are the subset itself with
its a-th root dropped, at sign (-1)^a. A slice's cells are the subsets with
a nonzero weight space, found by one lookup per offset group. One loop,
`_assemble`, walks the faces for two column readers. A Verma slice depends
on lambda - mu alone: `ce_slice` evaluates one template per offset, summed
over Z[lambda] as affine forms read off the PBW table. Finite modules and
`cohomology_table` (all cells in one pass) sum values from `module.column`.

Raising operators never increase depth, so on a depth-truncated module every
slice complex with window depth >= ht(lambda - mu) is computed exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
import types

from decatkit import liealg, verma, weights
from decatkit.exactlin import QQ, FiniteComplex, InvariantError, PrimeField, SparseMatrix
from decatkit.verma import TruncatedVerma, simple_quotient, weyl_dim


@functools.cache
def _skeleton(n: int):
    """The slice skeleton of gl_n: (pairs, groups, contraction).

    A cochain cell is named by its root subset, a sorted tuple of root
    indices. groups lists (offset, subsets), one per distinct root sum, with
    the subsets of that sum in (size, lex) order. contraction maps a subset
    to its nonzero contraction terms [(smaller subset, coefficient)], read
    off the nonzero brackets [e_x, e_y] = c e_s with x < y, found once.
    """
    nilpotent = liealg.strict_triangular(n)
    pairs = nilpotent.pairs
    roots = [nilpotent.weight(pair) for pair in pairs]
    brackets = []
    for x, y in itertools.combinations(range(len(pairs)), 2):
        for z, c in nilpotent.bracket(pairs[x], pairs[y]).items():
            s = pairs.index(z)
            if roots[s] != tuple(map(operator.add, roots[x], roots[y])):
                raise InvariantError("contraction term left the slice")
            brackets.append((x, y, s, c))
    groups: dict[weights.Weight, list[tuple[int, ...]]] = {}
    contraction: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for j in range(len(roots) + 1):
        for big in itertools.combinations(range(len(roots)), j):
            groups.setdefault(tuple(sum(roots[k][c] for k in big) for c in range(n)), []).append(big)
            terms: dict[tuple[int, ...], int] = {}
            for x, y, s, c in brackets:
                if x in big and y in big and s not in big:
                    a, b = big.index(x), big.index(y)
                    small = tuple(sorted([k for k in big if k not in (x, y)] + [s]))
                    terms[small] = terms.get(small, 0) + (-1) ** (a + b + small.index(s)) * c
            nonzero = [(small, c) for small, c in terms.items() if c]
            if nonzero:
                contraction[big] = nonzero
    return pairs, list(groups.items()), contraction


@dataclasses.dataclass
class SliceComplex:
    """The slice cochain complex at a fixed shifted weight."""

    complex: FiniteComplex


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


def _cells(n: int, members_at) -> list[list]:
    """cells[j]: (subset, members) for each j-subset whose offset off has members = members_at(off)."""
    pairs, groups, _ = _skeleton(n)
    cells: list[list] = [[] for _ in range(len(pairs) + 1)]
    for off, subsets in groups:
        if members := members_at(off):
            for subset in subsets:
                cells[len(subset)].append((subset, members))
    return cells


def _cell_index(cells) -> tuple[list[dict], tuple[int, ...]]:
    """(index, dims) of a slice: degree j's basis runs through cells[j] in lex order, each
    cell's members in turn, and index[j] maps a subset to (first basis index, members)."""
    index, dims = [], []
    for level in cells:
        at, index_j = 0, {}
        for subset, members in sorted(level):
            index_j[subset] = (at, members)
            at += len(members)
        index.append(index_j)
        dims.append(at)
    return index, tuple(dims)


def _assemble(n: int, cells, column, add, one) -> tuple[tuple[int, ...], list[dict]]:
    """(dims, maps) of the slice with these cells, each map {(row, col): sum}. column(pair, member)
    reads a raising column as {member: x}; each entry folds its terms by acc = add(acc, c, x) from
    acc None: c = +-1 on an action term, and c the contraction constant with x = `one` on a contraction."""
    pairs, _, contraction = _skeleton(n)
    index, dims = _cell_index(cells)
    maps = []
    for j in range(len(pairs)):
        sums: dict[tuple[int, int], object] = {}
        for big, (row0, big_members) in index[j + 1].items():
            slot = {m: row for row, m in enumerate(big_members, row0)}
            # Dropping root k = big[a] leaves a face, acted on by e_k with sign (-1)^a.
            for a, k in enumerate(big):
                col0, small_members = index[j].get(big[:a] + big[a + 1 :], (0, ()))
                sign = -1 if a % 2 else 1
                for col, m in enumerate(small_members, col0):
                    for m2, x in column(pairs[k], m).items():
                        row = slot.get(m2)
                        if row is None:
                            raise InvariantError("action term left the slice")
                        sums[row, col] = add(sums.get((row, col)), sign, x)
            # A contraction term keeps the weight, so small and big share members.
            for small, c in contraction.get(big, ()):
                col0 = index[j][small][0]
                for u in range(len(big_members)):
                    sums[row0 + u, col0 + u] = add(sums.get((row0 + u, col0 + u)), c, one)
        maps.append(sums)
    return dims, maps


def _slice_complex(module, cells) -> FiniteComplex:
    """The complex of one slice of `module`, given as its cells."""
    dims, maps = _assemble(module.n, cells, module.column, lambda acc, c, x: c * x if acc is None else acc + c * x, 1)
    # Field elements times ints: over F_p a residue is `% p`, over Q exact.
    p = module.field.p
    mats = (SparseMatrix(dims[j + 1], dims[j], {pos: x for pos, v in sums.items() if (x := v % p if p else v)})
            for j, sums in enumerate(maps))
    return FiniteComplex(field=module.field, dims=dims, maps=tuple(mats))


def _slice_template(n: int, delta: weights.Weight):
    """The slice at mu = lambda - delta of every gl_n Verma window at least
    ht(delta) deep, over Z[lambda]: (dims, maps), each map its nonzero entries
    as parallel tuples (rows, cols, interned forms), kept in the PBW table."""
    table = verma._pbw_table(n)
    if (done := table.slices.get(delta)) is not None:
        return done
    by_drop: dict[weights.Weight, list[int]] = {}  # a cell at offset off: the monomials dropping delta - off
    for m in range(table.grow(weights.root_height(delta))):
        by_drop.setdefault(table.drops[m], []).append(m)
    cells = _cells(n, lambda off: by_drop.get(tuple(map(operator.sub, delta, off))))
    dims, maps = _assemble(n, cells, table.column, lambda acc, c, f: [c * x for x in f] if acc is None
                           else [y + c * x for y, x in zip(acc, f)], table.one)
    interned = (tuple(zip(*[(r, c, table.form(*f)) for (r, c), f in sums.items() if any(f)])) for sums in maps)
    done = table.slices[delta] = (dims, tuple(m or ((), (), ()) for m in interned))
    return done


def ce_slice(module, mu_shifted: weights.Weight) -> SliceComplex:
    """Cochain complex of the module in the given shifted weight slice; on a
    Verma window, its slice template evaluated at lambda."""
    if len(mu_shifted) != module.n:
        raise ValueError(f"slice weight {tuple(mu_shifted)} has length {len(mu_shifted)}, not n = {module.n}")
    required = slice_required_depth(module, mu_shifted)
    if required is None:  # a finite module, or mu outside the cone below lambda
        mu, at = weights.unshift(mu_shifted), module.weight_index.get
        return SliceComplex(_slice_complex(module, _cells(module.n, lambda off: at(tuple(map(operator.add, mu, off))))))
    if required > module.depth:
        raise ValueError(f"slice at {tuple(mu_shifted)} sits at depth {required}, beyond the window depth "
                         f"{module.depth}; rebuild the module with depth >= {required}")
    dims, maps = _slice_template(module.n, tuple(map(operator.sub, module.lam_shifted, mu_shifted)))
    mats = (SparseMatrix(dims[j + 1], dims[j], module.evaluate(zip(zip(rows, cols), forms)))
            for j, (rows, cols, forms) in enumerate(maps))
    return SliceComplex(FiniteComplex(field=module.field, dims=dims, maps=tuple(mats)))


def cohomology_table(module) -> dict[tuple[int, weights.Weight], int]:
    """All nonzero slice cohomology, keyed by (degree, shifted slice weight).

    On a truncated module, slices deeper than the window are skipped: their
    complexes are cut off mid-weight and would report classes whose killing
    coboundaries lie just past the truncation edge.
    """
    pairs, groups, _ = _skeleton(module.n)
    slices: dict[weights.Weight, list | bool] = {}
    for w, members in module.weight_index.items():
        for off, subsets in groups:
            mu = tuple(map(operator.sub, w, off))
            cells = slices.get(mu)
            if cells is None:
                # lam - mu = (lam - w) + off lies in the root cone, so a depth exists.
                exact = module.depth is None or slice_required_depth(module, weights.shift(mu)) <= module.depth
                cells = slices[mu] = exact and [[] for _ in range(len(pairs) + 1)]
            if cells:
                for subset in subsets:
                    cells[len(subset)].append((subset, members))
    # Shifting adds one vector to every weight, so this is shifted order too.
    kept = sorted((mu, cells) for mu, cells in slices.items() if cells)
    out: dict[tuple[int, weights.Weight], int] = {}
    for mu, cells in kept:
        for deg, dim in _slice_complex(module, cells).homology_dims().items():
            if dim:
                out[(deg, weights.shift(mu))] = dim
    return out


def large_prime_floor(n: int) -> int:
    """4n: the modular results for gl_n are claimed only for primes above it."""
    return 4 * n


@dataclasses.dataclass
class BlocksReport:
    """One pair of the vanishing sweep: slice cohomology of the module with
    highest shifted weight b at slice weight a, over F_p."""

    n: int
    p: int
    a: weights.Weight
    b: weights.Weight
    cochain_dims: tuple[int, ...]
    homology: dict[int, int] | types.MappingProxyType  # read-only outside the root cone
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
    if not len(a_shifted) == len(b_shifted) == n:
        raise ValueError(f"weights {a_shifted} and {b_shifted} are not both of length n = {n}")
    field = PrimeField(p)  # refuses a composite p inside the root cone and outside it alike
    ht = weights.root_height(tuple(x - y for x, y in zip(b_shifted, a_shifted)))
    module = None if ht is None else TruncatedVerma(n, b_shifted, ht, field)
    return _blocks_report(n, p, a_shifted, b_shifted, module)


@functools.cache
def _zero_record(n: int) -> tuple[tuple[int, ...], types.MappingProxyType]:
    """(cochain_dims, homology) of any pair outside the root cone: all zeros,
    one read-only record per n."""
    dims = (0,) * (n * (n - 1) // 2 + 1)
    return dims, types.MappingProxyType(dict.fromkeys(range(len(dims)), 0))


def _blocks_report(n: int, p: int, a: weights.Weight, b: weights.Weight, module) -> BlocksReport:
    """One pair's report from the slice at a of `module`, whose highest
    shifted weight is b, or all zeros for module None: a is not below b."""
    if module is None:
        dims, hom = _zero_record(n)
    else:
        cx = ce_slice(module, a).complex
        dims, hom = cx.dims, cx.homology_dims()
    return BlocksReport(
        n=n,
        p=p,
        a=a,
        b=b,
        cochain_dims=dims,
        homology=hom,
        nonvanishing=any(hom.values()),
        componentwise_leq=weights.componentwise_leq(a, b),
        root_order_leq=module is not None,
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
        reports += [_blocks_report(n, p, a, b, None if ht is None else module) for a, ht in zip(grid, hts)]
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
