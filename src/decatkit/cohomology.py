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
with their weight offsets, each (j+1)-subset's signed action terms, and its
contraction terms summed per j-subset. `_skeleton(n)` builds these once per
n, on first use. `ce_slice` then only looks up one weight space per subset,
skips subsets whose space is empty, and reads raising columns through
`module.column` only at basis vectors of those spaces; a truncated module
builds each such column on first read, never a whole action matrix.

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
    """The slice skeleton of gl_n: (pairs, subsets, offsets, action, contraction).

    subsets[j] lists the j-subsets of root indices in combinations order and
    offsets[j][t] the root sum of subsets[j][t]. For big = subsets[j+1][t],
    action[j][t] lists (small, root, sign) and contraction[j][t] lists
    (small, coefficient), with small an index into subsets[j].
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
    return nilpotent.pairs, subsets, offsets, action, contraction


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


def ce_slice(module, mu_shifted: weights.Weight) -> SliceComplex:
    """Cochain complex of the module in the given shifted weight slice."""
    field, p = module.field, module.field.p
    mu = weights.unshift(tuple(mu_shifted))
    required = slice_required_depth(module, mu_shifted)
    if required is not None and required > module.depth:
        raise ValueError(
            f"slice at {tuple(mu_shifted)} sits at depth {required}, beyond the "
            f"window depth {module.depth}; rebuild the module with depth >= {required}"
        )
    pairs, subsets, offsets, action, contraction = _skeleton(module.n)
    members = [
        [module.weight_index.get(tuple(map(operator.add, mu, off)), ()) for off in level]
        for level in offsets
    ]
    bases: list[list[tuple[tuple[int, ...], int]]] = []
    starts: list[list[int]] = []
    for level, level_members in zip(subsets, members):
        basis_j: list[tuple[tuple[int, ...], int]] = []
        start = []
        for subset, ms in zip(level, level_members):
            start.append(len(basis_j))
            if ms:
                basis_j.extend((subset, m) for m in ms)
        bases.append(basis_j)
        starts.append(start)

    column = module.column
    mats = []
    for j in range(len(pairs)):
        entries: dict[tuple[int, int], object] = {}
        for t, big_members in enumerate(members[j + 1]):
            if not big_members:
                continue
            row0 = starts[j + 1][t]
            slot = {m: row0 + u for u, m in enumerate(big_members)}
            for small, k, sign in action[j][t]:
                col0 = starts[j][small]
                for u, m in enumerate(members[j][small]):
                    for m2, val in column(pairs[k], m).items():
                        row = slot.get(m2)
                        if row is None:
                            raise InvariantError("action term left the slice")
                        entries[row, col0 + u] = entries.get((row, col0 + u), 0) + sign * val
            # A contraction term keeps the weight, so small and big share members.
            for small, c in contraction[j][t]:
                col0 = starts[j][small]
                for u in range(len(big_members)):
                    entries[row0 + u, col0 + u] = entries.get((row0 + u, col0 + u), 0) + c
        # Field elements times ints: over F_p a residue is `% p`, over Q exact.
        entries = {pos: x for pos, v in entries.items() if (x := v % p if p else v)}
        mats.append(SparseMatrix(len(bases[j + 1]), len(bases[j]), entries))

    cx = FiniteComplex(field=field, dims=tuple(len(b) for b in bases), maps=tuple(mats))
    return SliceComplex(mu_shifted=tuple(mu_shifted), complex=cx, bases=bases)


def slice_candidates(module) -> set[weights.Weight]:
    """Shifted weights where some cochain space of the module is nonzero."""
    offsets = {off for level in _skeleton(module.n)[2] for off in level}
    return {weights.shift(tuple(map(operator.sub, w, off))) for w in module.weight_index for off in offsets}


def cohomology_table(module) -> dict[tuple[int, weights.Weight], int]:
    """All nonzero slice cohomology, keyed by (degree, shifted slice weight).

    On a truncated module, slices deeper than the window are skipped: their
    complexes are cut off mid-weight and would report classes whose killing
    coboundaries lie just past the truncation edge.
    """
    out: dict[tuple[int, weights.Weight], int] = {}
    for mu_shifted in sorted(slice_candidates(module)):
        required = slice_required_depth(module, mu_shifted)
        if module.depth is not None and (required is None or required > module.depth):
            continue
        sc = ce_slice(module, mu_shifted)
        for deg, dim in sc.homology_dims().items():
            if dim:
                out[(deg, mu_shifted)] = dim
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


def verify_blocks_vanishing(
    n: int,
    a_shifted: weights.Weight,
    b_shifted: weights.Weight,
    p: int,
    module: TruncatedVerma | None = None,
) -> BlocksReport:
    """Slice cohomology of the weight-b highest-weight module at weight a,
    over F_p, with the congruence and ordering flags used by the sweep.

    A prebuilt module (same n, b, p; any sufficient depth) can be passed to
    share work across a sweep. When a is not below b in the root order, no
    cochain weight of the module meets the slice: the report is all zeros,
    read off the root order without building a module or a slice.
    """
    a_shifted, b_shifted = tuple(a_shifted), tuple(b_shifted)
    ht = weights.root_height(tuple(x - y for x, y in zip(b_shifted, a_shifted)))
    if module is not None:
        if module.lam_shifted != b_shifted or module.field.p != p:
            raise ValueError("prebuilt module does not match (b, p)")
        if ht is not None and module.depth < ht:
            raise ValueError(f"prebuilt module depth {module.depth} < required {ht}")
    if ht is None:
        dims = (0,) * (n * (n - 1) // 2 + 1)
        hom = dict.fromkeys(range(len(dims)), 0)
    else:
        if module is None:
            module = TruncatedVerma(n, b_shifted, ht, PrimeField(p))
        sc = ce_slice(module, a_shifted)
        dims, hom = sc.complex.dims, sc.homology_dims()
    return BlocksReport(
        n=n,
        p=p,
        a=a_shifted,
        b=b_shifted,
        cochain_dims=dims,
        homology=hom,
        nonvanishing=any(hom.values()),
        componentwise_leq=weights.componentwise_leq(a_shifted, b_shifted),
        root_order_leq=ht is not None,
        block_congruent=weights.block_congruent(a_shifted, b_shifted, p),
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
        hts = (weights.root_height(tuple(x - y for x, y in zip(b, a))) for a in grid)
        module = TruncatedVerma(n, b, max(h for h in hts if h is not None), field)
        for a in grid:
            reports.append(verify_blocks_vanishing(n, a, b, p, module=module))
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
