"""Test-side operations on parabolic block data and weights; nothing in the
package calls them."""

import bisect
import itertools

from decatkit import liealg, weights


def borel(n: int) -> liealg.RelationAlgebra:
    """Upper triangular matrices: the parabolic of n blocks of size 1."""
    return liealg.ParabolicData((1,) * n).parabolic()


def block_of(par: liealg.ParabolicData, i: int) -> int:
    """0-based block index containing the 1-based row/column i."""
    if not (1 <= i <= par.n):
        raise ValueError(f"index {i} outside 1..{par.n}")
    return bisect.bisect_left(list(itertools.accumulate(par.blocks)), i)


def refines(finer: liealg.ParabolicData, coarser: liealg.ParabolicData) -> bool:
    """True when every cut point (partial sum) of `coarser` is one of `finer`'s."""
    cuts = set(itertools.accumulate(finer.blocks))
    return finer.n == coarser.n and cuts.issuperset(itertools.accumulate(coarser.blocks))


def dot_orbit(lam_shifted: weights.Weight) -> set[weights.Weight]:
    """Orbit of a shifted weight under the dot action (plain permutations)."""
    return {weights.apply_perm(s, lam_shifted) for s in weights.weyl_elements(len(lam_shifted))}


def merge_adjacent(par: liealg.ParabolicData, j: int) -> liealg.ParabolicData:
    """Merge blocks j and j+1 (0-based)."""
    blocks = par.blocks
    if not (0 <= j < len(blocks) - 1):
        raise ValueError(f"no adjacent pair at {j} in {blocks}")
    return liealg.ParabolicData(blocks[:j] + (blocks[j] + blocks[j + 1],) + blocks[j + 2 :])


def nilradical_dim_difference(finer: liealg.ParabolicData, coarser: liealg.ParabolicData) -> int:
    """dim of the finer nilradical minus dim of the coarser one.

    Requires the first composition to refine the second; the difference is the
    number of strictly-upper cross positions that become intra-block.
    """
    if not refines(finer, coarser):
        raise ValueError(f"{finer.blocks} does not refine {coarser.blocks}")
    return finer.nilradical().dim - coarser.nilradical().dim
