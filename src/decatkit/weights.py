"""Integer weight combinatorics for gl_n.

Weights are integer n-tuples. Public entry points across the package take
*shifted* weights: the staircase shift rho' = (n-1, n-2, ..., 0) is already
added, so the twisted reflection action becomes plain coordinate permutation.
`shift`/`unshift` convert.

Positive roots are e_i - e_j for i < j; simple roots are the j = i + 1 cases.
The height of a nonnegative root combination is the sum of its simple-root
coefficients, which for a vector nu are the prefix sums nu_1 + ... + nu_i.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Optional

from decatkit.exactlin import InvariantError

Weight = tuple[int, ...]


def rho_prime(n: int) -> Weight:
    return tuple(n - 1 - i for i in range(n))


def shift(lam: Weight) -> Weight:
    """Add the staircase shift: lam -> lam + rho'."""
    n = len(lam)
    return tuple(a + b for a, b in zip(lam, rho_prime(n)))


def unshift(lam_shifted: Weight) -> Weight:
    n = len(lam_shifted)
    return tuple(a - b for a, b in zip(lam_shifted, rho_prime(n)))


def positive_roots(n: int) -> list[Weight]:
    """e_i - e_j for 1 <= i < j <= n, ordered lexicographically in (i, j)."""
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            v = [0] * n
            v[i], v[j] = 1, -1
            roots.append(tuple(v))
    return roots


def root_height(nu: Weight) -> Optional[int]:
    """Height of nu as a nonnegative sum of simple roots, or None.

    nu = sum c_i alpha_i with c_i = nu_1 + ... + nu_i; all c_i must be
    nonnegative and the full sum must vanish.
    """
    total = 0
    height = 0
    for x in nu[:-1]:
        total += x
        if total < 0:
            return None
        height += total
    if total + nu[-1] != 0:
        return None
    return height


def componentwise_leq(a: Weight, b: Weight) -> bool:
    if len(a) != len(b):
        raise ValueError(f"weights have different lengths {len(a)} and {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def root_order_leq(a: Weight, b: Weight) -> bool:
    """a <= b in the root order: b - a is a nonnegative sum of positive roots."""
    if len(a) != len(b):
        raise ValueError(f"weights have different lengths {len(a)} and {len(b)}")
    return root_height(tuple(y - x for x, y in zip(a, b))) is not None


def block_congruent(a: Weight, b: Weight, p: int) -> bool:
    """Sorted residue multisets of the entries mod p agree."""
    if len(a) != len(b):
        raise ValueError(f"weights have different lengths {len(a)} and {len(b)}")
    return sorted(x % p for x in a) == sorted(x % p for x in b)


def apply_perm(sigma: tuple[int, ...], lam: Weight) -> Weight:
    """Coordinate permutation: result[i] = lam[sigma[i]]."""
    return tuple(lam[s] for s in sigma)


def inversions(sigma: tuple[int, ...]) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(sigma)), 2) if sigma[i] > sigma[j])


def weyl_elements(n: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(n)))


@functools.cache
def _partition_count(roots: tuple[Weight, ...], idx: int, target: Weight) -> int:
    if all(x == 0 for x in target):
        return 1
    if idx == len(roots):
        return 0
    root = roots[idx]
    n = len(target)
    total = 0
    m = 0
    while True:
        rem = tuple(target[i] - m * root[i] for i in range(n))
        if root_height(rem) is None:
            # Prefix sums only decrease as m grows, so no larger m works.
            break
        total += _partition_count(roots, idx + 1, rem)
        m += 1
    return total


def kostant_partition(mu: Weight) -> int:
    """Number of ways to write -mu as a nonnegative sum of positive roots.

    Nonzero only when -mu lies in the positive root cone; in particular the
    weight multiplicity of a highest-weight module at depth nu below the
    highest weight is kostant_partition(-nu).
    """
    n = len(mu)
    target = tuple(-x for x in mu)
    if root_height(target) is None:
        return 0
    return _partition_count(tuple(positive_roots(n)), 0, target)


def multiset_character(roots: Iterable[Weight], n: int, depth: int) -> dict[Weight, int]:
    """Counts of root multisets with total height <= depth, keyed by their sum.

    This is the character of the symmetric algebra on the given root vectors,
    truncated at the height bound. Every root must have positive height, so
    heights add and the truncation is finite.
    """
    roots = list(roots)
    heights = []
    for r in roots:
        h = root_height(r)
        if h is None or h <= 0:
            raise ValueError(f"root {r} has no positive height")
        heights.append(h)
    zero = tuple(0 for _ in range(n))
    table: dict[Weight, int] = {zero: 1}
    for r, h in zip(roots, heights):
        new = dict(table)
        for w, count in table.items():
            base = root_height(w)
            if base is None:
                raise InvariantError(f"root sum {w} has no height")
            m = 1
            while base + m * h <= depth:
                key = tuple(w[i] + m * r[i] for i in range(n))
                new[key] = new.get(key, 0) + count
                m += 1
        table = new
    return table
