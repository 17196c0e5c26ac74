"""Test-side reference for `verma.simple_quotient`: the simple module as the
quotient of a Verma window by the submodule its singular vectors generate.

This route is independent of the Gelfand-Tsetlin formulas the package uses.
It builds the depth window down to the lowest weight, finds all singular
vectors (common kernel of the simple raising operators below the top) with
`nullspace`, closes them under lowering operators, and quotients. Within the
window that lowering closure is exact, because depth only grows along a
lowering monomial. It is slow: gl_4 (3, 2, 1, 0) takes about half a second.
"""

import functools
import itertools
from fractions import Fraction

from hypothesis import strategies as st

from decatkit import liealg, weights
from decatkit.exactlin import QQ, Echelon, InvariantError, SparseMatrix, nullspace
from decatkit.verma import FiniteWeightModule, Pair, TruncatedVerma, lowering_generators

# The criterion-3 and criterion-5 weights of the acceptance suite.
CRITERION_WEIGHTS = [(2,), (4,), (3, 0), (4, 1), (5, 2), (2, 1, 0), (4, 2, 0)]
# Largest shifted spread drawn per n; gl_4's reference alone takes 0.5 s.
_SMALL_SPREAD = {2: 6, 3: 5, 4: 3}


@st.composite
def small_regular_dominant(draw) -> tuple[int, weights.Weight]:
    """(n, shifted regular dominant weight) for gl_2..gl_4, small enough for
    the reference to stay fast."""
    n = draw(st.integers(min_value=2, max_value=4))
    cap = _SMALL_SPREAD[n]
    gaps = draw(st.lists(st.integers(min_value=1, max_value=cap), min_size=n - 1, max_size=n - 1))
    if sum(gaps) > cap:
        gaps = [1] * (n - 1)
    base = draw(st.integers(min_value=-2, max_value=2))
    return n, tuple(itertools.accumulate(reversed(gaps), initial=base))[::-1]


def weight_dims(module) -> dict[weights.Weight, int]:
    """Dimension of each weight space of a weight module, keyed by shifted weight."""
    return {weights.shift(w): len(idx) for w, idx in module.weight_index.items()}


@functools.cache
def reference_simple_quotient(n: int, lam_shifted: weights.Weight, field=QQ) -> FiniteWeightModule:
    """The finite-dimensional simple quotient of the highest-weight module.

    Memoized, so hypothesis draws that repeat a weight cost nothing; callers
    only read the result.
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
    raising_cols = [verma.action(g).columns() for g in simple_raisings]
    lowering_cols = [verma.action(g).columns() for g in lowering_generators(n)]

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
            vec = {members[k]: v for k, v in enumerate(kernel_vec) if v}
            if vec:
                queue.append((w, vec))

    while queue:
        w, vec = queue.pop()
        if not spans.setdefault(w, Echelon(field)).insert(vec):
            continue
        for cols in lowering_cols:
            acc: dict[int, object] = {}
            for idx, c in vec.items():
                for row_idx, v in cols.get(idx, {}).items():
                    acc[row_idx] = acc.get(row_idx, 0) + c * v
            img = {row_idx: x for row_idx, v in acc.items() if (x := field.of(v))}
            if img:
                any_idx = next(iter(img))
                queue.append((verma.basis_weight[any_idx], img))

    pivots = {pivot for span in spans.values() for pivot in span.rows}
    kept = [k for k in range(verma.dim) if k not in pivots]
    new_index = {old: new for new, old in enumerate(kept)}
    basis_weight = tuple(verma.basis_weight[k] for k in kept)

    # Every pair's columns, so the module never builds one by commutators.
    columns: dict[Pair, dict[int, dict[int, object]]] = {}
    for pair in liealg.gl(n).pairs:
        cols = verma.action(pair).columns()
        columns[pair] = {}
        for old in kept:
            img = cols.get(old, {})
            span = spans.get(verma.basis_weight[next(iter(img))]) if img else None
            if span is not None:
                # Tagged with -1, a column no row holds, r carries the multiple s.
                r = span.reduce({**img, -1: 1})
                s = r.pop(-1)
                img = {row_idx: field.of(Fraction(v) / s) for row_idx, v in r.items()}
            if any(row_idx not in new_index for row_idx in img):
                raise InvariantError("reduced vector touched a pivot")
            columns[pair][new_index[old]] = {new_index[row_idx]: v for row_idx, v in img.items() if v}
    return FiniteWeightModule(n, field, basis_weight, columns)
