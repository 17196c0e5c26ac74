"""Nilpotent cohomology in weight slices, over Q and over F_p.

The alternating-sum oracle used below is independent of the complex
assembly: slice Euler characteristics are recomputed from partition counts
alone and must agree with the cochain dimensions degree by degree.
"""

import itertools
import random

import pytest

from decatkit import cohomology, liealg, verma, weights
from decatkit.exactlin import QQ, PrimeField, SparseMatrix


def test_slice_at_highest_weight_is_h0():
    module = verma.TruncatedVerma(2, (3, 0), 3)
    sl = cohomology.ce_slice(module, (3, 0))
    assert sl.complex.dims == (1, 0)
    assert sl.homology_dims() == {0: 1, 1: 0}


def test_slice_outside_cone_is_empty():
    module = verma.TruncatedVerma(2, (3, 0), 3)
    sl = cohomology.ce_slice(module, (4, 1))
    assert all(d == 0 for d in sl.complex.dims)
    assert all(v == 0 for v in sl.homology_dims().values())


def test_slice_depth_guard_names_required_depth():
    module = verma.TruncatedVerma(2, (2, 0), 1)
    with pytest.raises(ValueError, match="depth >= 2"):
        cohomology.ce_slice(module, (0, 2))
    assert cohomology.slice_required_depth(module, (0, 2)) == 2
    assert cohomology.slice_required_depth(module, (9, 9)) is None
    # Finite modules carry no window, so any slice is exact.
    finite = verma.simple_quotient(2, (2, 0))
    assert cohomology.slice_required_depth(finite, (0, 2)) is None


def test_slice_complexes_square_to_zero():
    module = verma.TruncatedVerma(3, (4, 2, 0), 3)
    for mu in cohomology.slice_candidates(module):
        if cohomology.slice_required_depth(module, mu) <= module.depth:
            cohomology.ce_slice(module, mu).complex.check_complex()


GL2_TABLE = {
    (0, (2, 0)): 1,
    (0, (0, 2)): 1,
    (1, (0, 2)): 1,
}


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_gl2_verma_table_is_depth_stable(depth):
    module = verma.TruncatedVerma(2, (2, 0), depth)
    assert cohomology.cohomology_table(module) == GL2_TABLE


def test_gl2_verma_table_mod_p_matches_rational():
    module = verma.TruncatedVerma(2, (2, 0), 3, PrimeField(7))
    assert cohomology.cohomology_table(module) == GL2_TABLE


def test_slice_euler_matches_partition_count_oracle():
    lam = (4, 2, 0)
    module = verma.TruncatedVerma(3, lam, 3)
    roots = weights.positive_roots(3)
    checked = 0
    for mu in cohomology.slice_candidates(module):
        if cohomology.slice_required_depth(module, mu) > module.depth:
            continue
        sl = cohomology.ce_slice(module, mu)
        lhs = sum((-1 if j % 2 else 1) * d for j, d in enumerate(sl.complex.dims))
        rhs = 0
        for r in range(len(roots) + 1):
            for subset in itertools.combinations(roots, r):
                shifted = tuple(
                    m + sum(root[i] for root in subset) - l
                    for i, (m, l) in enumerate(zip(mu, lam))
                )
                term = weights.kostant_partition(shifted)
                rhs += -term if r % 2 else term
        assert lhs == rhs
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize(
    "n,lam",
    [(1, (4,)), (2, (3, 0)), (2, (5, 2)), (3, (2, 1, 0)), (3, (4, 2, 0))],
)
def test_kostant_pattern_on_simple_quotients(n, lam):
    report = cohomology.kostant_pattern_report(n, lam)
    assert report.matches
    assert report.module_dim == report.expected_dim == verma.weyl_dim(lam)
    expected = {
        (weights.inversions(sigma), weights.apply_perm(sigma, lam)): 1
        for sigma in weights.weyl_elements(n)
    }
    assert report.table == expected


def test_kostant_pattern_total_is_factorial():
    import math

    for n, lam in ((2, (4, 1)), (3, (3, 1, 0))):
        report = cohomology.kostant_pattern_report(n, lam)
        assert sum(report.table.values()) == math.factorial(n)


def test_blocks_pair_nonvanishing_congruent():
    for p in (7, 31):
        rep = cohomology.verify_blocks_vanishing(2, (0, 1), (1, 0), p)
        assert rep.nonvanishing
        assert rep.homology == {0: 1, 1: 1}
        assert rep.block_congruent
        assert rep.root_order_leq
        assert not rep.componentwise_leq
        assert not rep.counterexample


def test_blocks_pair_vanishing_incongruent():
    rep = cohomology.verify_blocks_vanishing(2, (1, 1), (1, 0), 31)
    assert not rep.nonvanishing
    assert not rep.block_congruent
    assert not rep.counterexample


def test_blocks_pair_diagonal():
    rep = cohomology.verify_blocks_vanishing(2, (1, 0), (1, 0), 31)
    assert rep.homology == {0: 1, 1: 0}
    assert rep.block_congruent and rep.componentwise_leq and rep.root_order_leq


def test_blocks_report_serialization_keys():
    doc = cohomology.verify_blocks_vanishing(2, (0, 1), (1, 0), 7).to_json()
    assert doc["a"] == [0, 1] and doc["b"] == [1, 0] and doc["p"] == 7
    assert doc["vanishes"] is False
    assert doc["eblock2"] is True
    assert doc["componentwise_geq"] is False
    assert doc["root_order_leq"] is True
    assert doc["dims"] == [1, 1]


def test_blocks_prebuilt_module_guards():
    module = verma.TruncatedVerma(2, (1, 0), 1, PrimeField(7))
    with pytest.raises(ValueError, match="does not match"):
        cohomology.verify_blocks_vanishing(2, (0, 1), (2, 0), 7, module=module)


def test_blocks_sweep_small():
    sweep = cohomology.blocks_sweep(2, 7, 1)
    assert sweep.pairs == 16
    assert sweep.counterexamples == []
    assert sweep.nonvanishing_pairs == 5
    assert sweep.root_order_always
    assert not sweep.componentwise_always
    for rep in sweep.reports:
        if rep.nonvanishing:
            assert rep.block_congruent


@pytest.mark.parametrize("n", range(1, 7))
def test_positive_roots_line_up_with_strict_upper_pairs(n):
    # The slice skeleton indexes roots and nilpotent basis pairs alike.
    nilpotent = liealg.strict_triangular(n, "upper")
    assert weights.positive_roots(n) == [nilpotent.weight(p) for p in nilpotent.pairs]


def _alternating_sum_slice(module, mu_shifted):
    """Reference for `ce_slice`: every subset, action term and contraction
    term of the alternating-sum formula enumerated afresh for this slice.

    Returns the differentials and the labeled bases.
    """
    n, field = module.n, module.field
    mu = weights.unshift(tuple(mu_shifted))
    nilpotent = liealg.strict_triangular(n, "upper")
    pairs = list(nilpotent.pairs)
    r = len(pairs)
    bases, index, by_subset = [], [], []
    for j in range(r + 1):
        basis_j, groups = [], {}
        for subset in itertools.combinations(range(r), j):
            w = tuple(m + sum(nilpotent.weight(pairs[k])[c] for k in subset) for c, m in enumerate(mu))
            members = module.weight_index.get(w, ())
            groups[subset] = [(m, len(basis_j) + t) for t, m in enumerate(members)]
            basis_j.extend((subset, m) for m in members)
        bases.append(basis_j)
        index.append({key: k for k, key in enumerate(basis_j)})
        by_subset.append(groups)
    action_cols = [module.action(pair).columns() for pair in pairs]
    maps = []
    for j in range(r):
        entries = {}

        def bump(row, col, val):
            new = field.add(entries.get((row, col), field.of(0)), val)
            if field.is_zero(new):
                entries.pop((row, col), None)
            else:
                entries[(row, col)] = new

        for big in itertools.combinations(range(r), j + 1):
            for a, k in enumerate(big):
                sign = field.of(-1 if a % 2 else 1)
                for m, col in by_subset[j][big[:a] + big[a + 1 :]]:
                    for m2, val in action_cols[k].get(m, {}).items():
                        bump(index[j + 1][(big, m2)], col, field.mul(sign, val))
            for a, b in itertools.combinations(range(len(big)), 2):
                rest = tuple(x for t, x in enumerate(big) if t not in (a, b))
                for z, c in nilpotent.bracket(pairs[big[a]], pairs[big[b]]).items():
                    s = pairs.index(z)
                    if s in rest:
                        continue
                    small = tuple(sorted(rest + (s,)))
                    total = field.of((-1) ** (a + b + small.index(s)) * c)
                    for m, col in by_subset[j][small]:
                        bump(index[j + 1][(big, m)], col, total)
        maps.append(SparseMatrix(len(bases[j + 1]), len(bases[j]), entries))
    return maps, bases


def _assert_slice_matches_reference(module, mu):
    sl = cohomology.ce_slice(module, mu)
    maps, bases = _alternating_sum_slice(module, mu)
    assert sl.bases == bases
    assert sl.complex.dims == tuple(len(b) for b in bases)
    assert list(sl.complex.maps) == maps


@pytest.mark.parametrize("simple", [False, True], ids=["verma", "simple"])
def test_ce_slice_matches_alternating_sum_on_gl3(simple):
    lam = (4, 2, 0)
    module = verma.simple_quotient(3, lam) if simple else verma.TruncatedVerma(3, lam, 6)
    # slice_candidates against the sum over all 2^r root subsets, too.
    roots = weights.positive_roots(3)
    expected = {
        weights.shift(tuple(x - sum(root[c] for root in subset) for c, x in enumerate(w)))
        for w in module.weight_index
        for r in range(len(roots) + 1)
        for subset in itertools.combinations(roots, r)
    }
    candidates = cohomology.slice_candidates(module)
    assert candidates == expected
    checked = 0
    for mu in sorted(candidates):
        required = cohomology.slice_required_depth(module, mu)
        if required is not None and required > module.depth:
            continue
        _assert_slice_matches_reference(module, mu)
        checked += 1
    assert checked >= 15


def test_ce_slice_matches_alternating_sum_on_gl4_blocks_pairs():
    grid = list(itertools.product(range(3), repeat=4))
    below = [(a, b) for a in grid for b in grid if weights.root_order_leq(a, b)]
    for t, (a, b) in enumerate(random.Random(4).sample(below, 20)):
        depth = weights.root_height(tuple(x - y for x, y in zip(b, a)))
        module = verma.TruncatedVerma(4, b, depth, PrimeField(5 if t % 2 else 37))
        _assert_slice_matches_reference(module, a)


def test_ce_slice_makes_no_bracket_call_once_skeleton_and_columns_exist(monkeypatch):
    module = verma.TruncatedVerma(3, (4, 2, 0), 4, PrimeField(31))
    first = cohomology.ce_slice(module, (3, 2, 1))
    calls = []
    original = liealg.RelationAlgebra.bracket

    def counting(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(liealg.RelationAlgebra, "bracket", counting)
    assert cohomology.ce_slice(module, (3, 2, 1)).bases == first.bases
    cohomology.ce_slice(module, (2, 2, 2))
    assert calls == []
