"""Nilpotent cohomology in weight slices, over Q and over F_p.

The alternating-sum oracle used below is independent of the complex
assembly: slice Euler characteristics are recomputed from partition counts
alone and must agree with the cochain dimensions degree by degree.
"""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decatkit import cli, cohomology, liealg, verma, weights
from decatkit.exactlin import QQ, ComplexError, FiniteComplex, PrimeField, SparseMatrix
from verma_reference import CRITERION_WEIGHTS, reference_simple_quotient, small_regular_dominant


def slice_candidates(module):
    """Shifted weights where some cochain space of the module is nonzero: a
    module weight minus the sum of a subset of the positive roots."""
    roots = weights.positive_roots(module.n)
    return {
        weights.shift(tuple(x - sum(root[c] for root in subset) for c, x in enumerate(w)))
        for w in module.weight_index
        for r in range(len(roots) + 1)
        for subset in itertools.combinations(roots, r)
    }


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
    for mu in slice_candidates(module):
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
    for mu in slice_candidates(module):
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
    for n, lam in ((2, (4, 1)), (3, (3, 1, 0))):
        report = cohomology.kostant_pattern_report(n, lam)
        assert sum(report.table.values()) == math.factorial(n)


@pytest.mark.parametrize("lam", CRITERION_WEIGHTS)
@pytest.mark.parametrize("field", [QQ, PrimeField(31)], ids=["Q", "F31"])
def test_simple_module_table_matches_reference(lam, field):
    n = len(lam)
    table = cohomology.cohomology_table(verma.simple_quotient(n, lam, field))
    assert table == cohomology.cohomology_table(reference_simple_quotient(n, lam, field))


@given(small_regular_dominant(), st.sampled_from([QQ, PrimeField(31)]))
@settings(max_examples=15, deadline=None)
def test_simple_module_table_matches_reference_on_drawn_weights(case, field):
    n, lam = case
    table = cohomology.cohomology_table(verma.simple_quotient(n, lam, field))
    assert table == cohomology.cohomology_table(reference_simple_quotient(n, lam, field))


def test_gl5_spread_pattern_over_f1031():
    # 120 classes on a 40-dimensional module: about 2 s on a 2-core CPython
    # 3.11 VM, against 3.3 s when every slice was its own complex.
    report = cohomology.kostant_pattern_report(5, (6, 4, 2, 1, 0), PrimeField(1031))
    assert report.matches
    assert report.module_dim == report.expected_dim == 40
    assert sum(report.table.values()) == 120


@pytest.mark.parametrize(
    "n,lam,field",
    [(4, (5, 3, 1, 0), QQ), (5, (4, 3, 2, 1, 0), PrimeField(1031))],
    ids=["gl4-Q", "gl5-F1031"],
)
def test_kostant_pattern_beyond_the_verma_window(n, lam, field):
    # Out of reach while the simple module was a Verma-window quotient.
    report = cohomology.kostant_pattern_report(n, lam, field)
    assert report.matches
    assert report.module_dim == verma.weyl_dim(lam)
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


def test_blocks_report_serialization_keys(tmp_path):
    out = tmp_path / "blocks.json"
    argv = ["blocks", "--n", "2", "--p", "7", "--a", "0,1", "--b", "1,0", "--allow-small-p", "--out", str(out)]
    assert cli.run(argv) == 0
    doc = json.loads(out.read_text())["report"]
    assert doc["a"] == [0, 1] and doc["b"] == [1, 0] and doc["p"] == 7
    assert doc["vanishes"] is False
    assert doc["eblock2"] is True
    assert doc["componentwise_geq"] is False
    assert doc["root_order_leq"] is True
    assert doc["dims"] == [1, 1]


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
    nilpotent = liealg.strict_triangular(n)
    assert weights.positive_roots(n) == [nilpotent.weight(p) for p in nilpotent.pairs]


def _alternating_sum_slice(module, mu_shifted):
    """Reference for `ce_slice`: every subset, action term and contraction
    term of the alternating-sum formula enumerated afresh for this slice.

    Returns the differentials and the labeled bases.
    """
    n, field = module.n, module.field
    mu = weights.unshift(tuple(mu_shifted))
    nilpotent = liealg.strict_triangular(n)
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
    action_cols = [{m: module.column(pair, m) for m in range(module.dim)} for pair in pairs]
    maps = []
    for j in range(r):
        entries = {}

        def bump(row, col, val):
            new = field.of(entries.get((row, col), field.of(0)) + val)
            if not new:
                entries.pop((row, col), None)
            else:
                entries[(row, col)] = new

        for big in itertools.combinations(range(r), j + 1):
            for a, k in enumerate(big):
                sign = field.of(-1 if a % 2 else 1)
                for m, col in by_subset[j][big[:a] + big[a + 1 :]]:
                    for m2, val in action_cols[k].get(m, {}).items():
                        bump(index[j + 1][(big, m2)], col, field.of(sign * val))
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
    checked = 0
    for mu in sorted(slice_candidates(module)):
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
    # A slice builds only the raising columns of its own weight spaces, so
    # warming (3, 2, 1) leaves columns of (2, 2, 2) unbuilt; once every
    # raising column exists, no slice needs a bracket.
    module = verma.TruncatedVerma(3, (4, 2, 0), 4, PrimeField(31))
    first = cohomology.ce_slice(module, (3, 2, 1))
    for pair in liealg.strict_triangular(3).pairs:
        for col in range(module.dim):
            module.column(pair, col)
    calls = []
    original = liealg.RelationAlgebra.bracket

    def counting(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(liealg.RelationAlgebra, "bracket", counting)
    assert cohomology.ce_slice(module, (3, 2, 1)).bases == first.bases
    cohomology.ce_slice(module, (2, 2, 2))
    assert calls == []


def _direct_report(n, a, b, p, depth):
    sl = cohomology.ce_slice(verma.TruncatedVerma(n, b, depth, PrimeField(p)), a)
    return sl.complex.dims, sl.homology_dims()


@pytest.mark.parametrize("n,max_entry", [(2, 3), (3, 2)])
def test_blocks_sweep_reports_equal_direct_slices(n, max_entry):
    grid = list(itertools.product(range(max_entry + 1), repeat=n))
    sweep = cohomology.blocks_sweep(n, 31, max_entry)
    assert len(sweep.reports) == len(grid) ** 2
    outside = 0
    for rep in sweep.reports:
        ht = weights.root_height(tuple(x - y for x, y in zip(rep.b, rep.a)))
        outside += ht is None
        # Outside the root cone any window is exact; take a deep one.
        depth = ht if ht is not None else max_entry * n
        assert (rep.cochain_dims, rep.homology) == _direct_report(n, rep.a, rep.b, 31, depth)
    assert outside > len(sweep.reports) // 2


def test_blocks_pairs_outside_root_cone_build_no_slice(monkeypatch):
    grid = list(itertools.product(range(3), repeat=4))
    outside = [(a, b) for a in grid for b in grid if not weights.root_order_leq(a, b)]
    pairs = random.Random(10).sample(outside, 20)
    expected = {(a, b): _direct_report(4, a, b, 37, 4) for a, b in pairs}

    def refuse(*args, **kwargs):
        raise AssertionError("a pair outside the root cone built a module or a slice")

    monkeypatch.setattr(cohomology, "ce_slice", refuse)
    monkeypatch.setattr(cohomology, "TruncatedVerma", refuse)
    for a, b in pairs:
        rep = cohomology.verify_blocks_vanishing(4, a, b, 37)
        assert (rep.cochain_dims, rep.homology) == expected[a, b]
        assert rep.cochain_dims == (0,) * 7 and not rep.nonvanishing and not rep.root_order_leq


def _per_slice_table(module):
    """Reference for `cohomology_table`: one `ce_slice` and its own
    `homology_dims` for every kept slice, in sorted order."""
    out = {}
    for mu in sorted(slice_candidates(module)):
        required = cohomology.slice_required_depth(module, mu)
        if module.depth is not None and (required is None or required > module.depth):
            continue
        for deg, dim in cohomology.ce_slice(module, mu).homology_dims().items():
            if dim:
                out[(deg, mu)] = dim
    return out


# The truncated modules of acceptance criterion 3.
CRITERION_WINDOWS = [(1, (2,), 4), (2, (3, 0), 4), (2, (4, 1), 3), (3, (4, 2, 0), 4), (3, (3, 1, 0), 3)]


@pytest.mark.parametrize("field", [QQ, PrimeField(31)], ids=["Q", "F31"])
def test_table_equals_per_slice_on_criterion_modules(field):
    modules = [verma.TruncatedVerma(n, lam, depth, field) for n, lam, depth in CRITERION_WINDOWS]
    modules += [verma.simple_quotient(len(lam), lam, field) for lam in CRITERION_WEIGHTS]
    modules.append(verma.TruncatedVerma(4, (4, 2, 1, 0), 6, field))
    for module in modules:
        assert list(cohomology.cohomology_table(module).items()) == list(_per_slice_table(module).items())


def test_every_slice_homology_is_one_finite_complex(monkeypatch):
    ranked = []
    real = FiniteComplex.homology_dims

    def counting(self):
        ranked.append(self.dims)
        return real(self)

    monkeypatch.setattr(FiniteComplex, "homology_dims", counting)
    n, lam, depth = CRITERION_WINDOWS[3]
    module = verma.TruncatedVerma(n, lam, depth, PrimeField(31))
    kept = [mu for mu in slice_candidates(module) if cohomology.slice_required_depth(module, mu) <= depth]
    cohomology.cohomology_table(module)
    assert len(ranked) == len(kept) > 1
    ranked.clear()
    grid = list(itertools.product(range(3), repeat=3))
    cohomology.blocks_sweep(3, 31, 2)
    assert len(ranked) == sum(weights.root_order_leq(a, b) for a in grid for b in grid)


@pytest.mark.parametrize(
    "n,max_entry,field",
    [(3, 3, QQ), (3, 3, PrimeField(31)), (4, 2, PrimeField(37))],
    ids=["gl3-Q", "gl3-F31", "gl4-F37"],
)
def test_slice_complex_is_invariant_under_the_diagonal_shift(n, max_entry, field):
    # ce_slice at (a + (1,...,1), b + (1,...,1)) is the complex at (a, b):
    # the same cochain dims and the same map entries.
    grid = list(itertools.product(range(max_entry + 1), repeat=n))
    pairs = [(a, b) for b in grid for a in grid if weights.root_order_leq(a, b)]
    assert len(pairs) == {3: 292, 4: 509}[n]

    def complex_at(a, b):
        depth = weights.root_height(tuple(y - x for x, y in zip(a, b)))
        return cohomology.ce_slice(verma.TruncatedVerma(n, b, depth, field), a).complex

    for a, b in pairs:
        cx = complex_at(a, b)
        moved = complex_at(tuple(x + 1 for x in a), tuple(y + 1 for y in b))
        assert moved.dims == cx.dims
        assert [m.entries for m in moved.maps] == [m.entries for m in cx.maps]


# Doubling one entry of e_12 on the monomial (0, 1, 0) below (2, 1, 0)
# breaks d squared = 0 in the slice at (0, 1, 2).
BENT_WEIGHT, BENT_PAIR, BENT_MONOMIAL, BENT_SLICE = (2, 1, 0), (1, 2), (0, 1, 0), (0, 1, 2)


def test_perturbed_raising_column_raises_in_the_table():
    module = verma.TruncatedVerma(3, BENT_WEIGHT, 4, PrimeField(31))
    column = module.column(BENT_PAIR, module.basis.index(BENT_MONOMIAL))
    row = min(column)
    column[row] = 2 * column[row] % 31  # the module's memo holds this column
    with pytest.raises(ComplexError):
        cohomology.ce_slice(module, BENT_SLICE).homology_dims()
    with pytest.raises(ComplexError):
        cohomology.cohomology_table(module)


def test_perturbed_raising_column_raises_in_the_sweep(monkeypatch):
    real = verma.TruncatedVerma._build_column

    def bent(self, pair, col):
        out = real(self, pair, col)
        if (self.lam_shifted, pair, self.basis[col]) == (BENT_WEIGHT, BENT_PAIR, BENT_MONOMIAL):
            row = min(out)
            out = {**out, row: 2 * out[row]}
        return out

    monkeypatch.setattr(verma.TruncatedVerma, "_build_column", bent)
    with pytest.raises(ComplexError):
        cohomology.verify_blocks_vanishing(3, BENT_SLICE, BENT_WEIGHT, 31)
    with pytest.raises(ComplexError):
        cohomology.blocks_sweep(3, 31, 2)
