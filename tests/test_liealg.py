"""Matrix-unit Lie algebras, parabolic block data, free Lie dimensions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decatkit import liealg
from decatkit.exactlin import PrimeField
from parabolic_helpers import block_of, borel, merge_adjacent, nilradical_dim_difference, refines


def _pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def test_gl_bracket_matches_matrix_units():
    g = liealg.gl(3)
    # [e_12, e_21] = e_11 - e_22
    assert g.bracket((1, 2), (2, 1)) == {(1, 1): 1, (2, 2): -1}
    # [e_12, e_23] = e_13
    assert g.bracket((1, 2), (2, 3)) == {(1, 3): 1}
    assert g.bracket((1, 2), (3, 1)) == {(3, 2): -1}
    assert g.bracket((1, 1), (1, 1)) == {}


def test_bracket_rejects_foreign_pairs():
    g = borel(3)
    with pytest.raises(KeyError, match="basis pairs"):
        g.bracket((2, 1), (1, 2))


def test_relation_algebra_requires_bracket_closure():
    # e_12 and e_23 bracket to e_13, which is missing here.
    with pytest.raises(ValueError, match="not transitive"):
        liealg.RelationAlgebra(3, [(1, 2), (2, 3)])


def test_subalgebra_dims():
    assert liealg.gl(4).dim == 16
    assert borel(4).dim == 10
    assert liealg.strict_triangular(4).dim == 6
    lower = liealg.strict_triangular(4).opposite()
    assert lower.dim == 6
    assert all(i > j for i, j in lower.pairs)


def test_weight_of_basis_pair():
    g = liealg.gl(3)
    assert g.weight((1, 3)) == (1, 0, -1)
    assert g.weight((2, 2)) == (0, 0, 0)


pair_indices = st.integers(min_value=1, max_value=4)
gl4_pairs = st.tuples(pair_indices, pair_indices)


@given(gl4_pairs, gl4_pairs)
@settings(max_examples=200)
def test_bracket_antisymmetry(a, b):
    g = liealg.gl(4)
    ab = g.bracket(a, b)
    ba = g.bracket(b, a)
    assert ab == {k: -v for k, v in ba.items()}


@given(gl4_pairs, gl4_pairs, gl4_pairs)
@settings(max_examples=200)
def test_bracket_jacobi(a, b, c):
    g = liealg.gl(4)

    def ad(x, table):
        out = {}
        for pair, coeff in table.items():
            for k, v in g.bracket(x, pair).items():
                out[k] = out.get(k, 0) + coeff * v
        return {k: v for k, v in out.items() if v}

    total = {}
    for term in (
        ad(a, g.bracket(b, c)),
        ad(b, g.bracket(c, a)),
        ad(c, g.bracket(a, b)),
    ):
        for k, v in term.items():
            total[k] = total.get(k, 0) + v
    assert all(v == 0 for v in total.values())


@given(gl4_pairs, gl4_pairs)
def test_bracket_weight_additivity(a, b):
    g = liealg.gl(4)
    target = tuple(x + y for x, y in zip(g.weight(a), g.weight(b)))
    for pair in g.bracket(a, b):
        assert g.weight(pair) == target


def test_parabolic_data_blocks():
    par = liealg.ParabolicData((2, 1, 1))
    assert par.n == 4
    assert [block_of(par, i) for i in range(1, 5)] == [0, 0, 1, 2]
    assert par.nilradical().dim == 5
    assert par.nilradical().opposite().dim == 5
    assert par.levi().dim == 6
    assert par.parabolic().dim == 11
    with pytest.raises(ValueError, match="positive"):
        liealg.ParabolicData((2, 0, 1))


def test_parabolic_refinement():
    fine = liealg.ParabolicData((1, 1, 1, 1))
    mid = liealg.ParabolicData((2, 2))
    coarse = liealg.ParabolicData((4,))
    assert refines(fine, mid)
    assert refines(mid, coarse)
    assert refines(fine, coarse)
    assert not refines(mid, fine)
    assert not refines(liealg.ParabolicData((3, 1)), mid)


def _block_of_by_scan(blocks, i):
    acc = 0
    for b, size in enumerate(blocks):
        acc += size
        if i <= acc:
            return b


def _pairs_by_scan(blocks, keep):
    n = sum(blocks)
    return {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if keep(_block_of_by_scan(blocks, i), _block_of_by_scan(blocks, j))
    }


def _refines_by_scan(fine, coarse):
    if sum(fine) != sum(coarse):
        return False
    it = iter(fine)
    for size in coarse:
        acc = 0
        while acc < size:
            try:
                acc += next(it)
            except StopIteration:
                return False
        if acc != size:
            return False
    return True


@st.composite
def compositions(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=n - 1))) if n > 1 else set()
    points = [0, *sorted(cuts), n]
    return tuple(b - a for a, b in zip(points, points[1:]))


@given(compositions())
@settings(max_examples=150)
def test_block_filter_matches_scanning_reference(blocks):
    par = liealg.ParabolicData(blocks)
    assert [block_of(par, i) for i in range(1, par.n + 1)] == [
        _block_of_by_scan(blocks, i) for i in range(1, par.n + 1)
    ]
    for algebra, keep in (
        (par.parabolic(), lambda a, b: a <= b),
        (par.levi(), lambda a, b: a == b),
        (par.nilradical(), lambda a, b: a < b),
    ):
        assert algebra.n == par.n
        assert set(algebra.pairs) == _pairs_by_scan(blocks, keep)
        opposite = algebra.opposite()
        assert opposite.pairs == tuple(sorted((j, i) for i, j in algebra.pairs))
        assert opposite.opposite() == algebra


@given(compositions(), compositions())
@settings(max_examples=300)
def test_refines_matches_scanning_reference(a, b):
    assert refines(liealg.ParabolicData(a), liealg.ParabolicData(b)) == _refines_by_scan(a, b)


@pytest.mark.parametrize("n", range(1, 6))
def test_standard_subalgebras_and_their_opposites(n):
    everything = set(_pairs(n))
    expected = {
        liealg.gl: (everything, everything),
        borel: (
            {(i, j) for i, j in everything if i <= j},
            {(i, j) for i, j in everything if i >= j},
        ),
        liealg.strict_triangular: (
            {(i, j) for i, j in everything if i < j},
            {(i, j) for i, j in everything if i > j},
        ),
    }
    for build, (upper, lower) in expected.items():
        algebra = build(n)
        assert set(algebra.pairs) == upper
        assert set(algebra.opposite().pairs) == lower


def test_merge_adjacent():
    par = liealg.ParabolicData((2, 1, 1))
    assert merge_adjacent(par, 0).blocks == (3, 1)
    assert merge_adjacent(par, 1).blocks == (2, 2)
    with pytest.raises(ValueError, match="no adjacent pair"):
        merge_adjacent(par, 2)


def test_nilradical_dim_difference_counts_cross_positions():
    # Merging adjacent blocks of sizes a and b absorbs an a*b rectangle.
    for blocks, j in (((2, 2), 0), ((1, 3), 0), ((2, 1, 2), 1)):
        par = liealg.ParabolicData(blocks)
        merged = merge_adjacent(par, j)
        expected = blocks[j] * blocks[j + 1]
        assert nilradical_dim_difference(par, merged) == expected
    with pytest.raises(ValueError, match="does not refine"):
        nilradical_dim_difference(
            liealg.ParabolicData((3, 1)), liealg.ParabolicData((2, 2))
        )


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 24)])
def test_free_lie_multilinear_dim(n, expected):
    computed, target = liealg.free_lie_multilinear_dim(n)
    assert computed == target == expected


def test_free_lie_multilinear_dim_mod_p():
    computed, target = liealg.free_lie_multilinear_dim(5, field=PrimeField(101))
    assert computed == target == 24
