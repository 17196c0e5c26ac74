"""Truncated highest-weight modules and their characters.

The straightening action is only stored inside a finite window of lowering
depth D, so every assertion here either stays inside the window or checks
that the spill is confined to lowering generators at the edge.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decatkit import liealg, verma, weights
from decatkit.exactlin import QQ, PrimeField, SparseMatrix


def test_lowering_generators_order():
    assert verma.lowering_generators(2) == [(2, 1)]
    assert verma.lowering_generators(3) == [(2, 1), (3, 1), (3, 2)]
    assert verma.generator_height((3, 1)) == 2
    assert verma.generator_height((1, 3)) == -2


def test_constructor_guards():
    with pytest.raises(ValueError, match="not length"):
        verma.TruncatedVerma(2, (3, 0, 0), 2)
    with pytest.raises(ValueError, match="nonnegative"):
        verma.TruncatedVerma(2, (3, 0), -1)


def test_gl2_window_dims():
    m = verma.TruncatedVerma(2, (3, 0), 5)
    assert m.dim == 6
    assert m.weight_dims() == {
        (3, 0): 1,
        (2, 1): 1,
        (1, 2): 1,
        (0, 3): 1,
        (-1, 4): 1,
        (-2, 5): 1,
    }


def test_gl3_window_dim_and_brackets():
    m = verma.TruncatedVerma(3, (4, 2, 0), 4)
    assert m.dim == 22
    assert m.bracket_violations() == []
    # bracket_violations materializes every generator action, so the losses
    # list is now complete; only lowering generators may spill past the edge.
    assert m.truncation_losses
    assert all(i > j for (i, j), _ in m.truncation_losses)


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_sl2_string_coefficients(ell_bar_minus_one, base, depth):
    """e f^m v = m(ell_bar - m) f^(m-1) v on the gl_2 string, where ell_bar
    is the gap between the shifted coordinates."""
    ell_bar = ell_bar_minus_one + 1
    lam = (base + ell_bar, base)
    module = verma.TruncatedVerma(2, lam, depth)
    raise_m = module.action((1, 2))
    for m in range(1, depth + 1):
        image = raise_m.columns().get(module.basis_index[(m,)], {})
        coeff = m * (ell_bar - m)
        if coeff == 0:
            assert image == {}
        else:
            assert image == {module.basis_index[(m - 1,)]: coeff}


def test_cartan_action_is_diagonal_with_unshifted_weights():
    module = verma.TruncatedVerma(2, (3, 0), 3)
    h1 = module.action((1, 1))
    for k, w in enumerate(module.basis_weight):
        col = h1.columns().get(k, {})
        assert col == ({k: w[0]} if w[0] else {})


def test_verma_character_matches_module_and_kostant():
    lam = (4, 2, 0)
    ch = verma.verma_character(3, lam, 3)
    module = verma.TruncatedVerma(3, lam, 3)
    assert ch == module.weight_dims()
    for mu, dim in ch.items():
        diff = tuple(m - l for m, l in zip(mu, lam))
        assert dim == weights.kostant_partition(diff)


def test_coverma_borel_agrees_with_verma():
    par = liealg.ParabolicData((1, 1, 1))
    lam = (3, 1, 0)
    assert verma.coverma_character(par, {lam: 1}, 3) == verma.verma_character(3, lam, 3)


def test_coverma_same_side_runs_upward():
    par = liealg.ParabolicData((1, 1))
    ch = verma.coverma_character(par, {(3, 0): 1}, 2, nilradical_side="same")
    assert ch == {(3, 0): 1, (4, -1): 1, (5, -2): 1}
    with pytest.raises(ValueError, match="nilradical_side"):
        verma.coverma_character(par, {(3, 0): 1}, 2, nilradical_side="down")


def test_coverma_parabolic_standard_levi_block():
    # gl_3 with blocks (2, 1); levi module = standard rep of the gl_2 block.
    par = liealg.ParabolicData((2, 1))
    levi = {(1, 0, 0): 1, (0, 1, 0): 1}
    ch = verma.coverma_character(par, levi, 2)
    assert ch == {
        (1, 0, 0): 1,
        (0, 1, 0): 1,
        (0, 0, 1): 2,
        (1, -1, 1): 1,
        (-1, 1, 1): 1,
        (1, -2, 2): 1,
        (0, -1, 2): 1,
    }


@pytest.mark.parametrize(
    "lam,expected",
    [
        ((1, 0), 1),
        ((2, 0), 2),
        ((3, 0), 3),
        ((2, 1, 0), 1),
        ((3, 1, 0), 3),
        ((4, 2, 0), 8),
        ((5, 3, 1), 8),
        ((4, 3, 2, 1), 1),
    ],
)
def test_weyl_dim(lam, expected):
    assert verma.weyl_dim(lam) == expected


def test_weyl_dim_vanishes_on_singular_weights():
    assert verma.weyl_dim((2, 2)) == 0
    assert verma.weyl_dim((3, 1, 1)) == 0


def test_simple_quotient_requires_regular_dominant():
    with pytest.raises(ValueError, match="strictly decreasing"):
        verma.simple_quotient(2, (2, 2))
    with pytest.raises(ValueError, match="strictly decreasing"):
        verma.simple_quotient(2, (0, 3))


@pytest.mark.parametrize("lam", [(2, 0), (4, 1), (2, 1, 0), (4, 2, 0)])
def test_simple_quotient_dim_matches_product_formula(lam):
    q = verma.simple_quotient(len(lam), lam)
    assert q.dim == verma.weyl_dim(lam)


def test_simple_quotient_gl2_string():
    q = verma.simple_quotient(2, (4, 0), QQ)
    assert q.dim == 4
    assert sorted(q.weight_dims()) == [(1, 3), (2, 2), (3, 1), (4, 0)]
    assert all(d == 1 for d in q.weight_dims().values())


def test_simple_quotient_mod_p():
    q = verma.simple_quotient(3, (4, 2, 0), PrimeField(31))
    assert q.dim == 8


@pytest.mark.parametrize("ell", [0, 1, 3, 10])
def test_gl2_parabolic_induction(ell):
    report = verma.gl2_parabolic_induction_dim(ell, 31)
    assert report.dim == report.expected == ell + 1
    assert report.x_powers == list(range(ell + 1))


def test_action_rejects_foreign_generator():
    module = verma.TruncatedVerma(2, (3, 0), 2)
    with pytest.raises(ValueError, match="outside"):
        module.action((3, 1))


def test_raising_and_cartan_preserve_window_exactly():
    # Raising operators decrease depth and the Cartan fixes it, so neither
    # can lose terms; every recorded loss must come from a lowering pair.
    module = verma.TruncatedVerma(3, (3, 1, 0), 2)
    module.bracket_violations()
    for (i, j), _ in module.truncation_losses:
        assert i > j


def _bubble_action(module, pair):
    """Reference for `action`: e_pair times each basis vector, normal-ordered
    by adjacent swaps x y -> y x + [x, y], restarting after every swap.

    Returns the matrix and the (pair, column) truncation losses, in column
    order: a column is lost when some term leaves the depth window.
    """
    gl = liealg.gl(module.n)
    gens = module.gens_low

    def key(p):
        i, j = p
        return (0, gens.index(p)) if i > j else (1, i) if i == j else (2, p)

    triples, losses = [], []
    for col, mono in enumerate(module.basis):
        word = (pair,) + tuple(g for m, g in zip(mono, gens) for _ in range(m))
        out, lost = {}, False
        stack = [(word, 1)]
        while stack:
            w, c = stack.pop()
            for a in range(len(w) - 1):
                if key(w[a]) > key(w[a + 1]):
                    x, y = w[a], w[a + 1]
                    stack.append((w[:a] + (y, x) + w[a + 2 :], c))
                    for z, cz in gl.bracket(x, y).items():
                        stack.append((w[:a] + (z,) + w[a + 2 :], c * cz))
                    break
            else:
                coeff, exps, alive = c, [0] * len(gens), True
                for i, j in reversed(w):
                    if i < j:
                        alive = False
                        break
                    if i == j:
                        coeff *= module.lam[i - 1]
                    else:
                        exps[gens.index((i, j))] += 1
                if not alive or coeff == 0:
                    continue
                target = tuple(exps)
                if module.monomial_depth(target) > module.depth:
                    lost = True
                    continue
                out[target] = out.get(target, 0) + coeff
        if lost:
            losses.append((pair, col))
        for target, coeff in out.items():
            v = module.field.of(coeff)
            if not module.field.is_zero(v):
                triples.append((module.basis_index[target], col, v))
    return SparseMatrix.from_triples(module.dim, module.dim, triples), losses


@pytest.mark.parametrize(
    "lam,depth",
    [((3, 0), 6), ((1, 4), 6), ((4, 2, 0), 6), ((1, 3, 0), 5), ((3, 2, 1, 0), 6), ((5, 1, 3, 0), 5)],
)
@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_action_matches_bubble_normal_ordering(lam, depth, field):
    n = len(lam)
    module = verma.TruncatedVerma(n, lam, depth, field)
    losses = []
    for pair in liealg.gl(n).pairs:
        expected, lost = _bubble_action(module, pair)
        assert module.action(pair) == expected, pair
        losses += lost
    assert module.truncation_losses == losses
