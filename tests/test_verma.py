"""Truncated highest-weight modules and their characters.

The straightening action is only stored inside a finite window of lowering
depth D, so every assertion here either stays inside the window or checks
that the spill is confined to lowering generators at the edge.
"""

import functools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebra_helpers import add, scaled
from decatkit import liealg, verma, weights
from decatkit.exactlin import QQ, InvariantError, PrimeField, SparseMatrix
from verma_reference import CRITERION_WEIGHTS, reference_simple_quotient, small_regular_dominant, weight_dims

FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(31)], ids=["Q", "F31"])


def _depth(module, mono):
    """Root height of a monomial's weight drop, for a module of gl_n."""
    return sum(m * verma.generator_height(g) for m, g in zip(mono, verma.lowering_generators(module.n)))


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
    assert weight_dims(m) == {
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
    # bracket_violations reads columns and builds no action matrix; once
    # every generator's action is built the losses list is complete, and
    # only lowering generators may spill past the edge.
    assert m._action_cache == {} and m.truncation_losses == []
    for pair in liealg.gl(3).pairs:
        m.action(pair)
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
        image = raise_m.columns().get(module.basis.index((m,)), {})
        coeff = m * (ell_bar - m)
        if coeff == 0:
            assert image == {}
        else:
            assert image == {module.basis.index((m - 1,)): coeff}


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
    assert ch == weight_dims(module)
    for mu, dim in ch.items():
        diff = tuple(m - l for m, l in zip(mu, lam))
        assert dim == weights.kostant_partition(diff)


def test_coverma_borel_agrees_with_verma():
    par = liealg.ParabolicData((1, 1, 1))
    lam = (3, 1, 0)
    assert verma.coverma_character(par, {lam: 1}, 3) == weight_dims(verma.TruncatedVerma(3, lam, 3))


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


@pytest.mark.parametrize(
    "lam", [(2, 0), (4, 1), (2, 1, 0), (4, 2, 0), (7, 2, 0), (5, 3, 1, 0), (6, 4, 2, 1, 0), (9, 6, 4, 1, 0)]
)
def test_simple_quotient_dim_matches_product_formula(lam):
    q = verma.simple_quotient(len(lam), lam)
    assert q.dim == verma.weyl_dim(lam)


def test_simple_quotient_gl2_string():
    q = verma.simple_quotient(2, (4, 0), QQ)
    assert q.dim == 4
    assert sorted(weight_dims(q)) == [(1, 3), (2, 2), (3, 1), (4, 0)]
    assert all(d == 1 for d in weight_dims(q).values())


def test_simple_quotient_mod_p():
    q = verma.simple_quotient(3, (4, 2, 0), PrimeField(31))
    assert q.dim == 8


def test_simple_quotient_large_prime_guard():
    # The spread of (4, 2, 0) is 4: p must exceed it.
    with pytest.raises(ValueError, match="large-prime hypothesis"):
        verma.simple_quotient(3, (4, 2, 0), PrimeField(3))
    for p in (5, 31):
        assert verma.simple_quotient(3, (4, 2, 0), PrimeField(p)).dim == 8


@pytest.mark.parametrize("lam", CRITERION_WEIGHTS)
@FIELDS
def test_simple_quotient_character_matches_reference(lam, field):
    module = verma.simple_quotient(len(lam), lam, field)
    assert weight_dims(module) == weight_dims(reference_simple_quotient(len(lam), lam, field))


@given(small_regular_dominant(), st.sampled_from([QQ, PrimeField(31)]))
@settings(max_examples=25, deadline=None)
def test_simple_quotient_character_matches_reference_on_drawn_weights(case, field):
    n, lam = case
    assert weight_dims(verma.simple_quotient(n, lam, field)) == weight_dims(reference_simple_quotient(n, lam, field))


def _bracket_defects(module):
    """Pairs (x, y) where [A_x, A_y] differs from the matrix of [e_x, e_y],
    with each A assembled from the module's columns."""
    gl = liealg.gl(module.n)
    mats = {
        pair: SparseMatrix.from_triples(
            module.dim,
            module.dim,
            [(row, col, v) for col in range(module.dim) for row, v in module.column(pair, col).items()],
        )
        for pair in gl.pairs
    }
    bad = []
    for x in gl.pairs:
        for y in gl.pairs:
            diff = add(mats[x] @ mats[y], scaled(mats[y] @ mats[x], -1))
            for z, c in gl.bracket(x, y).items():
                diff = add(diff, scaled(mats[z], -c))
            if any(map(module.field.of, diff.entries.values())):
                bad.append((x, y))
    return bad


@pytest.mark.parametrize(
    "lam", [(4, 2, 0), (6, 3, 0), (2, 1, 0, -2), (4, 2, 1, 0), (5, 3, 1, 0), (5, 3, 2, 1, 0), (5, 4, 2, 1, 0)]
)
@FIELDS
def test_simple_quotient_brackets_hold_exactly(lam, field):
    module = verma.simple_quotient(len(lam), lam, field)
    assert module.dim <= 30
    assert module.bracket_violations() == []
    assert _bracket_defects(module) == []
    # Exact scalars only: ints and Fractions over Q, residues over F_p.
    for pair in liealg.gl(module.n).pairs:
        for col in range(module.dim):
            for v in module.column(pair, col).values():
                if field.p is None:
                    assert type(v) in (int, Fraction) and v
                else:
                    assert type(v) is int and 0 < v < field.p


def test_bracket_violations_report_a_flipped_pattern_coefficient():
    module = verma.simple_quotient(3, (4, 2, 0))
    column = next(column for column in module._columns[2, 3].values() if column)
    row = next(iter(column))
    column[row] = -column[row]
    bad = module.bracket_violations()
    assert bad and len(bad) == len(set(bad))


def test_bracket_violations_report_a_corrupted_window_column(monkeypatch):
    # Columns live in the table shared by every module of gl_3; setitem puts
    # the table's entry back after the test.
    module = verma.TruncatedVerma(3, (4, 2, 0), 4)
    table = verma._pbw_table(3)
    ((row, form),) = table.column((2, 1), 0).items()
    monkeypatch.setitem(table.columns[2, 1], 0, {row: tuple(2 * c for c in form)})
    assert module.column((2, 1), 0) == {row: 2}
    bad = module.bracket_violations()
    assert bad and len(bad) == len(set(bad))
    assert module._action_cache == {}


@given(small_regular_dominant())
@settings(max_examples=30, deadline=None)
def test_simple_quotient_character_is_kostant_multiplicity(case):
    """mult(mu) = sum over w of sign(w) P(w.lambda - mu); in shifted
    coordinates w.lambda - mu is w(lambda') - mu'."""
    n, lam = case
    character = weight_dims(verma.simple_quotient(n, lam))
    for mu, dim in character.items():
        expected = sum(
            (-1) ** weights.inversions(sigma)
            * weights.kostant_partition(tuple(m - x for m, x in zip(mu, weights.apply_perm(sigma, lam))))
            for sigma in weights.weyl_elements(n)
        )
        assert dim == expected, mu
    assert sum(character.values()) == verma.weyl_dim(lam)


@pytest.mark.parametrize("ell", [0, 1, 3, 10])
def test_gl2_parabolic_induction(ell):
    report = verma.gl2_parabolic_induction_dim(ell, 31)
    assert report.dim == report.expected == ell + 1
    assert report.x_powers == list(range(ell + 1))


def test_action_rejects_foreign_generator():
    # Through `column` too, which both module kinds hand their action out by.
    module = verma.TruncatedVerma(2, (3, 0), 4)
    for kind in (module, verma.simple_quotient(2, (3, 0))):
        for pair in ((0, 1), (3, 1)):
            with pytest.raises(ValueError, match="outside gl_2"):
                kind.column(pair, 0)
        # A basis index outside 0..dim-1 is refused, never read as {} or
        # counted from the end.
        for col in (-1, kind.dim, 99):
            with pytest.raises(IndexError, match=r"outside 0\.\."):
                kind.column((1, 2), col)
    for pair in ((0, 1), (3, 1)):
        with pytest.raises(ValueError, match="outside gl_2"):
            module.action(pair)
    # Every column of e_31 lies past the edge of a depth-0 window, so action
    # builds none of them and must check the generator itself.
    with pytest.raises(ValueError, match="outside gl_2"):
        verma.TruncatedVerma(2, (3, 0), 0).action((3, 1))


def test_raising_and_cartan_preserve_window_exactly():
    # Raising operators decrease depth and the Cartan fixes it, so neither
    # can lose terms; every recorded loss must come from a lowering pair.
    module = verma.TruncatedVerma(3, (3, 1, 0), 2)
    for pair in liealg.gl(3).pairs:
        module.action(pair)
    assert module.truncation_losses
    for (i, j), _ in module.truncation_losses:
        assert i > j


def _bubble_action(module, pair):
    """Reference for `action`: e_pair times each basis vector, normal-ordered
    by adjacent swaps x y -> y x + [x, y], restarting after every swap.

    Returns the matrix and the (pair, column) truncation losses, in column
    order: a column is lost when some term leaves the depth window.
    """
    gl = liealg.gl(module.n)
    gens = verma.lowering_generators(module.n)
    index = {mono: k for k, mono in enumerate(module.basis)}

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
                if _depth(module, target) > module.depth:
                    lost = True
                    continue
                out[target] = out.get(target, 0) + coeff
        if lost:
            losses.append((pair, col))
        for target, coeff in out.items():
            if v := module.field.of(coeff):
                triples.append((index[target], col, v))
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


@pytest.mark.parametrize("lam,depth", [((4, 2, 0), 6), ((7, 1, 0), 5), ((3, 2, 1, 0), 5), ((6, 1, 3, 0), 4)])
@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_column_on_demand_matches_action_columns(lam, depth, field):
    n = len(lam)
    module = verma.TruncatedVerma(n, lam, depth, field)
    reference = verma.TruncatedVerma(n, lam, depth, field)
    pairs = liealg.gl(n).pairs
    # Raising and Cartan columns all stay in the window; lowering ones only
    # below its edge, and `action` builds no other column.
    depths = [_depth(module, mono) for mono in module.basis]
    window = {pair: [c for c, d in enumerate(depths) if d + verma.generator_height(pair) <= depth] for pair in pairs}
    for pair in pairs:
        for col in reversed(window[pair]):
            module.column(pair, col)
    # Reading columns builds no action matrix.
    assert module._action_cache == {} and module.truncation_losses == []
    for pair in pairs:
        cols = reference.action(pair).columns()
        assert {col: module.column(pair, col) for col in window[pair] if module.column(pair, col)} == cols


def test_action_leaves_every_in_window_column_built(monkeypatch):
    # `action` and `column` read one table, so after all nine actions no
    # column read needs a bracket.
    module = verma.TruncatedVerma(3, (4, 2, 0), 4)
    for pair in liealg.gl(3).pairs:
        module.action(pair)
    calls = []
    original = liealg.RelationAlgebra.bracket

    def counting(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(liealg.RelationAlgebra, "bracket", counting)
    for pair in liealg.gl(3).pairs:
        for col, mono in enumerate(module.basis):
            if _depth(module, mono) + verma.generator_height(pair) <= module.depth:
                module.column(pair, col)
    assert calls == []


def test_column_on_demand_covers_entries_that_vanish_mod_p():
    # Over Q these raising columns carry multiples of 5, which F_5 must drop
    # exactly as `action` does.
    for lam, depth in (((7, 1, 0), 5), ((6, 1, 3, 0), 4)):
        n = len(lam)
        rational = verma.TruncatedVerma(n, lam, depth)
        mod5 = verma.TruncatedVerma(n, lam, depth, PrimeField(5))
        vanishing = [
            (pair, col, row)
            for pair in liealg.strict_triangular(n).pairs
            for col in range(rational.dim)
            for row, v in rational.column(pair, col).items()
            if v % 5 == 0
        ]
        assert vanishing
        for pair, col, row in vanishing:
            assert row not in mod5.column(pair, col)
            assert row not in mod5.action(pair).columns().get(col, {})


def test_column_on_demand_refuses_to_leave_the_window():
    module = verma.TruncatedVerma(3, (4, 2, 0), 2)
    top = module.dim - 1
    assert _depth(module, module.basis[top]) == 2
    with pytest.raises(ValueError, match="out of the depth window"):
        module.column((3, 1), top)
    assert module.column((2, 1), 0) == module.action((2, 1)).columns()[0]


def _in_window_columns(module, pair):
    """{col: column} of e_pair for every basis vector it keeps in the window,
    leaving out zero columns, as `SparseMatrix.columns` does."""
    height = verma.generator_height(pair)
    cols = {col: module.column(pair, col) for col in range(module.dim) if module._fits(col, height)}
    return {col: column for col, column in cols.items() if column}


_DRAWN_MODULE = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(min_value=-2, max_value=5), min_size=n, max_size=n).map(tuple),
        st.integers(min_value=0, max_value=5 if n < 4 else 3),
        st.sampled_from([QQ, PrimeField(5), PrimeField(31)]),
    )
)


@given(st.lists(_DRAWN_MODULE, min_size=1, max_size=3))
@settings(max_examples=20, deadline=None)
def test_shared_table_columns_match_bubble_in_any_build_order(drawn):
    # Modules of one n share one table, whichever weight and depth grew it.
    for n, lam, depth, field in drawn:
        module = verma.TruncatedVerma(n, lam, depth, field)
        for pair in liealg.gl(n).pairs:
            expected, _ = _bubble_action(module, pair)
            assert _in_window_columns(module, pair) == expected.columns(), (lam, depth, field, pair)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shallow_basis_is_a_prefix_of_the_deep_one(n):
    deep = verma.TruncatedVerma(n, tuple(range(n, 0, -1)), 6)
    assert deep.basis == sorted(deep.basis, key=lambda mono: (_depth(deep, mono), mono))
    for depth in range(6):
        shallow = verma.TruncatedVerma(n, (0,) * n, depth)
        assert shallow.basis == deep.basis[: shallow.dim]
        assert all(_depth(deep, mono) <= depth for mono in shallow.basis)
        assert _depth(deep, deep.basis[shallow.dim]) == depth + 1
        # Weight lambda - drop: the drops do not depend on lambda.
        drops = {tuple(map(operator.sub, deep.lam, w)) for w in deep.basis_weight[: shallow.dim]}
        assert drops == {tuple(map(operator.sub, shallow.lam, w)) for w in shallow.basis_weight}


def test_second_module_reads_the_first_modules_columns_without_a_bracket(monkeypatch):
    monkeypatch.setattr(verma, "_pbw_table", functools.cache(verma._PBWTable))
    calls = []
    original = liealg.RelationAlgebra.bracket

    def counting(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(liealg.RelationAlgebra, "bracket", counting)
    first = verma.TruncatedVerma(3, (4, 2, 0), 4, PrimeField(31))
    for pair in liealg.gl(3).pairs:
        _in_window_columns(first, pair)
    assert calls
    calls.clear()
    second = verma.TruncatedVerma(3, (1, 5, 2), 3)
    for pair in liealg.gl(3).pairs:
        _in_window_columns(second, pair)
    assert calls == []


def test_mutating_a_returned_column_touches_no_table_or_module():
    first = verma.TruncatedVerma(3, (4, 2, 0), 3, PrimeField(31))
    second = verma.TruncatedVerma(3, (5, 1, 0), 4)
    table = verma._pbw_table(3)
    pairs = [(1, 2), (1, 3), (2, 1), (2, 2)]
    before = {
        pair: (dict(table.column(pair, 4)), dict(first.column(pair, 4)), dict(second.column(pair, 4)))
        for pair in pairs
    }
    for pair in pairs:
        column = first.column(pair, 4)
        assert column
        column.clear()
        column[0] = 7
        second.column(pair, 4)[0] = 11
    for pair, (stored, of_first, of_second) in before.items():
        assert table.column(pair, 4) == stored
        assert first.column(pair, 4) == of_first and second.column(pair, 4) == of_second


def test_lowering_column_with_a_lambda_term_raises():
    # A raising step scales by lowering entries; one that carries lambda
    # is refused, not truncated to its constant.
    table = verma._PBWTable(2)
    assert table.grow(2) == 3
    assert table.column((1, 2), 1) == {0: (0, 1, -1)}  # e f v = (lambda_1 - lambda_2) v
    table.columns[2, 1][0] = {1: table.form(1, 1, 0)}
    with pytest.raises(InvariantError, match="carries a lambda term"):
        table.column((1, 2), 2)
