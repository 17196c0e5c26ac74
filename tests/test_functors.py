"""Merge/split Laurent matrices and the diagrammatic relations."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebra_helpers import add, scaled, transpose, zeros
from decatkit import cube, functors, liealg
from decatkit.exactlin import InvariantError, LaurentMatrix, LaurentPoly, SparseMatrix, geometric_shift_sum
from parabolic_helpers import merge_adjacent, nilradical_dim_difference

RELATIONS = ("R1", "R2", "R3", "R4", "R5", "L5")


def _as_poly_matrix(m: LaurentMatrix) -> SparseMatrix:
    """The same matrix with one LaurentPoly per nonzero entry."""
    coeffs: dict = {}
    for (i, j, e), c in m.terms.items():
        coeffs.setdefault((i, j), {})[e] = c
    return SparseMatrix(m.nrows, m.ncols, {pos: LaurentPoly.from_dict(d) for pos, d in coeffs.items()})


def _poly_identity(n, one=LaurentPoly.t_power(0)):
    return SparseMatrix(n, n, {(i, i): one for i in range(n)})


def merge_shift_exponent(sig, i):
    """Nilradical dimension lost by merging blocks i, i+1 of the composition."""
    finer = liealg.ParabolicData(sig)
    coarser = merge_adjacent(finer, i - 1)
    return nilradical_dim_difference(finer, coarser)


def merge_matrix_shifted(k, sig, i):
    """Merge normalized by t^(-2d), d the nilradical dimension difference."""
    mat, new_sig = functors.move_matrix(k, sig, ("merge", i))
    d = merge_shift_exponent(sig, i)
    return scaled(_as_poly_matrix(mat), LaurentPoly.t_power(-2 * d)), new_sig


class TestBlocksAndBases:
    def test_sig_dims_are_binomials(self):
        assert functors.sig_dims(2, (1, 1)) == [2, 2]
        assert functors.sig_dims(3, (2, 1, 3)) == [3, 3, 1]
        assert functors.sig_dim(2, (1, 1)) == 4
        assert functors.sig_dim(4, (2, 2)) == 36

    def test_block_weight_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            functors.sig_dims(2, (3,))
        with pytest.raises(ValueError, match="outside"):
            functors.sig_dims(2, (0,))

    def test_wedge_subsets_ordered(self):
        assert functors.wedge_subsets(2, 1) == [(1,), (2,)]
        assert functors.wedge_subsets(3, 2) == [(1, 2), (1, 3), (2, 3)]
        assert functors.wedge_subsets(3, 3) == [(1, 2, 3)]


class TestLocalMatrices:
    def test_local_merge_k2(self):
        lm = functors.local_merge(2, 1, 1)
        assert (lm.nrows, lm.ncols) == (1, 4)
        # Nonzero only on disjoint subset pairs, exponent = inversion count.
        assert lm.terms == {(0, 1, 0): 1, (0, 2, 1): 1}

    def test_local_merge_rejects_overflow(self):
        with pytest.raises(ValueError, match="cannot merge"):
            functors.local_merge(2, 1, 2)

    def test_split_is_merge_transpose(self):
        for k, sig, i, parts in (
            (2, (2,), 1, (1, 1)),
            (3, (3,), 1, (1, 2)),
            (3, (2,), 1, (1, 1)),
            (4, (3,), 1, (2, 1)),
        ):
            sm, down_sig = functors.move_matrix(k, sig, ("split", i, parts))
            mm, up_sig = functors.move_matrix(k, down_sig, ("merge", i))
            assert up_sig == sig
            assert (sm.nrows, sm.ncols) == (mm.ncols, mm.nrows)
            assert sm.terms == {(j, i, e): c for (i, j, e), c in mm.terms.items()}

    def test_merge_then_split_is_geometric_sum(self):
        # Splitting a full block into (1,1) and merging back scales by the
        # two-step geometric sum; this is the k=2 circle value.
        mat, sig = functors.evaluate(2, (2,), "split(1;1,1) merge(1)")
        assert sig == (2,)
        assert _as_poly_matrix(mat).entries == {(0, 0): geometric_shift_sum(2)}

    def test_merge_shift_exponent_is_weight_product(self):
        assert merge_shift_exponent((1, 1), 1) == 1
        assert merge_shift_exponent((2, 3), 1) == 6
        # Normalized merge rescales by t^(-2d).
        mm, _ = functors.move_matrix(2, (1, 1), ("merge", 1))
        shifted, _ = merge_matrix_shifted(2, (1, 1), 1)
        assert shifted == _as_poly_matrix(LaurentMatrix(1, 4, {(i, j, e - 2): c for (i, j, e), c in mm.terms.items()}))

    def test_insert_delete_roundtrip(self):
        mat, sig = functors.evaluate(3, (1, 2), "ins(2) del(2)")
        assert sig == (1, 2)
        assert mat == functors.move_matrix(3, (1, 2))[0]

    def test_delete_requires_full_block(self):
        with pytest.raises(ValueError, match="weight"):
            functors.move_matrix(3, (1, 2), ("del", 1))


class TestWordGrammar:
    def test_parse_word(self):
        assert functors.parse_word("merge(2) split(1;1,1) shift(-3) ins(1) del(4)") == (
            ("merge", 2),
            ("split", 1, (1, 1)),
            ("shift", -3),
            ("ins", 1),
            ("del", 4),
        )

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad move token"):
            functors.parse_word("twist(1)")
        with pytest.raises(ValueError, match="split needs"):
            functors.parse_word("split(1;2)")

    def test_evaluate_accepts_string_or_moves(self):
        by_text = functors.evaluate(2, (1, 1), "merge(1)")
        by_moves = functors.evaluate(2, (1, 1), [("merge", 1)])
        assert by_text == by_moves

    def test_shift_moves_commute_to_identity(self):
        mat, sig = functors.evaluate(2, (1, 1), "shift(5) shift(-5)")
        assert sig == (1, 1)
        assert mat == functors.move_matrix(2, (1, 1))[0]


class TestRelations:
    @pytest.mark.parametrize("relation", RELATIONS)
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_relation_holds_on_core(self, relation, k):
        report = functors.verify_relation(relation, k)
        assert report.holds
        assert report.ambient == functors.core_signature(relation, k)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_r4_holds_under_exactly_one_normalization(self, k):
        detail = functors.verify_relation("R4", k).detail
        assert detail["normalizations_tested"] == [2 * k - 2, 2 * k]
        assert detail["normalization_holding"] == [2 * k]

    @pytest.mark.parametrize("relation", RELATIONS)
    def test_relation_holds_in_ambient_padding(self, relation):
        reports = functors.verify_relation_everywhere(relation, 2, max_len=3)
        assert reports
        assert all(r.holds for r in reports)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_each_sweep_report_is_its_direct_check(self, k):
        for relation in RELATIONS:
            reports = functors.verify_relation_everywhere(relation, k)
            assert [(r.ambient, r.offset) for r in reports] == list(functors.ambient_signatures(relation, k))
            for report in reports:
                assert report == functors.verify_relation(relation, k, report.ambient, report.offset)
            # Each report owns its detail, nested lists included.
            first, *others = reports
            for value in first.detail.values():
                if isinstance(value, list):
                    value.append("planted")
            first.detail["planted"] = True
            for report in others:
                assert report == functors.verify_relation(relation, k, report.ambient, report.offset)

    def test_ambient_must_be_a_signature_holding_the_core(self):
        for ambient, offset in (((0, 2, 9), 1), ((2, 4), 0)):
            with pytest.raises(ValueError, match="outside 1..3"):
                functors.verify_relation("R2", 3, ambient, offset)
        for ambient, offset in (((2, 2), -2), ((1, 2), 0), ((1, 2), 2), (None, 5), (None, -1)):
            with pytest.raises(ValueError, match="does not contain core"):
                functors.verify_relation("R2", 3, ambient, offset)

    def test_ambient_enumeration_counts(self):
        # Core (1, 2) with one extra block of weight 1 or 2 on either side,
        # plus the bare core.
        sigs = list(functors.ambient_signatures("R3", 2, 3))
        assert len(sigs) == 5
        assert ((1, 2), 0) in sigs
        assert ((1, 1, 2), 1) in sigs and ((2, 1, 2), 1) in sigs

    def test_ambient_bound_shorter_than_core_is_rejected(self):
        # No placement fits, so an empty sweep would pass vacuously.
        with pytest.raises(ValueError, match="shorter than the R3 core"):
            functors.verify_relation_everywhere("R3", 2, max_len=1)

    def test_sweep_dimension_sums_the_core_dimension_over_placements(self):
        # A core with n padding blocks has (n + 1) k^n placements of them, and
        # each placement is checked on the core's blocks alone. At k = 2:
        # R1 and R2, core (2) of dimension 1: 1 + 2*2 + 3*4 + 4*8 = 49 each;
        # R3 (1, 2) and L5 (2, 1) of dimension 2: 2 * (1 + 2*2 + 3*4) = 34 each;
        # R4 (2, 1, 1) of dimension 4: 4 * (1 + 2*2) = 20; R5 (1, 1, 1): 8 * 5 = 40.
        assert functors.sweep_dimension(2) == 49 + 49 + 34 + 34 + 20 + 40 == 226
        for k in range(2, 9):
            expected = 0
            for relation in RELATIONS:
                core = functors.core_signature(relation, k)
                budget = 4 - len(core)
                expected += functors.sig_dim(k, core) * sum((n + 1) * k**n for n in range(budget + 1))
            assert functors.sweep_dimension(k) == expected <= functors.SWEEP_DIMENSION_LIMIT
        assert [functors.sweep_dimension(k) for k in (6, 7, 8)] == [30652, 64576, 123733]
        for k in (9, 10, 40):
            assert functors.sweep_dimension(k) > functors.SWEEP_DIMENSION_LIMIT
        # R4's core (9, 1, 8) has dimension 9 * 9 and 1 + 2*9 placements.
        assert functors.sweep_dimension(9, ("R4",)) == 81 * 19

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError, match="unknown relation"):
            functors.verify_relation("R9", 2)


@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.integers(min_value=1, max_value=k),
            st.integers(min_value=1, max_value=k),
        )
    )
)
@settings(max_examples=60)
def test_local_merge_entries_are_monomials(data):
    k, a, b = data
    if a + b > k:
        return
    lm = functors.local_merge(k, a, b)
    positions = [(i, j) for i, j, _ in lm.terms]
    assert len(positions) == len(set(positions))
    for (_, _, degree), coeff in lm.terms.items():
        assert coeff == 1
        assert 0 <= degree <= a * b


def _reference_move(k, sig, move):
    """The move as the full matrix I (x) local (x) I, built with kron."""
    kind, i = move[0], move[1]
    if kind == "merge":
        pos, span, local = i - 1, 2, _as_poly_matrix(functors.local_merge(k, sig[i - 1], sig[i]))
    elif kind == "split":
        pos, span, local = i - 1, 1, transpose(_as_poly_matrix(functors.local_merge(k, *move[2])))
    elif kind == "shift":
        pos, span, local = 0, 0, _poly_identity(1, LaurentPoly.t_power(i))
    else:
        pos, span, local = i - 1, int(kind == "del"), _poly_identity(1)
    left = _poly_identity(functors.sig_dim(k, sig[:pos]))
    right = _poly_identity(functors.sig_dim(k, sig[pos + span :]))
    return left.kron(local).kron(right)


def _valid_moves(draw, k, sig, max_len=4):
    moves = [("shift", draw(st.integers(min_value=-3, max_value=3)))]
    if len(sig) < max_len:
        moves += [("ins", i) for i in range(1, len(sig) + 2)]
    moves += [("del", i) for i in range(1, len(sig) + 1) if sig[i - 1] == k]
    moves += [("merge", i) for i in range(1, len(sig)) if sig[i - 1] + sig[i] <= k]
    moves += [
        ("split", i, (b, sig[i - 1] - b))
        for i in range(1, len(sig) + 1)
        for b in range(1, sig[i - 1])
        if len(sig) < max_len
    ]
    return moves


@st.composite
def signature_move_matrix(draw):
    k = draw(st.integers(min_value=2, max_value=4))
    sig = tuple(draw(st.lists(st.integers(min_value=1, max_value=k), max_size=3)))
    move = draw(st.sampled_from(_valid_moves(draw, k, sig)))
    nrows = functors.sig_dim(k, sig)
    ncols = draw(st.integers(min_value=1, max_value=3))
    keys = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1), st.integers(-3, 3))
    terms = draw(st.dictionaries(keys, st.integers(min_value=-2, max_value=2).filter(bool), max_size=12))
    return k, sig, move, LaurentMatrix(nrows, ncols, terms)


def _act_on_all_of(k, sig, move, mat):
    """`_act` on the rows of sig, as the cube applies its moves: the table
    wrapped by the checking constructor, which refuses a zero or out-of-range
    term."""
    table, new_sig = functors._act(k, sig, move, mat.terms)
    return LaurentMatrix(functors.sig_dim(k, new_sig), mat.ncols, table), new_sig


@given(signature_move_matrix())
@settings(max_examples=200, deadline=None)
def test_apply_move_matches_kron_reference(data):
    # The move is applied by `_act` on the whole signature.
    k, sig, move, mat = data
    got, _ = _act_on_all_of(k, sig, move, mat)
    assert _as_poly_matrix(got) == _reference_move(k, sig, move) @ _as_poly_matrix(mat)


def test_signed_terms_cancel_under_merge_and_pass_through_split():
    # e1 (x) e2 and e2 (x) e1 merge to t^0 and t^1 times e12: +t and -1 cancel.
    got, new_sig = _act_on_all_of(2, (1, 1), ("merge", 1), LaurentMatrix(4, 1, {(1, 0, 1): 1, (2, 0, 0): -1}))
    assert (new_sig, got.nrows, got.terms) == ((2,), 1, {})
    move = ("split", 1, (1, 1))
    mat = LaurentMatrix(3, 2, {(0, 0, 1): 1, (1, 0, 1): -1, (2, 1, 0): -3, (0, 1, -2): 2})
    got, new_sig = _act_on_all_of(3, (2,), move, mat)
    assert _as_poly_matrix(got) == _reference_move(3, (2,), move) @ _as_poly_matrix(mat)
    assert new_sig == (1, 1)


def test_split_refuses_a_table_with_two_indices_on_one_target(monkeypatch):
    real = functors.local_merge

    def planted(k, a, b):
        """local_merge with a second row in the column of its first term."""
        local = real(k, a, b)
        r, j, e = next(iter(local.terms))
        return LaurentMatrix(local.nrows, local.ncols, {**local.terms, ((r + 1) % local.nrows, j, e): 1})

    monkeypatch.setattr(functors, "local_merge", planted)
    functors._local_images.cache_clear()
    try:
        with pytest.raises(InvariantError, match="one target"):
            _act_on_all_of(3, (2,), ("split", 1, (1, 1)), functors.move_matrix(3, (2,))[0])
    finally:
        monkeypatch.undo()
        functors._local_images.cache_clear()


def test_kron_reference_sees_a_split_bug_off_the_core(monkeypatch):
    # Each relation is checked once on its core, where R2's split is at block
    # 1; a split bug at a later block is the reference comparisons' to catch.
    real = functors._local_action

    def bent(k, sig, move):
        """Every split not at the first block gets its exponents raised by 1."""
        pos, span, new_blocks, images = real(k, sig, move)
        if move[0] == "split" and pos >= 1:
            images = tuple(tuple((r, e + 1) for r, e in image) for image in images)
        return pos, span, new_blocks, images

    monkeypatch.setattr(functors, "_local_action", bent)
    assert functors.verify_relation("R2", 3).holds
    k, sig, move = 3, (1, 2), ("split", 2, (1, 1))
    identity = functors.move_matrix(k, sig)[0]
    got, _ = _act_on_all_of(k, sig, move, identity)
    assert _as_poly_matrix(got) != _reference_move(k, sig, move)
    with pytest.raises(AssertionError):
        _assert_move_matrix_is_reference(k, sig, move)


def test_references_see_a_merge_bug_off_the_core(monkeypatch):
    # Only R4's core word merges at block 3, so the other relations hold on
    # their cores and at every placement; the reference comparisons catch it.
    real = functors._act

    def bent(k, sig, move, table):
        """Every merge from block position 3 on gets its exponents raised by 1."""
        table, new_sig = real(k, sig, move, table)
        if move[0] == "merge" and move[1] >= 3:
            table = {(r, c, e + 1): v for (r, c, e), v in table.items()}
        return table, new_sig

    monkeypatch.setattr(functors, "_act", bent)
    for k in (2, 3, 4):
        for relation in ("R1", "R2", "R3", "R5", "L5"):
            assert all(report.holds for report in functors.verify_relation_everywhere(relation, k))
        assert not any(report.holds for report in functors.verify_relation_everywhere("R4", k))
    k, sig, move = 3, (2, 1, 1, 1), ("merge", 3)
    got, new_sig = functors.evaluate(k, sig, [move])
    assert (_as_poly_matrix(got), new_sig) != _poly_apply_move(k, sig, move, _poly_identity(functors.sig_dim(k, sig)))
    assert _as_poly_matrix(got) != _reference_move(k, sig, move)


def _e(i):
    """E_i = merge(i) split(i;1,1) as a move word: its value is e_i."""
    return (("merge", i), ("split", i, (1, 1)))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_r5_words_equal_matrix_products_on_the_core(k):
    core = functors.core_signature("R5", k)
    e1, e2 = (_as_poly_matrix(functors.evaluate(k, core, _e(i))[0]) for i in (1, 2))
    e121, sig = functors.evaluate(k, core, _e(1) + _e(2) + _e(1))
    assert sig == core
    assert _as_poly_matrix(e121) == e1 @ e2 @ e1
    e212, _ = functors.evaluate(k, core, _e(2) + _e(1) + _e(2))
    assert _as_poly_matrix(e212) == e2 @ e1 @ e2


@pytest.mark.parametrize("k", [2, 3, 4])
def test_r5_fails_when_the_second_merge_is_bent(monkeypatch, k):
    real = functors._local_action

    def bent(k, sig, move):
        """The merge at core position 2 gets every exponent raised by 1."""
        pos, span, new_blocks, images = real(k, sig, move)
        if move[0] == "merge" and pos == 1:
            images = tuple(tuple((r, e + 1) for r, e in image) for image in images)
        return pos, span, new_blocks, images

    assert functors.verify_relation("R5", k).holds
    monkeypatch.setattr(functors, "_local_action", bent)
    assert not functors.verify_relation("R5", k).holds


@pytest.mark.parametrize("k", [2, 3, 4])
def test_verify_relation_builds_no_ambient_matrix(monkeypatch, k):
    # The local images are built afresh, so the only matrices admitted are the
    # local merges Lambda^a (x) Lambda^b -> Lambda^(a+b). Every matrix goes
    # through the one `LaurentMatrix` constructor, patched here.
    local_shapes = {(math.comb(k, a + b), math.comb(k, a) * math.comb(k, b))
                    for a in range(1, k) for b in range(1, k - a + 1)}

    def never(*_args):
        raise AssertionError("an ambient matrix was built")

    def local_only(nrows, ncols, terms):
        if (nrows, ncols) not in local_shapes:
            raise AssertionError(f"a {nrows} x {ncols} matrix was built")
        return LaurentMatrix(nrows, ncols, terms)

    for name in ("move_matrix", "evaluate"):
        monkeypatch.setattr(functors, name, never)
    monkeypatch.setattr(functors, "LaurentMatrix", local_only)
    functors._local_images.cache_clear()
    for relation in RELATIONS:
        core = functors.core_signature(relation, k)
        for ambient, offset in ((core, 0), ((k,) + core, 1), (core + (1,), 0)):
            assert functors.verify_relation(relation, k, ambient, offset).holds


def test_every_laurent_matrix_is_checked(monkeypatch):
    # Each act returns one term a row past its signature's dimension; the next
    # act sees only the real terms, so the bad row reaches the final matrix.
    real = functors._act

    def overflowing(k, sig, move, table):
        dim = functors.sig_dim(k, sig)
        table, sig = real(k, sig, move, {key: c for key, c in table.items() if key[0] < dim})
        return {**table, (functors.sig_dim(k, sig), 0, 0): 1}, sig

    monkeypatch.setattr(functors, "_act", overflowing)
    builds = (
        lambda: functors.move_matrix(2, (1, 1), ("merge", 1)),
        lambda: cube.tangle_alternating_sum(cube.DIAGRAMS["trefoil"], 2),
        lambda: cube.build_cube(cube.DIAGRAMS["trefoil"], 2),
    )
    for build in builds:
        with pytest.raises(ValueError, match="outside"):
            build()


def test_relation_word_leaving_the_ambient_raises(monkeypatch):
    # Prefixes of R5's words leave the ambient; only a whole word must return.
    assert functors.verify_relation("R5", 2).holds
    real = functors._act

    def drifting(k, sig, move, table):
        """merge(2), the last move of R3's word, drifts to a longer signature."""
        table, sig = real(k, sig, move, table)
        return table, (sig + (1,) if move == ("merge", 2) else sig)

    monkeypatch.setattr(functors, "_act", drifting)
    assert functors.verify_relation("R2", 2).holds
    with pytest.raises(InvariantError, match="leaves"):
        functors.verify_relation("R3", 2)


def test_shift_and_ins_return_the_whole_new_signature():
    # (1, 2, 1) has dimension 27 at k = 3; an inserted full block has dimension 1.
    identity = {(j, j, 0): 1 for j in range(27)}
    assert functors._act(3, (1, 2, 1), ("shift", 2), identity) == ({(j, j, 2): 1 for j in range(27)}, (1, 2, 1))
    assert functors._act(3, (1, 2, 1), ("ins", 3), identity) == (identity, (1, 2, 3, 1))


def _identity_factors(k, sig, move):
    """(left, right): the dimensions of the blocks before and after the moved ones."""
    pos, span, _, _ = functors._local_action(k, sig, move)
    return functors.sig_dim(k, sig[:pos]), functors.sig_dim(k, sig[pos + span :])


def _assert_move_matrix_is_reference(k, sig, move):
    got, new_sig = functors.move_matrix(k, sig, move)
    assert (_as_poly_matrix(got), new_sig) == _poly_apply_move(k, sig, move, _poly_identity(functors.sig_dim(k, sig)))
    assert _as_poly_matrix(got) == _reference_move(k, sig, move)
    assert set(got.terms.values()) <= {1}


@st.composite
def signature_and_move(draw):
    k = draw(st.integers(min_value=2, max_value=4))
    sig = tuple(draw(st.lists(st.integers(min_value=1, max_value=k), max_size=4)))
    return k, sig, draw(st.sampled_from(_valid_moves(draw, k, sig, max_len=5)))


@given(signature_and_move())
@settings(max_examples=200, deadline=None)
def test_move_matrix_matches_identity_and_kron_references(data):
    _assert_move_matrix_is_reference(*data)


@pytest.mark.parametrize(
    "k, sig, move, right_larger",
    [
        (4, (1, 1, 3, 2), ("merge", 1), True),  # first block pair
        (4, (2, 3, 1, 1), ("merge", 3), False),  # last block pair
        (2, (1, 1), ("merge", 1), True),  # e1 (x) e1 and e2 (x) e2 have no image
        (3, (2, 1, 1), ("merge", 2), False),  # images empty where the subsets meet
        (3, (2, 1, 2), ("split", 3, (1, 1)), False),  # last block
        (4, (3, 2, 1), ("split", 1, (2, 1)), True),  # first block
        (3, (2, 2), ("split", 2, (1, 1)), False),
        (3, (1, 3, 2), ("del", 2), True),  # left 3, right 3
        (3, (2, 1, 3), ("del", 3), False),
        (3, (3, 2, 1), ("del", 1), True),
        (3, (1, 2), ("ins", 3), False),
        (3, (1, 2), ("ins", 1), True),
        (3, (1, 2), ("shift", -2), True),
        (2, (), ("shift", 3), True),
    ],
)
def test_move_matrix_runs_along_either_identity_factor(k, sig, move, right_larger):
    # The cases put the moved blocks at either end, with either identity factor the larger.
    left, right = _identity_factors(k, sig, move)
    assert (right >= left) == right_larger
    _assert_move_matrix_is_reference(k, sig, move)


def test_move_matrix_checks_the_move_like_apply_move():
    with pytest.raises(ValueError, match="no block pair"):
        functors.move_matrix(3, (1, 2), ("merge", 2))
    with pytest.raises(ValueError, match="not 3"):
        functors.move_matrix(3, (1, 2), ("del", 1))
    with pytest.raises(ValueError, match="outside"):
        functors.move_matrix(3, (4,), ("shift", 1))


def _moved_right(move, offset):
    """The move with its block position moved right by offset (shift has none)."""
    return move if move[0] == "shift" else (move[0], move[1] + offset, *move[2:])


@st.composite
def padded_words(draw):
    """(k, sig, word): one to six moves drawn on the middle blocks of a signature
    padded on either side, so identity factors lie around the moved blocks."""
    k = draw(st.integers(min_value=2, max_value=4))
    pads = st.lists(st.integers(min_value=1, max_value=k), max_size=2)
    left, right = tuple(draw(pads)), tuple(draw(pads))
    middle = tuple(draw(st.lists(st.integers(min_value=1, max_value=k), min_size=1, max_size=3)))
    cur, word = middle, []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        move = draw(st.sampled_from(_valid_moves(draw, k, cur)))
        _, cur = _poly_apply_move(k, cur, move, _poly_identity(functors.sig_dim(k, cur)))
        word.append(_moved_right(move, len(left)))
    return k, left + middle + right, tuple(word)


@given(padded_words())
@settings(max_examples=150, deadline=None)
def test_move_matrix_of_a_run_equals_its_moves_applied_in_turn(data):
    k, sig, word = data
    got, got_sig = functors.move_matrix(k, sig, *word)
    ref, cur = _poly_identity(functors.sig_dim(k, sig)), sig
    for move in word:
        ref, cur = _poly_apply_move(k, cur, move, ref)
    assert (_as_poly_matrix(got), got_sig) == (ref, cur)
    assert all(got.terms.values())


def test_move_matrix_of_the_empty_word_is_the_identity():
    for sig, n in (((1, 2), 9), ((), 1)):
        assert functors.move_matrix(3, sig) == (LaurentMatrix(n, n, {(j, j, 0): 1 for j in range(n)}), sig)


def _lift(table, k, ambient, window):
    """I_left (x) table (x) I_right on the ambient space, index by index."""
    lo, hi = window
    left, mid, right = (functors.sig_dim(k, blocks) for blocks in (ambient[:lo], ambient[lo:hi], ambient[hi:]))
    terms = {
        ((a * mid + r) * right + b, (a * mid + j) * right + b, e): c
        for (r, j, e), c in table.items()
        for a in range(left)
        for b in range(right)
    }
    return LaurentMatrix(left * mid * right, left * mid * right, terms)


def _ambient_sum(k, ambient, terms):
    """sum c * value(word) on the whole ambient space with LaurentPoly
    entries, each word applied move by move with `_poly_apply_move`: the
    path the core check replaces."""
    n = functors.sig_dim(k, ambient)
    total = zeros(n, n)
    for c, word in terms:
        mat, sig = _poly_identity(n), ambient
        for move in word:
            mat, sig = _poly_apply_move(k, sig, move, mat)
        assert sig == ambient
        total = add(total, scaled(mat, c if isinstance(c, LaurentPoly) else LaurentPoly.from_dict({0: c})))
    return total


def test_side_sum_weights_each_word_by_its_coefficient():
    # The relations' own coefficients are all 1, so they cannot show a lost factor.
    k, core = 3, (2,)
    bubble = (("split", 1, (1, 1)), ("merge", 1))
    terms = ((-3, ()), (LaurentPoly.from_dict({1: 2, -1: -1}), bubble), (5, bubble))
    got = LaurentMatrix(3, 3, functors._side_sum(k, core, terms))
    assert _as_poly_matrix(got) == _ambient_sum(k, core, terms)
    assert functors._side_sum(k, core, ((2, ()), (-2, ()))) == {}


def _shifted(terms, offset):
    """The (c, word) terms with every block position moved right by offset."""
    return tuple((c, tuple(_moved_right(m, offset) for m in word)) for c, word in terms)


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("k", [2, 3])
def test_each_relation_side_lifts_to_its_ambient_sum(relation, k):
    # The lemma every placement's shared result rests on: I (x) (core sum) (x) I
    # is the side's words, shifted to the placement, applied on the whole ambient.
    core = functors.core_signature(relation, k)
    for lhs, rhs in functors._equations(relation, k).values():
        for side in (lhs, rhs):
            core_sum = functors._side_sum(k, core, side)
            for ambient, offset in functors.ambient_signatures(relation, k, max_len=4):
                lifted = _lift(core_sum, k, ambient, (offset, offset + len(core)))
                assert _as_poly_matrix(lifted) == _ambient_sum(k, ambient, _shifted(side, offset))


def _poly_apply_move(k, sig, move, mat):
    """A move applied to a SparseMatrix of LaurentPoly entries, kept as the
    reference for `_act`'s flat terms: the same row-digit rewrite, with each
    local power of t multiplied into a polynomial entry."""
    kind, i = move[0], move[1]
    if kind in ("shift", "ins", "del"):
        pos, span = (0, 0) if kind == "shift" else (i - 1, int(kind == "del"))
        new_blocks = (k,) if kind == "ins" else ()
        images = [[(0, LaurentPoly.t_power(i if kind == "shift" else 0))]]
    else:
        merge = kind == "merge"
        pos, span = i - 1, 2 if merge else 1
        parts = sig[i - 1 : i + 1] if merge else move[2]
        new_blocks = (sum(parts),) if merge else parts
        local = _as_poly_matrix(functors.local_merge(k, *parts))
        images = [[] for _ in range(local.ncols if merge else local.nrows)]
        for (r, j), v in local.entries.items():
            src, dst = (j, r) if merge else (r, j)
            images[src].append((dst, v))
    right = functors.sig_dim(k, sig[pos + span :])
    new_mid = functors.sig_dim(k, new_blocks)
    entries = {}
    for (row, col), v in mat.entries.items():
        head, low = divmod(row, right)
        high, mid = divmod(head, len(images))
        for r, w in images[mid]:
            key = ((high * new_mid + r) * right + low, col)
            entries[key] = entries[key] + v * w if key in entries else v * w
    nrows = mat.nrows // len(images) * new_mid
    new_sig = sig[:pos] + new_blocks + sig[pos + span :]
    return SparseMatrix(nrows, mat.ncols, {key: v for key, v in entries.items() if v}), new_sig


@st.composite
def move_words(draw):
    k = draw(st.integers(min_value=2, max_value=4))
    sig = tuple(draw(st.lists(st.integers(min_value=1, max_value=k), min_size=1, max_size=3)))
    cur, word = sig, []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        move = draw(st.sampled_from(_valid_moves(draw, k, cur)))
        word.append(move)
        _, cur = functors.move_matrix(k, cur, move)
    return k, sig, word


@given(move_words())
@settings(max_examples=100, deadline=None)
def test_evaluate_matches_laurent_poly_reference(data):
    k, sig, word = data
    got, got_sig = functors.evaluate(k, sig, word)
    ref, ref_sig = _poly_identity(functors.sig_dim(k, sig)), sig
    for move in word:
        ref, ref_sig = _poly_apply_move(k, ref_sig, move, ref)
    assert got_sig == ref_sig
    assert _as_poly_matrix(got) == ref
