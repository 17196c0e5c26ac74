"""Merge/split Laurent matrices and the diagrammatic relations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decatkit import functors
from decatkit.exactlin import LaurentPoly, SparseMatrix, geometric_shift_sum

RELATIONS = ("R1", "R2", "R3", "R4", "R5", "L5")


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
        assert lm.entries == {
            (0, 1): LaurentPoly.from_dict({0: 1}),
            (0, 2): LaurentPoly.from_dict({1: 1}),
        }

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
            assert sm == mm.transpose()

    def test_merge_then_split_is_geometric_sum(self):
        # Splitting a full block into (1,1) and merging back scales by the
        # two-step geometric sum; this is the k=2 circle value.
        mat, sig = functors.evaluate(2, (2,), "split(1;1,1) merge(1)")
        assert sig == (2,)
        assert mat.entries == {(0, 0): geometric_shift_sum(2)}

    def test_merge_shift_exponent_is_weight_product(self):
        assert functors.merge_shift_exponent((1, 1), 1) == 1
        assert functors.merge_shift_exponent((2, 3), 1) == 6
        # Normalized merge rescales by t^(-2d).
        mm, _ = functors.move_matrix(2, (1, 1), ("merge", 1))
        shifted, _ = functors.merge_matrix_shifted(2, (1, 1), 1)
        assert shifted == mm.map_values(lambda p: p.shifted(-2))

    def test_insert_delete_roundtrip(self):
        mat, sig = functors.evaluate(3, (1, 2), "ins(2) del(2)")
        assert sig == (1, 2)
        assert mat == functors.identity_matrix(3, (1, 2))

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
        assert mat == functors.identity_matrix(2, (1, 1))


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

    def test_ambient_enumeration_counts(self):
        # Core (1, 2) with one extra block of weight 1 or 2 on either side,
        # plus the bare core.
        sigs = list(functors.ambient_signatures("R3", 2, 3))
        assert len(sigs) == 5
        assert ((1, 2), 0) in sigs
        assert ((1, 1, 2), 1) in sigs and ((2, 1, 2), 1) in sigs

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
    for poly in lm.entries.values():
        assert len(poly.terms) == 1
        degree, coeff = poly.terms[0]
        assert coeff == 1
        assert 0 <= degree <= a * b


def _reference_move(k, sig, move):
    """The move as the full matrix I (x) local (x) I, built with kron."""
    kind, i = move[0], move[1]
    one = LaurentPoly.one()
    if kind == "merge":
        pos, span, local = i - 1, 2, functors.local_merge(k, sig[i - 1], sig[i])
    elif kind == "split":
        pos, span, local = i - 1, 1, functors.local_merge(k, *move[2]).transpose()
    elif kind == "shift":
        pos, span, local = 0, 0, SparseMatrix.identity(1, LaurentPoly.t_power(i))
    else:
        pos, span, local = i - 1, int(kind == "del"), SparseMatrix.identity(1, one)
    left = SparseMatrix.identity(functors.sig_dim(k, sig[:pos]), one)
    right = SparseMatrix.identity(functors.sig_dim(k, sig[pos + span :]), one)
    return left.kron(local).kron(right)


@st.composite
def signature_move_matrix(draw):
    k = draw(st.integers(min_value=2, max_value=4))
    sig = tuple(draw(st.lists(st.integers(min_value=1, max_value=k), max_size=3)))
    moves = [("shift", draw(st.integers(min_value=-3, max_value=3)))]
    moves += [("ins", i) for i in range(1, len(sig) + 2)]
    moves += [("del", i) for i in range(1, len(sig) + 1) if sig[i - 1] == k]
    moves += [("merge", i) for i in range(1, len(sig)) if sig[i - 1] + sig[i] <= k]
    moves += [
        ("split", i, (b, sig[i - 1] - b)) for i in range(1, len(sig) + 1) for b in range(1, sig[i - 1])
    ]
    move = draw(st.sampled_from(moves))
    nrows = functors.sig_dim(k, sig)
    ncols = draw(st.integers(min_value=1, max_value=3))
    poly = st.dictionaries(
        st.integers(min_value=-3, max_value=3), st.integers(min_value=-2, max_value=2), max_size=2
    ).map(LaurentPoly.from_dict)
    cells = draw(
        st.dictionaries(
            st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)), poly, max_size=12
        )
    )
    return k, sig, move, SparseMatrix(nrows, ncols, {pos: v for pos, v in cells.items() if v})


@given(signature_move_matrix())
@settings(max_examples=200, deadline=None)
def test_apply_move_matches_kron_reference(data):
    k, sig, move, mat = data
    got, new_sig = functors.apply_move(k, sig, move, mat)
    assert got == _reference_move(k, sig, move) @ mat
    assert functors.sig_dim(k, new_sig) == got.nrows


def test_apply_move_rejects_wrong_row_count():
    with pytest.raises(ValueError, match="dimension"):
        functors.apply_move(2, (1, 1), ("merge", 1), SparseMatrix.identity(2, LaurentPoly.one()))
