"""Slice-word diagrams, the resolution cube, and the k = 2 Frobenius oracle."""

import pytest

from decatkit import cube
from decatkit.exactlin import QQ, PrimeField

# name -> (euler at k=2, euler at k=3, components, k=2 rational homology)
CATALOGUE = {
    "unknot": (2, 3, 1, {0: 2}),
    "unknot_mirror": (2, 3, 1, {0: 2}),
    "unlink2": (4, 9, 2, {0: 4}),
    "kink_positive": (2, 3, 1, {0: 2}),
    "kink_negative": (2, 3, 1, {0: 2}),
    "twist_pair": (4, 9, 2, {0: 4}),
    "hopf": (4, 9, 2, {0: 2, 2: 2}),
    "trefoil": (2, 3, 1, {0: 2, 2: 1, 3: 1}),
    "figure_eight": (2, 3, 1, {-2: 1, -1: 1, 0: 2, 1: 1, 2: 1}),
    "braid121": (4, 9, 2, {0: 2, 2: 2}),
    "braid212": (4, 9, 2, {0: 2, 2: 2}),
    "torus_2_6": (4, 9, 2, {0: 2, 2: 1, 3: 1, 4: 1, 5: 1, 6: 2}),
    "torus_2_8": (4, 9, 2, {0: 2, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 2}),
}


def test_catalogue_is_covered():
    assert set(CATALOGUE) == set(cube.DIAGRAMS)


def test_parse_rejects_small_k():
    with pytest.raises(ValueError, match="k >= 2"):
        cube.parse_slice_word("cup(1) cap(1)", 1)


def test_parse_rejects_bad_tokens():
    with pytest.raises(ValueError, match="bad token"):
        cube.parse_slice_word("loop(1)", 2)
    with pytest.raises(ValueError, match="cup position"):
        cube.parse_slice_word("cup(3)", 2)
    with pytest.raises(ValueError, match="cap position"):
        cube.parse_slice_word("cup(1) cap(2)", 2)


def test_parse_rejects_label_mismatches():
    # cap wants (1, k-1), cap' wants (k-1, 1).
    with pytest.raises(ValueError, match="needs labels"):
        cube.parse_slice_word("cup(1) cap'(1)", 3)
    with pytest.raises(ValueError, match="crossings need labels"):
        cube.parse_slice_word("cup(1) pos(1) cap(1)", 3)


def test_parse_rejects_parallel_cap():
    # Interleaving the second cup into the first leaves strands 3 and 4
    # pointing the same way.
    with pytest.raises(ValueError, match="oriented the same way"):
        cube.parse_slice_word("cup(1) cup(2) cap(3) cap(1)", 2)
    # Nesting keeps orientations opposite, so this one closes fine.
    assert cube.parse_slice_word("cup(1) cup(3) cap(2) cap(1)", 2).closed


def test_single_kink_is_k2_only():
    word = cube.parse_slice_word("cup(1) pos(1) cap(1)", 2)
    assert word.closed
    assert word.crossing_signs == (-1,)
    assert cube.euler_invariant(word) == 2


def test_open_words_flagged():
    word = cube.parse_slice_word("cup(1)", 2)
    assert not word.closed
    assert word.final_labels == (1, 1)
    with pytest.raises(ValueError, match="open boundary"):
        cube.euler_invariant(word)


def test_euler_requires_k_for_raw_strings():
    with pytest.raises(ValueError, match="k is required"):
        cube.euler_invariant("cup(1) cap(1)")
    assert cube.euler_invariant("cup(1) cap(1)", 4) == 4


def test_open_tangle_value_is_a_matrix():
    mat, sig = cube.tangle_alternating_sum(cube.parse_slice_word("cup(1)", 2), 2)
    assert sig == (1, 1)
    assert (mat.nrows, mat.ncols) == (4, 1)


def test_crossing_signs_track_orientation():
    trefoil = cube.parse_slice_word(cube.DIAGRAMS["trefoil"], 2)
    assert trefoil.crossing_signs == (1, 1, 1)
    fig8 = cube.parse_slice_word(cube.DIAGRAMS["figure_eight"], 2)
    assert sorted(fig8.crossing_signs) == [-1, -1, 1, 1]


def test_build_cube_shape():
    hopf = cube.build_cube(cube.parse_slice_word(cube.DIAGRAMS["hopf"], 2), 2)
    assert len(hopf.values) == 4
    assert hopf.final_sig == ()


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_euler_invariant_catalogue(name):
    e2, e3, comps, _ = CATALOGUE[name]
    word = cube.DIAGRAMS[name]
    assert cube.euler_invariant(word, 2) == e2
    assert cube.euler_invariant(word, 3) == e3
    assert cube.link_components(word, 2) == comps
    assert abs(e2) == 2**comps
    assert abs(e3) == 3**comps


def _signed_vertex_sum(word, k):
    """The alternating cube sum from all 2^c vertex values of `build_cube`."""
    resolved = cube.build_cube(word, k)
    signed = [mat.scaled(-1 if sum(bits) % 2 else 1) for bits, mat in resolved.values.items()]
    return sum(signed[1:], signed[0]).scaled(-1 if resolved.word.n_negative % 2 else 1)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_transfer_matrices_match_cube_sum(name, k):
    vertex_sum = _signed_vertex_sum(cube.DIAGRAMS[name], k)
    assert cube.euler_invariant(cube.DIAGRAMS[name], k) == vertex_sum.at_one().entries.get((0, 0), 0)


@pytest.mark.parametrize(
    "text",
    [
        "cup(1)",
        "cup'(1) cup(3) pos(2)",
        "cup'(1) cup(3) neg(2) pos(2)",
        "cup'(1) cup'(2) cup'(3) pos(4) neg(5) pos(4)",
        "cup'(1) cup(3) pos(2) pos(2) pos(2) cap(3)",
    ],
)
@pytest.mark.parametrize("k", [2, 3])
def test_tangle_transfer_matrices_match_cube_sum(text, k):
    mat, sig = cube.tangle_alternating_sum(text, k)
    assert sig == cube.parse_slice_word(text, k).final_labels
    assert mat == _signed_vertex_sum(text, k)


@pytest.mark.parametrize("k", [3, 4])
def test_torus_links_up_to_40_crossings(k):
    for n in range(1, 41):
        word = "cup'(1) cup(3) " + "pos(2) " * n + "cap(3) cap'(1)"
        comps = cube.link_components(word, k)
        assert comps == (2 if n % 2 == 0 else 1)
        assert abs(cube.euler_invariant(word, k)) == k**comps


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_frobenius_oracle_agrees_with_functor_euler(name):
    word = cube.parse_slice_word(cube.DIAGRAMS[name], 2)
    assert cube.oracle_euler_k2(word) == CATALOGUE[name][0]


def test_oracle_requires_k2():
    with pytest.raises(ValueError, match="k = 2"):
        cube.oracle_euler_k2(cube.parse_slice_word(cube.DIAGRAMS["unknot"], 3))


@pytest.mark.parametrize(
    "name", ["unknot", "trefoil", "hopf", "figure_eight", "twist_pair", "torus_2_6"]
)
def test_k2_homology_catalogue(name):
    word = cube.DIAGRAMS[name]
    hom = {d: r for d, r in cube.khovanov_homology_k2(word, QQ).items() if r}
    assert hom == CATALOGUE[name][3]


def test_k2_homology_euler_consistency():
    for name, (e2, _, _, hom) in CATALOGUE.items():
        if name in ("torus_2_8",):
            continue
        computed = {d: r for d, r in cube.khovanov_homology_k2(cube.DIAGRAMS[name]).items() if r}
        assert sum((-1 if d % 2 else 1) * r for d, r in computed.items()) == e2


def test_figure_eight_homology_mod_5():
    hom = {
        d: r
        for d, r in cube.khovanov_homology_k2(cube.DIAGRAMS["figure_eight"], PrimeField(5)).items()
        if r
    }
    assert hom == CATALOGUE["figure_eight"][3]


@pytest.mark.parametrize("move,name_a,name_b", cube.MOVE_PAIRS)
@pytest.mark.parametrize("k", [2, 3])
def test_reidemeister_moves(move, name_a, name_b, k):
    assert cube.reidemeister_check(cube.DIAGRAMS[name_a], cube.DIAGRAMS[name_b], k)


def test_reidemeister_check_detects_distinct_links():
    trefoil = cube.DIAGRAMS["trefoil"]
    unknot = cube.DIAGRAMS["unknot"]
    # Same Euler value at k=2, separated by homology.
    assert cube.euler_invariant(trefoil, 2) == cube.euler_invariant(unknot, 2)
    assert not cube.reidemeister_check(trefoil, unknot, 2)
    # Separated by the Euler value alone at k=3.
    assert not cube.reidemeister_check(cube.DIAGRAMS["hopf"], unknot, 3)
