"""Slice-word diagrams, the resolution cube, the k = 2 tangle scan and the Frobenius oracle."""

import functools
import itertools
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebra_helpers import add, scaled
from decatkit import cli, cube, functors
from decatkit.exactlin import QQ, ComplexError, FiniteComplex, InvariantError, LaurentPoly, PrimeField, SparseMatrix
from khovanov_reference import (
    braid_letters,
    close_braid,
    closed_braids,
    crossingless_matchings,
    insert_kink,
    insert_twist_pair,
    reference_bigraded_k2,
    reference_compose,
    reference_euler_k2,
    resolution_circles,
)
from test_functors import _as_poly_matrix

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


def _torus(n):
    return "cup'(1) cup(3) " + "pos(2) " * n + "cap(3) cap'(1)"


def _catalogue_and_torus(ns):
    """pytest params: the catalogue diagrams, then T(2, n) for n in ns."""
    named = sorted(cube.DIAGRAMS.items()) + [(f"T2_{n}", _torus(n)) for n in ns]
    return [pytest.param(text, id=name) for name, text in named]


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


@pytest.mark.parametrize("word", ["cap(1)", "cap'(2)", "pos(1)", "cup(1) cap(1) neg(1)"])
def test_parse_names_too_few_open_strands(word):
    # Not a position range: with no strands open it would read `outside 1..-1`.
    with pytest.raises(ValueError, match="needs two strands, but fewer than two are open"):
        cube.parse_slice_word(word, 2)


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


def test_a_parsed_word_refuses_another_k():
    hopf = cube.parse_slice_word(cube.DIAGRAMS["hopf"], 3)
    assert cube.euler_invariant(hopf, 3) == cube.euler_invariant(cube.DIAGRAMS["hopf"], 3) == 9
    for check in (cube.euler_invariant, cube.tangle_alternating_sum, cube.link_components):
        with pytest.raises(ValueError, match="parsed at k = 3, not at k = 2"):
            check(hopf, 2)


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
    """The alternating cube sum from all 2^c vertex values of `build_cube`,
    added up as matrices of LaurentPoly entries."""
    resolved = cube.build_cube(word, k)
    sign = {1: LaurentPoly.t_power(0), -1: LaurentPoly.from_dict({0: -1})}
    signed = [scaled(_as_poly_matrix(mat), sign[(-1) ** sum(bits)]) for bits, mat in resolved.values.items()]
    return scaled(functools.reduce(add, signed), sign[(-1) ** resolved.word.n_negative])


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_transfer_matrices_match_cube_sum(name, k):
    vertex_sum = _signed_vertex_sum(cube.DIAGRAMS[name], k)
    at_one = sum(c for _, c in vertex_sum.entries.get((0, 0), LaurentPoly()).terms)
    assert cube.euler_invariant(cube.DIAGRAMS[name], k) == at_one


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
    assert all(mat.terms.values())
    assert _as_poly_matrix(mat) == _signed_vertex_sum(text, k)


def test_one_bent_rewrite_reaches_the_relations_and_the_cube(monkeypatch):
    # Relation words and the cube's transfer matrices apply their moves with
    # the one key rewrite `functors._act`, so a bug planted there shows in both.
    word = cube.DIAGRAMS["trefoil"]
    honest, _ = cube.tangle_alternating_sum(word, 3)
    real = functors._act

    def bent(k, sig, move, table):
        """Every merge gets its exponents raised by 1."""
        table, new_sig = real(k, sig, move, table)
        if move[0] == "merge":
            table = {(r, c, e + 1): v for (r, c, e), v in table.items()}
        return table, new_sig

    monkeypatch.setattr(functors, "_act", bent)
    got, _ = cube.tangle_alternating_sum(word, 3)
    assert got != honest
    assert not functors.verify_relation("R2", 3).holds
    # The product and the vertex-by-vertex fold still agree: both are bent.
    assert _as_poly_matrix(got) == _signed_vertex_sum(word, 3)


@pytest.mark.parametrize("k", [3, 4])
def test_torus_links_up_to_40_crossings(k):
    for n in range(1, 41):
        word = "cup'(1) cup(3) " + "pos(2) " * n + "cap(3) cap'(1)"
        comps = cube.link_components(word, k)
        assert comps == (2 if n % 2 == 0 else 1)
        assert abs(cube.euler_invariant(word, k)) == k**comps


WORD_FILES = pathlib.Path(__file__).resolve().parent.parent / "words"
# A closed 6-strand braid with 22 crossings of both signs: wide enough that
# one cancellation composes the same mask pairs many times over.
BRAID_S6 = cli._load_word_text(str(WORD_FILES / "braid_s6_seed7.sw"))


@pytest.mark.parametrize("path", sorted(WORD_FILES.glob("*.sw")), ids=lambda path: path.name)
def test_parser_components_match_transfer_matrices_on_word_files(path):
    # The transfer matrices give k^components at t = 1 and never read the
    # parser's strand walk, so they check its count.
    word = cube.parse_slice_word(cli._load_word_text(str(path)), 3)
    assert abs(cube.euler_invariant(word)) == 3 ** cube.link_components(word)


@settings(max_examples=25, deadline=None)
@given(closed_braids(max_crossings=7))
def test_parser_components_match_transfer_matrices_on_closed_braids(tokens):
    word = cube.parse_slice_word(" ".join(tokens), 3)
    assert abs(cube.euler_invariant(word)) == 3 ** cube.link_components(word)


def _brute_top(m, p, cup):
    """`cube._top` from a partner table over named endpoints: a cup inserts
    two new names paired with each other, a cap removes two names and pairs
    their partners, and the names left are numbered in order."""
    ends = list(range(len(m)))
    partner = dict(enumerate(m))
    closed = False
    if cup:
        ends[p:p] = ["left", "right"]
        partner.update(left="right", right="left")
    else:
        x, y = ends.pop(p), ends.pop(p)
        closed = partner[x] == y
        if not closed:
            partner[partner[x]], partner[partner[y]] = partner[y], partner[x]
    position = {e: r for r, e in enumerate(ends)}
    return tuple(position[partner[e]] for e in ends), closed


@st.composite
def _matchings(draw, max_pairs=4):
    """Perfect matchings of up to 2 * max_pairs endpoints, crossing or not."""
    order = draw(st.permutations(range(2 * draw(st.integers(min_value=0, max_value=max_pairs)))))
    m = [0] * len(order)
    for a, b in zip(order[::2], order[1::2]):
        m[a], m[b] = b, a
    return tuple(m)


def test_matching_move_examples():
    # A cap on 2, 3 across the nested arcs (0 3) and (1 2) joins their
    # partners 1 and 0.
    assert cube._top((3, 2, 1, 0), 2, False) == ((1, 0), False)
    # A cup then a cap on the same endpoints closes a circle.
    assert cube._top((), 0, True) == ((1, 0), False)
    assert cube._top((1, 0), 0, False) == ((), True)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matching_move_matches_partner_table(data):
    m = data.draw(_matchings())
    p = data.draw(st.integers(min_value=0, max_value=len(m)))
    cupped = cube._top(m, p, True)
    assert cupped == _brute_top(m, p, True)
    assert cube._top(cupped[0], p, False) == (m, True)
    if m:
        p = data.draw(st.integers(min_value=0, max_value=len(m) - 2))
        assert cube._top(m, p, False) == _brute_top(m, p, False)


@pytest.mark.parametrize(
    "text",
    # T(2,1), T(2,2), T(2,3), T(2,6) and T(2,8) are the catalogue's
    # kink_positive, hopf, trefoil, torus_2_6 and torus_2_8, word for word.
    _catalogue_and_torus([4, 5, 7, 9, 10, 11, 12])
    + [pytest.param(cli._load_word_text(str(WORD_FILES / f)), id=f) for f in ("trefoil.sw", "solomon_seal.sw")],
)
def test_frobenius_oracle_agrees_with_functor_euler(text):
    word = cube.parse_slice_word(text, 2)
    assert cube.oracle_euler_k2(word) == reference_euler_k2(word) == cube.euler_invariant(word)


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_frobenius_oracle_agrees_on_kinked_closed_braids(data):
    # Braid closures use cup' and cap'; a kink adds cup or cup' and cap, and
    # pos or neg, so every token kind and both crossing signs occur.
    tokens = data.draw(closed_braids(max_crossings=9))
    gap = data.draw(st.integers(min_value=1, max_value=len(tokens) - 1))
    width = len(cube.parse_slice_word(" ".join(tokens[:gap]), 2).final_labels)
    strand = data.draw(st.integers(min_value=1, max_value=width))
    tokens = insert_kink(tokens, gap, strand, data.draw(st.sampled_from(("pos", "neg"))))
    word = cube.parse_slice_word(" ".join(tokens), 2)
    assert cube.oracle_euler_k2(word) == reference_euler_k2(word) == cube.euler_invariant(word)


@pytest.mark.parametrize("name", ["trefoil", "figure_eight", "torus_2_6"])
def test_oracle_and_homology_read_shared_circles(name):
    word = cube.parse_slice_word(cube.DIAGRAMS[name], 2)
    circles = resolution_circles(word)
    assert list(circles) == list(itertools.product((0, 1), repeat=word.n_crossings))
    assert reference_euler_k2(word, circles) == cube.oracle_euler_k2(word) == CATALOGUE[name][0]
    assert reference_bigraded_k2(word, QQ, circles) == cube.khovanov_bigraded_k2(word, QQ)


def test_oracle_requires_k2():
    word = cube.parse_slice_word(cube.DIAGRAMS["unknot"], 3)
    with pytest.raises(ValueError, match="^word was parsed at k = 3, not at k = 2$"):
        cube.oracle_euler_k2(word)
    with pytest.raises(ValueError, match="^word was parsed at k = 3, not at k = 2$"):
        cube.khovanov_bigraded_k2(word)


def test_oracle_rejects_open_words(monkeypatch):
    # Bad input, refused by the shared word guard before either scan moves
    # a single matching.
    def never(*args):
        raise AssertionError("a scan read a word it should have refused")

    for name in ("_top", "_glue", "_cone"):
        monkeypatch.setattr(cube, name, never)
    for scan in (cube.oracle_euler_k2, cube.khovanov_bigraded_k2):
        for text in ("cup(1)", "cup'(1) cup(3) pos(2) neg(2)"):
            with pytest.raises(ValueError, match="closed diagram"):
                scan(text)
            with pytest.raises(ValueError, match="open boundary"):
                scan(cube.parse_slice_word(text, 2))
        with pytest.raises(ValueError, match="parsed at k = 3, not at k = 2"):
            scan(cube.parse_slice_word(cube.DIAGRAMS["trefoil"], 3))


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


@pytest.mark.parametrize(
    "name,table",
    [
        ("trefoil", {(0, 1): 1, (0, 3): 1, (2, 5): 1, (3, 9): 1}),
        ("hopf", {(0, 0): 1, (0, 2): 1, (2, 4): 1, (2, 6): 1}),
        ("figure_eight", {(-2, -5): 1, (-1, -1): 1, (0, -1): 1, (0, 1): 1, (1, 1): 1, (2, 5): 1}),
    ],
)
def test_k2_bigraded_tables(name, table):
    # Bar-Natan's tables for the right-handed trefoil, the positive Hopf
    # link and the figure-eight knot.
    for field in (QQ, PrimeField(5)):
        assert cube.khovanov_bigraded_k2(cube.DIAGRAMS[name], field) == table


@pytest.mark.parametrize(
    "text", _catalogue_and_torus(range(1, 31)) + [pytest.param(BRAID_S6, id="braid_s6_seed7.sw")]
)
def test_k2_bigraded_euler_matches_transfer_matrices(text):
    # With h_raw = h + n_minus and q_raw = q - n_plus + 2 n_minus,
    # (-1)^n_minus sum (-1)^h_raw dim t^q_raw = t^s P(1/t), where P is the
    # (0, 0) entry of the transfer-matrix product and s = #cups + #neg tokens.
    # (-1)^h of the shifted h already carries the factor (-1)^n_minus.
    word = cube.parse_slice_word(text, 2)
    n_minus = word.n_negative
    n_plus = word.n_crossings - n_minus
    table = cube.khovanov_bigraded_k2(word)
    chi: dict[int, int] = {}
    dims: dict[int, int] = {}
    for (h, q), dim in table.items():
        q_raw = q - n_plus + 2 * n_minus
        chi[q_raw] = chi.get(q_raw, 0) + (-1) ** h * dim
        dims[h] = dims.get(h, 0) + dim
    mat, _ = cube.tangle_alternating_sum(word)
    s = sum(1 for kind, _ in word.tokens if kind in ("cup", "cup'", "neg"))
    reflected = {s - e: c for (i, j, e), c in mat.terms.items() if i == j == 0}
    assert LaurentPoly.from_dict(chi) == LaurentPoly.from_dict(reflected)
    assert cube.khovanov_homology_k2(word) == dims


def _unsplit_homology(word, field):
    """Homology from one complex over all quantum gradings: the cube assembly
    before the q-split, a second reference for the tangle scan."""
    word = cube.parse_slice_word(word, 2)
    nc = word.n_crossings
    vertices = list(itertools.product((0, 1), repeat=nc))
    circles = resolution_circles(word)
    offsets = {}
    degree_dims: dict[int, int] = {}
    for v in vertices:
        h = sum(v)
        offsets[v] = degree_dims.get(h, 0)
        degree_dims[h] = degree_dims.get(h, 0) + (1 << len(circles[v]))
    entries_by_degree: dict[int, dict] = {h: {} for h in range(nc)}
    for v in vertices:
        for c in range(nc):
            if v[c] == 1:
                continue
            w = v[:c] + (1,) + v[c + 1 :]
            sign = field.of(-1 if sum(v[:c]) % 2 else 1)
            cv, cw = circles[v], circles[w]
            common = set(cv) & set(cw)
            src_special = [s for s in cv if s not in common]
            dst_special = [s for s in cw if s not in common]
            src_pos = {s: t for t, s in enumerate(cv)}
            dst_pos = {s: t for t, s in enumerate(cw)}
            merge = len(src_special) == 2
            ent = entries_by_degree[sum(v)]
            for assign in itertools.product((0, 1), repeat=len(cv)):
                col = offsets[v] + sum(b << t for t, b in enumerate(assign))
                images = []
                if merge:
                    a = assign[src_pos[src_special[0]]]
                    b = assign[src_pos[src_special[1]]]
                    if a + b == 2:
                        continue
                    images.append({dst_special[0]: a + b})
                elif assign[src_pos[src_special[0]]] == 0:
                    images.append({dst_special[0]: 1, dst_special[1]: 0})
                    images.append({dst_special[0]: 0, dst_special[1]: 1})
                else:
                    images.append({dst_special[0]: 1, dst_special[1]: 1})
                for image in images:
                    out_bits = 0
                    for s in cw:
                        bit = image[s] if s in image else assign[src_pos[s]]
                        out_bits |= bit << dst_pos[s]
                    key = (offsets[w] + out_bits, col)
                    newv = field.of(ent.get(key, field.of(0)) + sign)
                    if not newv:
                        ent.pop(key, None)
                    else:
                        ent[key] = newv
    dims = tuple(degree_dims.get(h, 0) for h in range(nc + 1))
    maps = tuple(SparseMatrix(dims[h + 1], dims[h], entries_by_degree[h]) for h in range(nc))
    cx = FiniteComplex(field, dims, maps)
    return {h - word.n_negative: dim for h, dim in cx.homology_dims().items() if dim}


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("text", _catalogue_and_torus(range(2, 8)))
def test_q_split_matches_unsplit_assembly(text, field):
    assert cube.khovanov_homology_k2(text, field) == _unsplit_homology(text, field)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
# T(2,1), T(2,2), T(2,3), T(2,6) and T(2,8) are the catalogue's kink_positive,
# hopf, trefoil, torus_2_6 and torus_2_8, word for word.
@pytest.mark.parametrize("text", _catalogue_and_torus([4, 5, 7, 9]))
def test_tangle_scan_matches_cube_reference(text, field):
    assert cube.khovanov_bigraded_k2(text, field) == reference_bigraded_k2(text, field)


def _torus_homology(n):
    """Khovanov ranks of T(2, n), n >= 2, over Q or odd p: {0: 2, 2..n: 1},
    and 2 in degree n for even n (the closed form of the benchmark's
    `torus_homology`)."""
    dims = {0: 2, **{h: 1 for h in range(2, n + 1)}}
    if n % 2 == 0:
        dims[n] = 2
    return dims


def _torus_table(n):
    """Bigraded Khovanov table of T(2, n), n >= 1: (0, n - 2), (0, n), then
    (j, n + 2j - 2) for even j and (j, n + 2j) for odd j in 2..n, and
    (n, 3n) for even n."""
    table = {(0, n - 2): 1, (0, n): 1}
    for j in range(2, n + 1):
        table[(j, n + 2 * j - (2 if j % 2 == 0 else 0))] = 1
    if n % 2 == 0:
        table[(n, 3 * n)] = 1
    return table


@pytest.mark.parametrize("n", range(2, 31))
def test_torus_links_match_closed_forms(n):
    # Up to T(2,9) the scan also equals the cube reference, which anchors the
    # closed forms; beyond, the cube is out of reach.
    table = cube.khovanov_bigraded_k2(_torus(n), PrimeField(1031))
    assert table == _torus_table(n)
    dims: dict[int, int] = {}
    for (h, _), dim in table.items():
        dims[h] = dims.get(h, 0) + dim
    assert dims == _torus_homology(n)


@settings(max_examples=25, deadline=None)
@given(closed_braids(max_crossings=7), st.sampled_from((QQ, PrimeField(5))))
def test_tangle_scan_matches_cube_on_closed_braids(tokens, field):
    text = " ".join(tokens)
    assert cube.khovanov_bigraded_k2(text, field) == reference_bigraded_k2(text, field)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_k2_table_survives_kinks_and_twist_pairs(data):
    tokens = data.draw(closed_braids(max_crossings=5))
    table = cube.khovanov_bigraded_k2(" ".join(tokens))
    # Every gap strictly inside a braid closure has at least two strands.
    gap = data.draw(st.integers(min_value=1, max_value=len(tokens) - 1))
    width = len(cube.parse_slice_word(" ".join(tokens[:gap]), 2).final_labels)
    strand = data.draw(st.integers(min_value=1, max_value=width))
    kind = data.draw(st.sampled_from(("pos", "neg")))
    kinked = insert_kink(tokens, gap, strand, kind)
    assert cube.khovanov_bigraded_k2(" ".join(kinked)) == table
    i = data.draw(st.integers(min_value=1, max_value=width - 1))
    twisted = insert_twist_pair(kinked, gap + data.draw(st.sampled_from((0, 3))), i)
    assert cube.khovanov_bigraded_k2(" ".join(twisted)) == table


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_k2_table_survives_braid_relation(data):
    strands = data.draw(st.integers(min_value=3, max_value=4))
    j = data.draw(st.integers(min_value=1, max_value=strands - 2))
    kind = data.draw(st.sampled_from(("pos", "neg")))
    before = data.draw(braid_letters(strands, 2))
    after = data.draw(braid_letters(strands, 2))
    left = close_braid(strands, before + [(j, kind), (j + 1, kind), (j, kind)] + after)
    right = close_braid(strands, before + [(j + 1, kind), (j, kind), (j + 1, kind)] + after)
    assert cube.khovanov_bigraded_k2(" ".join(left)) == cube.khovanov_bigraded_k2(" ".join(right))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_tangle_sum_survives_twist_pairs_and_braid_relation(data):
    # Inside a closed braid every crossing joins two up strands of label 1,
    # so R2 and R3 rewrites there are admissible at every k.
    k = data.draw(st.sampled_from((2, 3, 4)))
    strands = data.draw(st.integers(min_value=3, max_value=4))
    j = data.draw(st.integers(min_value=1, max_value=strands - 2))
    kind = data.draw(st.sampled_from(("pos", "neg")))
    before = data.draw(braid_letters(strands, 2))
    after = data.draw(braid_letters(strands, 2))
    left = close_braid(strands, before + [(j, kind), (j + 1, kind), (j, kind)] + after)
    right = close_braid(strands, before + [(j + 1, kind), (j, kind), (j + 1, kind)] + after)
    value = cube.tangle_alternating_sum(" ".join(left), k)
    assert cube.tangle_alternating_sum(" ".join(right), k) == value
    gap = data.draw(st.integers(min_value=strands, max_value=len(left) - strands))
    i = data.draw(st.integers(min_value=strands + 1, max_value=2 * strands - 1))
    assert cube.tangle_alternating_sum(" ".join(insert_twist_pair(left, gap, i)), k) == value


def test_tangle_complex_check_raises_on_nonzero_square():
    objects = {0: (0, 0, ()), 1: (1, 0, ()), 2: (2, 0, ())}
    with pytest.raises(ComplexError, match="squared"):
        cube._check_square_zero(objects, {0: {1: {0: 1}}, 1: {2: {0: 1}}})
    cube._check_square_zero(objects, {0: {1: {0: 1}}})
    with pytest.raises(InvariantError, match="degree"):
        cube._check_square_zero({0: (0, 0, ()), 1: (1, 2, ())}, {0: {1: {0: 1}}})


def test_cobordism_composition_relations():
    # Over two endpoints joined by one arc: the identity is the undotted
    # strip, a dot is x, and x^2 = 0.
    arc = (1, 0)
    identity, dot = {0: 1}, {1: 1}
    assert cube._compose(arc, arc, arc, identity, dot) == dot
    assert cube._compose(arc, arc, arc, dot, dot) == {}
    # Saddle then inverse saddle on (0 1)(2 3) -> (0 3)(1 2) -> (0 1)(2 3) is a
    # tube: neck cutting gives a dot on either arc.
    cups, caps = (1, 0, 3, 2), (3, 2, 1, 0)
    assert cube._compose(cups, caps, cups, {0: 1}, {0: 1}) == {0b01: 1, 0b10: 1}
    # On six endpoints, (01)(25)(34) -> (03)(12)(45) -> (05)(14)(23) glues two
    # disks into a one-holed torus: a handle is twice a dot, and a handle with
    # a dot vanishes.
    x, a, y = (1, 0, 5, 4, 3, 2), (3, 2, 1, 0, 5, 4), (5, 4, 3, 2, 1, 0)
    assert cube._compose(x, a, y, {0: 1}, {0: 1}) == {1: 2}
    assert cube._compose(x, a, y, {1: 1}, {0: 1}) == {}
    # Coefficients multiply through, signs included.
    assert cube._compose(arc, arc, arc, {0: -2}, {1: 3}) == {1: -6} == reference_compose(arc, arc, arc, {0: -2}, {1: 3})
    assert cube._compose(arc, arc, arc, {1: -2}, {1: 3}) == {} == reference_compose(arc, arc, arc, {1: -2}, {1: 3})
    assert cube._compose(x, a, y, {0: -3}, {0: 5}) == {1: -30} == reference_compose(x, a, y, {0: -3}, {0: 5})
    assert cube._compose(x, a, y, {1: -3}, {0: 5}) == {} == reference_compose(x, a, y, {1: -3}, {0: 5})


@pytest.fixture
def fresh_composition():
    """A cold composition memo before and after the test: a memo warmed by
    other tests would hide a planted bug in the gluing or the neck cut, and
    one warmed under a planted bug would leak it into later tests."""
    cube._compose_masks.cache_clear()
    yield
    cube._compose_masks.cache_clear()


@pytest.mark.parametrize("width", [2, 4, 6])
def test_memoized_composition_matches_reference(width, fresh_composition):
    # Every (x, a, y) and every mask pair, first on a cold memo, then every
    # whole morphism again through the warm one.
    for x, a, y in itertools.product(crossingless_matchings(width), repeat=3):
        masks_f = range(1 << cube._cycles(x, a)[1])
        masks_g = range(1 << cube._cycles(a, y)[1])
        for mf, mg in itertools.product(masks_f, masks_g):
            f, g = {mf: -3}, {mg: 5}
            assert cube._compose(x, a, y, f, g) == reference_compose(x, a, y, f, g)
        f = {m: (-1) ** m * (m + 2) for m in masks_f}
        g = {m: (-1) ** (m + 1) * (2 * m + 1) for m in masks_g}
        assert cube._compose(x, a, y, f, g) == reference_compose(x, a, y, f, g)


def test_square_zero_check_catches_a_wrong_gluing(monkeypatch, fresh_composition):
    # With the memo cold, a gluing that hands the disks of g to the wrong
    # pieces reaches every composition, and d∘d no longer vanishes.
    gluing = cube._gluing

    def misglued(x, a, y):
        piece_f, piece_g, genus, bound = gluing(x, a, y)
        return piece_f, piece_g[::-1], genus, bound

    monkeypatch.setattr(cube, "_gluing", misglued)
    with pytest.raises(ComplexError, match="squared"):
        cube.khovanov_bigraded_k2(cube.DIAGRAMS["figure_eight"])


# The 6-strand word's table as the scan computed it before compositions were
# memoized, the same over Q and over F_1031: total rank 12.
BRAID_S6_TABLE = {
    (0, 4): 1, (0, 6): 1, (2, 8): 2, (2, 10): 1, (3, 12): 1, (4, 12): 2, (5, 16): 2, (6, 16): 1, (7, 20): 1,
}


@pytest.mark.parametrize("field", [QQ, PrimeField(1031)], ids=["Q", "F1031"])
def test_wide_closed_braid_table_is_pinned(field):
    assert cube.khovanov_bigraded_k2(BRAID_S6, field) == BRAID_S6_TABLE


def _letters(text: str, strands: int) -> list[tuple[int, str]]:
    """The braid letters (j, kind) of a word that `close_braid` writes."""
    tokens = text.split()
    letters = [(int(token[4:-1]) - strands, token[:3]) for token in tokens[strands:-strands]]
    assert close_braid(strands, letters) == tokens
    return letters


def _far_commute(letters, i):
    """Swap letters i and i+1, which must be at least two strands apart."""
    assert abs(letters[i][0] - letters[i + 1][0]) >= 2
    return letters[:i] + [letters[i + 1], letters[i]] + letters[i + 2 :]


def _braid_move(letters, i):
    """R3: s_j s_j' s_j -> s_j' s_j s_j' on letters i..i+2, |j - j'| = 1, one kind."""
    (j, kind), (other, kind2), (j2, kind3) = letters[i : i + 3]
    assert j == j2 and abs(j - other) == 1 and kind == kind2 == kind3
    return letters[:i] + [(other, kind), (j, kind), (other, kind)] + letters[i + 3 :]


def _s6_far_commutation():
    # s5 s3 -> s3 s5 at letters 2, 3.
    return _far_commute(_letters(BRAID_S6, 6), 2)


def _s6_braid_relation():
    # s5 at letter 11 moves down past s2 s1^-1 s1 s1^-1, and s1 at letter 5
    # up past it, which leaves s5 s4 s5 at letters 5-7; R3 rewrites that.
    letters = _letters(BRAID_S6, 6)
    for i in (10, 9, 8, 7, 4):
        letters = _far_commute(letters, i)
    return _braid_move(letters, 5)


@pytest.mark.parametrize("rewrite", [_s6_far_commutation, _s6_braid_relation], ids=["far_commutation", "R3"])
def test_wide_closed_braid_table_survives_braid_rewrites(rewrite):
    text = " ".join(close_braid(6, rewrite()))
    assert text != BRAID_S6
    assert cube.khovanov_bigraded_k2(text) == BRAID_S6_TABLE
