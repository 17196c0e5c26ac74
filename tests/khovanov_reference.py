"""Test-side references for the k = 2 computations in `cube`: the circles of
every resolution, the brute-force state sum over them (for
`cube.oracle_euler_k2`), the whole q-split resolution cube (for
`cube.khovanov_bigraded_k2`), the unmemoized composition of dotted
cobordisms (for `cube._compose`), and generated closed braid diagrams to
compare on.

The cube reference assembles every vertex of the 2^c cube, with one tensor
factor of A = span(1, x), x^2 = 0, per circle of the resolution, and ranks one
complex per quantum grading. Both references walk all 2^c resolutions, so
their cost is exponential in the crossing count (the cube takes about a
second on T(2,9)), which is why the package scans tangles instead.
"""

import itertools

from hypothesis import strategies as st

from decatkit import cube
from decatkit.exactlin import QQ, FiniteComplex, InvariantError, SparseMatrix


def _circles_at(word, bits: tuple[int, ...]) -> list[frozenset]:
    """Circles of the planar resolution, as frozensets of strand segments.

    A segment id (idx, pos) names the piece of strand pos (0-based) in the
    gap directly above token idx. Every token refreshes all ids, so segments
    are shared verbatim between resolutions and only their connectivity
    depends on the bits: adjacent resolutions then differ by an exact union
    (merge) or an exact partition (split) of circle sets.
    """
    bit_of = dict(zip(word.crossings, bits))
    forest = cube._UnionFind()
    cur: list = []
    for idx, (kind, i) in enumerate(word.tokens):
        if kind in ("cup", "cup'"):
            width = len(cur) + 2
            paired = (i - 1, i)
        elif kind in ("cap", "cap'"):
            width = len(cur) - 2
            forest.union(cur[i - 1], cur[i])
            del cur[i - 1 : i + 1]
            paired = ()
        else:
            width = len(cur)
            horizontal = (kind == "pos") == (bit_of[idx] == 1)
            if horizontal:
                forest.union(cur[i - 1], cur[i])
                paired = (i - 1, i)
            else:
                paired = ()
        fresh = [(idx, pos) for pos in range(width)]
        for seg in fresh:
            forest[seg] = seg
        if kind in ("cup", "cup'"):
            straight = list(zip(cur, fresh[: i - 1] + fresh[i + 1 :]))
        elif paired:
            straight = [(old, new) for pos, (old, new) in enumerate(zip(cur, fresh)) if pos not in paired]
        else:
            straight = list(zip(cur, fresh))
        for old, new in straight:
            forest.union(old, new)
        for a, b in zip(paired, paired[1:]):
            forest.union(fresh[a], fresh[b])
        cur = fresh
    if cur:
        raise InvariantError("closed word left strands open")
    groups: dict = {}
    for x in forest:
        groups.setdefault(forest.find(x), []).append(x)
    return [frozenset(g) for g in groups.values()]


def resolution_circles(word) -> dict[tuple[int, ...], list[frozenset]]:
    """Circles of every resolution, vertices in lexicographic order, each
    vertex's circles sorted by their least segment."""
    vertices = itertools.product((0, 1), repeat=word.n_crossings)
    return {v: sorted(_circles_at(word, v), key=min) for v in vertices}


def reference_euler_k2(word, circles=None) -> int:
    """Kauffman's state sum by brute force: (-1)^n_minus times the sum over
    all 2^c resolutions of (-1)^(number of 1-bits) 2^#circles. `circles`, if
    given, is `resolution_circles(word)`; only their counts are read."""
    if isinstance(word, str):
        word = cube.parse_slice_word(word, 2)
    total = 0
    for bits, cs in (resolution_circles(word) if circles is None else circles).items():
        total += (-1 if sum(bits) % 2 else 1) * (1 << len(cs))
    return -total if word.n_negative % 2 else total


def reference_bigraded_k2(word, field=QQ, circles=None) -> dict[tuple[int, int], int]:
    """Bigraded homology {(h, q): dim} of the k = 2 rank-one Frobenius cube.

    Vertex state spaces are tensor powers of the two-dimensional algebra
    A = span(1, x) with x^2 = 0, one factor per circle of the resolution;
    edges apply multiplication or comultiplication on the circles changed by
    flipping one crossing, with the usual alternating edge signs (ints, read
    in either field).

    Every edge map preserves q = #circles - 2 #x + h at the vertex of height
    h, so the complex splits into one subcomplex per q (Bar-Natan,
    math/0201043). Each basis vector (vertex, assignment) is numbered inside
    its (h, q) block: vertices in lexicographic order and assignments as
    integers (bit t set when circle t carries x), ascending in even h and
    descending in odd h, which keeps the elimination of every d_h sparse.
    An edge that leaves its block raises `InvariantError`. The table is in
    Bar-Natan's normalization: (h - n_minus, q + n_plus - 2 n_minus).
    `circles`, if given, is `resolution_circles(word)`.
    """
    if isinstance(word, str):
        word = cube.parse_slice_word(word, 2)
    nc = word.n_crossings
    circles = resolution_circles(word) if circles is None else circles
    vertices = list(circles)

    block_dims: dict[tuple[int, int], int] = {}
    index: dict[tuple[int, ...], list[int]] = {}
    for v in vertices:
        h, m = sum(v), len(circles[v])
        index[v] = numbers = []
        for a in range(1 << m):
            block = (h, m - 2 * a.bit_count() + h)
            numbers.append(block_dims.get(block, 0))
            block_dims[block] = numbers[-1] + 1
    for v in vertices:
        h, m = sum(v), len(circles[v])
        if h % 2:
            index[v] = [block_dims[(h, m - 2 * a.bit_count() + h)] - 1 - i for a, i in enumerate(index[v])]

    entries: dict[tuple[int, int], dict[tuple[int, int], int]] = {block: {} for block in block_dims}
    for v in vertices:
        h = sum(v)
        cv = circles[v]
        for c in range(nc):
            if v[c] == 1:
                continue
            w = v[:c] + (1,) + v[c + 1 :]
            sign = -1 if sum(v[:c]) % 2 else 1
            cw = circles[w]
            src_pos = {s: t for t, s in enumerate(cv)}
            dst_pos = {s: t for t, s in enumerate(cw)}
            kept = [(src_pos[s], dst_pos[s]) for s in cw if s in src_pos]
            src_special = [src_pos[s] for s in cv if s not in dst_pos]
            dst_special = [dst_pos[s] for s in cw if s not in src_pos]
            if {len(src_special), len(dst_special)} != {1, 2}:
                raise InvariantError("flipping one crossing must merge or split exactly one pair")
            merge = len(src_special) == 2
            src_index, dst_index = index[v], index[w]
            src_q, dst_q = len(cv) + h, len(cw) + h + 1
            for a in range(1 << len(cv)):
                base = 0
                for t, u in kept:
                    base |= (a >> t & 1) << u
                if merge:
                    x, y = (a >> src_special[0] & 1), (a >> src_special[1] & 1)
                    if x and y:
                        continue
                    images = [base | (x | y) << dst_special[0]]
                elif a >> src_special[0] & 1:
                    images = [base | 1 << dst_special[0] | 1 << dst_special[1]]
                else:
                    images = [base | 1 << dst_special[0], base | 1 << dst_special[1]]
                q = src_q - 2 * a.bit_count()
                ent = entries[(h, q)]
                col = src_index[a]
                for out in images:
                    if dst_q - 2 * out.bit_count() != q:
                        raise InvariantError(f"edge map leaves quantum grading {q}")
                    ent[(dst_index[out], col)] = sign

    n_minus = word.n_negative
    n_plus = nc - n_minus
    table: dict[tuple[int, int], int] = {}
    for q in sorted({q for _, q in block_dims}):
        dims = tuple(block_dims.get((h, q), 0) for h in range(nc + 1))
        maps = tuple(SparseMatrix(dims[h + 1], dims[h], entries.get((h, q), {})) for h in range(nc))
        cx = FiniteComplex(field=field, dims=dims, maps=maps)
        for h, dim in cx.homology_dims().items():
            if dim:
                table[(h - n_minus, q + n_plus - 2 * n_minus)] = dim
    return dict(sorted(table.items()))


# ---------------------------------------------------------------- cobordisms


def reference_compose(x, a, y, f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    """g ∘ f for f: x -> a and g: a -> y, every mask pair glued and reduced
    afresh: the composition `cube._compose` memoizes per mask pair."""
    piece_f, piece_g, genus, bound = cube._gluing(x, a, y)
    out: dict[int, int] = {}
    for mf, cf in f.items():
        for mg, cg in g.items():
            dots = list(genus)
            for i, piece in enumerate(piece_f):
                dots[piece] += mf >> i & 1
            for j, piece in enumerate(piece_g):
                dots[piece] += mg >> j & 1
            terms = {0: cf * cg << sum(genus)}
            for piece, n in enumerate(dots):
                terms = cube._neck_cut(terms, bound[piece], n)
            for m, c in terms.items():
                out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def crossingless_matchings(width: int) -> list[tuple[int, ...]]:
    """Every crossingless matching of `width` endpoints, as tuples m with
    m[r] the partner of endpoint r."""
    if width == 0:
        return [()]
    found = []
    for partner in range(1, width, 2):
        for inner in crossingless_matchings(partner - 1):
            for outer in crossingless_matchings(width - partner - 1):
                m = (partner,) + tuple(s + 1 for s in inner) + (0,) + tuple(s + partner + 1 for s in outer)
                found.append(m)
    return found


# ---------------------------------------------------------------- generated diagrams


def close_braid(strands: int, letters) -> list[str]:
    """Slice tokens of a closed braid, closed the way `braid121` is:
    cup'(1)..cup'(s) open s nested pairs whose up strands sit at s+1..2s, the
    letter (j, kind) crosses up strands j, j+1 with kind(s+j), and
    cap'(s)..cap'(1) close the pairs again."""
    s = strands
    return (
        [f"cup'({i})" for i in range(1, s + 1)]
        + [f"{kind}({s + j})" for j, kind in letters]
        + [f"cap'({i})" for i in range(s, 0, -1)]
    )


def braid_letters(strands: int, max_size: int):
    """Strategy for braid words on `strands` strands: lists of (j, pos|neg)."""
    if strands < 2:
        return st.just([])
    letter = st.tuples(st.integers(min_value=1, max_value=strands - 1), st.sampled_from(("pos", "neg")))
    return st.lists(letter, max_size=max_size)


@st.composite
def closed_braids(draw, max_crossings: int = 7) -> list[str]:
    """Closed braid diagrams on 1-4 strands with at most `max_crossings` crossings."""
    strands = draw(st.integers(min_value=1, max_value=4))
    return close_braid(strands, draw(braid_letters(strands, max_crossings)))


def _orientations(tokens: list[str]) -> list[str]:
    """Orientation ('u' or 'd') of each strand above the tokens, as the parser tracks it."""
    orients: list[str] = []
    for token in tokens:
        kind, i = cube.TOKEN_RE.match(token).groups()
        i = int(i)
        if kind in ("cup", "cup'"):
            orients[i - 1 : i - 1] = ["u", "d"] if kind == "cup" else ["d", "u"]
        elif kind in ("cap", "cap'"):
            del orients[i - 1 : i + 1]
        else:
            orients[i - 1], orients[i] = orients[i], orients[i - 1]
    return orients


def insert_kink(tokens: list[str], gap: int, strand: int, kind: str) -> list[str]:
    """R1: a kink on strand `strand` (1-based) above the first `gap` tokens.
    A cup opens right of the strand, the strand crosses its left end with
    `kind`, and a cap joins the strand to the cup's right end; the cup is
    cup or cup' so that the cap closes strands oriented oppositely."""
    cup = "cup" if _orientations(tokens[:gap])[strand - 1] == "u" else "cup'"
    kink = [f"{cup}({strand + 1})", f"{kind}({strand})", f"cap({strand + 1})"]
    return tokens[:gap] + kink + tokens[gap:]


def insert_twist_pair(tokens: list[str], gap: int, i: int) -> list[str]:
    """R2: pos(i) neg(i) above the first `gap` tokens, the same strand over twice."""
    return tokens[:gap] + [f"pos({i})", f"neg({i})"] + tokens[gap:]
