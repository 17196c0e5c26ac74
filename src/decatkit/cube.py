"""Resolution cubes for slice words of cup/cap/crossing diagrams.

A slice word builds an oriented diagram bottom-up, one token per horizontal
slice, with 1-based strand positions:

    cup(i)   create two strands at positions i, i+1: labels (1, k-1),
             orientations (up, down)
    cup'(i)  mirror image: labels (k-1, 1), orientations (down, up)
    cap(i)   close strands at i, i+1; requires labels (1, k-1)
    cap'(i)  close strands at i, i+1; requires labels (k-1, 1)
    pos(i)   crossing, strand i passing over strand i+1; both labels 1
    neg(i)   crossing, strand i passing under strand i+1; both labels 1

An upward strand carries label 1, a downward strand label k-1; at k = 2 the
two labels coincide, which is the only case where cap and cap' both apply to
either orientation pattern. Crossings swap the two strands.

Each crossing resolves two ways. The 0-resolution is the planar smoothing
obtained by turning the over-strand counterclockwise onto the under-strand:
for pos that is the vertical (identity) smoothing, for neg the horizontal
one. The horizontal smoothing of pos carries the shift normalization of the
adjoint pair (merge then shift(-2) then split); for neg it is the unshifted
merge-split. A vertex of the cube is a choice of bit per crossing; its value
is the Laurent-matrix evaluation of the corresponding word of moves.

The sign of a crossing in the oriented sense depends on the strand
orientations: a pos token between parallel strands is a positive crossing,
between antiparallel strands a negative one, and vice versa for neg. The
Euler normalization uses the oriented count n_minus, so the invariant is
(-1)^(n_minus) * sum over vertices of (-1)^(number of 1-bits) * value(t=1).

That signed sum is multilinear in the per-crossing bits, so it is one product
of transfer matrices, applied locally token by token: a crossing applies the
difference M(0) - M(1) of its two resolutions. The cost is linear in the
number of crossings; `build_cube` still evaluates all 2^c vertices, for tests.
"""

from __future__ import annotations

import dataclasses
import itertools
import re

from decatkit import functors
from decatkit.exactlin import QQ, FiniteComplex, InvariantError, LaurentMatrix, SparseMatrix

TOKEN_RE = re.compile(r"^(cup'|cup|cap'|cap|pos|neg)\((\d+)\)$")

Token = tuple[str, int]


@dataclasses.dataclass
class SliceWord:
    """A parsed, validated slice word."""

    k: int
    text: str
    tokens: tuple[Token, ...]
    crossings: tuple[int, ...]
    crossing_signs: tuple[int, ...]
    final_labels: tuple[int, ...]

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def n_negative(self) -> int:
        return sum(1 for s in self.crossing_signs if s < 0)

    @property
    def closed(self) -> bool:
        return not self.final_labels


def parse_slice_word(text: str, k: int) -> SliceWord:
    """Parse and validate a slice word for the given k >= 2."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    tokens: list[Token] = []
    labels: list[int] = []
    orients: list[str] = []
    crossings: list[int] = []
    signs: list[int] = []
    for raw in text.split():
        m = TOKEN_RE.match(raw)
        if not m:
            raise ValueError(f"bad token {raw!r}")
        kind, i = m.group(1), int(m.group(2))
        idx = len(tokens)
        tokens.append((kind, i))
        if kind in ("cup", "cup'"):
            if not (1 <= i <= len(labels) + 1):
                raise ValueError(f"token {idx}: cup position {i} outside 1..{len(labels) + 1}")
            if kind == "cup":
                labels[i - 1 : i - 1] = [1, k - 1]
                orients[i - 1 : i - 1] = ["u", "d"]
            else:
                labels[i - 1 : i - 1] = [k - 1, 1]
                orients[i - 1 : i - 1] = ["d", "u"]
        elif kind in ("cap", "cap'"):
            if not (1 <= i < len(labels)):
                raise ValueError(f"token {idx}: cap position {i} outside 1..{len(labels) - 1}")
            want = (1, k - 1) if kind == "cap" else (k - 1, 1)
            got = (labels[i - 1], labels[i])
            if got != want:
                raise ValueError(f"token {idx}: {kind}({i}) needs labels {want}, found {got}")
            if orients[i - 1] == orients[i]:
                raise ValueError(f"token {idx}: cap cannot join two strands oriented the same way")
            del labels[i - 1 : i + 1]
            del orients[i - 1 : i + 1]
        else:
            if not (1 <= i < len(labels)):
                raise ValueError(f"token {idx}: crossing position {i} outside 1..{len(labels) - 1}")
            if labels[i - 1] != 1 or labels[i] != 1:
                raise ValueError(
                    f"token {idx}: crossings need labels (1, 1), found ({labels[i - 1]}, {labels[i]})"
                )
            parallel = orients[i - 1] == orients[i]
            sign = 1 if (kind == "pos") == parallel else -1
            crossings.append(idx)
            signs.append(sign)
            labels[i - 1], labels[i] = labels[i], labels[i - 1]
            orients[i - 1], orients[i] = orients[i], orients[i - 1]
    return SliceWord(
        k=k,
        text=text,
        tokens=tuple(tokens),
        crossings=tuple(crossings),
        crossing_signs=tuple(signs),
        final_labels=tuple(labels),
    )


def _as_word(word: SliceWord | str, k: int | None) -> SliceWord:
    if isinstance(word, str):
        if k is None:
            raise ValueError("k is required when passing a raw word string")
        word = parse_slice_word(word, k)
    return word


def _token_moves(kind: str, i: int, k: int, bit: int | None):
    if kind == "cup":
        return [("ins", i), ("split", i, (1, k - 1))]
    if kind == "cup'":
        return [("ins", i), ("split", i, (k - 1, 1))]
    if kind in ("cap", "cap'"):
        return [("merge", i), ("del", i)]
    if kind == "pos":
        return [] if bit == 0 else [("merge", i), ("shift", -2), ("split", i, (1, 1))]
    if kind == "neg":
        return [("merge", i), ("split", i, (1, 1))] if bit == 0 else []
    raise InvariantError(kind)


def _apply_token(k: int, token: Token, bit: int | None, sig, mat: LaurentMatrix):
    for move in _token_moves(*token, k, bit):
        mat, sig = functors.apply_move(k, sig, move, mat)
    return mat, sig


@dataclasses.dataclass
class Cube:
    """All resolutions of a slice word, with their Laurent matrix values."""

    word: SliceWord
    values: dict[tuple[int, ...], LaurentMatrix]
    final_sig: tuple[int, ...]


def build_cube(word: SliceWord | str, k: int | None = None) -> Cube:
    """Evaluate every resolution of the word, sharing common prefixes.

    Exponential in the crossing count; `tangle_alternating_sum` gets the
    signed sum of these values from one product and is checked against it.
    """
    word = _as_word(word, k)
    k = word.k
    values: dict[tuple[int, ...], LaurentMatrix] = {}
    final_sigs: set[tuple[int, ...]] = set()

    def rec(idx: int, mat: LaurentMatrix, sig: tuple[int, ...], bits: tuple[int, ...]):
        if idx == len(word.tokens):
            values[bits] = mat
            final_sigs.add(sig)
            return
        token = word.tokens[idx]
        if token[0] in ("pos", "neg"):
            for bit in (0, 1):
                rec(idx + 1, *_apply_token(k, token, bit, sig, mat), bits + (bit,))
        else:
            rec(idx + 1, *_apply_token(k, token, None, sig, mat), bits)

    rec(0, functors.identity_matrix(k, ()), (), ())
    if final_sigs != {word.final_labels}:
        raise InvariantError(f"resolutions end in signatures {final_sigs}, not {word.final_labels}")
    return Cube(word=word, values=values, final_sig=word.final_labels)


def tangle_alternating_sum(word: SliceWord | str, k: int | None = None) -> tuple[LaurentMatrix, tuple[int, ...]]:
    """Signed sum of the vertex values, as one product of transfer matrices.

    The sum over bit vectors b of (-1)^|b| M_c(b_c) ... M_1(b_1) equals
    (M_c(0) - M_c(1)) ... (M_1(0) - M_1(1)), so each crossing applies the
    difference of its two resolutions to the running matrix.
    """
    word = _as_word(word, k)
    k = word.k
    sig: tuple[int, ...] = ()
    mat = functors.identity_matrix(k, sig)
    for token in word.tokens:
        if token[0] in ("pos", "neg"):
            # Both resolutions return to the (1, 1) labels of the crossing.
            m0, _ = _apply_token(k, token, 0, sig, mat)
            m1, sig = _apply_token(k, token, 1, sig, mat)
            mat = m0 + m1.scaled(-1)
        else:
            mat, sig = _apply_token(k, token, None, sig, mat)
    if sig != word.final_labels:
        raise InvariantError(f"word ends in signature {sig}, not {word.final_labels}")
    if word.n_negative % 2:
        mat = mat.scaled(-1)
    return mat, sig


def euler_invariant(word: SliceWord | str, k: int | None = None) -> int:
    """Alternating sum of vertex values at t = 1, normalized by n_minus.

    Only closed diagrams have a scalar invariant; open boundary raises, and
    `tangle_alternating_sum` is the matrix-valued companion.
    """
    word = _as_word(word, k)
    if not word.closed:
        raise ValueError("diagram has open boundary; use tangle_alternating_sum for tangles")
    mat, _ = tangle_alternating_sum(word)
    return sum(c for (i, j, _), c in mat.terms.items() if i == j == 0)


class _UnionFind(dict):
    """Union-find forest: maps each item to its parent, and a root to itself."""

    def find(self, x):
        while self[x] != x:
            self[x] = self[self[x]]
            x = self[x]
        return x

    def union(self, x, y) -> None:
        self[self.find(x)] = self.find(y)


def link_components(word: SliceWord | str, k: int | None = None) -> int:
    """Number of link components of the closed diagram."""
    word = _as_word(word, k)
    if not word.closed:
        raise ValueError("diagram has open boundary")
    forest = _UnionFind()
    cur: list = []
    nodes = []
    for idx, (kind, i) in enumerate(word.tokens):
        if kind in ("cup", "cup'"):
            a, b = (idx, 0), (idx, 1)
            forest[a] = a
            forest[b] = b
            forest.union(a, b)
            nodes.extend([a, b])
            cur[i - 1 : i - 1] = [a, b]
        elif kind in ("cap", "cap'"):
            forest.union(cur[i - 1], cur[i])
            del cur[i - 1 : i + 1]
        else:
            cur[i - 1], cur[i] = cur[i], cur[i - 1]
    if cur:
        raise InvariantError("closed word left strands open")
    return len({forest.find(x) for x in nodes})


def _resolution_circles(word: SliceWord, bits: tuple[int, ...]) -> list[frozenset]:
    """Circles of the planar resolution, as frozensets of strand segments.

    A segment id (idx, pos) names the piece of strand pos (0-based) in the
    gap directly above token idx. Every token refreshes all ids, so segments
    are shared verbatim between resolutions and only their connectivity
    depends on the bits: adjacent resolutions then differ by an exact union
    (merge) or an exact partition (split) of circle sets.
    """
    bit_of = dict(zip(word.crossings, bits))
    forest = _UnionFind()
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


def resolution_circles(word: SliceWord) -> dict[tuple[int, ...], list[frozenset]]:
    """Circles of every resolution, vertices in lexicographic order, each
    vertex's circles sorted by their least segment."""
    vertices = itertools.product((0, 1), repeat=word.n_crossings)
    return {v: sorted(_resolution_circles(word, v), key=min) for v in vertices}


def khovanov_bigraded_k2(word: SliceWord | str, field=QQ, circles=None) -> dict[tuple[int, int], int]:
    """Bigraded homology {(h, q): dim} of the k = 2 rank-one Frobenius cube.

    Vertex state spaces are tensor powers of the two-dimensional algebra
    A = span(1, x) with x^2 = 0, one factor per circle of the resolution;
    edges apply multiplication or comultiplication on the circles changed by
    flipping one crossing, with the usual alternating edge signs (ints, read
    in either field). Valid only for k = 2, where vertex values are
    determined by circle counts.

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
        word = parse_slice_word(word, 2)
    if word.k != 2:
        raise ValueError(f"the Frobenius cube oracle is defined for k = 2, got k = {word.k}")
    if not word.closed:
        raise ValueError("diagram has open boundary")
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
    degrees = tuple(h - n_minus for h in range(nc + 1))
    table: dict[tuple[int, int], int] = {}
    for q in sorted({q for _, q in block_dims}):
        dims = tuple(block_dims.get((h, q), 0) for h in range(nc + 1))
        maps = tuple(SparseMatrix(dims[h + 1], dims[h], entries.get((h, q), {})) for h in range(nc))
        cx = FiniteComplex(field=field, dims=dims, maps=maps, degrees=degrees)
        for deg, dim in cx.homology_dims().items():
            if dim:
                table[(deg, q + n_plus - 2 * n_minus)] = dim
    return dict(sorted(table.items()))


def khovanov_homology_k2(word: SliceWord | str, field=QQ) -> dict[int, int]:
    """Homology dimensions {h: dim} of the k = 2 cube, shifted down by n_minus.

    The sum over q of `khovanov_bigraded_k2`: one complex per quantum
    grading, its basis numbered inside each (h, q) block, ascending in even
    h and descending in odd h.
    """
    dims: dict[int, int] = {}
    for (h, _), dim in khovanov_bigraded_k2(word, field).items():
        dims[h] = dims.get(h, 0) + dim
    return dims


def oracle_euler_k2(word: SliceWord | str, circles=None) -> int:
    """Euler number from circle counts; valid only at k = 2. `circles`, if
    given, is `resolution_circles(word)`; only their counts are read."""
    if isinstance(word, str):
        word = parse_slice_word(word, 2)
    if word.k != 2:
        raise ValueError("circle counting only computes the k = 2 value")
    total = 0
    for bits, cs in (resolution_circles(word) if circles is None else circles).items():
        total += (-1 if sum(bits) % 2 else 1) * (1 << len(cs))
    if word.n_negative % 2:
        total = -total
    return total


def reidemeister_check(word_a: str, word_b: str, k: int, field=QQ) -> bool:
    """True when both words give the same invariants: the Euler number for
    any k, plus the full cube homology at k = 2."""
    wa, wb = parse_slice_word(word_a, k), parse_slice_word(word_b, k)
    if euler_invariant(wa) != euler_invariant(wb):
        return False
    if k == 2:
        return khovanov_homology_k2(wa, field) == khovanov_homology_k2(wb, field)
    return True


DIAGRAMS: dict[str, str] = {
    "unknot": "cup(1) cap(1)",
    "unknot_mirror": "cup'(1) cap'(1)",
    "unlink2": "cup'(1) cup(3) cap(3) cap'(1)",
    "kink_positive": "cup'(1) cup(3) pos(2) cap(3) cap'(1)",
    "kink_negative": "cup'(1) cup(3) neg(2) cap(3) cap'(1)",
    "twist_pair": "cup'(1) cup(3) pos(2) neg(2) cap(3) cap'(1)",
    "braid121": "cup'(1) cup'(2) cup'(3) pos(4) pos(5) pos(4) cap'(3) cap'(2) cap'(1)",
    "braid212": "cup'(1) cup'(2) cup'(3) pos(5) pos(4) pos(5) cap'(3) cap'(2) cap'(1)",
    "hopf": "cup'(1) cup(3) pos(2) pos(2) cap(3) cap'(1)",
    "trefoil": "cup'(1) cup(3) pos(2) pos(2) pos(2) cap(3) cap'(1)",
    "figure_eight": "cup'(1) cup'(2) cup'(3) pos(4) neg(5) pos(4) neg(5) cap'(3) cap'(2) cap'(1)",
    "torus_2_6": "cup'(1) cup(3) pos(2) pos(2) pos(2) pos(2) pos(2) pos(2) cap(3) cap'(1)",
    "torus_2_8": (
        "cup'(1) cup(3) pos(2) pos(2) pos(2) pos(2) pos(2) pos(2) pos(2) pos(2) cap(3) cap'(1)"
    ),
}

# Pairs of words related by one framed move, valid for every k >= 2.
MOVE_PAIRS: list[tuple[str, str, str]] = [
    ("R1_positive_kink", "unknot", "kink_positive"),
    ("R1_negative_kink", "unknot", "kink_negative"),
    ("R2_twist_cancel", "unlink2", "twist_pair"),
    ("R3_braid_relation", "braid121", "braid212"),
]
