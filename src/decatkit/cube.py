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
either orientation pattern. Crossings swap the two strands. The parser
follows each strand's orientation and arc, and so counts link components.

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
number of crossings; the test reference `build_cube` folds the same token
step over each of the 2^c vertices.

The k = 2 homology is local too: Bar-Natan's tangle scan (math/0606318)
keeps one complex over the tangle below the current slice, its objects
crossingless matchings of the top endpoints with (h, q) shifts and its
morphisms Z-combinations of dotted cobordisms. A cap deloops the circle it
closes, a crossing takes the cone of its saddle, and Gaussian elimination
cancels every ±identity entry, so for T(2, n) the complex keeps O(n) objects
where the cube has 2^n vertices. Bar-Natan's normalization is applied once,
to the keys of the final table. The q-split cube is the test reference
`tests/khovanov_reference.py`. The circle oracle `oracle_euler_k2` scans with
the same cup/cap move `_top`: Kauffman's state sum, no resolution walked.
Words enter through `_as_word`, the one parse, k check and closed check.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import re

from decatkit import functors
from decatkit.exactlin import QQ, ComplexError, FiniteComplex, InvariantError, LaurentMatrix, SparseMatrix

TOKEN_RE = re.compile(r"^(cup'|cup|cap'|cap|pos|neg)\((\d+)\)$")

Token = tuple[str, int]


class _UnionFind(dict):
    """Union-find forest: maps each item to its parent, and a root to itself."""

    def find(self, x):
        while self[x] != x:
            self[x] = self[self[x]]
            x = self[x]
        return x

    def union(self, x, y) -> None:
        self[self.find(x)] = self.find(y)


@dataclasses.dataclass
class SliceWord:
    """A parsed, validated slice word; `components` is None while strands are open."""

    k: int
    text: str
    tokens: tuple[Token, ...]
    crossings: tuple[int, ...]
    crossing_signs: tuple[int, ...]
    final_labels: tuple[int, ...]
    components: int | None

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
    """Parse and validate a slice word for the given k >= 2, following each
    strand's orientation and arc (named by its cup's token); a cap joins arcs."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    tokens: list[Token] = []
    orients: list[str] = []
    arcs: list[int] = []
    forest = _UnionFind()
    label = {"u": 1, "d": k - 1}
    crossings: list[int] = []
    signs: list[int] = []
    for raw in text.split():
        m = TOKEN_RE.match(raw)
        if not m:
            raise ValueError(f"bad token {raw!r}")
        kind, i = m.group(1), int(m.group(2))
        idx = len(tokens)
        tokens.append((kind, i))
        if kind not in ("cup", "cup'") and len(orients) < 2:
            raise ValueError(f"token {idx}: {kind}({i}) needs two strands, but fewer than two are open")
        if kind in ("cup", "cup'"):
            if not (1 <= i <= len(orients) + 1):
                raise ValueError(f"token {idx}: cup position {i} outside 1..{len(orients) + 1}")
            orients[i - 1 : i - 1] = ["u", "d"] if kind == "cup" else ["d", "u"]
            arcs[i - 1 : i - 1] = [idx, idx]
            forest[idx] = idx
        elif kind in ("cap", "cap'"):
            if not (1 <= i < len(orients)):
                raise ValueError(f"token {idx}: cap position {i} outside 1..{len(orients) - 1}")
            want = (1, k - 1) if kind == "cap" else (k - 1, 1)
            got = (label[orients[i - 1]], label[orients[i]])
            if got != want:
                raise ValueError(f"token {idx}: {kind}({i}) needs labels {want}, found {got}")
            if orients[i - 1] == orients[i]:
                raise ValueError(f"token {idx}: cap cannot join two strands oriented the same way")
            forest.union(arcs[i - 1], arcs[i])
            del orients[i - 1 : i + 1], arcs[i - 1 : i + 1]
        else:
            if not (1 <= i < len(orients)):
                raise ValueError(f"token {idx}: crossing position {i} outside 1..{len(orients) - 1}")
            got = (label[orients[i - 1]], label[orients[i]])
            if got != (1, 1):
                raise ValueError(f"token {idx}: crossings need labels (1, 1), found {got}")
            parallel = orients[i - 1] == orients[i]
            crossings.append(idx)
            signs.append(1 if (kind == "pos") == parallel else -1)
            orients[i - 1], orients[i] = orients[i], orients[i - 1]
            arcs[i - 1], arcs[i] = arcs[i], arcs[i - 1]
    return SliceWord(
        k=k,
        text=text,
        tokens=tuple(tokens),
        crossings=tuple(crossings),
        crossing_signs=tuple(signs),
        final_labels=tuple(label[o] for o in orients),
        components=None if orients else len({forest.find(a) for a in forest}),
    )


def _as_word(word: SliceWord | str, k: int | None, closed: bool = False) -> SliceWord:
    """A raw string parsed at k; a parsed word must have been parsed at k, if
    given. With `closed`, a word that leaves strands open is refused."""
    if isinstance(word, str):
        if k is None:
            raise ValueError("k is required when passing a raw word string")
        word = parse_slice_word(word, k)
    elif k is not None and k != word.k:
        raise ValueError(f"word was parsed at k = {word.k}, not at k = {k}")
    if closed and not word.closed:
        raise ValueError("diagram has open boundary; a closed diagram is required")
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


def _apply_token(k: int, token: Token, bit: int | None, sig, table: dict):
    """The token's moves applied in turn to a table {(row, col, exp): coeff}
    whose rows index sig, each by `functors._act`."""
    for move in _token_moves(*token, k, bit):
        table, sig = functors._act(k, sig, move, table)
    return table, sig


@dataclasses.dataclass
class Cube:
    """All resolutions of a slice word, with their Laurent matrix values."""

    word: SliceWord
    values: dict[tuple[int, ...], LaurentMatrix]
    final_sig: tuple[int, ...]


def build_cube(word: SliceWord | str, k: int | None = None) -> Cube:
    """Evaluate every resolution of the word, each vertex by folding
    `_apply_token` over the tokens with its bits at the crossings.

    Exponential in the crossing count; `tangle_alternating_sum` gets the
    signed sum of these values from one product and is checked against it.
    """
    word = _as_word(word, k)
    k = word.k
    values: dict[tuple[int, ...], LaurentMatrix] = {}
    final_sigs: set[tuple[int, ...]] = set()
    for bits in itertools.product((0, 1), repeat=word.n_crossings):
        bit_at = dict(zip(word.crossings, bits))
        table, sig = {(0, 0, 0): 1}, ()
        for idx, token in enumerate(word.tokens):
            table, sig = _apply_token(k, token, bit_at.get(idx), sig, table)
        values[bits] = LaurentMatrix.from_terms(functors.sig_dim(k, sig), 1, table)
        final_sigs.add(sig)
    if final_sigs != {word.final_labels}:
        raise InvariantError(f"resolutions end in signatures {final_sigs}, not {word.final_labels}")
    return Cube(word=word, values=values, final_sig=word.final_labels)


def tangle_alternating_sum(word: SliceWord | str, k: int | None = None) -> tuple[LaurentMatrix, tuple[int, ...]]:
    """Signed sum of the vertex values, as one product of transfer matrices.

    The sum over bit vectors b of (-1)^|b| M_c(b_c) ... M_1(b_1) equals
    (M_c(0) - M_c(1)) ... (M_1(0) - M_1(1)), so each crossing applies the
    difference of its two resolutions to the running table, one table
    subtracted from the other in place. A sum that cancels to zero is
    dropped by the next move, or at the end, where the n_minus sign is
    applied.
    """
    word = _as_word(word, k)
    k = word.k
    sig: tuple[int, ...] = ()
    table = {(0, 0, 0): 1}
    for token in word.tokens:
        if token[0] in ("pos", "neg"):
            # Both resolutions return to the (1, 1) labels of the crossing.
            diff, _ = _apply_token(k, token, 0, sig, table)
            t1, sig = _apply_token(k, token, 1, sig, table)
            for key, c in t1.items():
                diff[key] = diff.get(key, 0) - c
            table = diff
        else:
            table, sig = _apply_token(k, token, None, sig, table)
    if sig != word.final_labels:
        raise InvariantError(f"word ends in signature {sig}, not {word.final_labels}")
    sign = -1 if word.n_negative % 2 else 1
    terms = {key: sign * c for key, c in table.items() if c}
    return LaurentMatrix.from_terms(functors.sig_dim(k, sig), 1, terms), sig


def euler_invariant(word: SliceWord | str, k: int | None = None) -> int:
    """Alternating sum of vertex values at t = 1, normalized by n_minus.

    Only closed diagrams have a scalar invariant; open boundary raises, and
    `tangle_alternating_sum` is the matrix-valued companion.
    """
    word = _as_word(word, k, closed=True)
    mat, _ = tangle_alternating_sum(word)
    return sum(c for (i, j, _), c in mat.terms.items() if i == j == 0)


def link_components(word: SliceWord | str, k: int | None = None) -> int:
    """Number of link components of the closed diagram, as the parser counted them."""
    return _as_word(word, k, closed=True).components


# A matching of the w endpoints at the top of the current tangle is a tuple m
# with m[r] the partner of endpoint r. A morphism between two matchings x, y
# is {dot mask: Z coefficient}: every reduced dotted cobordism from x to y is
# one disk per cycle of x ∪ y, and bit c of the mask puts a dot on the disk of
# cycle c. An object is (h, q, m); the differential is {source: {target:
# morphism}} over object ids, raising h by one and preserving q.


@functools.lru_cache(maxsize=1 << 16)
def _cycles(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Cycle index of every endpoint in the closed curves x ∪ y, numbered in
    the order of their least endpoints, and the number of cycles."""
    label = [-1] * len(x)
    count = 0
    for start in range(len(x)):
        r = start
        while label[r] < 0:
            label[r] = label[x[r]] = count
            r = y[x[r]]
        count += label[start] == count
    return tuple(label), count


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _neck_cut(terms: dict[int, int], bound: int, dots: int) -> dict[int, int]:
    """Reduce one connected genus-0 piece carrying `dots` dots whose boundary
    circles are the bits of `bound`, on every term: two dots vanish, one dot
    lands on every boundary circle, and with no dot neck cutting leaves every
    boundary circle but one dotted. A closed sphere is 0, a dotted one 1."""
    if dots > 1:
        return {}
    if dots:
        return {m | bound: c for m, c in terms.items()}
    return {m | bound ^ low: c for m, c in terms.items() for low in _bits(bound)}


def _top(m: tuple[int, ...], p: int, cup: bool) -> tuple[tuple[int, ...], bool]:
    """The matching after a cup (or a cap) on endpoints p, p+1, and whether
    the cap closed a circle: a cup inserts an arc, a cap joins the partners
    of p and p+1, or closes their arc if they are partners."""
    if cup:
        moved = [s + 2 * (s >= p) for s in m]
        return tuple(moved[:p] + [p + 1, p] + moved[p:]), False
    partner = list(m)
    a, b = partner[p], partner[p + 1]
    if a != p + 1:
        partner[a], partner[b] = b, a
    del partner[p : p + 2]
    return tuple(s - 2 * (s > p) for s in partner), a == p + 1


@functools.lru_cache(maxsize=1 << 16)
def _rewire(x: tuple[int, ...], y: tuple[int, ...], p: int, cup: bool):
    """How the cycles of x ∪ y become cycles after a cup (or a cap) on p, p+1:
    the new bit of every cycle the move leaves alone, the mask of the old
    cycles through p and p+1, and the mask of the new cycles that bound the
    piece they form with the cup's or the cap's strip."""
    old, count = _cycles(x, y)
    new, _ = _cycles(_top(x, p, cup)[0], _top(y, p, cup)[0])
    touched = 0 if cup else 1 << old[p] | 1 << old[p + 1]
    remap = [0] * count
    bound = 1 << new[p] if cup else 0
    for r in range(len(x)):
        if cup or r not in (p, p + 1):
            bit = 1 << new[r + 2 * (r >= p) if cup else r - 2 * (r > p + 1)]
            if touched >> old[r] & 1:
                bound |= bit
            else:
                remap[old[r]] = bit
    return tuple(remap), touched, bound


@functools.lru_cache(maxsize=1 << 16)
def _gluing(x: tuple[int, ...], a: tuple[int, ...], y: tuple[int, ...]):
    """The pieces of the surface obtained by gluing the disks of x ∪ a to the
    disks of a ∪ y along the arcs of a: the piece of each disk, and per piece
    its genus and its boundary circles as a mask of x ∪ y cycles."""
    cxa, nxa = _cycles(x, a)
    cay, nay = _cycles(a, y)
    cxy, _ = _cycles(x, y)
    forest = _UnionFind((i, i) for i in range(nxa + nay))
    for r in range(len(a)):
        forest.union(cxa[r], nxa + cay[r])
    roots: dict[int, int] = {}
    piece = [roots.setdefault(forest.find(i), len(roots)) for i in range(nxa + nay)]
    euler = [0] * len(roots)
    for i in piece:
        euler[i] += 1
    bound = [0] * len(roots)
    for r in range(len(a)):
        euler[piece[cxa[r]]] -= r < a[r]
        bound[piece[cxa[r]]] |= 1 << cxy[r]
    genus = tuple((2 - e - b.bit_count()) // 2 for e, b in zip(euler, bound))
    return piece[:nxa], piece[nxa:], genus, tuple(bound)


@functools.lru_cache(maxsize=1 << 16)
def _compose_masks(x, a, y, mf: int, mg: int) -> tuple[tuple[int, int], ...]:
    """The terms of g ∘ f for the single dotted cobordisms mf: x -> a and
    mg: a -> y, each with coefficient 1."""
    piece_f, piece_g, genus, bound = _gluing(x, a, y)
    dots = list(genus)
    for i, piece in enumerate(piece_f):
        dots[piece] += mf >> i & 1
    for j, piece in enumerate(piece_g):
        dots[piece] += mg >> j & 1
    terms = {0: 1 << sum(genus)}
    for piece, n in enumerate(dots):
        terms = _neck_cut(terms, bound[piece], n)
    return tuple(terms.items())


def _compose(x, a, y, f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    """g ∘ f for f: x -> a and g: a -> y. A handle is twice a dot."""
    out: dict[int, int] = {}
    for mf, cf in f.items():
        for mg, cg in g.items():
            scale = cf * cg
            for m, c in _compose_masks(x, a, y, mf, mg):
                out[m] = out.get(m, 0) + scale * c
    return {m: c for m, c in out.items() if c}


def _glue(objects: dict, d: dict, p: int, cup: bool):
    """Put a cup (or a cap) on endpoints p, p+1 on top of every object. A
    circle the cap closes is delooped: its object becomes two, at q + 1 (the
    cup fills the circle) and q - 1 (a dotted cup). Returns the new objects
    and differential, and every old object's [(new id, loop sign)]."""
    new_objects: dict[int, tuple] = {}
    images: dict[int, list[tuple[int, int]]] = {}
    for i, (h, q, m) in objects.items():
        top, loop = _top(m, p, cup)
        images[i] = []
        for s in (1, -1) if loop else (0,):
            images[i].append((len(new_objects), s))
            new_objects[len(new_objects)] = (h, q + s, top)
    new_d: dict[int, dict] = {}
    for i, row in d.items():
        for j, f in row.items():
            remap, touched, bound = _rewire(objects[i][2], objects[j][2], p, cup)
            for (si, s), (tj, t) in itertools.product(images[i], images[j]):
                g: dict[int, int] = {}
                for mf, c in f.items():
                    base = sum(bit for k, bit in enumerate(remap) if mf >> k & 1)
                    # A source circle is filled by a cup, dotted on the q - 1
                    # copy; a target circle is read off by a cap, dotted on
                    # the q + 1 copy.
                    dots = (mf & touched).bit_count() + (s < 0) + (t > 0)
                    for m, v in _neck_cut({base: c}, bound, dots).items():
                        g[m] = g.get(m, 0) + v
                if any(g.values()):
                    new_d.setdefault(si, {})[tj] = {m: v for m, v in g.items() if v}
    return new_objects, new_d, images


def _cone(objects: dict, d: dict, p: int, positive: bool):
    """Tensor with the crossing pos (or neg) on endpoints p, p+1: the cone of
    the saddle from the 0-resolution to the 1-resolution, which sits one step
    up in h and q. pos resolves to the vertical smoothing at 0, neg at 1. The
    saddle out of height h carries the sign (-1)^h; into a delooped circle it
    is the dotted identity on the q + 1 copy, out of one on the q - 1 copy."""
    capped, cap_d, loops = _glue(objects, d, p, False)
    horizontal, hor_d, cupped = _glue(capped, cap_d, p, True)
    offset = max(objects, default=-1) + 1
    rise_vertical, rise_horizontal = (0, 1) if positive else (1, 0)
    new_objects = {i: (h + rise_vertical, q + rise_vertical, m) for i, (h, q, m) in objects.items()}
    for i, (h, q, m) in horizontal.items():
        new_objects[i + offset] = (h + rise_horizontal, q + rise_horizontal, m)
    new_d = {i: dict(row) for i, row in d.items()}
    for i, row in hor_d.items():
        new_d[i + offset] = {j + offset: f for j, f in row.items()}
    for i, (h, _, m) in objects.items():
        for j, s in loops[i]:
            ((k, _),) = cupped[j]
            mask = 1 << _cycles(m, m)[0][p] if s and (s > 0) == positive else 0
            src, dst = (i, k + offset) if positive else (k + offset, i)
            new_d.setdefault(src, {})[dst] = {mask: -1 if h % 2 else 1}
    return new_objects, new_d


def _cancel(objects: dict, d: dict) -> None:
    """Gaussian elimination, in place, of every entry b1 -> b2 that is c = ±1
    times an identity: b1 and b2 go, and every x -> y with x -> b2 and
    b1 -> y gains -c (b1 -> y) ∘ (x -> b2). Units of Z only, so the complex
    stays homotopy equivalent over Z."""
    back: dict[int, set[int]] = {i: set() for i in objects}
    for i, row in d.items():
        for j in row:
            back[j].add(i)
    work = [(i, j) for i, row in d.items() for j in row]
    while work:
        b1, b2 = work.pop()
        f = d.get(b1, {}).get(b2)
        if f is None or objects[b1][1:] != objects[b2][1:] or f.keys() != {0} or f[0] not in (1, -1):
            continue
        for x in back[b2] - {b1}:
            row = d[x]
            for y, gamma in d[b1].items():
                if y == b2:
                    continue
                acc = dict(row.get(y, {}))
                for m, v in _compose(objects[x][2], objects[b1][2], objects[y][2], row[b2], gamma).items():
                    acc[m] = acc.get(m, 0) - f[0] * v
                acc = {m: v for m, v in acc.items() if v}
                if acc:
                    row[y] = acc
                    back[y].add(x)
                    work.append((x, y))
                elif row.pop(y, None) is not None:
                    back[y].discard(x)
        for b in (b1, b2):
            for y in d.pop(b, {}):
                back[y].discard(b)
        for b in (b1, b2):
            for x in back.pop(b):
                del d[x][b]
            del objects[b]


def _check_square_zero(objects: dict, d: dict) -> None:
    """Every entry has degree (1, 0) and d∘d = 0, or raise."""
    for i, row in d.items():
        h, q, m = objects[i]
        twice: dict[tuple[int, int], int] = {}
        for j, f in row.items():
            hj, qj, mj = objects[j]
            dots = _cycles(m, mj)[1] - len(m) // 2 + qj - q
            if hj != h + 1 or any(2 * mf.bit_count() != dots for mf in f):
                raise InvariantError(f"differential entry {objects[i]} -> {objects[j]} is not of degree (1, 0)")
            for k, g in d.get(j, {}).items():
                for mk, v in _compose(m, mj, objects[k][2], f, g).items():
                    twice[(k, mk)] = twice.get((k, mk), 0) + v
        if any(twice.values()):
            raise ComplexError(f"differential squared is nonzero on the tangle complex at {objects[i]}")


def khovanov_bigraded_k2(word: SliceWord | str, field=QQ) -> dict[tuple[int, int], int]:
    """Bigraded homology {(h, q): dim} of the k = 2 Khovanov complex, by
    Bar-Natan's tangle scan (math/0606318).

    The word is read bottom to top, keeping one complex over the tangle
    below the current slice: a cup adds an arc, a cap deloops the circle it
    closes, a crossing takes the cone of its saddle, and after every token
    each ±identity entry is cancelled and d∘d is checked. The closed word
    leaves objects over the empty tangle, one per generator, and one
    `FiniteComplex` per q ranks them over `field`. h is the number of
    1-resolved crossings and q = #circles - 2 #x + h, as on the cube
    (math/0201043). The table is in Bar-Natan's normalization:
    (h - n_minus, q + n_plus - 2 n_minus).
    """
    word = _as_word(word, 2, closed=True)
    objects: dict[int, tuple] = {0: (0, 0, ())}
    d: dict[int, dict] = {}
    for kind, i in word.tokens:
        if kind in ("pos", "neg"):
            objects, d = _cone(objects, d, i - 1, kind == "pos")
        else:
            objects, d, _ = _glue(objects, d, i - 1, kind.startswith("cup"))
        _cancel(objects, d)
        _check_square_zero(objects, d)

    index: dict[int, int] = {}
    block_dims: dict[tuple[int, int], int] = {}
    for i, (h, q, _) in sorted(objects.items()):
        index[i] = block_dims.get((h, q), 0)
        block_dims[(h, q)] = index[i] + 1
    entries: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for i, row in d.items():
        for j, f in row.items():
            entries.setdefault(objects[i][:2], {})[(index[j], index[i])] = f[0]

    nc = word.n_crossings
    n_minus = word.n_negative
    n_plus = nc - n_minus
    table: dict[tuple[int, int], int] = {}
    for q in sorted({q for _, q in block_dims}):
        dims = tuple(block_dims.get((h, q), 0) for h in range(nc + 1))
        maps = tuple(SparseMatrix(dims[h + 1], dims[h], entries.get((h, q), {})) for h in range(nc))
        for h, dim in FiniteComplex(field=field, dims=dims, maps=maps).homology_dims().items():
            if dim:
                table[(h - n_minus, q + n_plus - 2 * n_minus)] = dim
    return dict(sorted(table.items()))


def khovanov_homology_k2(word: SliceWord | str, field=QQ) -> dict[int, int]:
    """Homology dimensions {h: dim} at k = 2, shifted down by n_minus: the
    sum over q of `khovanov_bigraded_k2`."""
    dims: dict[int, int] = {}
    for (h, _), dim in khovanov_bigraded_k2(word, field).items():
        dims[h] = dims.get(h, 0) + dim
    return dims


def oracle_euler_k2(word: SliceWord | str) -> int:
    """Euler number at k = 2 by Kauffman's state sum: (-1)^n_minus times
    the sum over resolutions of (-1)^(number of 1-bits) 2^#circles.

    The word is read bottom to top, keeping {matching of the top endpoints:
    coefficient}: a cup adds an arc, a cap joins two arcs or closes a circle
    (times 2), and a crossing adds its vertical smoothing (the matching kept)
    and its horizontal one (a cap, then a cup) with sign (-1)^bit. It moves
    matchings with the tangle scan's `_top` and shares nothing with the
    transfer matrices it is checked against.
    """
    word = _as_word(word, 2, closed=True)
    states: dict[tuple[int, ...], int] = {(): 1}
    for kind, i in word.tokens:
        p = i - 1
        terms: list[tuple[tuple[int, ...], int]] = []
        for m, c in states.items():
            if kind in ("cup", "cup'"):
                terms.append((_top(m, p, True)[0], c))
            elif kind in ("cap", "cap'"):
                capped, loop = _top(m, p, False)
                terms.append((capped, 2 * c if loop else c))
            else:
                # pos resolves to the vertical smoothing at bit 0, neg at bit 1.
                vertical = 1 if kind == "pos" else -1
                capped, loop = _top(m, p, False)
                terms += [(m, vertical * c), (_top(capped, p, True)[0], -vertical * (2 if loop else 1) * c)]
        states = {}
        for m, c in terms:
            states[m] = states.get(m, 0) + c
        states = {m: c for m, c in states.items() if c}
    return states.get((), 0) * (-1 if word.n_negative % 2 else 1)


def reidemeister_check(word_a: str, word_b: str, k: int, field=QQ) -> bool:
    """True when both words give the same invariants: the Euler number for
    any k, plus the homology at k = 2."""
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
