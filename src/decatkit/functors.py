"""Merge/split operator matrices on tensor products of exterior powers.

Fix k and a signature (a_1, ..., a_m) of block weights with 1 <= a_i <= k.
The associated space is the tensor product of the exterior powers Lambda^{a_i}
of a k-dimensional space, with basis indexed by tuples of sorted subsets
S_i of {1..k} with |S_i| = a_i, subsets in lexicographic order, tuples in
row-major mixed radix (first block most significant).

The local merge Lambda^a (x) Lambda^b -> Lambda^(a+b) sends e_S (x) e_T to 0
when the subsets meet and to t^inv(S,T) e_(S u T) otherwise, where inv counts
pairs (s, t) in S x T with s > t and t is the formal shift variable. Split is
its transpose.

Matrices are `LaurentMatrix` graded terms {(row, col, exp): int}. `_act`
applies one move to such a table as a key rewrite: the moved blocks' digit of
each row changes and the local exponent is added (local images are cached per
(k, kind, parts)). `_compose` applies a word's moves in turn to the identity,
and `move_matrix` is its table. `_act` is the only key rewrite: the cube's
transfer matrices apply each move with it too.

Words of moves are evaluated left to right (the first move acts first), so
`evaluate` returns the product of the move matrices in reverse word order.
Each relation is one equality between Laurent combinations of move words,
sum of c * value(word), the empty word the identity. Its words act within
the relation's core blocks, so in an ambient signature each side is
I (x) X (x) I, X its sum on the core alone: `verify_relation` checks each
relation once, on its core signature, and builds no ambient matrix.
Word syntax: merge(i), split(i;b,c), shift(m), ins(i), del(i), with 1-based
block positions; ins inserts a full block (weight k, a one-dimensional
factor) at position i, del removes one.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
import math
import re

from decatkit.exactlin import InvariantError, LaurentMatrix, LaurentPoly, geometric_shift_sum

Sig = tuple[int, ...]
Move = tuple


def wedge_subsets(k: int, a: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(1, k + 1), a))


def sig_dims(k: int, sig: Sig) -> list[int]:
    for a in sig:
        if not (1 <= a <= k):
            raise ValueError(f"block weight {a} outside 1..{k}")
    return [math.comb(k, a) for a in sig]


def sig_dim(k: int, sig: Sig) -> int:
    return math.prod(sig_dims(k, sig))


def _inv(s: tuple[int, ...], t: tuple[int, ...]) -> int:
    return sum(1 for x in s for y in t if x > y)


def local_merge(k: int, a: int, b: int) -> LaurentMatrix:
    """Lambda^a (x) Lambda^b -> Lambda^(a+b); every entry is a power of t."""
    if a + b > k:
        raise ValueError(f"cannot merge weights {a} + {b} > {k}")
    rows = {s: i for i, s in enumerate(wedge_subsets(k, a + b))}
    lefts = wedge_subsets(k, a)
    rights = wedge_subsets(k, b)
    terms = {}
    for i, s in enumerate(lefts):
        for j, t in enumerate(rights):
            if set(s) & set(t):
                continue
            target = tuple(sorted(s + t))
            terms[(rows[target], i * len(rights) + j, _inv(s, t))] = 1
    return LaurentMatrix(len(rows), len(lefts) * len(rights), terms)


_MOVE_RE = re.compile(r"^(merge|split|shift|ins|del)\(([-0-9;,\s]*)\)$")


def parse_word(text: str) -> tuple[Move, ...]:
    """Parse a whitespace-separated move word.

    merge(i) | split(i;b,c) | shift(m) | ins(i) | del(i)
    """
    moves: list[Move] = []
    for token in text.split():
        m = _MOVE_RE.match(token)
        if not m:
            raise ValueError(f"bad move token {token!r}")
        kind, argtext = m.group(1), m.group(2)
        args = [int(x) for x in re.split(r"[;,\s]+", argtext.strip()) if x]
        if kind == "split":
            if len(args) != 3:
                raise ValueError(f"split needs (i;b,c), got {token!r}")
            moves.append(("split", args[0], (args[1], args[2])))
        else:
            if len(args) != 1:
                raise ValueError(f"{kind} needs one argument, got {token!r}")
            moves.append((kind, args[0]))
    return tuple(moves)


@functools.cache
def _local_images(k: int, kind: str, parts: tuple[int, int]) -> tuple:
    """images[j]: the (local index, exponent of t) pairs that j is sent to.

    Only a merge sums terms. Merge is a function on basis vectors, so two
    local indices can share its image and signed coefficients (as in the
    cube's alternating sums) can cancel there. Split is its transpose: each
    index of Lambda^(a+b) goes to its own decompositions, and different
    indices never share one. A split table that sends two indices to one
    target is not the merge's transpose, so it raises InvariantError.
    """
    local = local_merge(k, *parts)
    images = [[] for _ in range(local.ncols if kind == "merge" else local.nrows)]
    for r, j, e in local.terms:
        src, dst = (j, r) if kind == "merge" else (r, j)
        images[src].append((dst, e))
    if kind != "merge":
        targets = [dst for image in images for dst, _ in image]
        if len(set(targets)) != len(targets):
            raise InvariantError(f"{kind} table of k = {k}, parts {parts} sends two indices to one target")
    return tuple(map(tuple, images))


def _local_action(k: int, sig: Sig, move: Move) -> tuple[int, int, Sig, tuple]:
    """(pos, span, new_blocks, images): the move replaces blocks [pos, pos+span)
    of sig by new_blocks and sends local index j of the old blocks to t^e times
    local index r of the new ones for each (r, e) in images[j].
    """
    kind, i = move[0], move[1]
    if kind == "shift":
        return 0, 0, (), (((0, i),),)
    if kind == "ins":
        if not (1 <= i <= len(sig) + 1):
            raise ValueError(f"cannot insert at position {i} in signature {sig}")
        return i - 1, 0, (k,), (((0, 0),),)
    if kind == "merge":
        if not (1 <= i < len(sig)):
            raise ValueError(f"no block pair at position {i} in signature {sig}")
        return i - 1, 2, (sig[i - 1] + sig[i],), _local_images(k, kind, tuple(sig[i - 1 : i + 1]))
    if kind not in ("split", "del"):
        raise ValueError(f"unknown move kind {kind!r}")
    if not (1 <= i <= len(sig)):
        raise ValueError(f"no block at position {i} in signature {sig}")
    if kind == "del":
        if sig[i - 1] != k:
            raise ValueError(f"block {i} has weight {sig[i - 1]}, not {k}")
        return i - 1, 1, (), (((0, 0),),)
    parts = tuple(move[2])
    if sum(parts) != sig[i - 1] or min(parts) <= 0:
        raise ValueError(f"parts {parts} do not split block weight {sig[i - 1]}")
    return i - 1, 1, parts, _local_images(k, kind, parts)


def _act(k: int, sig: Sig, move: Move, table: dict) -> tuple[dict, Sig]:
    """The move applied to a table {(row, col, exp): coeff} whose rows index
    sig: (table, new sig). Each local entry is a power of t, so each term has
    the moved blocks' digit of its row rewritten and t^e multiplied in; terms
    that meet at one key are summed and zero sums dropped."""
    pos, span, new_blocks, images = _local_action(k, sig, move)
    right = sig_dim(k, sig[pos + span :])
    width, new_mid = len(images), sig_dim(k, new_blocks)
    sums: dict[tuple[int, int, int], int] = {}
    for (row, col, exp), c in table.items():
        head, low = divmod(row, right)
        for r, e in images[head % width]:
            key = ((head // width * new_mid + r) * right + low, col, exp + e)
            sums[key] = sums.get(key, 0) + c
    new_sig = sig[:pos] + new_blocks + sig[pos + span :]
    return {key: c for key, c in sums.items() if c}, new_sig


def _compose(k: int, sig: Sig, moves) -> tuple[dict, Sig]:
    """(table, signature) after the moves act in turn on the identity of sig."""
    table = {(j, j, 0): 1 for j in range(sig_dim(k, sig))}
    for move in moves:
        table, sig = _act(k, sig, move, table)
    return table, sig


def move_matrix(k: int, sig: Sig, *moves: Move) -> tuple[LaurentMatrix, Sig]:
    """(matrix, new signature) of the moves applied in turn to the identity
    (`_compose`); the empty word gives the identity."""
    sig = tuple(sig)
    table, new_sig = _compose(k, sig, moves)
    return LaurentMatrix.from_terms(sig_dim(k, new_sig), sig_dim(k, sig), table), new_sig


def evaluate(k: int, sig: Sig, moves) -> tuple[LaurentMatrix, Sig]:
    """Apply the moves in word order (first move acts first) to the identity."""
    moves = parse_word(moves) if isinstance(moves, str) else tuple(moves)
    return move_matrix(k, tuple(sig), *moves)


@dataclasses.dataclass
class RelationReport:
    relation: str
    k: int
    ambient: Sig
    offset: int
    holds: bool
    detail: dict


_CORES = {
    "R1": lambda k: (k,),
    "R2": lambda k: (2,),
    "R3": lambda k: (1, k),
    "R4": lambda k: (k, 1, k - 1),
    "R5": lambda k: (1, 1, 1),
    "L5": lambda k: (2, 1),
}
RELATION_IDS = tuple(_CORES)


def core_signature(relation: str, k: int) -> Sig:
    if relation not in _CORES:
        raise ValueError(f"unknown relation {relation!r}; known: {RELATION_IDS}")
    return _CORES[relation](k)


def ambient_signatures(relation: str, k: int, max_len: int = 4):
    """All signatures of length <= max_len containing the core contiguously,
    padded by blocks with weights in 1..k. Yields (ambient, offset); raises
    ValueError when max_len is shorter than the core, so no sweep is empty."""
    core = core_signature(relation, k)
    budget = max_len - len(core)
    if budget < 0:
        raise ValueError(f"max_len {max_len} is shorter than the {relation} core {core}")
    for left_len in range(budget + 1):
        for right_len in range(budget - left_len + 1):
            for left in itertools.product(range(1, k + 1), repeat=left_len):
                for right in itertools.product(range(1, k + 1), repeat=right_len):
                    yield left + core + right, left_len


# Largest summed core dimension over the placements of a relation sweep. Each
# core is checked once, so the sum now bounds the document, one report per
# placement: `relations --k K --all` on a 2-core VM writes 0.5 MB at k = 6
# (0.22 s, 19 MiB) and 1.2 MB at k = 8 (0.28 s, 21 MiB); with the limit lifted,
# 2.2 MB at k = 10 (0.31 s, 25 MiB). k <= 8 runs.
SWEEP_DIMENSION_LIMIT = 15 * 10**4
# Largest summed core dimension checked without a sweep (R5's core is k^3).
# `relations --k K` on a 2-core VM: k = 20 sums 12411 (0.34 s, 47 MiB), k = 30
# 41416 (1.3 s, 130 MiB), k = 40 97621 (3.7 s, 266 MiB). k <= 31 runs.
CORE_DIMENSION_LIMIT = 5 * 10**4


def sweep_dimension(k: int, relations=RELATION_IDS) -> int:
    """Summed core dimension over the placements that `verify_relation_everywhere`
    reports for the relations at k at its default length 4. The sum stops as
    soon as it passes SWEEP_DIMENSION_LIMIT, so any k is cheap to refuse."""
    total = 0
    for relation in relations:
        core = sig_dim(k, core_signature(relation, k))
        for _ in ambient_signatures(relation, k):
            total += core
            if total > SWEEP_DIMENSION_LIMIT:
                return total
    return total


def _equations(relation: str, k: int) -> dict:
    """{label: (lhs, rhs)}: the relation's equalities on its core signature
    (blocks 1, 2, ...), each side (c, word) terms for sum c * value(word).
    Labels: R1's split parts, R4's normalization exponent."""
    if relation in ("R1", "R2"):
        n, parts = (k, ((1, k - 1), (k - 1, 1))) if relation == "R1" else (2, ((1, 1),))
        expected = ((geometric_shift_sum(n), ()),)
        return {f"split_{a}_{b}": (((1, (("split", 1, (a, b)), ("merge", 1))),), expected) for a, b in parts}
    if relation == "R3":
        word = (("split", 2, (1, k - 1)), ("merge", 1), ("split", 1, (1, 1)), ("merge", 2))
        return {relation: (((1, word),), ((LaurentPoly.from_dict({2 * i: 1 for i in range(1, k)}), ()),))}
    if relation == "R4":
        word = (("split", 1, (k - 1, 1)), ("merge", 2), ("split", 2, (1, 1)), ("merge", 3),
                ("split", 3, (1, k - 1)), ("merge", 2), ("split", 2, (1, 1)), ("merge", 1))
        bubble = (("merge", 2), ("split", 2, (1, k - 1)))
        coeff = LaurentPoly.from_dict({2 * i: 1 for i in range(2, k)})
        return {s: (((1, word),), ((LaurentPoly.t_power(s), ()), (coeff, bubble))) for s in (2 * k - 2, 2 * k)}
    if relation == "R5":
        # E_i = merge split at core block i has value e_i; a word's value is the
        # product in reverse word order, so E1 E2 E1 has value e1 e2 e1.
        e1, e2 = ((("merge", i), ("split", i, (1, 1))) for i in (1, 2))
        t2 = LaurentPoly.t_power(2)
        return {relation: (((1, e1 + e2 + e1), (t2, e2)), ((1, e2 + e1 + e2), (t2, e1)))}
    word = (("split", 1, (1, 1)), ("merge", 2), ("split", 2, (1, 1)), ("merge", 1))
    expected = [(LaurentPoly.t_power(2), ())]
    if k >= 3:
        expected.append((1, (("merge", 1), ("split", 1, (2, 1)))))
    return {relation: (((1, word),), tuple(expected))}


def _side_sum(k: int, core: Sig, terms) -> dict:
    """Nonzero terms of sum c * X(word) on the core's space, X(word) the
    word's table (`_compose`); each word must return to the core."""
    sums: dict[tuple[int, int, int], int] = {}
    for c, word in terms:
        table, sig = _compose(k, core, word)
        if sig != core:
            raise InvariantError(f"word {word} leaves {core} at {sig}")
        for f, d in c.terms if isinstance(c, LaurentPoly) else ((0, c),):
            for (r, j, e), v in table.items():
                sums[r, j, e + f] = sums.get((r, j, e + f), 0) + v * d
    return {key: v for key, v in sums.items() if v}


def verify_relation(relation: str, k: int, ambient: Sig | None = None, offset: int = 0) -> RelationReport:
    """Exact check of one relation on an ambient signature, core at block
    positions offset+1, offset+2, ... (1-based). Each side is I (x) X (x) I, X
    its `_side_sum` on the core alone; both identity factors have dimension
    >= 1, so the sides are equal exactly when their core sums are, wherever
    the core is placed.
    """
    core = core_signature(relation, k)
    if ambient is None:
        ambient = core
    ambient = tuple(ambient)
    sig_dims(k, ambient)
    if offset < 0 or ambient[offset : offset + len(core)] != core:
        raise ValueError(f"ambient {ambient} does not contain core {core} at offset {offset}")
    holding = {label: _side_sum(k, core, lhs) == _side_sum(k, core, rhs)
               for label, (lhs, rhs) in _equations(relation, k).items()}
    holds, detail = all(holding.values()), {}
    if relation == "R1":
        detail = holding
    elif relation == "R4":
        detail["normalizations_tested"] = list(holding)
        detail["normalization_holding"] = [s for s, ok in holding.items() if ok]
        holds = len(detail["normalization_holding"]) == 1
    elif relation == "L5":
        detail["triple_block_term"] = k >= 3
    return RelationReport(relation, k, ambient, offset, holds, detail)


def verify_relation_everywhere(relation: str, k: int, max_len: int = 4) -> list[RelationReport]:
    """One report per placement of the core (`ambient_signatures`), each with
    its own detail: the relation is checked once, on its core signature, and
    every placement has that result (see `verify_relation`)."""
    report = verify_relation(relation, k)
    return [dataclasses.replace(report, ambient=ambient, offset=offset, detail=copy.deepcopy(report.detail))
            for ambient, offset in ambient_signatures(relation, k, max_len)]
