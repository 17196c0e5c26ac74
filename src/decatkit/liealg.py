"""Matrix Lie algebras spanned by e_ij for (i, j) in a transitive relation.

Indices are 1-based throughout, matching the usual matrix-unit notation: the
pair (i, j) stands for e_ij, which maps basis vector j to basis vector i. The
span of {e_ij : (i, j) in T} is closed under the commutator exactly when T is
transitive; construction rejects non-transitive relations with a witness.

`ParabolicData` packages an ordered composition of n into block sizes. Every
standard subalgebra keeps the pairs whose blocks satisfy one comparison: the
parabolic (block of i <= block of j), the Levi (=) and the nilradical (<).
gl_n is the Levi of the one-block composition (n,); the Borel and strict
upper triangular algebras are the parabolic and nilradical of (1, ..., 1).
Lower variants are the `opposite()` of upper ones.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator

from decatkit import exactlin
from decatkit.weights import Weight

Pair = tuple[int, int]


@dataclasses.dataclass(frozen=True)
class RelationAlgebra:
    """Lie algebra spanned by matrix units over a transitive relation."""

    n: int
    pairs: tuple[Pair, ...]

    def __init__(self, n: int, pairs):
        pairs = tuple(sorted(set(pairs)))
        for i, j in pairs:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"pair ({i}, {j}) outside 1..{n}")
        pair_set = set(pairs)
        for i, j in pairs:
            for k, l in pairs:
                if j == k and (i, l) not in pair_set:
                    raise ValueError(
                        f"relation is not transitive: ({i}, {j}) and ({k}, {l}) "
                        f"present but ({i}, {l}) missing"
                    )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", pairs)
        # A plain attribute, not a field: eq, hash and repr see only n and pairs.
        object.__setattr__(self, "_pair_set", pair_set)

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def weight(self, pair: Pair) -> Weight:
        """Adjoint weight of e_ij: the vector e_i - e_j (zero for i = j)."""
        v = [0] * self.n
        i, j = pair
        v[i - 1] += 1
        v[j - 1] -= 1
        return tuple(v)

    def bracket(self, a: Pair, b: Pair) -> dict[Pair, int]:
        """[e_a, e_b] expanded over basis pairs; raises if a or b is foreign."""
        if a not in self._pair_set or b not in self._pair_set:
            raise KeyError(f"bracket arguments {a}, {b} must both be basis pairs")
        (i, j), (k, l) = a, b
        out: dict[Pair, int] = {}
        if j == k:
            out[(i, l)] = out.get((i, l), 0) + 1
        if l == i:
            out[(k, j)] = out.get((k, j), 0) - 1
        out = {p: c for p, c in out.items() if c}
        for p in out:
            # Transitivity makes the span closed; anything else is a bug.
            if p not in self._pair_set:
                raise exactlin.InvariantError(f"bracket term {p} is not a basis pair")
        return out

    def opposite(self) -> "RelationAlgebra":
        """The algebra on the transposed pairs (e_ij becomes e_ji)."""
        return RelationAlgebra(self.n, [(j, i) for i, j in self.pairs])


@dataclasses.dataclass(frozen=True)
class ParabolicData:
    """An ordered composition of n into positive block sizes."""

    blocks: tuple[int, ...]

    def __init__(self, blocks):
        blocks = tuple(blocks)
        if not blocks or any(b <= 0 for b in blocks):
            raise ValueError(f"blocks must be positive, got {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return sum(self.blocks)

    def _subalgebra(self, keep) -> RelationAlgebra:
        """Span of the e_ij with keep(block of i, block of j)."""
        block = [b for b, size in enumerate(self.blocks) for _ in range(size)]
        pairs = [(i, j) for i, bi in enumerate(block, 1) for j, bj in enumerate(block, 1) if keep(bi, bj)]
        return RelationAlgebra(len(block), pairs)

    def parabolic(self) -> RelationAlgebra:
        return self._subalgebra(operator.le)

    def levi(self) -> RelationAlgebra:
        return self._subalgebra(operator.eq)

    def nilradical(self) -> RelationAlgebra:
        return self._subalgebra(operator.lt)


def gl(n: int) -> RelationAlgebra:
    return ParabolicData((n,)).levi()


def strict_triangular(n: int) -> RelationAlgebra:
    return ParabolicData((1,) * n).nilradical()


def _lyndon_multilinear(n: int) -> list[tuple[int, ...]]:
    words = []
    for perm in itertools.permutations(range(1, n + 1)):
        if all(perm < perm[k:] for k in range(1, n)):
            words.append(perm)
    return words


def _standard_factor(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Longest proper suffix that is itself Lyndon.
    for k in range(1, len(word)):
        suf = word[k:]
        if all(suf < suf[m:] for m in range(1, len(suf))):
            return word[:k], suf
    raise exactlin.InvariantError(f"{word} has no Lyndon suffix")


def _bracket_expansion(word: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    if len(word) == 1:
        return {word: 1}
    u, v = _standard_factor(word)
    eu, ev = _bracket_expansion(u), _bracket_expansion(v)
    out: dict[tuple[int, ...], int] = {}
    for wu, cu in eu.items():
        for wv, cv in ev.items():
            out[wu + wv] = out.get(wu + wv, 0) + cu * cv
            out[wv + wu] = out.get(wv + wu, 0) - cu * cv
    return {w: c for w, c in out.items() if c}


def free_lie_multilinear_dim(n: int, field=exactlin.QQ) -> tuple[int, int]:
    """(computed, expected) dimension of the multilinear piece of the free
    Lie algebra on n letters, expected value (n-1)!.

    The computed value is the rank, over the given field, of the standard
    bracketings of the multilinear Lyndon words expanded in the tensor
    algebra. Each expansion is also checked to lead with its own word, which
    is what makes the family triangular.
    """
    if n < 1:
        raise ValueError("need at least one letter")
    words = _lyndon_multilinear(n)
    col_index = {w: k for k, w in enumerate(itertools.permutations(range(1, n + 1)))}
    triples = []
    for r, w in enumerate(words):
        exp = _bracket_expansion(w)
        lead = min(exp)
        if lead != w or abs(exp[lead]) != 1:
            raise exactlin.InvariantError(f"bracketing of {w} leads with {lead}, not with itself")
        for ww, c in exp.items():
            triples.append((r, col_index[ww], c))
    mat = exactlin.SparseMatrix.from_triples(len(words), math.factorial(n), triples)
    rank = exactlin.matrix_rank(mat, field)
    return rank, math.factorial(n - 1)
