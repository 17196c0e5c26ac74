"""Matrix and weight operations that only tests use, kept out of `src/`.

The matrix helpers take and return `SparseMatrix`; their entries need + and
* (by each other and by the scale factor) and truthiness, so they serve
over Q, over F_p residues and with LaurentPoly entries alike."""

from decatkit import weights
from decatkit.exactlin import SparseMatrix


def zeros(nrows: int, ncols: int) -> SparseMatrix:
    return SparseMatrix(nrows, ncols, {})


def add(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError(f"shape mismatch {a.nrows}x{a.ncols} + {b.nrows}x{b.ncols}")
    acc = dict(a.entries)
    for pos, v in b.entries.items():
        w = acc.get(pos)
        s = v if w is None else w + v
        if s:
            acc[pos] = s
        elif pos in acc:
            del acc[pos]
    return SparseMatrix(a.nrows, a.ncols, acc)


def scaled(m: SparseMatrix, c) -> SparseMatrix:
    if not c:
        return zeros(m.nrows, m.ncols)
    return SparseMatrix(m.nrows, m.ncols, {pos: w for pos, v in m.entries.items() if (w := v * c)})


def transpose(m: SparseMatrix) -> SparseMatrix:
    return SparseMatrix(m.ncols, m.nrows, {(j, i): v for (i, j), v in m.entries.items()})


def root_order_leq(a, b) -> bool:
    """a <= b in the root order: b - a is a nonnegative sum of positive roots."""
    if len(a) != len(b):
        raise ValueError(f"weights have different lengths {len(a)} and {len(b)}")
    return weights.root_height(tuple(y - x for x, y in zip(a, b))) is not None
