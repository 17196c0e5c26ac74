"""Exact scalars, sparse matrices, the elimination kernel, and chain complexes.

Ranks over Q and F_p come from one kernel, `Echelon`, so rank agreement
between the two fields no longer compares independent implementations;
sympy's rational rank is the independent oracle. The cohomology sweeps trust
these ranks to move between characteristic 0 and characteristic p.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decatkit import cohomology, exactlin, verma
from decatkit.exactlin import (
    QQ,
    ComplexError,
    Echelon,
    FiniteComplex,
    LaurentMatrix,
    LaurentPoly,
    PrimeField,
    SparseMatrix,
    geometric_shift_sum,
    is_prime,
    matrix_rank,
    nullspace,
)


def test_is_prime_small_cases():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    # Carmichael number: any Fermat-style shortcut would wave this through.
    assert not is_prime(561)
    assert is_prime(65521)


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(6)


def test_prime_field_arithmetic():
    f7 = PrimeField(7)
    assert f7.of(10) == 3
    assert f7.of(Fraction(1, 3)) == 5
    with pytest.raises(ZeroDivisionError):
        f7.of(Fraction(1, 7))


def test_rational_field_of_int():
    assert type(QQ.of(3)) is int
    assert QQ.of(Fraction(1, 2)) == Fraction(1, 2)


def test_laurent_poly_arithmetic():
    p = LaurentPoly.from_dict({0: 1, 2: 1})
    q = LaurentPoly.t_power(-1)
    assert (p * q).terms == ((-1, 1), (1, 1))
    assert (p + p).terms == ((0, 2), (2, 2))
    assert p + p * LaurentPoly.from_dict({0: -1}) == LaurentPoly()
    assert (p * LaurentPoly.t_power(3)).terms == ((3, 1), (5, 1))


def test_geometric_shift_sum():
    assert geometric_shift_sum(1) == LaurentPoly.t_power(0)
    assert geometric_shift_sum(3).terms == ((0, 1), (2, 1), (4, 1))
    assert geometric_shift_sum(0) == LaurentPoly()


def test_sparse_matrix_construction_guards():
    with pytest.raises(ValueError, match="duplicate"):
        SparseMatrix.from_triples(2, 2, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(ValueError, match="stored zero"):
        SparseMatrix(2, 2, {(0, 0): 0})
    with pytest.raises(ValueError, match="outside"):
        SparseMatrix(2, 2, {(2, 0): 1})


def test_sparse_matrix_algebra():
    m = SparseMatrix.from_triples(2, 2, [(0, 0, 1), (0, 1, 2), (1, 1, 3)])
    ident = SparseMatrix.from_triples(2, 2, [(0, 0, 1), (1, 1, 1)])
    assert m @ ident == m
    assert ident @ m == m
    assert m.transpose().transpose() == m
    assert not (m + m.scaled(-1)).entries
    k = m.kron(ident)
    assert (k.nrows, k.ncols) == (4, 4)
    assert m.columns() == {0: {0: 1}, 1: {0: 2, 1: 3}}


def test_laurent_matrix_construction_guards():
    with pytest.raises(ValueError, match="zero coefficient"):
        LaurentMatrix(2, 2, {(0, 0, 3): 0})
    with pytest.raises(ValueError, match="outside"):
        LaurentMatrix(2, 2, {(0, 2, 0): 1})
    terms = {(0, 0, 2): 5}
    assert LaurentMatrix.from_terms(1, 1, terms).terms is terms


def test_matrix_rank_known_values():
    m = SparseMatrix.from_triples(2, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 4)])
    assert matrix_rank(m, QQ) == 1
    assert matrix_rank(SparseMatrix.zeros(3, 5), QQ) == 0
    assert matrix_rank(SparseMatrix.from_triples(4, 4, [(i, i, 1) for i in range(4)]), PrimeField(5)) == 4
    # Rank can genuinely drop mod p.
    drop = SparseMatrix.from_triples(1, 1, [(0, 0, 5)])
    assert matrix_rank(drop, QQ) == 1
    assert matrix_rank(drop, PrimeField(5)) == 0


small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.lists(
            st.integers(min_value=-3, max_value=3), min_size=r * c, max_size=r * c
        ).map(lambda vals: (r, c, vals))
    )
)


def _build(r, c, vals):
    triples = [
        (i, j, v) for (i, j), v in zip(((i, j) for i in range(r) for j in range(c)), vals) if v
    ]
    return SparseMatrix.from_triples(r, c, triples)


@given(small_matrices)
def test_rank_agrees_with_large_prime(data):
    # 65521 exceeds the Hadamard bound 3^5 * 5^(5/2) on any minor of these
    # matrices, so no elimination pivot can vanish mod p.
    r, c, vals = data
    m = _build(r, c, vals)
    assert matrix_rank(m, QQ) == matrix_rank(m, PrimeField(65521))


@given(small_matrices)
def test_rank_mod_p_never_exceeds_rational_rank(data):
    r, c, vals = data
    m = _build(r, c, vals)
    assert matrix_rank(m, PrimeField(5)) <= matrix_rank(m, QQ)


@given(
    small_matrices,
    st.lists(st.sampled_from([1, 2, 3, 4, 6, 7, 9]), min_size=25, max_size=25),
    st.sampled_from([PrimeField(5), PrimeField(65521)]),
)
@settings(max_examples=80)
def test_fraction_entries_reduce_exactly_mod_p(data, dens, field):
    # Ints reduce by `% p` and Fractions through `of`; a Fraction reaching
    # `% p` would be silently wrong. Scaling each row of the Fraction matrix
    # by the lcm of its denominators (a unit mod p) keeps rank and kernel.
    r, c, vals = data
    frac = _build(r, c, [Fraction(v, d) for v, d in zip(vals, dens)])
    lcms = [math.lcm(*dens[i * c : (i + 1) * c]) for i in range(r)]
    ints = SparseMatrix.from_triples(r, c, [(i, j, int(v * lcms[i])) for (i, j), v in frac.entries.items()])
    assert matrix_rank(frac, field) == matrix_rank(ints, field)
    assert nullspace(frac, field) == nullspace(ints, field)


def test_rational_builders_store_ints():
    # Over Q no division happens in the Verma action or in a CE slice.
    module = verma.TruncatedVerma(3, (4, 2, 0), 4)
    action = module.action((2, 1))
    assert action.entries and all(type(v) is int for v in action.entries.values())
    maps = cohomology.ce_slice(module, (3, 2, 1)).complex.maps
    assert any(m.entries for m in maps)
    assert all(type(v) is int for m in maps for v in m.entries.values())


@given(small_matrices, st.sampled_from([QQ, PrimeField(5), PrimeField(65521)]))
@settings(max_examples=60)
def test_nullspace_rank_nullity(data, field):
    r, c, vals = data
    m = _build(r, c, vals)
    basis = nullspace(m, field)
    assert len(basis) == c - matrix_rank(m, field)
    for vec in basis:
        image = {}
        for (i, j), entry in m.entries.items():
            image[i] = image.get(i, 0) + entry * vec[j]
        assert not any(field.of(v) for v in image.values())
    stacked = SparseMatrix.from_triples(
        len(basis), c, [(k, j, v) for k, vec in enumerate(basis) for j, v in enumerate(vec) if v]
    )
    assert matrix_rank(stacked, field) == len(basis)


fraction_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=r * c, max_size=r * c
        ).map(lambda vals: (r, c, vals))
    )
)


@given(st.one_of(small_matrices, fraction_matrices))
@settings(max_examples=80, deadline=None)
def test_rank_and_nullity_match_sympy(data):
    sympy = pytest.importorskip("sympy")
    r, c, vals = data
    m = _build(r, c, vals)
    entries = [sympy.Rational(v.numerator, v.denominator) for v in map(Fraction, vals)]
    expected = sympy.Matrix(r, c, entries).rank()
    assert matrix_rank(m, QQ) == expected
    assert len(nullspace(m, QQ)) == c - expected


def test_echelon_reduce_fraction_row():
    span = Echelon(QQ)
    assert span.insert({0: Fraction(1, 2), 1: Fraction(1, 3), 3: 2})
    assert span.insert({1: Fraction(2, 5), 2: Fraction(-1, 7)})
    assert not span.insert({0: 3, 1: 2, 3: 12})
    vec = {0: Fraction(3, 4), 1: Fraction(-1, 6), 2: Fraction(5, 9), 3: 1}
    s, r = span.reduce(vec)
    assert s != 0
    assert not set(span.rows) & set(r)
    diff = {j: s * vec.get(j, 0) - r.get(j, 0) for j in set(vec) | set(r)}
    assert not span.insert({j: v for j, v in diff.items() if v})
    assert span.insert(vec)


class _ScanEchelon:
    """The echelon basis before the pivot index, kept as a test reference:
    rows in insertion order, and `reduce` tests every stored pivot."""

    def __init__(self, field):
        self.field = field
        self.p = field.p
        self.rows = []

    def reduce(self, vec):
        p = self.p
        if p is None:
            num = math.lcm(*(Fraction(v).denominator for v in vec.values()))
            r = {j: int(Fraction(v) * num) for j, v in vec.items() if v}
            den = math.gcd(*r.values()) or 1
            r = {j: x // den for j, x in r.items()}
        else:
            r = {j: x for j, v in vec.items() if (x := self.field.of(v))}
            num = den = 1
        for pivot, row in self.rows:
            c = r.get(pivot)
            if not c:
                continue
            a = row[pivot]
            g = math.gcd(a, c)
            a, c = a // g, c // g
            if a != 1:
                r = {j: x * a for j, x in r.items()}
                num *= a
            for j, w in row.items():
                x = r.get(j, 0) - c * w
                if p:
                    x %= p
                if x:
                    r[j] = x
                else:
                    del r[j]
            if not r:
                break
            if p is None:
                g = math.gcd(*r.values())
                r = {j: x // g for j, x in r.items()}
                den *= g
        return (Fraction(num, den) if p is None else 1), r

    def insert(self, vec):
        _, r = self.reduce(vec)
        if not r:
            return False
        self._store(r)
        return True

    def _store(self, r):
        pivot = min(r)
        lead = r[pivot]
        if self.p is not None:
            r = {j: x * pow(lead, -1, self.p) % self.p for j, x in r.items()}
        elif lead < 0:
            r = {j: -x for j, x in r.items()}
        self.rows.append((pivot, r))


def _scan_nullspace(m, field):
    """`nullspace` on the scanning reference basis."""
    cols = m.columns()
    echelon = _ScanEchelon(field)
    basis = []
    for j in range(m.ncols):
        col = cols.get(j, {})
        col[m.nrows + j] = 1
        _, r = echelon.reduce(col)
        if min(r) < m.nrows:
            echelon._store(r)
            continue
        vec = [field.of(0)] * m.ncols
        for i, v in r.items():
            vec[i - m.nrows] = field.of(Fraction(v, r[m.nrows + j]))
        basis.append(vec)
    return basis


sparse_matrices = st.integers(min_value=1, max_value=8).flatmap(
    lambda r: st.integers(min_value=1, max_value=8).flatmap(
        lambda c: st.lists(
            st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4]), min_size=(r + 1) * c, max_size=(r + 1) * c
        ).map(lambda vals: (r, c, vals))
    )
)


@given(sparse_matrices, st.sampled_from([QQ, PrimeField(5), PrimeField(65521)]))
@settings(max_examples=150)
def test_pivot_index_matches_scanning_reduce(data, field):
    # The last row of values is a probe vector, reduced against the first r rows.
    r, c, vals = data
    m = _build(r, c, vals[: r * c])
    probe = {j: v for j, v in enumerate(vals[r * c :]) if v}
    indexed, scanned = Echelon(field), _ScanEchelon(field)
    for _, row in m.rows():
        assert indexed.insert(row) == scanned.insert(row)
    assert list(indexed.rows.items()) == scanned.rows
    s, red = indexed.reduce(probe)
    s_ref, red_ref = scanned.reduce(probe)
    assert red == red_ref
    if red:
        assert s == s_ref
    assert nullspace(m, field) == _scan_nullspace(m, field)


def test_finite_complex_accepts_exact_sequence():
    # Q^2 -> Q via projection onto the first coordinate.
    d = SparseMatrix.from_triples(1, 2, [(0, 0, 1)])
    cx = FiniteComplex(QQ, (2, 1), (d,))
    cx.check_complex()
    assert cx.homology_dims() == {0: 1, 1: 0}


def test_finite_complex_rejects_nonzero_square():
    d0 = SparseMatrix(1, 1, {(0, 0): 1})
    d1 = SparseMatrix(1, 1, {(0, 0): 1})
    cx = FiniteComplex(QQ, (1, 1, 1), (d0, d1))
    with pytest.raises(ComplexError, match="differential squared"):
        cx.check_complex()


@pytest.mark.parametrize("field", [QQ, PrimeField(31)])
def test_empty_map_is_rank_zero_without_elimination(monkeypatch, field):
    # Q -> Q^2 -> Q^2 -> Q with a zero middle map.
    d0 = SparseMatrix.from_triples(2, 1, [(0, 0, 1), (1, 0, 1)])
    d2 = SparseMatrix.from_triples(1, 2, [(0, 0, 1), (0, 1, -1)])
    cx = FiniteComplex(field, (1, 2, 2, 1), (d0, SparseMatrix.zeros(2, 2), d2))
    # The same dims with every map ranked by elimination.
    r0, r1, r2 = (matrix_rank(m, field) for m in cx.maps)
    expected = {0: 1 - r0, 1: 2 - r0 - r1, 2: 2 - r1 - r2, 3: 1 - r2}
    ranked = []
    monkeypatch.setattr(exactlin, "matrix_rank", lambda m, f: ranked.append(m) or matrix_rank(m, f))
    assert cx.homology_dims() == expected == {0: 0, 1: 1, 2: 1, 3: 0}
    assert ranked == [d0, d2]
    # A nonzero d∘d planted next to an empty map is still caught.
    one = SparseMatrix(1, 1, {(0, 0): 1})
    planted = FiniteComplex(field, (1, 1, 1, 1), (SparseMatrix.zeros(1, 1), one, one))
    with pytest.raises(ComplexError, match="differential squared"):
        planted.homology_dims()
