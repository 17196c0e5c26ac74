"""Weight combinatorics: roots, partitions, the symmetric group, orderings."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decatkit import weights
from parabolic_helpers import dot_orbit


def test_rho_prime():
    assert weights.rho_prime(1) == (0,)
    assert weights.rho_prime(4) == (3, 2, 1, 0)


def test_shift_unshift_roundtrip():
    lam = (4, 1, -2)
    assert weights.unshift(weights.shift(lam)) == lam
    assert weights.shift(lam) == (6, 2, -2)


def test_positive_roots():
    assert weights.positive_roots(2) == [(1, -1)]
    roots3 = weights.positive_roots(3)
    assert len(roots3) == 3
    assert (1, -1, 0) in roots3 and (1, 0, -1) in roots3 and (0, 1, -1) in roots3
    assert len(weights.positive_roots(5)) == 10


def test_root_height():
    assert weights.root_height((0, 0, 0)) == 0
    assert weights.root_height((1, -1, 0)) == 1
    assert weights.root_height((1, 0, -1)) == 2
    assert weights.root_height((2, 0, -2)) == 4
    assert weights.root_height((1, 1, -1)) is None
    assert weights.root_height((0, 1, -1, 0)) == 1


def _kostant_brute(mu):
    """Count expressions of -mu as a nonnegative combination of positive
    roots by direct enumeration. Heights bound every coefficient."""
    n = len(mu)
    neg = tuple(-x for x in mu)
    height = weights.root_height(neg)
    if height is None:
        return 0
    roots = weights.positive_roots(n)
    count = 0
    for coeffs in itertools.product(range(height + 1), repeat=len(roots)):
        total = [0] * n
        for c, r in zip(coeffs, roots):
            for i, ri in enumerate(r):
                total[i] += c * ri
        if tuple(total) == neg:
            count += 1
    return count


def test_kostant_partition_spot_values():
    assert weights.kostant_partition((0, 0)) == 1
    assert weights.kostant_partition((-1, 1)) == 1
    assert weights.kostant_partition((-3, 3)) == 1
    assert weights.kostant_partition((1, -1)) == 0
    assert weights.kostant_partition((0, 0, 0)) == 1
    assert weights.kostant_partition((-1, 1, 0)) == 1
    assert weights.kostant_partition((-1, 0, 1)) == 2
    assert weights.kostant_partition((-2, 1, 1)) == 2
    assert weights.kostant_partition((-2, 0, 2)) == 3


@given(
    st.integers(min_value=2, max_value=3).flatmap(
        lambda n: st.lists(
            st.integers(min_value=-4, max_value=4), min_size=n, max_size=n
        )
    )
)
@settings(max_examples=40, deadline=None)
def test_kostant_partition_against_enumeration(mu):
    assert weights.kostant_partition(tuple(mu)) == _kostant_brute(tuple(mu))


def test_multiset_character_counts_root_sums():
    # Depth-2 window below the origin for gl_2: the empty sum and one or two
    # copies of the single positive root.
    ch = weights.multiset_character(weights.positive_roots(2), 2, 2)
    assert ch == {(0, 0): 1, (1, -1): 1, (2, -2): 1}


def test_multiset_character_matches_kostant():
    roots = weights.positive_roots(3)
    ch = weights.multiset_character(roots, 3, 3)
    for total, count in ch.items():
        assert count == weights.kostant_partition(tuple(-x for x in total))


def test_weyl_elements_and_inversions():
    elems = weights.weyl_elements(3)
    assert len(elems) == 6
    by_len = sorted(weights.inversions(w) for w in elems)
    assert by_len == [0, 1, 1, 2, 2, 3]
    assert weights.inversions((0, 1, 2)) == 0
    assert weights.inversions((2, 1, 0)) == 3


def test_apply_perm():
    # result[i] = lam[sigma[i]]
    assert weights.apply_perm((1, 0), (5, 2)) == (2, 5)
    assert weights.apply_perm((2, 0, 1), (7, 3, 1)) == (1, 7, 3)


def test_dot_orbit_of_regular_weight_has_full_size():
    orbit = dot_orbit((3, 0))
    assert len(set(orbit)) == 2
    orbit3 = dot_orbit((4, 2, 0))
    assert len(set(orbit3)) == 6


def test_block_congruent_basic():
    assert weights.block_congruent((1, 0), (1, 0), 7)
    assert weights.block_congruent((0, 1), (1, 0), 7)
    assert weights.block_congruent((8, 0), (1, 0), 7)
    assert weights.block_congruent((0, 8), (1, 0), 7)
    assert not weights.block_congruent((1, 1), (1, 0), 7)
    with pytest.raises(ValueError, match="different lengths"):
        weights.block_congruent((1,), (1, 0), 7)


@given(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
    st.permutations([0, 1, 2]),
)
def test_block_congruent_is_permutation_invariant(a, sigma):
    a = tuple(a)
    b = weights.apply_perm(tuple(sigma), a)
    assert weights.block_congruent(a, b, 7)
    shifted = tuple(x + 7 for x in b)
    assert weights.block_congruent(a, shifted, 7)


def test_orderings():
    assert weights.componentwise_leq((0, 0), (1, 1))
    assert not weights.componentwise_leq((0, 1), (1, 0))
    # Root order: the difference must be a nonnegative root combination.
    assert weights.root_order_leq((0, 1), (1, 0))
    assert not weights.root_order_leq((1, 0), (0, 1))
    assert weights.root_order_leq((1, 0), (1, 0))
    # Different coordinate sums are never comparable in root order.
    assert not weights.root_order_leq((0, 0), (1, 0))


@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=4),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=4),
)
def test_componentwise_leq_with_equal_sum_implies_equality(a, b):
    if len(a) != len(b):
        return
    a, b = tuple(a), tuple(b)
    if weights.componentwise_leq(a, b) and sum(a) == sum(b):
        assert a == b
