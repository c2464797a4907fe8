"""Basis combinatorics: ranks, wedge signs, complement signs.

The package works on masks only.  rank, unrank, wedge_sign and
complement_sign below are the IndexSet-level functions it once exported,
kept here as oracles of the mask tables: rank counts subsets arithmetically
(combinatorial number system) where the rank table _mask_rank_table
reads subset_masks' enumeration, and the sign functions return the merged
or complementary IndexSet next to the mask primitives' sign.
"""

import itertools
from math import comb

import pytest

from doubleforms.exterior import (
    BasisError,
    IndexSet,
    _mask_rank_table,
    complement_sign_mask,
    mask_to_indices,
    subset_masks,
    wedge_sign_masks,
)


def rank(index_set):
    """Lexicographic rank of a k-subset among all k-subsets of [0, n)."""
    n = index_set.n
    idx = index_set.indices
    k = len(idx)
    r = 0
    prev = -1
    for t, i in enumerate(idx):
        for v in range(prev + 1, i):
            r += comb(n - 1 - v, k - t - 1)
        prev = i
    return r


def unrank(n, k, r):
    """Inverse of rank: the r-th k-subset of [0, n) in lexicographic order."""
    masks = subset_masks(n, k)
    if not 0 <= r < len(masks):
        raise BasisError(f"rank {r!r} out of range [0, {len(masks)})")
    return IndexSet(n, masks[r])


def wedge_sign(left, right):
    """Sign and merged index set of e_I ^ e_K; sign 0 when I and K overlap."""
    if left.n != right.n:
        raise BasisError("wedge_sign requires index sets over the same n")
    return wedge_sign_masks(left.mask, right.mask), IndexSet(left.n, left.mask | right.mask)


def complement_sign(index_set):
    """Sign s and complement I^c with star(e_I) = s * e_{I^c}."""
    complement = IndexSet(index_set.n, ((1 << index_set.n) - 1) ^ index_set.mask)
    return complement_sign_mask(index_set.n, index_set.mask), complement


def _inversion_sign(sequence):
    """Brute-force parity of the permutation sorting the sequence."""
    inversions = sum(
        1
        for i in range(len(sequence))
        for j in range(i + 1, len(sequence))
        if sequence[i] > sequence[j]
    )
    return -1 if inversions % 2 else 1


def test_rank_examples():
    assert rank(IndexSet.from_indices(4, (0, 1))) == 0
    assert rank(IndexSet.from_indices(4, (2, 3))) == 5
    # frozen from the enumeration oracle: (0,2,4) is the 5th 3-subset of [0,5)
    assert rank(IndexSet.from_indices(5, (0, 2, 4))) == 4


def test_rank_matches_enumeration_and_inverts():
    for n in range(1, 9):
        for k in range(n + 1):
            combos = list(itertools.combinations(range(n), k))
            seen = set()
            for position, combo in enumerate(combos):
                index_set = IndexSet.from_indices(n, combo)
                r = rank(index_set)
                assert r == position
                assert unrank(n, k, r) == index_set
                seen.add(r)
            assert seen == set(range(len(combos)))


def test_subset_masks_lexicographic():
    assert subset_masks(4, 2) == (0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100)
    for n in (3, 5):
        for k in range(n + 1):
            for mask in subset_masks(n, k):
                assert _mask_rank_table(n, mask.bit_count())[mask] == rank(IndexSet(n, mask))


def test_wedge_sign_examples():
    sign, merged = wedge_sign(IndexSet.from_indices(2, (0,)), IndexSet.from_indices(2, (1,)))
    assert (sign, merged.indices) == (1, (0, 1))
    sign, merged = wedge_sign(IndexSet.from_indices(2, (1,)), IndexSet.from_indices(2, (0,)))
    assert (sign, merged.indices) == (-1, (0, 1))
    sign, _ = wedge_sign(IndexSet.from_indices(3, (0, 1)), IndexSet.from_indices(3, (0,)))
    assert sign == 0


def test_wedge_sign_matches_sorting_parity():
    for n in (3, 4, 5):
        for ka in range(n + 1):
            for kb in range(n - ka + 1):
                for a in itertools.combinations(range(n), ka):
                    rest = sorted(set(range(n)) - set(a))
                    for b in itertools.combinations(rest, kb):
                        mask_a = sum(1 << i for i in a)
                        mask_b = sum(1 << i for i in b)
                        assert wedge_sign_masks(mask_a, mask_b) == _inversion_sign(a + b)


def test_wedge_sign_graded_commutativity():
    for n in (4, 5):
        for ka in range(n + 1):
            for a in itertools.combinations(range(n), ka):
                rest = sorted(set(range(n)) - set(a))
                for kb in range(len(rest) + 1):
                    for b in itertools.combinations(rest, kb):
                        left = wedge_sign_masks(sum(1 << i for i in a), sum(1 << i for i in b))
                        right = wedge_sign_masks(sum(1 << i for i in b), sum(1 << i for i in a))
                        assert left == (-1) ** (ka * kb) * right


def test_complement_sign_examples():
    sign, comp = complement_sign(IndexSet.from_indices(2, (0,)))
    assert (sign, comp.indices) == (1, (1,))
    sign, comp = complement_sign(IndexSet.from_indices(2, (1,)))
    assert (sign, comp.indices) == (-1, (0,))
    sign, comp = complement_sign(IndexSet.from_indices(4, (0, 1)))
    assert (sign, comp.indices) == (1, (2, 3))


def test_complement_sign_double_law():
    for n in range(1, 9):
        for k in range(n + 1):
            for mask in subset_masks(n, k):
                product = complement_sign_mask(n, mask) * complement_sign_mask(
                    n, ((1 << n) - 1) ^ mask
                )
                assert product == (-1) ** (k * (n - k))


def test_index_set_validation():
    with pytest.raises(BasisError):
        IndexSet.from_indices(4, (1, 1))
    with pytest.raises(BasisError):
        IndexSet.from_indices(4, (2, 1))
    with pytest.raises(BasisError):
        IndexSet.from_indices(4, (4,))
    with pytest.raises(BasisError):
        IndexSet.from_indices(0, ())
    with pytest.raises(BasisError):
        IndexSet.from_indices(17, (0,))
    with pytest.raises(BasisError):
        unrank(4, 2, 6)


def test_wedge_sign_table_matches_inversion_count_exhaustively():
    # every pair of masks at n = 8 covers every pair at n <= 8
    indices = [mask_to_indices(mask) for mask in range(1 << 8)]
    for mask_a, a in enumerate(indices):
        for mask_b, b in enumerate(indices):
            expected = 0 if mask_a & mask_b else _inversion_sign(a + b)
            assert wedge_sign_masks(mask_a, mask_b) == expected, (a, b)
