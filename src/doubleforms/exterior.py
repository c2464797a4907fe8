"""Orthonormal exterior-basis combinatorics on R^n.

Basis k-vectors e_{i1} ^ ... ^ e_{ik} are labeled by strictly increasing
index tuples, stored as bitmasks of width n, and ordered lexicographically
within each (n, k) stratum.  Lexicographic order is the single canonical
order used for output, flattened arrays and serialization throughout the
package.

All signs the double-form algebra needs come from two primitives: the sign
of a shuffle merging two disjoint index sets (wedge products) and the sign
of an index set against its complement (Hodge star).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import inf

# Forms store only nonzero cells and the cell budget counts those, so n is
# capped by what the package enumerates per (n, k): subset_masks and the rank
# tables cache every k-subset of [0, n), and at n = 16 an invariant report
# up to the middle degree already takes 15-20 s.
MAX_DIMENSION = 16


class BasisError(ValueError):
    """Invalid ambient dimension or index set."""


def _is_count(value, low: int, high: float = inf) -> bool:
    """Whether value is an int, not a bool (True would pass as 1), in
    [low, high]; each caller raises its own error and message."""
    return isinstance(value, int) and not isinstance(value, bool) and low <= value <= high


def _check_dimension(n: int, error: type[ValueError] = BasisError) -> None:
    """Refuse an n that is not an int in [1, MAX_DIMENSION], a bool included,
    with error: the one ambient-dimension check and its one message.

    IndexSet and subset_masks raise BasisError; DoubleForm (which calls this
    only once its inline copy of the test has failed), g_power_matrix and map_rank
    raise DegreeError, curvature.Frame FrameError, and
    verify.check_arguments UsageError.  subset_masks and
    _mask_rank_table are lru_cached, and True == 1 shares their cache entry,
    so the check they make runs only on a cache miss; IndexSet, DoubleForm
    and curvature.Frame check n before reaching them.
    """
    if not _is_count(n, 1, MAX_DIMENSION):
        raise error(f"ambient dimension must be an integer in [1, {MAX_DIMENSION}], got {n!r}")


def mask_to_indices(mask: int) -> tuple[int, ...]:
    """Bit positions of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@lru_cache(maxsize=None)
def subset_masks(n: int, k: int) -> tuple[int, ...]:
    """All k-subsets of [0, n) as bitmasks, in lexicographic index order."""
    _check_dimension(n)
    if not 0 <= k <= n:
        raise BasisError(f"subset size must be in [0, {n}], got {k!r}")
    return tuple(
        sum(1 << i for i in combo) for combo in itertools.combinations(range(n), k)
    )


@lru_cache(maxsize=None)
def _mask_rank_table(n: int, k: int) -> dict[int, int]:
    return {mask: r for r, mask in enumerate(subset_masks(n, k))}


@lru_cache(maxsize=None)
def _odd_above(a: int) -> int:
    """Bit y is set when an odd number of elements of A exceed y: the XOR
    over x in A of (1 << x) - 1, the mask of the y below x."""
    table = 0
    while a:
        low = a & -a
        a ^= low
        table ^= low - 1
    return table


def wedge_sign_masks(a: int, b: int) -> int:
    """Sign of e_A ^ e_B relative to e_{A|B}; 0 when A and B intersect.

    The sign is the parity of the number of transpositions sorting the
    concatenation (A ascending, B ascending), i.e. (-1)^{#{(x,y) in AxB : x > y}}.
    Grouping the inversions by y in B, that count is the sum over y in B of
    #{x in A : x > y}, whose parity is bit y of _odd_above(A); so the sign is
    (-1)^popcount(B & _odd_above(A)), a popcount core's kernels use inline.
    """
    if a & b:
        return 0
    return -1 if (b & _odd_above(a)).bit_count() & 1 else 1


def complement_sign_mask(n: int, a: int) -> int:
    """Sign s with e_A ^ e_{A^c} = s * e_0 ^ ... ^ e_{n-1}."""
    return wedge_sign_masks(a, ((1 << n) - 1) ^ a)


@dataclass(frozen=True)
class IndexSet:
    """A strictly increasing tuple of basis indices in [0, n), as a bitmask."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        mask = self.mask
        if not _is_count(mask, 0) or mask >> self.n:
            raise BasisError(f"index mask {mask!r} out of range for n={self.n}")

    @classmethod
    def from_indices(cls, n: int, indices) -> "IndexSet":
        idx = tuple(indices)
        _check_dimension(n)
        for i in idx:
            if not isinstance(i, int) or isinstance(i, bool):
                raise BasisError(f"indices must be integers, got {i!r}")
            if not 0 <= i < n:
                raise BasisError(f"index {i!r} out of range [0, {n})")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise BasisError(f"indices must be strictly increasing, got {idx}")
        return cls(n, sum(1 << i for i in idx))

    @property
    def indices(self) -> tuple[int, ...]:
        return mask_to_indices(self.mask)

    @property
    def k(self) -> int:
        return self.mask.bit_count()

    def __len__(self) -> int:
        return self.k

    def __repr__(self) -> str:
        return f"IndexSet(n={self.n}, indices={self.indices})"

