"""Exact bigraded algebra of double forms on Euclidean n-space.

A double form of bidegree (p, q) is a bilinear form on Lambda^p x Lambda^q,
skew-symmetric within each argument block, with one coefficient per basis
element e_I (x) e_J.  The basis is orthonormal and self-dual.  Only the
nonzero coefficients are stored, as integer numerators over one positive
denominator, in one sparse map over index-set bitmasks:

    cells[mask_I][mask_J] / den == value of the form on (e_I, e_J).

No zero numerator and no empty row is ever stored, gcd(den, every
numerator) == 1, and den == 1 for the zero form, so two forms are equal
exactly when their maps and denominators are.  Every operation walks the
stored numerators: the kernels (mul, contract for every c^k in one pass,
bianchi_sum, and g_power_sum for every sum and g-power: +, -, mul_g_power
and the closed forms) read each operand's den, accumulate plain ints over
the product or lcm of those, and publish, which drops the cells that
cancelled and divides by one gcd.  scale (and -, * and / by a scalar) is
one pass that multiplies each numerator by the scalar's and publishes over
den times the scalar's denominator; scale(1) is the form itself.  c^k and
g^k visit the same k-subsets S with the same sign,
(-1)^popcount((I ^ J) & odd_S): contract, g_power_sum and
decomposition._g_power_image, the entries of g_power_matrix and of the
keyed g^k blocks, draw them from one table, _subset_table(k).
trace_of_product sums the diagonal of a product into one int without
forming the product; it reads its partner subsets C, plain masks, from a
second memo, _subsets_of(mask, k).  One enumerator, _k_subsets, fills both.
Both memos live for the whole process, like exterior's lru_caches, and
grow only with the keys met: one entry per mask and k, holding the C(b, k)
subsets of the mask's b bits, so over the masks of n indices each memo
holds at most 3^n subsets, all k together.  hodge reads the sign of
e_A ^ e_{A^c} from a third, _complement_parity(n, k), an lru_cache like
exterior._mask_rank_table: one C(n, k)-entry map per (n, k) met, so at most
2^n entries per n.  A Fraction is made only where a value leaves a form:
cell(), entries(), inner(), evaluate(), trace_of_product() and the
flattened array; _from_cells publishes numerators given per cell.  One
kernel, _wedge, computes
the coordinates of a wedge v_1 ^ ... ^ v_k of integer vectors, one vector
at a time, as a sparse mask -> int map; evaluate() and curvature.Frame read
it.  The cell budget bounds the number of stored cells: it is checked where
a kernel publishes its result, where dense rows or a flattened array come
in, and on the integer matrices of linear algebra: g_power_matrix whole,
and each block of linalg.keyed_blocks.  The
flattened layout (index sets in lexicographic order, row-major) is known
in _flatten and _unflatten here, and in
decomposition.g_power_matrix, which writes the row of a target cell as
row_rank[I] * cols + col_rank[J] itself.  Exact values become integer
numerators over one denominator through one scaler, _integer_numerators:
dense rows, vectors, diagonals, serialize's JSON values and linalg's rows.

All coefficients are exact rationals, so every algebraic identity exercised
by the test suite is checked with equality, never with tolerances.  Forms are
filled in while they are built (set_cell, or dense rows given to the
constructor) and treated as immutable afterwards; all operations are pure.

Conventions pinned here (and enforced by the oracle tests):

* products extend (e_I (x) e_J) . (e_K (x) e_L) = sign(I,K) sign(J,L)
  e_{I u K} (x) {J u L}, matching the 1/(p! r! s! q!) permutation-sum
  evaluation of wedge products of multilinear forms;
* the contraction sums over one orthonormal vector inserted in front of both
  argument blocks, and is the inner-product adjoint of multiplication by g;
* the Hodge star acts factor-wise through complement signs, so that
  star(omega)(. , .) == omega(star . , star .).
"""

from __future__ import annotations

import itertools
import os
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm

from .exterior import (
    MAX_DIMENSION,
    IndexSet,
    complement_sign_mask,
    mask_to_indices,
    subset_masks,
    _check_dimension,
    _is_count,
    _mask_rank_table,
    _odd_above,
)

Scalar = Fraction

DEFAULT_CELL_BUDGET = 10**7

CELL_BUDGET_VARIABLE = "DOUBLEFORMS_CELL_BUDGET"


class DoubleFormError(ValueError):
    """Base class for algebra errors."""


class DegreeError(DoubleFormError):
    """Bidegree out of range for the requested operation."""


class DimensionMismatchError(DoubleFormError):
    """Operands live over different ambient dimensions or bidegrees."""


class CellBudgetError(DoubleFormError):
    """More cells than the configured cell budget."""


class BianchiRequiredError(DoubleFormError):
    """Operation is only defined on first-Bianchi-identity tensors."""


class IdentityError(DoubleFormError):
    """An exact identity that must hold by construction failed to."""


def _checked_budget(budget, source: str = "cell budget") -> int:
    if not _is_count(budget, 1):
        raise DoubleFormError(f"{source} must be a positive integer, got {budget!r}")
    return budget


def _budget_from_environment() -> int:
    """Read the initial cell budget from DOUBLEFORMS_CELL_BUDGET.

    Unset means DEFAULT_CELL_BUDGET.  A set value goes through the same
    positive-integer check as set_cell_budget; whatever int() accepts as an
    integer literal is read, so surrounding whitespace and digit underscores
    (" 7 ", "1_000") are allowed.  Anything else ("abc", "1e3", "0", "-5")
    raises DoubleFormError naming the variable and the value.
    """
    raw = os.environ.get(CELL_BUDGET_VARIABLE)
    if raw is None:
        return DEFAULT_CELL_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = raw
    return _checked_budget(budget, CELL_BUDGET_VARIABLE)


_cell_budget: int | None = None  # read from the environment on first use


def cell_budget() -> int:
    global _cell_budget
    if _cell_budget is None:
        _cell_budget = _budget_from_environment()
    return _cell_budget


def set_cell_budget(budget: int) -> None:
    """Override the cap on stored cells per form (and on the cells of a
    dense integer matrix) at runtime.

    The initial value comes from DOUBLEFORMS_CELL_BUDGET, default 10**7,
    read and checked the same way on the first budget check or cell_budget()
    call.
    """
    global _cell_budget
    _cell_budget = _checked_budget(budget)


def _require_cell_budget(cells: int, what: str) -> None:
    """Refuse cells stored or allocated past the budget; what names the owner."""
    budget = _cell_budget or cell_budget()
    if cells > budget:
        raise CellBudgetError(
            f"refusing {cells} cells for {what}: more than the budget of {budget} "
            "(see set_cell_budget / DOUBLEFORMS_CELL_BUDGET)"
        )


def as_scalar(value) -> Fraction:
    """Coerce ints and Fractions to the exact rational scalar type."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise DoubleFormError(f"expected an exact rational scalar, got {value!r}")


_ZERO = Fraction(0)
_NO_ROW: dict = {}  # read-only stand-in for a row with no stored cell


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an exact int or Fraction scalar."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise DoubleFormError(f"expected an exact rational scalar, got {value!r}")


def _integer_numerators(values) -> tuple[list[int], int]:
    """Exact int or Fraction values as integer numerators over one
    denominator, the lcm of theirs: (numerators, lcm).  Anything else
    raises DoubleFormError."""
    ratios = list(map(_ratio, values))
    den = lcm(*{d for _, d in ratios})
    return [num * (den // d) for num, d in ratios], den


class DoubleForm:
    """An element of D^{p,q} over R^n with exact rational coefficients.

    coeffs, when given, are dense C(n,p) x C(n,q) rows in lexicographic order.
    """

    __slots__ = ("n", "p", "q", "cells", "den")

    def __init__(self, n: int, p: int, q: int, coeffs=None):
        """Check n and (p, q), then publish coeffs, if given.

        Every form, each kernel result too, is made here, so plain ints in
        range pass one test first.  Anything else (an int subclass, a bool,
        another type, a value out of range) takes the full checks, which
        accept an int subclass and refuse the rest, each with its one
        message; _check_dimension holds the message for n.
        """
        if not (
            type(n) is type(p) is type(q) is int
            and 1 <= n <= MAX_DIMENSION and 0 <= p <= n and 0 <= q <= n
        ):
            if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_DIMENSION:
                _check_dimension(n, DegreeError)
            if (
                not (isinstance(p, int) and isinstance(q, int) and 0 <= p <= n and 0 <= q <= n)
                or isinstance(p, bool)
                or isinstance(q, bool)
            ):
                raise DegreeError(f"bidegree ({p!r}, {q!r}) out of range for n={n}")
        self.n = n
        self.p = p
        self.q = q
        self.cells = {}
        self.den = 1
        if coeffs is not None:
            rows, cols = comb(n, p), comb(n, q)
            if len(coeffs) != rows or any(len(row) != cols for row in coeffs):
                raise DimensionMismatchError(
                    f"coefficient array must be {rows}x{cols} for D^({p},{q}) at n={n}"
                )
            nums, den = _integer_numerators(itertools.chain.from_iterable(coeffs))
            col_masks = subset_masks(n, q)
            self._publish({
                mask_i: dict(zip(col_masks, nums[at:at + cols]))
                for mask_i, at in zip(subset_masks(n, p), range(0, len(nums), cols))
            }, den)

    def _publish(self, acc: dict, den: int) -> None:
        """Store acc, integer numerators over den > 0, as the cells: drop the
        cells that cancelled to zero and the empty rows, refuse more cells
        than the cell budget, and divide by the gcd of den and the
        numerators.  acc is emptied and its rows may be kept as they are, so
        the caller hands it over."""
        cells = {}
        stored = 0
        while acc:  # popped, so a row's memory is free once its copy is made
            mask_i, row = acc.popitem()
            if not all(row.values()):
                row = {mask_j: value for mask_j, value in row.items() if value}
            if row:
                cells[mask_i] = row
                stored += len(row)
        if stored > (_cell_budget or cell_budget()):
            _require_cell_budget(stored, f"D^({self.p},{self.q}) at n={self.n}")
        self.cells = cells
        self.den = den
        if den != 1:
            self._reduce(den)

    def _reduce(self, common: int) -> None:
        """Divide den and every numerator by their gcd, given common, the gcd
        of den and some of the numerators (den itself will do)."""
        for row in self.cells.values():
            if common == 1:
                return
            common = gcd(common, *row.values())
        if common != 1:  # den alone when no cell is stored, leaving den == 1
            self.den //= common
            self.cells = {
                mask_i: {mask_j: value // common for mask_j, value in row.items()}
                for mask_i, row in self.cells.items()
            }

    # -- basic structure ---------------------------------------------------

    @property
    def row_masks(self) -> tuple[int, ...]:
        return subset_masks(self.n, self.p)

    @property
    def col_masks(self) -> tuple[int, ...]:
        return subset_masks(self.n, self.q)

    def cell(self, mask_i: int, mask_j: int) -> Fraction:
        """Coefficient at (e_I, e_J), given as index-set masks."""
        num = self.cells.get(mask_i, _NO_ROW).get(mask_j)
        return Fraction(num, self.den) if num else _ZERO

    def set_cell(self, mask_i: int, mask_j: int, value) -> None:
        """Set one coefficient while building a form; 0 removes the cell.

        O(1) for an integer value while den is 1.  Otherwise the numerators
        move to the lcm of den and the value's denominator, and the form is
        reduced again.
        """
        num, value_den = _ratio(value)
        den = self.den
        if value_den != 1 or den != 1:
            common = lcm(den, value_den)
            if common != den:
                factor = common // den
                self.cells = {
                    row_mask: {col_mask: v * factor for col_mask, v in row.items()}
                    for row_mask, row in self.cells.items()
                }
                self.den = den = common
            num *= den // value_den
        row = self.cells.setdefault(mask_i, {})
        if num:
            row[mask_j] = num
        else:
            row.pop(mask_j, None)
            if not row:
                del self.cells[mask_i]
        if den != 1:
            self._reduce(gcd(den, num))

    def entries(self):
        """Yield (mask_I, mask_J, coefficient) over nonzero coefficients,
        in lexicographic (rank I, rank J) order."""
        den = self.den
        for mask_i, mask_j, num in _sorted_cells(self):
            yield mask_i, mask_j, Fraction(num, den)

    def is_zero(self) -> bool:
        return not self.cells

    def scalar_value(self) -> Fraction:
        """The single coefficient of a (0,0)-form."""
        if self.p or self.q:
            raise DegreeError(f"scalar_value needs bidegree (0,0), got ({self.p},{self.q})")
        return self.cell(0, 0)

    def __getitem__(self, key) -> Fraction:
        """Coefficient at (I, J), with I, J strictly increasing index tuples."""
        left, right = key
        i = left if isinstance(left, IndexSet) else IndexSet.from_indices(self.n, left)
        j = right if isinstance(right, IndexSet) else IndexSet.from_indices(self.n, right)
        if i.n != self.n or j.n != self.n:
            raise DimensionMismatchError("index sets live over a different n")
        if i.k != self.p or j.k != self.q:
            raise DegreeError(f"index sets must have sizes ({self.p},{self.q})")
        return self.cell(i.mask, j.mask)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DoubleForm):
            return NotImplemented
        return (
            self.n == other.n
            and self.p == other.p
            and self.q == other.q
            and self.den == other.den
            and self.cells == other.cells
        )

    __hash__ = None

    def __repr__(self) -> str:
        nnz = sum(map(len, self.cells.values()))
        return f"DoubleForm(n={self.n}, p={self.p}, q={self.q}, nonzero={nnz})"

    def _require_same_space(self, other: "DoubleForm") -> None:
        if not isinstance(other, DoubleForm):
            raise DimensionMismatchError(f"expected a DoubleForm, got {other!r}")
        if self.n != other.n:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.n} vs {other.n}"
            )

    def _require_same_bidegree(self, other: "DoubleForm") -> None:
        self._require_same_space(other)
        if (self.p, self.q) != (other.p, other.q):
            raise DimensionMismatchError(
                f"bidegrees differ: ({self.p},{self.q}) vs ({other.p},{other.q})"
            )

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "DoubleForm") -> "DoubleForm":
        self._require_same_bidegree(other)
        return g_power_sum(self.n, self.p, self.q, [(1, 0, self), (1, 0, other)])

    def __sub__(self, other: "DoubleForm") -> "DoubleForm":
        self._require_same_bidegree(other)
        return g_power_sum(self.n, self.p, self.q, [(1, 0, self), (-1, 0, other)])

    def __neg__(self) -> "DoubleForm":
        return self.scale(-1)

    def scale(self, value) -> "DoubleForm":
        """value * w for an exact int or Fraction value; w itself for 1, like
        mul_g_power(0) and contract(0), since forms are not changed once
        built.  Otherwise one pass multiplies each stored numerator by
        value's numerator, and _publish stores the rows over den times
        value's denominator: it drops them all for 0 and divides by the gcd.
        -w, value * w, w * value and w / value are this call."""
        num, den = _ratio(value)
        if num == 1 and den == 1:
            return self
        out = DoubleForm(self.n, self.p, self.q)
        out._publish({
            mask_i: {mask_j: num * v for mask_j, v in row.items()}
            for mask_i, row in self.cells.items()
        }, self.den * den)
        return out

    def __rmul__(self, value) -> "DoubleForm":
        return self.scale(value)

    def __truediv__(self, value) -> "DoubleForm":
        return self.scale(Fraction(1) / as_scalar(value))

    def __mul__(self, other):
        if isinstance(other, DoubleForm):
            return self.mul(other)
        return self.scale(other)

    # -- the graded product ------------------------------------------------

    def mul(self, other: "DoubleForm") -> "DoubleForm":
        """Graded product into D^{p+r, q+s}.

        On basis elements this is sign(I,K) sign(J,L) e_{I u K} (x) e_{J u L};
        degree overflow past n returns the zero form of the clamped degree,
        matching Lambda^{>n} = 0.  Rows are paired first, so a pair of rows
        with overlapping I and K is skipped before any cell is looked at.
        """
        self._require_same_space(other)
        n = self.n
        p_out = self.p + other.p
        q_out = self.q + other.q
        out = DoubleForm(n, min(p_out, n), min(q_out, n))
        if p_out > n or q_out > n:
            return out
        right = [(mask_k, list(row.items())) for mask_k, row in other.cells.items()]
        acc = {}
        for mask_i, row_a in self.cells.items():
            odd_i = _odd_above(mask_i)
            # sign(I,K) sign(J,L) = (-1)^(popcount(K & odd_I) + popcount(L & odd_J))
            left = [(mask_j, _odd_above(mask_j), a) for mask_j, a in row_a.items()]
            for mask_k, row_b in right:
                if mask_i & mask_k:
                    continue
                row_odd = (mask_k & odd_i).bit_count() & 1
                target = acc.setdefault(mask_i | mask_k, {})
                for mask_j, odd_j, a in left:
                    for mask_l, b in row_b:
                        if mask_j & mask_l:
                            continue
                        col = mask_j | mask_l
                        if (mask_l & odd_j).bit_count() & 1 == row_odd:
                            target[col] = target.get(col, 0) + a * b
                        else:
                            target[col] = target.get(col, 0) - a * b
        out._publish(acc, self.den * other.den)
        return out

    def mul_g_power(self, power: int) -> "DoubleForm":
        """Left multiplication by g^power; power 0 is the identity.

        Degree overflow past n returns the zero form of the clamped degree
        (min(p+k, n), min(q+k, n)), as k successive products by g would.
        """
        if not _is_count(power, 0):
            raise DegreeError(f"g-power must be a nonnegative integer, got {power!r}")
        if power == 0:
            return self
        n, p, q = self.n, self.p + power, self.q + power
        if p > n or q > n:
            return DoubleForm(n, min(p, n), min(q, n))
        return g_power_sum(n, p, q, [(1, power, self)])

    # -- contraction, inner product, star ----------------------------------

    def contract(self, k: int = 1) -> "DoubleForm":
        """c^k, the trace over k vectors inserted in front of both blocks, in
        one pass; contract() is c.

        c w (x..., y...) = sum_j w(e_j ^ x..., e_j ^ y...).  Iterating k
        times sums over ordered k-tuples of distinct j, which insert the
        same vectors in the same order in both blocks: the k! orders of one
        set S give the same term, and e_{j_k} ^ ... ^ e_{j_1} = +-e_S with
        the same sign in both blocks, so

            c^k w [I'][J'] = k! sum_{|S|=k, S disjoint from I' u J'}
                             sign(S, I') sign(S, J') w[S u I'][S u J'],

        with sign(S, A) = (-1)^inv(S, A) the sign of e_S ^ e_A and inv(S, A)
        the number of pairs s in S, a in A with s > a.  By
        exterior.wedge_sign_masks that sign is (-1)^popcount(A & odd_S),
        odd_S = _odd_above(S); with I = S u I', J = S u J' the two
        popcounts add to popcount((I ^ J) & odd_S) mod 2, because
        I' ^ J' = I ^ J.  So each stored cell (I, J) sends
        +-k! * value to (I - S, J - S) for every k-subset S of I & J,
        and only those.  k = 0 is the identity; for k > min(p, q) the
        result is the zero form of the clamped degree
        (max(p - k, 0), max(q - k, 0)), as k single contractions give.
        """
        if not _is_count(k, 0):
            raise DegreeError(f"contraction count must be a nonnegative integer, got {k!r}")
        if k == 0:
            return self
        n, p, q = self.n, self.p, self.q
        if k > p or k > q:
            return DoubleForm(n, max(p - k, 0), max(q - k, 0))
        out = DoubleForm(n, p - k, q - k)
        table = _subset_table(k)
        acc = defaultdict(dict)
        for mask_i, row in self.cells.items():
            for mask_j, value in row.items():
                subsets = table[mask_i & mask_j]
                if subsets:
                    differ = mask_i ^ mask_j
                    for mask_s, odd_s in subsets:
                        target = acc[mask_i ^ mask_s]
                        col = mask_j ^ mask_s
                        if (differ & odd_s).bit_count() & 1:
                            target[col] = target.get(col, 0) - value
                        else:
                            target[col] = target.get(col, 0) + value
        if k > 1:  # k!, once per result cell rather than per contribution
            weight = factorial(k)
            for target in acc.values():
                for col in target:
                    target[col] *= weight
        out._publish(acc, self.den)
        return out

    def inner(self, other: "DoubleForm") -> Fraction:
        """Inner product; distinct bidegrees are declared orthogonal."""
        self._require_same_space(other)
        if (self.p, self.q) != (other.p, other.q):
            return _ZERO
        total = 0
        for mask_i, row in self.cells.items():
            other_row = other.cells.get(mask_i)
            if other_row:
                for mask_j, a in row.items():
                    b = other_row.get(mask_j)
                    if b is not None:
                        total += a * b
        return Fraction(total, self.den * other.den)

    def norm_sq(self) -> Fraction:
        return self.inner(self)

    def hodge(self) -> "DoubleForm":
        """Factor-wise Hodge star, D^{p,q} -> D^{n-p,n-q}.

        Satisfies **w = (-1)^((p+q)(n-p-q)) w and the metric-contraction
        duality g w = (-1)^(n(p+q)) *c*w, whose sign is +1 on every
        even-total bidegree (all square ones in particular).  The sign of
        each cell (I, J) is sign(I) sign(J), with sign(A) that of
        e_A ^ e_{A^c}, read off the memo _complement_parity.
        """
        n = self.n
        out = DoubleForm(n, n - self.p, n - self.q)
        full = (1 << n) - 1
        row_odd, col_odd = _complement_parity(n, self.p), _complement_parity(n, self.q)
        for mask_i, row in self.cells.items():
            odd_i = row_odd[mask_i]
            out.cells[full ^ mask_i] = {
                full ^ mask_j: value if col_odd[mask_j] == odd_i else -value
                for mask_j, value in row.items()
            }
        out.den = self.den
        return out

    # -- symmetry and the Bianchi sum ---------------------------------------

    def transpose(self) -> "DoubleForm":
        """Swap the tensor factors: D^{p,q} -> D^{q,p}."""
        out = DoubleForm(self.n, self.q, self.p)
        for mask_i, row in self.cells.items():
            for mask_j, value in row.items():
                out.cells.setdefault(mask_j, {})[mask_i] = value
        out.den = self.den
        return out

    def is_symmetric(self) -> bool:
        if self.p != self.q:
            raise DegreeError(f"is_symmetric needs p == q, got ({self.p},{self.q})")
        cells = self.cells
        for mask_i, row in cells.items():
            for mask_j, value in row.items():
                if cells.get(mask_j, _NO_ROW).get(mask_i) != value:
                    return False
        return True

    def bianchi_sum(self) -> "DoubleForm":
        """First Bianchi sum into D^{p+1, q-1}.

        B w (x_1 ^ ... ^ x_{p+1}, y...) = sum_j (-1)^j w(x_1 ^ ...^j^... , x_j ^ y...),
        with the hat marking omission; the zero form when q = 0 (or p = n).
        """
        n, p, q = self.n, self.p, self.q
        if q == 0:
            return DoubleForm(n, min(p + 1, n), 0)
        if p == n:
            return DoubleForm(n, n, q - 1)
        out = DoubleForm(n, p + 1, q - 1)
        acc = {}
        for mask_i, row in self.cells.items():
            for mask_j, value in row.items():
                movable = mask_j & ~mask_i
                while movable:
                    bit = movable & -movable
                    movable ^= bit
                    new_i, new_j = mask_i | bit, mask_j ^ bit
                    # slot of the moved index inside the enlarged first block is
                    # 1-based; pulling it out of the second block costs one swap
                    # per smaller remaining index.
                    flips = (mask_i & (bit - 1)).bit_count() + 1 + (new_j & (bit - 1)).bit_count()
                    term = -value if flips & 1 else value
                    target = acc.get(new_i)
                    if target is None:
                        acc[new_i] = {new_j: term}
                    else:
                        target[new_j] = target.get(new_j, 0) + term
        out._publish(acc, self.den)
        return out

    # -- evaluation as a multilinear form -----------------------------------

    def evaluate(self, x_vectors, y_vectors) -> Fraction:
        """Value on (x_1 ^ ... ^ x_p, y_1 ^ ... ^ y_q) for rational vectors:
        each tuple is scaled to integers and wedged once by _wedge, and one
        pass over the stored cells those wedges reach sums the products."""
        xs, x_scale = _integer_vectors(self.n, x_vectors)
        ys, y_scale = _integer_vectors(self.n, y_vectors)
        if len(xs) != self.p or len(ys) != self.q:
            raise DimensionMismatchError(
                f"need {self.p} x-vectors and {self.q} y-vectors, "
                f"got {len(xs)} and {len(ys)}"
            )
        total = self._on_wedges(_wedge(xs), _wedge(ys))
        return Fraction(total, self.den * x_scale * y_scale)

    def _on_wedges(self, x_coords: dict, y_coords: dict) -> int:
        """den times the value on (X, Y), for sparse wedge coordinates as
        _wedge returns them: sum of numerator * X_I * Y_J over the stored
        cells, looking up only the rows that X reaches."""
        total = 0
        cells = self.cells
        for mask_i, x in x_coords.items():
            row = cells.get(mask_i)
            if row is None:
                continue
            for mask_j, value in row.items():
                y = y_coords.get(mask_j)
                if y is not None:
                    total += value * x * y
        return total


def trace_of_product(x: DoubleForm, y: DoubleForm) -> Fraction:
    """sum_{|A|=m} (x . y)[A, A] for x in D^{p,q}, y in D^{r,s} with
    p + r == q + s == m, without forming x . y; c^m (x . y) is m! times it.

    A cell (I1, J1) of x and a cell (I2, J2) of y reach the diagonal cell
    (A, A) exactly when I1 and I2 split A, and so do J1 and J2.  Then A
    contains I1 u J1, and with P = I1 - J1, Q = J1 - I1 and C = A - (I1 u
    J1) the partner is

        I2 = A - I1 = Q u C,    J2 = A - J1 = P u C,

    so for each stored cell of x the partners are the cells (Q u C, P u C)
    of y, C running over the (r - |Q|)-subsets of the indices outside
    I1 u J1 (only indices in some row mask of y can give a stored cell),
    and there are none when |Q| > r.  Cells of x with the same I1 u J1 and
    |Q| share those subsets, and so do later calls: each list is made once
    per process, by the memo _subsets_of.  Each pair contributes
    sign(I1, I2) sign(J1, J2) x[I1, J1] y[I2, J2], the sign of mul,
    (-1)^(popcount(I2 & odd_I1) + popcount(J2 & odd_J1)) with
    odd_I = _odd_above(I); C's share of it is popcount(C & (odd_I1 ^
    odd_J1)).  The sum is one int over x.den * y.den, made a Fraction once.
    """
    x._require_same_space(y)
    r = y.p
    if x.p + r != x.q + y.q:
        raise DegreeError(
            f"the trace needs a square product, got ({x.p},{x.q}) . ({y.p},{y.q})"
        )
    cells_y = y.cells
    support = 0
    for mask_k in cells_y:
        support |= mask_k
    total = 0
    for mask_i, row in x.cells.items():
        odd_i = _odd_above(mask_i)
        for mask_j, value in row.items():
            mask_q = mask_j & ~mask_i
            size = r - mask_q.bit_count()
            if size < 0:
                continue
            choices = _subsets_of(support & ~(mask_i | mask_j), size)
            if not choices:
                continue
            mask_p = mask_i & ~mask_j
            odd_j = _odd_above(mask_j)
            flip = odd_i ^ odd_j
            partners = 0
            for mask_c in choices:
                num = cells_y.get(mask_q | mask_c, _NO_ROW).get(mask_p | mask_c)
                if num:
                    if (mask_c & flip).bit_count() & 1:
                        partners -= num
                    else:
                        partners += num
            if partners:
                if ((mask_q & odd_i).bit_count() + (mask_p & odd_j).bit_count()) & 1:
                    total -= value * partners
                else:
                    total += value * partners
    return Fraction(total, x.den * y.den)


def _coerce_vector(n: int, vector) -> list[Fraction]:
    vec = [as_scalar(v) for v in vector]
    if len(vec) != n:
        raise DimensionMismatchError(f"vector length {len(vec)} != ambient dimension {n}")
    return vec


def _integer_vectors(n: int, vectors) -> tuple[list[list[int]], int]:
    """The vectors, each scaled to integers by the lcm of its denominators,
    and the product of those scales: a minor of the scaled vectors is that
    product times the same minor of the given ones."""
    out, scale = [], 1
    for vector in vectors:
        nums, den = _integer_numerators(vector)
        if len(nums) != n:
            raise DimensionMismatchError(f"vector length {len(nums)} != ambient dimension {n}")
        out.append(nums)
        scale *= den
    return out, scale


def _wedge(vectors) -> dict[int, int]:
    """The nonzero coordinates of v_1 ^ ... ^ v_k over the basis e_I, as
    mask_I -> int, for integer vectors; empty exactly when the vectors are
    linearly dependent, and {0: 1} for no vectors.

    The wedge is built one vector at a time, dropping coordinates that
    cancel after each step.  Wedging e_I with e_i (i not in I) gives
    +-e_{I u {i}}: e_i has to move left past each element of I above i to
    reach its sorted place, one transposition each, so

        e_I ^ e_i = (-1)^popcount(I >> (i + 1)) e_{I u {i}},

    and e_I ^ e_i = 0 for i in I.  The coordinate on e_I is the minor of
    the vectors' matrix on the columns I.
    """
    coords = {0: 1}
    for vector in vectors:
        terms = [(i, 1 << i, x) for i, x in enumerate(vector) if x]
        acc: dict[int, int] = {}
        for mask, c in coords.items():
            for i, bit, x in terms:
                if mask & bit:
                    continue
                target = mask | bit
                if (mask >> (i + 1)).bit_count() & 1:
                    acc[target] = acc.get(target, 0) - c * x
                else:
                    acc[target] = acc.get(target, 0) + c * x
        coords = {mask: c for mask, c in acc.items() if c}
        if not coords:
            break
    return coords


class _SubsetTable(dict):
    """mask -> ((S, _odd_above(S)), ...) over the k-subsets S of mask, ()
    when mask has fewer than k elements; each entry is made on first use.
    The one source of the subsets S and parities odd_S that c^k and g^k
    visit: contract reads the entry of I & J, g_power_sum and
    decomposition._g_power_image the entry of the full mask of range(n).
    A memo like exterior's lru_caches: at most one entry per mask of up to
    MAX_DIMENSION bits."""

    __slots__ = ("k",)

    def __init__(self, k: int):
        super().__init__()
        self.k = k

    def __missing__(self, mask: int) -> tuple[tuple[int, int], ...]:
        subsets = self[mask] = tuple(
            (mask_s, _odd_above(mask_s)) for mask_s in _k_subsets(mask, self.k)
        )
        return subsets


@lru_cache(maxsize=None)
def _subset_table(k: int) -> _SubsetTable:
    return _SubsetTable(k)


def _k_subsets(mask: int, k: int):
    """The k-subsets of mask as masks, in itertools.combinations order over
    its set bits, lowest first; nothing when mask has fewer than k bits."""
    return map(sum, itertools.combinations([1 << i for i in mask_to_indices(mask)], k))


@lru_cache(maxsize=None)
def _subsets_of(mask: int, k: int) -> tuple[int, ...]:
    """The k-subsets of mask as a tuple of masks, made once per (mask, k)
    for the whole process: trace_of_product's partner subsets C."""
    return tuple(_k_subsets(mask, k))


@lru_cache(maxsize=None)
def _complement_parity(n: int, k: int) -> dict[int, bool]:
    """mask -> whether e_A ^ e_{A^c} = -e_0 ^ ... ^ e_{n-1}, over the
    k-subsets A of range(n), from exterior.complement_sign_mask: hodge's
    signs, made once per (n, k) like exterior._mask_rank_table.  The sign
    counts the pairs (a, b) in A x A^c with a > b; a in A exceeds a - r of
    the b in A^c, r being the number of elements of A below it, so the
    parity is that of sum_{a in A} a - C(|A|, 2)."""
    return {mask: complement_sign_mask(n, mask) < 0 for mask in subset_masks(n, k)}


def _permutation_sign(perm) -> int:
    inversions = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inversions += 1
    return -1 if inversions & 1 else 1


def g_power_sum(n: int, p: int, q: int, terms) -> DoubleForm:
    """sum_i c_i g^{k_i} . w_i in D^{p,q} for terms (c_i, k_i, w_i), in one pass.

    c is an exact rational or int, w a form over n with (w.p+k, w.q+k) ==
    (p, q); any other term raises DegreeError.  From g^k = k! sum_{|S|=k}
    e_S (x) e_S, g^k . (e_I (x) e_J) = k! sum_S sign(S,I) sign(S,J)
    e_{S u I} (x) e_{S u J} over the S disjoint from I and J.  Rows go
    first, as in mul: per row I and subset S, the row parity and the
    target row are found once.  Cells accumulate as integer numerators over
    the lcm of the terms' c.denominator * w.den, skipping zero coefficients
    and empty forms, and are published once.
    """
    out = DoubleForm(n, p, q)
    live, den = [], 1
    for c, k, w in terms:
        if w.n != n or k < 0 or (w.p + k, w.q + k) != (p, q):
            raise DegreeError(f"g^{k} . D^({w.p},{w.q}) at n={w.n} is not in D^({p},{q}) at n={n}")
        if c and w.cells:
            den = lcm(den, c.denominator * w.den)
            live.append((c, k, w))
    acc = {}
    for c, k, w in live:
        weight = c.numerator * factorial(k) * (den // (c.denominator * w.den))
        if not k:
            for mask_i, row in w.cells.items():
                target = acc.get(mask_i)
                if target is None:
                    acc[mask_i] = {mask_j: weight * value for mask_j, value in row.items()}
                else:
                    for mask_j, value in row.items():
                        target[mask_j] = target.get(mask_j, 0) + weight * value
            continue
        subsets = _subset_table(k)[(1 << n) - 1]
        for mask_i, row in w.cells.items():
            scaled = [(mask_j, weight * value) for mask_j, value in row.items()]
            for mask_s, odd_s in subsets:
                if mask_s & mask_i:
                    continue
                # sign(S,I) sign(S,J) = (-1)^(popcount(I & odd_S) + popcount(J & odd_S))
                row_odd = (mask_i & odd_s).bit_count() & 1
                target = acc.setdefault(mask_s | mask_i, {})
                for mask_j, value in scaled:
                    if mask_s & mask_j:
                        continue
                    col = mask_s | mask_j
                    if (mask_j & odd_s).bit_count() & 1 == row_odd:
                        target[col] = target.get(col, 0) + value
                    else:
                        target[col] = target.get(col, 0) - value
    out._publish(acc, den)
    return out


def contractions(form: DoubleForm, times: int) -> list[DoubleForm]:
    """The contraction chain [w, c w, c^2 w, ..., c^times w]."""
    chain = [form]
    for _ in range(times):
        chain.append(chain[-1].contract())
    return chain


# -- the flattened layout ---------------------------------------------------


def _sorted_cells(form: DoubleForm):
    """(mask_I, mask_J, numerator) per stored cell, in lexicographic
    (rank I, rank J) order."""
    row_rank = _mask_rank_table(form.n, form.p)
    col_rank = _mask_rank_table(form.n, form.q)
    for mask_i in sorted(form.cells, key=row_rank.__getitem__):
        row = form.cells[mask_i]
        for mask_j in sorted(row, key=col_rank.__getitem__):
            yield mask_i, mask_j, row[mask_j]


def _flatten(form: DoubleForm) -> list[Fraction]:
    """The dense flattened coefficient array of a form: lex-ordered rows,
    row-major."""
    row_rank = _mask_rank_table(form.n, form.p)
    col_rank = _mask_rank_table(form.n, form.q)
    cols = comb(form.n, form.q)
    values = [_ZERO] * (comb(form.n, form.p) * cols)
    for mask_i, row in form.cells.items():
        base = row_rank[mask_i] * cols
        for mask_j, num in row.items():
            values[base + col_rank[mask_j]] = Fraction(num, form.den)
    return values


def _unflatten(n: int, p: int, q: int, values) -> DoubleForm:
    """The form whose flattened coefficient array is values."""
    cols = comb(n, q)
    return DoubleForm(n, p, q, [values[at:at + cols] for at in range(0, len(values), cols)])


def _from_cells(n: int, p: int, q: int, nums: dict, den: int) -> DoubleForm:
    """The form with value nums[(mask_I, mask_J)] / den at e_I (x) e_J, for
    integer numerators (zeros allowed, absent cells zero) and den > 0."""
    acc: dict = {}
    for (mask_i, mask_j), num in nums.items():
        acc.setdefault(mask_i, {})[mask_j] = num
    form = DoubleForm(n, p, q)
    form._publish(acc, den)
    return form


# -- constructors -----------------------------------------------------------


def make_zero(n: int, p: int, q: int) -> DoubleForm:
    """The zero element of D^{p,q}."""
    return DoubleForm(n, p, q)


def make_basis(n: int, left, right) -> DoubleForm:
    """The basis element e_I (x) e_J."""
    i = left if isinstance(left, IndexSet) else IndexSet.from_indices(n, left)
    j = right if isinstance(right, IndexSet) else IndexSet.from_indices(n, right)
    if i.n != n or j.n != n:
        raise DimensionMismatchError("index sets must live over the given n")
    out = DoubleForm(n, i.k, j.k)
    out.cells[i.mask] = {j.mask: 1}
    return out


def make_g(n: int) -> DoubleForm:
    """The metric tensor g = sum_i e_i (x) e_i in D^{1,1}."""
    out = DoubleForm(n, 1, 1)
    out.cells = {1 << i: {1 << i: 1} for i in range(n)}
    return out


def _diagonal(n: int, values) -> DoubleForm:
    """sum_i values[i] e_i (x) e_i in D^{1,1}, for n exact rational values,
    published once over the lcm of their denominators."""
    out = DoubleForm(n, 1, 1)
    nums, den = _integer_numerators(values)
    if len(nums) != n:
        raise DimensionMismatchError(f"{len(nums)} diagonal values for n={n}")
    out._publish({1 << i: {1 << i: num} for i, num in enumerate(nums)}, den)
    return out


def make_scalar(n: int, value) -> DoubleForm:
    """A scalar as the corresponding (0,0)-form."""
    out = DoubleForm(n, 0, 0)
    out.set_cell(0, 0, value)
    return out


# -- independent evaluation oracle ------------------------------------------


def eval_oracle(left: DoubleForm, right: DoubleForm, x_vectors, y_vectors) -> Fraction:
    """Evaluate (left . right) on vector tuples by the raw permutation sum.

    This is the literal double shuffle sum with prefactor
    1/(p! r! s! q!), summing over all of S_{p+r} x S_{q+s}.  It never calls
    mul and exists solely as an independent cross-check of the product; it is
    exempt from any performance expectations.
    """
    left._require_same_space(right)
    xs = [_coerce_vector(left.n, v) for v in x_vectors]
    ys = [_coerce_vector(left.n, v) for v in y_vectors]
    p, r = left.p, right.p
    q, s = left.q, right.q
    if len(xs) != p + r or len(ys) != q + s:
        raise DimensionMismatchError(
            f"need {p + r} x-vectors and {q + s} y-vectors, got {len(xs)} and {len(ys)}"
        )
    prefactor = Fraction(1, factorial(p) * factorial(r) * factorial(s) * factorial(q))
    total = _ZERO
    for sigma in itertools.permutations(range(p + r)):
        sig_sign = _permutation_sign(sigma)
        left_x = [xs[i] for i in sigma[:p]]
        right_x = [xs[i] for i in sigma[p:]]
        for rho in itertools.permutations(range(q + s)):
            rho_sign = _permutation_sign(rho)
            value = left.evaluate(left_x, [ys[j] for j in rho[:q]])
            if value:
                value *= right.evaluate(right_x, [ys[j] for j in rho[q:]])
            if value:
                total += sig_sign * rho_sign * value
    return prefactor * total
