"""Exact bigraded algebra of double forms on Euclidean n-space.

A double form of bidegree (p, q) is a bilinear form on Lambda^p x Lambda^q,
skew-symmetric within each argument block, with one coefficient per basis
element e_I (x) e_J.  The basis is orthonormal and self-dual.  Only the
nonzero coefficients are stored, in one sparse map over index-set bitmasks:

    cells[mask_I][mask_J] == value of the form on (e_I, e_J).

No zero value and no empty row is ever stored, so two forms are equal
exactly when their maps are.  Every operation walks the stored cells; mul,
contract and g_power_sum (every linear combination: +, -, scale, g-powers)
accumulate integer numerators over one common denominator, and Fractions
are made at publish, which drops the cells that cancelled.  The cell budget
bounds the number of stored cells: it is checked where a kernel publishes
its result, where dense rows or a flattened array come in, and on the dense
integer matrices built for linear solving.  The flattened layout (index
sets in lexicographic order, row-major) is known only here, in _flat_cells,
_flatten and _unflatten.

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
from fractions import Fraction
from math import comb, factorial, lcm

from .exterior import (
    MAX_DIMENSION,
    IndexSet,
    complement_sign_mask,
    mask_to_indices,
    subset_masks,
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
    if not isinstance(budget, int) or budget < 1:
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


def _common_denominator(cells: dict) -> int:
    """The lcm of the stored values' denominators, d: every value v has the
    integer numerator v.numerator * (d // v.denominator) over d."""
    return lcm(*{value.denominator for row in cells.values() for value in row.values()})


def _add_into(cells: dict, mask_i: int, mask_j: int, value) -> None:
    """Accumulate value into cells[mask_i][mask_j]."""
    row = cells.get(mask_i)
    if row is None:
        cells[mask_i] = {mask_j: value}
    elif mask_j in row:
        row[mask_j] += value
    else:
        row[mask_j] = value


class DoubleForm:
    """An element of D^{p,q} over R^n with exact rational coefficients.

    coeffs, when given, are dense C(n,p) x C(n,q) rows in lexicographic order.
    """

    __slots__ = ("n", "p", "q", "cells")

    def __init__(self, n: int, p: int, q: int, coeffs=None):
        if not isinstance(n, int) or not 1 <= n <= MAX_DIMENSION:
            raise DegreeError(f"ambient dimension must be in [1, {MAX_DIMENSION}], got {n!r}")
        if not (isinstance(p, int) and isinstance(q, int) and 0 <= p <= n and 0 <= q <= n):
            raise DegreeError(f"bidegree ({p!r}, {q!r}) out of range for n={n}")
        self.n = n
        self.p = p
        self.q = q
        self.cells = {}
        if coeffs is not None:
            rows, cols = comb(n, p), comb(n, q)
            if len(coeffs) != rows or any(len(row) != cols for row in coeffs):
                raise DimensionMismatchError(
                    f"coefficient array must be {rows}x{cols} for D^({p},{q}) at n={n}"
                )
            col_masks = subset_masks(n, q)
            self._publish({
                mask_i: dict(zip(col_masks, map(as_scalar, row)))
                for mask_i, row in zip(subset_masks(n, p), coeffs)
            })

    def _publish(self, acc: dict, den: int | None = None) -> None:
        """Store the accumulated cells that did not cancel to zero, without
        empty rows, refusing more of them than the cell budget.  With den,
        acc holds integer numerators over den, made Fractions here."""
        cells = {}
        stored = 0
        for mask_i, row in acc.items():
            if den is None:
                kept = {mask_j: value for mask_j, value in row.items() if value}
            elif den == 1:  # Fraction(int) skips the gcd
                kept = {mask_j: Fraction(value) for mask_j, value in row.items() if value}
            else:
                kept = {mask_j: Fraction(value, den) for mask_j, value in row.items() if value}
            if kept:
                cells[mask_i] = kept
                stored += len(kept)
        _require_cell_budget(stored, f"D^({self.p},{self.q}) at n={self.n}")
        self.cells = cells

    # -- basic structure ---------------------------------------------------

    @property
    def row_masks(self) -> tuple[int, ...]:
        return subset_masks(self.n, self.p)

    @property
    def col_masks(self) -> tuple[int, ...]:
        return subset_masks(self.n, self.q)

    def cell(self, mask_i: int, mask_j: int) -> Fraction:
        """Coefficient at (e_I, e_J), given as index-set masks."""
        return self.cells.get(mask_i, _NO_ROW).get(mask_j, _ZERO)

    def set_cell(self, mask_i: int, mask_j: int, value) -> None:
        """Set one coefficient while building a form; 0 removes the cell."""
        value = as_scalar(value)
        row = self.cells.setdefault(mask_i, {})
        if value:
            row[mask_j] = value
        else:
            row.pop(mask_j, None)
            if not row:
                del self.cells[mask_i]

    def entries(self):
        """Yield (mask_I, mask_J, coefficient) over nonzero coefficients,
        in lexicographic (rank I, rank J) order."""
        row_rank = _mask_rank_table(self.n, self.p)
        col_rank = _mask_rank_table(self.n, self.q)
        for mask_i in sorted(self.cells, key=row_rank.__getitem__):
            row = self.cells[mask_i]
            for mask_j in sorted(row, key=col_rank.__getitem__):
                yield mask_i, mask_j, row[mask_j]

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
        return self.scale(Fraction(-1))

    def scale(self, value) -> "DoubleForm":
        return g_power_sum(self.n, self.p, self.q, [(as_scalar(value), 0, self)])

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
        den_a = _common_denominator(self.cells)
        den_b = _common_denominator(other.cells)
        right = [
            (mask_k, [(mask_l, b.numerator * (den_b // b.denominator)) for mask_l, b in row.items()])
            for mask_k, row in other.cells.items()
        ]
        acc = {}
        for mask_i, row_a in self.cells.items():
            odd_i = _odd_above(mask_i)
            # sign(I,K) sign(J,L) = (-1)^(popcount(K & odd_I) + popcount(L & odd_J))
            left = [
                (mask_j, _odd_above(mask_j), a.numerator * (den_a // a.denominator))
                for mask_j, a in row_a.items()
            ]
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
        out._publish(acc, den_a * den_b)
        return out

    def mul_g_power(self, power: int) -> "DoubleForm":
        """Left multiplication by g^power; power 0 is the identity.

        Degree overflow past n returns the zero form of the clamped degree
        (min(p+k, n), min(q+k, n)), as k successive products by g would.
        """
        if not isinstance(power, int) or power < 0:
            raise DegreeError(f"g-power must be a nonnegative integer, got {power!r}")
        if power == 0:
            return self
        n, p, q = self.n, self.p + power, self.q + power
        if p > n or q > n:
            return DoubleForm(n, min(p, n), min(q, n))
        return g_power_sum(n, p, q, [(1, power, self)])

    # -- contraction, inner product, star ----------------------------------

    def contract(self) -> "DoubleForm":
        """Trace over one vector inserted in front of both blocks.

        c w (x..., y...) = sum_j w(e_j ^ x..., e_j ^ y...); the zero form of
        the clamped degree when p or q is 0.
        """
        n, p, q = self.n, self.p, self.q
        if p == 0 or q == 0:
            return DoubleForm(n, max(p - 1, 0), max(q - 1, 0))
        out = DoubleForm(n, p - 1, q - 1)
        acc = {}
        den = _common_denominator(self.cells)
        for mask_i, row in self.cells.items():
            for mask_j, value in row.items():
                value = value.numerator * (den // value.denominator)
                common = mask_i & mask_j
                while common:
                    bit = common & -common
                    common ^= bit
                    # moving e_j to the front of each block passes the
                    # smaller indices of that block
                    below = bit - 1
                    flips = (mask_i & below).bit_count() + (mask_j & below).bit_count()
                    _add_into(acc, mask_i ^ bit, mask_j ^ bit, -value if flips & 1 else value)
        out._publish(acc, den)
        return out

    def inner(self, other: "DoubleForm") -> Fraction:
        """Inner product; distinct bidegrees are declared orthogonal."""
        self._require_same_space(other)
        if (self.p, self.q) != (other.p, other.q):
            return _ZERO
        total = _ZERO
        for mask_i, row in self.cells.items():
            other_row = other.cells.get(mask_i)
            if other_row:
                for mask_j, a in row.items():
                    b = other_row.get(mask_j)
                    if b is not None:
                        total += a * b
        return total

    def norm_sq(self) -> Fraction:
        return self.inner(self)

    def hodge(self) -> "DoubleForm":
        """Factor-wise Hodge star, D^{p,q} -> D^{n-p,n-q}.

        Satisfies **w = (-1)^((p+q)(n-p-q)) w and the metric-contraction
        duality g w = (-1)^(n(p+q)) *c*w, whose sign is +1 on every
        even-total bidegree (all square ones in particular).
        """
        n = self.n
        out = DoubleForm(n, n - self.p, n - self.q)
        full = (1 << n) - 1
        for mask_i, row in self.cells.items():
            sign_i = complement_sign_mask(n, mask_i)
            out.cells[full ^ mask_i] = {
                full ^ mask_j: value if sign_i == complement_sign_mask(n, mask_j) else -value
                for mask_j, value in row.items()
            }
        return out

    # -- symmetry and the Bianchi sum ---------------------------------------

    def transpose(self) -> "DoubleForm":
        """Swap the tensor factors: D^{p,q} -> D^{q,p}."""
        out = DoubleForm(self.n, self.q, self.p)
        for mask_i, row in self.cells.items():
            for mask_j, value in row.items():
                out.cells.setdefault(mask_j, {})[mask_i] = value
        return out

    def is_symmetric(self) -> bool:
        if self.p != self.q:
            raise DegreeError(f"is_symmetric needs p == q, got ({self.p},{self.q})")
        cells = self.cells
        return all(
            cells.get(mask_j, _NO_ROW).get(mask_i) == value
            for mask_i, row in cells.items()
            for mask_j, value in row.items()
        )

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
                    new_j = mask_j ^ bit
                    # slot of the moved index inside the enlarged first block is
                    # 1-based; pulling it out of the second block costs one swap
                    # per smaller remaining index.
                    flips = (mask_i & (bit - 1)).bit_count() + 1 + (new_j & (bit - 1)).bit_count()
                    _add_into(acc, mask_i | bit, new_j, -value if flips & 1 else value)
        out._publish(acc)
        return out

    # -- evaluation as a multilinear form -----------------------------------

    def evaluate(self, x_vectors, y_vectors) -> Fraction:
        """Value on (x_1 ^ ... ^ x_p, y_1 ^ ... ^ y_q) for rational vectors."""
        xs = [_coerce_vector(self.n, v) for v in x_vectors]
        ys = [_coerce_vector(self.n, v) for v in y_vectors]
        if len(xs) != self.p or len(ys) != self.q:
            raise DimensionMismatchError(
                f"need {self.p} x-vectors and {self.q} y-vectors, "
                f"got {len(xs)} and {len(ys)}"
            )
        total = _ZERO
        col_minors: dict[int, Fraction] = {}
        for mask_i, row in self.cells.items():
            row_minor = _minor(xs, mask_i)
            if not row_minor:
                continue
            for mask_j, value in row.items():
                col_minor = col_minors.get(mask_j)
                if col_minor is None:
                    col_minor = col_minors[mask_j] = _minor(ys, mask_j)
                if col_minor:
                    total += value * row_minor * col_minor
        return total


def _coerce_vector(n: int, vector) -> list[Fraction]:
    vec = [as_scalar(v) for v in vector]
    if len(vec) != n:
        raise DimensionMismatchError(f"vector length {len(vec)} != ambient dimension {n}")
    return vec


def _minor(vectors, mask: int) -> Fraction:
    """Coordinate of v_1 ^ ... ^ v_k on e_I, for I the index set of mask."""
    idx = mask_to_indices(mask)
    return _det([[vec[i] for i in idx] for vec in vectors])


def _wedge_coordinates(n: int, vectors, k: int) -> list[Fraction]:
    """Coordinates of v_1 ^ ... ^ v_k over the lex-ordered basis of Lambda^k."""
    return [_minor(vectors, mask) for mask in subset_masks(n, k)]


def _det(rows) -> Fraction:
    """Determinant of a small square rational matrix by exact elimination."""
    size = len(rows)
    if size == 0:
        return Fraction(1)
    m = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return _ZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, size):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def _permutation_sign(perm) -> int:
    inversions = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inversions += 1
    return -1 if inversions & 1 else 1


def g_power_terms(n: int, power: int, mask_i: int, mask_j: int):
    """Expand g^power . (e_I (x) e_J) / power! over the basis.

    Yields (sign(S,I) sign(S,J), S u I, S u J) for every power-subset S of
    range(n) disjoint from I and J; the single kernel behind g_power_sum and
    decomposition.g_power_matrix.  The caller checks that the target degrees
    stay within n.
    """
    used = mask_i | mask_j
    # sign(S,I) sign(S,J) = (-1)^(popcount(I & odd_S) + popcount(J & odd_S))
    differ = mask_i ^ mask_j
    for mask_s in subset_masks(n, power):
        if not mask_s & used:
            sign = -1 if (differ & _odd_above(mask_s)).bit_count() & 1 else 1
            yield sign, mask_s | mask_i, mask_s | mask_j


def g_power_sum(n: int, p: int, q: int, terms) -> DoubleForm:
    """sum_i c_i g^{k_i} . w_i in D^{p,q} for terms (c_i, k_i, w_i), in one pass.

    c is an exact rational or int, w a form over n with (w.p+k, w.q+k) ==
    (p, q); any other term raises DegreeError.  From g^k = k! sum_{|S|=k}
    e_S (x) e_S, g^k . (e_I (x) e_J) = k! sum_S sign(S,I) sign(S,J)
    e_{S u I} (x) e_{S u J} over the S disjoint from I and J (g_power_terms).
    Cells accumulate as integer numerators over the lcm of the terms'
    c.denominator * _common_denominator(w), skipping zero coefficients and
    empty forms; Fractions are made once, at publish.
    """
    out = DoubleForm(n, p, q)
    scaled, den = [], 1
    for c, k, w in terms:
        if w.n != n or k < 0 or (w.p + k, w.q + k) != (p, q):
            raise DegreeError(f"g^{k} . D^({w.p},{w.q}) at n={w.n} is not in D^({p},{q}) at n={n}")
        if c and w.cells:
            w_den = _common_denominator(w.cells)
            den = lcm(den, c.denominator * w_den)
            scaled.append((c, k, w, w_den))
    acc = {}
    for c, k, w, w_den in scaled:
        weight = c.numerator * factorial(k) * (den // (c.denominator * w_den))
        for mask_i, row in w.cells.items():
            if not k:
                target = acc.setdefault(mask_i, {})
                for mask_j, value in row.items():
                    value = weight * value.numerator * (w_den // value.denominator)
                    target[mask_j] = target.get(mask_j, 0) + value
                continue
            for mask_j, value in row.items():
                value = weight * value.numerator * (w_den // value.denominator)
                for sign, ti, tj in g_power_terms(n, k, mask_i, mask_j):
                    _add_into(acc, ti, tj, value if sign > 0 else -value)
    out._publish(acc, den)
    return out


def contractions(form: DoubleForm, times: int) -> list[DoubleForm]:
    """The contraction chain [w, c w, c^2 w, ..., c^times w]."""
    chain = [form]
    for _ in range(times):
        chain.append(chain[-1].contract())
    return chain


# -- the flattened layout ---------------------------------------------------


def _flat_cells(form: DoubleForm):
    """(position in the lex-ordered, row-major flattened array, value) per
    stored cell."""
    row_rank = _mask_rank_table(form.n, form.p)
    col_rank = _mask_rank_table(form.n, form.q)
    cols = comb(form.n, form.q)
    for mask_i, row in form.cells.items():
        base = row_rank[mask_i] * cols
        for mask_j, value in row.items():
            yield base + col_rank[mask_j], value


def _flatten(form: DoubleForm) -> list[Fraction]:
    """The dense flattened coefficient array of a form."""
    values = [_ZERO] * (comb(form.n, form.p) * comb(form.n, form.q))
    for index, value in _flat_cells(form):
        values[index] = value
    return values


def _unflatten(n: int, p: int, q: int, values) -> DoubleForm:
    """The form whose flattened coefficient array is values."""
    cols = comb(n, q)
    return DoubleForm(n, p, q, [values[at:at + cols] for at in range(0, len(values), cols)])


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
    out.cells[i.mask] = {j.mask: Fraction(1)}
    return out


def make_g(n: int) -> DoubleForm:
    """The metric tensor g = sum_i e_i (x) e_i in D^{1,1}."""
    out = DoubleForm(n, 1, 1)
    one = Fraction(1)
    out.cells = {1 << i: {1 << i: one} for i in range(n)}
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
