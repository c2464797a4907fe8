"""Exact rational linear algebra: rank, solving, nullspaces, projections.

Everything here works over Fractions (or ints) and never approximates:
rows are scaled to integers by core._integer_numerators, which refuses any
other entry with DoubleFormError.  One fraction-free Bareiss forward pass
on those rows, which keeps intermediate integers small, serves rank (its
pivot count), nullspace (integer back substitution from its rows) and
solve: x is the kernel vector of [A | -b] whose last entry is 1.  The
pivots in A's columns are those of A alone, so free variables are zero,
and there is no solution when the last column is a pivot.

rank and KernelProjector work block by block.  The operator matrices built
from double forms (the Bianchi and contraction constraints, g_power_matrix)
preserve I delta J and so are block-diagonal up to an ordering of rows and
columns.  _blocks finds the connected components of any matrix's nonzero
pattern, with no knowledge of the operator: the rank is the sum of the
block ranks, and the orthogonal projection onto the kernel is the blockwise
projection, one precomputed integer matrix per block.  nullspace stays
whole, because the basis it returns depends on the elimination order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .core import DoubleFormError, IdentityError, _integer_numerators, as_scalar

_ZERO = Fraction(0)
_NO_ROW: dict = {}  # read-only stand-in for a row with no stored entry


def _reduce_content(vec: list[int]) -> list[int]:
    """An integer vector divided by the gcd of its entries."""
    content = gcd(*vec)
    return [v // content for v in vec] if content > 1 else vec


def _integer_row(row) -> list[int]:
    """Clear denominators and divide out the content of a rational row."""
    return _reduce_content(_integer_numerators(row)[0])


def _echelon(matrix) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) forward elimination of a matrix.

    The rows are denominator-cleared first; each step then divides exactly
    by the previous pivot, so every entry stays an integer minor of the
    input.  Returns the integer rows and the pivot columns; the rows below
    the pivots are zero.
    """
    rows = [_integer_row(row) for row in matrix]
    pivots: list[int] = []
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        if top == len(rows):
            break
        pivot = next((i for i in range(top, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        piv_row = rows[top]
        piv = piv_row[c]
        for row in rows[top + 1:]:
            f = row[c]
            if f:
                for k in range(c, len(row)):
                    row[k] = (piv * row[k] - f * piv_row[k]) // prev
            elif prev != piv:
                for k in range(c, len(row)):
                    row[k] = (piv * row[k]) // prev
        prev = piv
        pivots.append(c)
    return rows, pivots


def _back_substitute(rows, pivots, cols: int, free: int) -> list[Fraction]:
    """The x with rows @ x == 0 whose free entries are 0, but x[free] = 1.

    Runs in integers on the numerators d x, for d the last Bareiss pivot:
    d is the determinant of the pivot block, so d x is integral by Cramer's
    rule and every division by a pivot is exact.  Pivot entries are found
    last pivot first; row r is zero left of its pivot, so only the nonzero
    entries found so far enter its sum.  Fractions are made once, at the end.
    """
    d = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    num = [0] * cols
    num[free] = d
    support = [free]
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        row = rows[r]
        acc = 0
        for k in support:
            if row[k]:
                acc -= row[k] * num[k]
        num[c] = acc // row[c]
        if num[c]:
            support.append(c)
    return [Fraction(v, d) if v else _ZERO for v in num]


def _blocks(rows) -> list[tuple[list[int], list[int]]]:
    """The connected components of the nonzero pattern of a matrix.

    Two columns are joined when a row is nonzero in both (union-find over
    columns).  Returns (row indices, column indices) per component that
    holds a nonzero row, rows and columns each in their original order;
    zero rows and columns zero in every row belong to no component.
    """
    parent: dict[int, int] = {}

    def root(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    supports = [[c for c, v in enumerate(row) if v] for row in rows]
    for support in supports:
        for c in support:
            parent.setdefault(c, c)
            parent[root(c)] = root(support[0])
    blocks: dict[int, tuple[list[int], list[int]]] = {}
    for r, support in enumerate(supports):
        if support:
            blocks.setdefault(root(support[0]), ([], []))[0].append(r)
    for c in sorted(parent):
        blocks[root(c)][1].append(c)
    return list(blocks.values())


def rank(matrix) -> int:
    """Exact rank: the sum over the blocks of the forward elimination's
    pivot count on the block."""
    total = 0
    for block_rows, cols in _blocks(matrix):
        rows = [[matrix[r][c] for c in cols] for r in block_rows]
        total += len(_echelon(rows)[1])
    return total


def solve(matrix, rhs) -> list[Fraction] | None:
    """One exact solution of matrix @ x = rhs, or None if inconsistent.

    Free variables are set to zero: x is the kernel vector of [matrix | -rhs]
    whose last entry is 1, and there is none when that column is a pivot.
    """
    if not matrix:
        return [] if not any(rhs) else None
    cols = len(matrix[0])
    rows, pivots = _echelon([[*row, -b] for row, b in zip(matrix, rhs)])
    if pivots and pivots[-1] == cols:
        return None  # a zero row of the matrix with a nonzero rhs
    return _back_substitute(rows, pivots, cols + 1, cols)[:cols]


def nullspace(matrix) -> list[list[Fraction]]:
    """A basis of the kernel, one vector per free column.

    The vector of free column f has x_f = 1 and every other free entry 0,
    the same vector the reduced row echelon form gives.
    """
    if not matrix:
        return []
    cols = len(matrix[0])
    rows, pivots = _echelon(matrix)
    free = sorted(set(range(cols)) - set(pivots))
    return [_back_substitute(rows, pivots, cols, f) for f in free]


def _next_newton(rows: dict, current: dict, c: int) -> dict:
    """M_{k+1} = a M_k + c I for sparse integer matrices (key -> {key: int})
    with a row per key in current, walking only the stored entries of a."""
    out = {}
    for i in current:
        acc = {i: c}
        for l, a in rows.get(i, _NO_ROW).items():
            for j, m in current[l].items():
                acc[j] = acc.get(j, 0) + a * m
        out[i] = acc
    return out


def characteristic(rows: dict, den: int, keys, top: int, newton: bool = False):
    """sigma_0..sigma_top of A = rows / den over the index set keys, and
    with newton the Newton tensors N_0..N_top.

    rows is a sparse integer matrix key -> {key: numerator}, its keys in
    keys; den > 0.  sigma_k is the sum of A's principal k x k minors, the
    coefficient of (-t)^(n-k) in det(t - A), and N_k = sum_{i<=k} (-1)^i
    sigma_{k-i} A^i.  Faddeev-LeVerrier runs on the numerators a = den A,
    where it stays in integers: with M_1 = I,

        c = -tr(a M_k) / k,   M_{k+1} = a M_k + c I,

    gives sigma_k(a) = (-1)^k c and N_k(a) = (-1)^k M_{k+1}.  The division
    is exact (k sigma_k(a) is that trace, up to sign), so a remainder raises
    IdentityError.  sigma_k(A) = sigma_k(a) / den^k and N_k(A) =
    N_k(a) / den^k, scaled once at the end: each sigma_k as (integer,
    den^k) and each N_k as (sparse integer rows, den^k), so that a caller
    weighting them makes one Fraction.  Each step walks a's stored
    entries: against single entries of M_k for the trace, and against the
    rows of M_k for M_{k+1}, which the last step skips without newton.
    """
    known = set(keys)
    if not known.issuperset(rows) or not all(map(known.issuperset, rows.values())):
        raise DoubleFormError("the matrix has an entry outside its index set")
    current = {i: {i: 1} for i in keys}  # M_1
    sigmas, tensors = [1], [current]
    for k in range(1, top + 1):
        trace = sum(a * current[l].get(i, 0) for i, row in rows.items() for l, a in row.items())
        c, remainder = divmod(-trace, k)
        if remainder:
            raise IdentityError(f"tr(A M_{k}) is not divisible by {k}")
        sigmas.append(-c if k & 1 else c)
        if k == top and not newton:
            break  # M_{top+1} is read only as N_top
        current = _next_newton(rows, current, c)
        if newton:
            tensors.append(
                {i: {j: -v for j, v in row.items()} for i, row in current.items()}
                if k & 1 else current
            )
    sigmas = [(s, den**k) for k, s in enumerate(sigmas)]
    return sigmas, [(t, den**k) for k, t in enumerate(tensors)] if newton else None


def _dot_int(a, b) -> int:
    return sum(x * y for x, y in zip(a, b) if x and y)


class KernelProjector:
    """Orthogonal projection onto the kernel of a constraint matrix.

    Per block of the constraint rows, Gram-Schmidt (without normalization)
    orthogonalizes the rows into an integer basis b of the block's row
    space, and the block's projector I - sum b b^T / |b|^2 is stored as the
    integer matrix scale * (I - sum b b^T / |b|^2), scale the lcm of the
    |b|^2.  Columns outside every block pass through unchanged.  Exact,
    deterministic, and cached by callers.
    """

    def __init__(self, constraint_rows):
        self.blocks: list[tuple[list[int], list[list[int]], int]] = []
        for block_rows, cols in _blocks(constraint_rows):
            basis: list[list[int]] = []
            norms: list[int] = []
            for r in block_rows:
                vec = _integer_row([constraint_rows[r][c] for c in cols])
                for b, nb in zip(basis, norms):
                    d = _dot_int(vec, b)
                    if d:
                        vec = _reduce_content([nb * x - d * y for x, y in zip(vec, b)])
                if any(vec):
                    basis.append(vec)
                    norms.append(_dot_int(vec, vec))
            scale = lcm(*norms)
            weights = [scale // nb for nb in norms]
            matrix = [
                [scale * (i == j) - sum(w * b[i] * b[j] for b, w in zip(basis, weights))
                 for j in range(len(cols))]
                for i in range(len(cols))
            ]
            self.blocks.append((cols, matrix, scale))

    def project(self, vector) -> list[Fraction]:
        """The projection of a rational vector: its denominators cleared
        once, then one integer matrix-vector product per block."""
        out = list(map(as_scalar, vector))
        scaled, den = _integer_numerators(out)
        for cols, matrix, scale in self.blocks:
            nums = [scaled[c] for c in cols]
            if not any(nums):
                continue
            total = scale * den
            for c, row in zip(cols, matrix):
                value = sum(m * x for m, x in zip(row, nums) if x)
                out[c] = Fraction(value, total) if value else _ZERO
        return out
