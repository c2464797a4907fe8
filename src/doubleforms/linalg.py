"""Exact rational linear algebra: rank, solving, nullspaces, projections.

Everything here works over Fractions (or ints) and never approximates.
One fraction-free Bareiss forward pass on denominator-cleared rows, which
keeps intermediate integers small, serves rank (its pivot count), solve and
nullspace (integer back substitution from its rows).

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

_ZERO = Fraction(0)


def _integer_row(row) -> list[int]:
    """Clear denominators and divide out the content of a rational row."""
    fracs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
    scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [f.numerator * (scale // f.denominator) for f in fracs]
    content = gcd(*ints)
    if content > 1:
        ints = [v // content for v in ints]
    return ints


def _echelon(matrix, rhs) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) forward elimination of [matrix | rhs].

    The rows are denominator-cleared first; each step then divides exactly
    by the previous pivot, so every entry stays an integer minor of the
    input.  Pivots are sought in the matrix columns only.  Returns the
    integer rows and the pivot columns; the rows below the pivots are zero
    in every matrix column.
    """
    rows = [_integer_row(list(row) + [b]) for row, b in zip(matrix, rhs)]
    pivots: list[int] = []
    prev = 1
    for c in range(len(rows[0]) - 1 if rows else 0):
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


def _back_substitute(rows, pivots, cols: int, free: int | None = None) -> list[Fraction]:
    """The x with rows @ x == rhs whose free entries are 0, but x[free] = 1.

    Runs in integers on the numerators d x, for d the last Bareiss pivot:
    d is the determinant of the pivot block, so d x is integral by Cramer's
    rule and every division by a pivot is exact.  Pivot entries are found
    last pivot first; row r is zero left of its pivot, so only the nonzero
    entries found so far enter its sum.  Fractions are made once, at the end.
    """
    d = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    num = [0] * cols
    support = []
    if free is not None:
        num[free] = d
        support.append(free)
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        row = rows[r]
        acc = d * row[cols]
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
        total += len(_echelon(rows, [0] * len(rows))[1])
    return total


def solve(matrix, rhs) -> list[Fraction] | None:
    """One exact solution of matrix @ x = rhs, or None if inconsistent.

    Free variables are set to zero.
    """
    if not matrix:
        return [] if not any(rhs) else None
    rows, pivots = _echelon(matrix, rhs)
    if any(row[-1] for row in rows[len(pivots):]):
        return None  # zero row with nonzero rhs: inconsistent
    return _back_substitute(rows, pivots, len(matrix[0]))


def nullspace(matrix) -> list[list[Fraction]]:
    """A basis of the kernel, one vector per free column.

    The vector of free column f has x_f = 1 and every other free entry 0,
    the same vector the reduced row echelon form gives.
    """
    if not matrix:
        return []
    cols = len(matrix[0])
    rows, pivots = _echelon(matrix, [0] * len(matrix))
    free = sorted(set(range(cols)) - set(pivots))
    return [_back_substitute(rows, pivots, cols, f) for f in free]


def _dot_int(a, b) -> int:
    return sum(x * y for x, y in zip(a, b) if x and y)


def _reduce_content(vec: list[int]) -> list[int]:
    content = 0
    for v in vec:
        content = gcd(content, v)
    if content > 1:
        return [v // content for v in vec]
    return vec


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
        out = [v if isinstance(v, Fraction) else Fraction(v) for v in vector]
        den = lcm(*(v.denominator for v in out))
        for cols, matrix, scale in self.blocks:
            nums = [out[c].numerator * (den // out[c].denominator) for c in cols]
            if not any(nums):
                continue
            total = scale * den
            for c, row in zip(cols, matrix):
                value = sum(m * x for m, x in zip(row, nums) if x)
                out[c] = Fraction(value, total) if value else _ZERO
        return out
