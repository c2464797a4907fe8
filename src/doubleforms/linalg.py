"""Exact rational linear algebra: rank, solving, nullspaces, projections.

Everything here works over Fractions (or ints) and never approximates.
One fraction-free Bareiss forward pass on denominator-cleared rows, which
keeps intermediate integers small, serves rank (its pivot count), solve and
nullspace (integer back substitution from its rows); projections keep an
integer orthogonal basis with gcd reduction after every step.
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


def rank(matrix) -> int:
    """Exact rank: the number of pivots of the forward elimination."""
    rows = [r for r in matrix if any(r)]
    return len(_echelon(rows, [0] * len(rows))[1])


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

    Gram-Schmidt (without normalization) orthogonalizes the constraint rows
    into an integer basis of the row space; projecting subtracts the
    row-space component.  Exact, deterministic, and cached by callers.
    """

    def __init__(self, constraint_rows):
        basis: list[list[int]] = []
        norms: list[int] = []
        for row in constraint_rows:
            vec = _integer_row(row)
            if not any(vec):
                continue
            for b, nb in zip(basis, norms):
                d = _dot_int(vec, b)
                if d:
                    vec = _reduce_content([nb * x - d * y for x, y in zip(vec, b)])
            if any(vec):
                basis.append(vec)
                norms.append(_dot_int(vec, vec))
        self.basis = basis
        self.norms = norms

    def project(self, vector) -> list[Fraction]:
        out = [Fraction(v) for v in vector]
        for b, nb in zip(self.basis, self.norms):
            d = sum(x * y for x, y in zip(out, b) if y and x)
            if d:
                f = Fraction(d, nb)
                out = [x - f * y if y else x for x, y in zip(out, b)]
        return out
