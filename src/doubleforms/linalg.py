"""Exact rational linear algebra: rank, solving, nullspaces, projections.

Everything here works over Fractions (or ints) and never approximates:
rows are scaled to integers by core._integer_numerators, which refuses any
other entry with DoubleFormError.  One fraction-free Bareiss forward pass
on those rows, which keeps intermediate integers small, serves rank (its
pivot count), nullspace (integer back substitution from its rows) and
solve: x is the kernel vector of [A | -b] whose last entry is 1.  The
pivots in A's columns are those of A alone, so free variables are zero,
and there is no solution when the last column is a pivot.

rank and nullspace take one matrix and run one elimination on it.  The
matrix of g^k on double forms keeps a key of the source cell, so it is
block diagonal by that key: keyed_blocks builds it one block at a time,
from each basis vector's image, and its callers hand each block to rank
and nullspace.  The rank is the sum of the block ranks, and a kernel basis
the union of the block kernels.

KernelProjector, the orthogonal projection onto the kernel of such a
block-diagonal operator (one precomputed integer matrix per block), has
no caller in the package: verify projects onto the kernel of the Bianchi
sum in closed form.  It is kept for the tests, which check it against a
dense projector, and for the benchmark tracer's linalg.projector span.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .core import (
    DoubleFormError,
    IdentityError,
    _integer_numerators,
    _require_cell_budget,
    cell_budget,
)

_ZERO = Fraction(0)
_NO_ROW: dict = {}  # read-only stand-in for a row with no stored entry


def _reduce_content(vec: list[int]) -> list[int]:
    """An integer vector divided by the gcd of its entries."""
    content = gcd(*vec)
    return [v // content for v in vec] if content > 1 else vec


def _numerators(values) -> tuple[list[int], int]:
    """core._integer_numerators of exact values, ints copied as they are."""
    values = list(values)
    return (values, 1) if set(map(type, values)) <= {int} else _integer_numerators(values)


def _integer_row(row) -> list[int]:
    """Clear denominators and divide out the content of a rational row."""
    return _reduce_content(_numerators(row)[0])


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


def keyed_blocks(columns, key, image, what: str):
    """The blocks of a linear operator that keeps a key of its basis vectors:
    image(label) is the image of the basis vector labelled label, as (target
    label, integer) pairs whose targets share its key(label).  Yields (cols,
    rows) per key, in the order the keys first appear in columns: the
    block's labels, and one integer row per target met (one zero row if
    none).  A block is made when it is reached and refused past the cell
    budget before its rows are allocated, the refusal naming its key."""
    groups: dict = {}
    for label in columns:
        groups.setdefault(key(label), []).append(label)
    for block_key, cols in groups.items():
        images = [image(label) for label in cols]
        targets: dict = {}
        for pairs in images:
            for target, _ in pairs:
                targets.setdefault(target, len(targets))
        height, width = max(len(targets), 1), len(cols)
        if height * width > cell_budget():
            _require_cell_budget(height * width, f"the {height}x{width} block {block_key} of {what}")
        rows = [[0] * width for _ in range(height)]
        for c, pairs in enumerate(images):
            for target, value in pairs:
                rows[targets[target]][c] = value
        yield cols, rows


def rank(matrix) -> int:
    """Exact rank: the forward elimination's pivot count.  A matrix with one
    row or one column needs no elimination: its rank is 1 if an entry is
    nonzero and 0 otherwise."""
    if len(matrix) == 1 or (matrix and len(matrix[0]) == 1):
        line = matrix[0] if len(matrix) == 1 else [row[0] for row in matrix]
        return int(any(_numerators(line)[0]))
    return len(_echelon(matrix)[1])


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
    """Orthogonal projection onto the kernel of a block-diagonal constraint
    operator, given as (cols, rows) blocks like keyed_blocks': rows over the
    block's columns, labelled by cols, no label in two blocks.

    Per block, Gram-Schmidt (without normalization) orthogonalizes the rows
    into an integer basis b of the block's row space, and the block's
    projector I - sum b b^T / |b|^2 is stored as the integer matrix
    scale * (I - sum b b^T / |b|^2), scale the lcm of the |b|^2.  Labels
    outside every block, and blocks of zero rows, pass through unchanged.
    Exact and deterministic.
    """

    def __init__(self, blocks):
        self.blocks: list[tuple[list, list[list[int]], int]] = []
        for cols, rows in blocks:
            basis: list[list[int]] = []
            norms: list[int] = []
            for row in rows:
                vec = _integer_row(row)
                for b, nb in zip(basis, norms):
                    d = _dot_int(vec, b)
                    if d:
                        vec = _reduce_content([nb * x - d * y for x, y in zip(vec, b)])
                if any(vec):
                    basis.append(vec)
                    norms.append(_dot_int(vec, vec))
            if basis:
                scale = lcm(*norms)
                weights = [scale // nb for nb in norms]
                matrix = [
                    [scale * (i == j) - sum(w * b[i] * b[j] for b, w in zip(basis, weights))
                     for j in range(len(cols))]
                    for i in range(len(cols))
                ]
                self.blocks.append((cols, matrix, scale))

    def project(self, values: dict) -> tuple[dict, int]:
        """The projection of the vector with entries values[label], exact
        rationals (absent: zero), as integer numerators over one den:
        (numerators, den), with a numerator for each label of values and of
        each block met, over the lcm of the met blocks' scales."""
        nums, den = _numerators(values.values())
        scaled = dict(zip(values, nums))
        met = [(cols, matrix, scale, block) for cols, matrix, scale in self.blocks
               if any(block := [scaled.get(c, 0) for c in cols])]
        common = lcm(*(scale for _, _, scale, _ in met))
        out = {label: num * common for label, num in scaled.items()}
        for cols, matrix, scale, block in met:
            factor = common // scale
            for c, row in zip(cols, matrix):
                out[c] = factor * sum(map(mul, row, block))
        return out, common * den
