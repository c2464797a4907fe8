"""Fast paths against independent exact oracles.

The closed-form decompose at 2p > n is checked against the solve-based
route (divide_g_power, then decompose of the quotient), up to (14, 13);
its chain, which starts at c^(2p-n) w, stays within a cell budget of w's
size at (12, 11).  The
single-pass mul_g_power against repeated products by g.  The one Bareiss
elimination behind linalg's rank, solve and nullspace is checked against
determinants of minors, solve (the kernel vector of [A | -b]) against the
rhs-carrying elimination it replaced, reference_solve.  The keyed blocks of
g^k are checked against the dense matrices they replaced (g_power_matrix
and operator_rows, the image of every unit form): map_rank against the
whole-matrix rank, the blockwise kernel against the dense nullspace's
dimension and against g^l and c^k, on every configuration of verify's
checks at n <= 6; keyed_blocks and KernelProjector on interleaved block
matrices and on the Bianchi and effective constraint rows.  The algebra
behind random_bianchi's closed-form projection onto Ker b is checked on
every basis form at n <= 5 and on random forms at n <= 6: b* = T b T is
b's adjoint, and b* b - b b* = (q - p) Id on D^{p,q}; random_bianchi
against the dense Fraction projector onto Ker b at every (n, p) with
n <= 7.  The one wedge kernel,
core._wedge, is checked against Fraction minors on rational frames,
dependent ones included, and coordinate frames' directly set wedge
coordinates against the minors of their vectors and against
Frame.from_vectors of the same unit vectors; their refusals keep their
messages once the same plane is shared.  pq_curvature_tensor, one
g_power_sum term and the star, is checked against mul_g_power, the star
and a separate scale.  The
invariant report's power sequence and its h_{2q} and T_{2q} against
repeated products and single contractions, the walked rows, which read
h_{2q} and T_{2q} off one contraction c^{2q-1} R^q, against two passes
(c^{2q} and c^{2q-1}) on random Bianchi R at n <= 7, the one-pass contract(k)
against the chain contractions(w, k)[-1], and pq_sectional's complement
restriction on coordinate planes against the sectional curvature of
pq_curvature_tensor.  has_constant_sectional's test of the stored cells
is checked against building g^p/p! and comparing whole forms, on c g^p/p!
with a cell missing, added or changed, at p = 0 and p = n and over den != 1.
trace_of_product is checked against the formed
product and c^m, also with its partner-subset memo warm, and
weyl_invariant, the trace of R^floor(q/2) . R^ceil(q/2), against c^(2q)
of the whole R^q; the memo _subsets_of against itertools.combinations and
the masks of _subset_table.  The walk over R's powers is checked by
counting its Bianchi certificates (one per power made, none for R) and the
powers alive at each product (power(R, 1) is R, an invariant report holds
one power at a time, weyl_invariant its two half powers).  The effective
random_bianchi, Ker B then project_conformal, is checked against the one
projector onto Ker B and Ker c together that it replaced.  The square
w . w is checked against the product of w with an equal copy of it and
the Fraction loop, and is_symmetric against w == w.transpose().  The model constructors are
checked against the expressions they replaced: the constant model against
(lambda/2) g^2 as mul_g_power, the hypersurface model's one pass over pairs
of rows against B.B/2, and the shapes of build_curvature_tensor against
shapes built by set_cell.  The
canonical JSON writer is checked against json.dumps with sorted keys and a
two-space indent on forms, decompositions, invariant reports and verify
payloads, on forms whose numerators repeat too; its streamed text against
its returned text and json.dumps, in chunks of CHUNK_SIZE or more, and a
number too long to write in a later form against an empty stream.  The JSON reader's bulk
route is checked against a per-entry reader on sparse, dense and
integer-valued forms, and its refusals against the messages the
per-entry reader gave before it, pinned for faults made in a dense form;
the spec reader's h_matrix loop, which reads each distinct string once and
checks symmetry a row against its column, likewise against per-entry
rational_from_str and a pairwise symmetry check.
The integer-numerator mul, mul_g_power and contract are checked
against the Fraction-accumulating loops they replaced, on forms over many
distinct prime denominators and on products and contractions that cancel.
The one linear-combination kernel, g_power_sum, is checked against the
Fraction loops of +, - and scale it replaced, on term lists that mix
powers, zero coefficients and empty forms or cancel, and the closed forms
built on it (decompose, reconstruct, star_bianchi, star_in_components)
against their chained acc + X.mul_g_power(r).scale(c) versions.  The
references read values through entries(), as Fractions.  inner, evaluate,
bianchi_sum and sectional_curvature, which accumulate the stored integer
numerators, are checked against the Fraction loops of the per-cell
Fraction storage.  hodge's sign memo, _complement_parity, is checked
against complement_sign_mask and its closed form at n <= 8, and hodge
against the per-cell complement_sign_mask loop it replaced and the double
star law.  random_form, which draws its values from getrandbits, is checked
against the rng.randint(-9, 9) loop it replaced: the same forms and the
same generator state after every call.  rank's shortcut for one row or
one column is checked against the elimination's pivot count.  verify's
exhaustive adjointness check, which compares the coefficient maps of
g e_L and c e_R, is checked against the two inner products per pair of
basis forms that it replaced, on the working kernels and on a contract
or mul mutated to break the identity: the same cases and the same
failures in the same order.
"""

import json
import random
import sys
import weakref
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleforms import (
    CurvatureTensor,
    DoubleForm,
    build_invariant_report,
    decompose,
    einstein_tensor,
    has_constant_sectional,
    make_constant_curvature,
    make_conformally_flat,
    make_g,
    make_hypersurface,
    make_product,
    make_scalar,
    make_zero,
    power,
    sign_report_h4,
    star_bianchi,
    star_in_components,
    weyl_invariant,
)
from doubleforms import curvature, linalg, serialize
from doubleforms.core import (
    DegreeError,
    DimensionMismatchError,
    DoubleFormError,
    _complement_parity,
    _diagonal,
    _flatten,
    _from_cells,
    _require_cell_budget,
    _subset_table,
    _subsets_of,
    _unflatten,
    _wedge,
    cell_budget,
    contractions,
    g_power_sum,
    set_cell_budget,
    trace_of_product,
)
from doubleforms.curvature import (
    Frame,
    FrameError,
    InvariantReport,
    SectionalSample,
    _restricted,
    pq_curvature_tensor,
    pq_sectional,
    sectional_curvature,
)
from doubleforms.decomposition import _g_power_kernel, divide_g_power, g_power_matrix, map_rank
from doubleforms.exterior import IndexSet, complement_sign_mask, mask_to_indices, subset_masks
from doubleforms.serialize import (
    SchemaError,
    _read_in_bulk,
    build_curvature_tensor,
    decomposition_to_dict,
    dumps_canonical,
    form_from_dict,
    form_to_dict,
    model_spec_from_dict,
    rational_from_str,
    report_to_dict,
)
from doubleforms.verify import (
    SUITES,
    CheckResult,
    _fixed_models,
    _stored_values,
    check_adjointness,
    model_zoo,
    random_bianchi,
    random_form,
    random_symmetric,
    run_verify,
)


def dense_rational_form(rng, n, p, q):
    """Every cell a random rational, most of them nonzero; not symmetric."""
    return DoubleForm(n, p, q, [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(comb(n, q))]
        for _ in range(comb(n, p))
    ])


def repeated_g_products(form, power):
    g = make_g(form.n)
    for _ in range(power):
        form = g.mul(form)
    return form


def assert_closed_form_matches_solve_route(w):
    """decompose(w) against decompose(divide_g_power(w, 2p-n)), padded with zeros."""
    n, p = w.n, w.p
    solved = decompose(divide_g_power(w, 2 * p - n)).components
    closed = decompose(w).components
    expected = list(solved) + [make_zero(n, k, k) for k in range(n - p + 1, p + 1)]
    assert list(closed) == expected, (n, p)


def forced_division_degrees():
    """Every (n, p) with 2p > n and C(n,p)^2 <= 500, up to n = 10, and
    (12, 11) and (14, 13), where p is close to n.

    The closed form's chain starts at c^(2p-n) w, made in one pass, so it
    never reaches the dense middle degree; the solve route's matrix of
    g^(2p-n) on D^(n-p,n-p) is 144 x 144 and 196 x 196 at the last two.
    """
    return [
        (n, p)
        for n in range(1, 11)
        for p in range(n // 2 + 1, n + 1)
        if comb(n, p) ** 2 <= 500
    ] + [(12, 11), (14, 13)]


def test_closed_form_decompose_matches_solve_route():
    rng = random.Random("closed-form-vs-solve")
    for n, p in forced_division_degrees():
        assert_closed_form_matches_solve_route(dense_rational_form(rng, n, p, p))


def test_closed_form_decompose_skips_the_middle_degrees():
    # at 2p > n the chain starts at c^(2p-n) w, so at (12, 11) no form that
    # decompose makes stores more cells than w's 144; starting one step
    # earlier would make c^9 w in D^(2,2), with up to 66^2 cells
    w = dense_rational_form(random.Random("middle-degrees"), 12, 11, 11)
    expected = decompose(w).components
    previous = cell_budget()
    set_cell_budget(comb(12, 11) ** 2)
    try:
        assert decompose(w).components == expected
    finally:
        set_cell_budget(previous)
    assert_closed_form_matches_solve_route(w)


def test_mul_g_power_matches_repeated_products():
    rng = random.Random("g-power-vs-products")
    for n in range(1, 7):
        for p in range(n + 1):
            for q in range(n + 1):
                w = dense_rational_form(rng, n, p, q)
                for k in range(n + 2):
                    fast = w.mul_g_power(k)
                    slow = repeated_g_products(w, k)
                    assert (fast.p, fast.q) == (min(p + k, n), min(q + k, n)), (n, p, q, k)
                    assert fast == slow, (n, p, q, k)


@st.composite
def small_forms(draw, forced_division=False):
    """Rational forms at n <= 5; square with 2p > n when forced_division."""
    n = draw(st.integers(1, 5))
    if forced_division:
        p = q = draw(st.integers(n // 2 + 1, n))
    else:
        p = draw(st.integers(0, n))
        q = draw(st.integers(0, n))
    cols = comb(n, q)
    values = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    row = st.lists(values, min_size=cols, max_size=cols)
    coeffs = draw(st.lists(row, min_size=comb(n, p), max_size=comb(n, p)))
    return DoubleForm(n, p, q, coeffs)


@settings(max_examples=100, deadline=None)
@given(small_forms(), st.integers(0, 6))
def test_mul_g_power_property(w, k):
    assert w.mul_g_power(k) == repeated_g_products(w, k)


@settings(max_examples=50, deadline=None)
@given(small_forms(forced_division=True))
def test_closed_form_decompose_property(w):
    assert_closed_form_matches_solve_route(w)


# -- linalg: one Bareiss elimination against minors ---------------------------


def leibniz_det(m):
    """Determinant as the signed sum over permutations; no elimination."""
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def minor_rank(m):
    """The size of the largest square submatrix with a nonzero determinant."""
    cols = len(m[0]) if m else 0
    for k in range(min(len(m), cols), 0, -1):
        for rows in combinations(range(len(m)), k):
            for picked in combinations(range(cols), k):
                if leibniz_det([[m[r][c] for c in picked] for r in rows]):
                    return k
    return 0


def mat_vec(m, x):
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in m]


_entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def small_matrices(draw):
    """Rational matrices up to 4 x 5; half are products A.B of low inner size."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        return draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    inner = draw(st.integers(0, min(rows, cols)))
    a = draw(st.lists(st.lists(_entries, min_size=inner, max_size=inner),
                      min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                      min_size=inner, max_size=inner))
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
            for i in range(rows)]


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_rank_is_largest_nonzero_minor(m):
    assert linalg.rank(m) == minor_rank(m)


@st.composite
def one_row_or_column(draw):
    """A matrix with one row or one column, of ints or Fractions; a third
    of them all zero."""
    size = draw(st.integers(1, 6))
    values = st.integers(-3, 3) if draw(st.booleans()) else _entries
    line = [0] * size if draw(st.integers(0, 2)) == 0 else draw(
        st.lists(values, min_size=size, max_size=size)
    )
    return [line] if draw(st.booleans()) else [[value] for value in line]


@settings(max_examples=200, deadline=None)
@given(one_row_or_column())
def test_rank_of_one_row_or_column_is_the_pivot_count(m):
    assert linalg.rank(m) == len(linalg._echelon(m)[1])


@pytest.mark.parametrize("m", [
    [], [[]], [[0]], [[5]], [[0, 0, 0]], [[0], [0]], [[Fraction(1, 3)]],
    [[0, Fraction(-2, 5), 0]], [[0], [Fraction(7, 2)], [0]],
])
def test_rank_of_one_row_or_column_on_edge_cases(m):
    assert linalg.rank(m) == len(linalg._echelon(m)[1])


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_nullspace_vectors_follow_free_columns(m):
    cols = len(m[0])
    # column j is a pivot column exactly when it raises the rank of the columns before it
    free = [
        j for j in range(cols)
        if minor_rank([row[: j + 1] for row in m]) == minor_rank([row[:j] for row in m])
    ]
    basis = linalg.nullspace(m)
    assert len(basis) == cols - minor_rank(m) == len(free)
    for f, v in zip(free, basis):
        assert mat_vec(m, v) == [0] * len(m)
        assert [v[j] for j in free] == [1 if j == f else 0 for j in free]


@settings(max_examples=100, deadline=None)
@given(small_matrices(), st.data())
def test_solve_consistent_and_inconsistent_systems(m, data):
    cols = len(m[0])
    y = data.draw(st.lists(_entries, min_size=cols, max_size=cols))
    b = mat_vec(m, y)
    x = linalg.solve(m, b)
    assert x is not None and mat_vec(m, x) == b
    rhs = data.draw(st.lists(_entries, min_size=len(m), max_size=len(m)))
    x = linalg.solve(m, rhs)
    augmented = [row + [v] for row, v in zip(m, rhs)]
    assert (x is None) == (minor_rank(augmented) > minor_rank(m))
    if x is not None:
        assert mat_vec(m, x) == rhs


def reference_solve(matrix, rhs):
    """The elimination solve replaced: Bareiss on [matrix | rhs] with pivots
    sought in the matrix columns only, inconsistent when a row below the
    pivots keeps a nonzero rhs, then integer back substitution against the
    rhs column with the free variables at zero."""
    if not matrix:
        return [] if not any(rhs) else None
    cols = len(matrix[0])
    rows = [linalg._integer_row(list(row) + [b]) for row, b in zip(matrix, rhs)]
    pivots, prev = [], 1
    for c in range(cols):
        top = len(pivots)
        if top == len(rows):
            break
        pivot = next((i for i in range(top, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        piv_row, piv = rows[top], rows[top][c]
        for row in rows[top + 1:]:
            f = row[c]
            for k in range(c, cols + 1):
                row[k] = (piv * row[k] - f * piv_row[k]) // prev
        prev = piv
        pivots.append(c)
    if any(row[cols] for row in rows[len(pivots):]):
        return None
    d = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    num = [0] * cols
    for r in range(len(pivots) - 1, -1, -1):
        c, row = pivots[r], rows[r]
        num[c] = (d * row[cols] - sum(row[k] * num[k] for k in range(c + 1, cols))) // row[c]
    return [Fraction(v, d) for v in num]


@st.composite
def linear_systems(draw):
    """(matrix, rhs) up to 4 x 5, rational or integer, square or not; the rhs
    is matrix . y for a drawn y (consistent) or drawn freely (often not)."""
    m = draw(small_matrices())
    if draw(st.booleans()):  # entries have denominators 1, 2 or 3
        m = [[int(6 * v) for v in row] for row in m]
    if draw(st.booleans()):
        size = min(len(m), len(m[0]))
        m = [row[:size] for row in m[:size]]
    if draw(st.booleans()):
        y = draw(st.lists(_entries, min_size=len(m[0]), max_size=len(m[0])))
        return m, mat_vec(m, y)
    return m, draw(st.lists(_entries, min_size=len(m), max_size=len(m)))


@settings(max_examples=300, deadline=None)
@given(linear_systems())
def test_solve_matches_the_rhs_carrying_elimination(system):
    m, rhs = system
    assert linalg.solve(m, rhs) == reference_solve(m, rhs)


@pytest.mark.parametrize("matrix, rhs", [
    ([], []), ([], [0, 0]), ([], [1]), ([[]], [0]), ([[]], [Fraction(1, 2)]),
    ([[0, 0], [0, 0]], [0, 1]), ([[2, 4]], [Fraction(1, 3)]),
])
def test_solve_matches_the_rhs_carrying_elimination_on_edge_cases(matrix, rhs):
    assert linalg.solve(matrix, rhs) == reference_solve(matrix, rhs)


def test_linalg_refuses_floats():
    # Fraction(0.1) is 3602879701896397/2^56, which was once used silently
    with pytest.raises(DoubleFormError):
        linalg._integer_row([Fraction(1, 2), 0.1])
    with pytest.raises(DoubleFormError):
        linalg.KernelProjector([(range(3), [[1, -1, 0]])]).project({0: 0.1, 1: 0, 2: 1})
    with pytest.raises(DoubleFormError):
        linalg.solve([[1, 0]], [0.5])
    for matrix in ([[0.5]], [[0, 0.5]], [[0], [0.5]]):
        with pytest.raises(DoubleFormError):
            linalg.rank(matrix)



# -- linalg: keyed blocks against the dense operator matrices ------------------


def operator_rows(n, p, q, operator):
    """The dense integer matrix of a linear operator on D^{p,q}, one row per
    target cell and one column per source cell, both in the flattened
    layout: the image of each unit form, refused past the cell budget."""
    probe = operator(make_zero(n, p, q))
    sources = comb(n, p) * comb(n, q)
    targets = comb(n, probe.p) * comb(n, probe.q)
    _require_cell_budget(
        targets * sources, f"the {targets}x{sources} matrix of an operator on D^({p},{q}) at n={n}"
    )
    rows = [[0] * sources for _ in range(targets)]
    col = 0
    for mask_i in subset_masks(n, p):
        for mask_j in subset_masks(n, q):
            unit = make_zero(n, p, q)
            unit.set_cell(mask_i, mask_j, 1)
            image = operator(unit)
            assert image.den == 1, "an integer operator gave a fractional image"
            for r, value in enumerate(_flatten(image)):
                rows[r][col] = int(value)
            col += 1
    return rows


def bianchi_rows(n, p):
    return operator_rows(n, p, p, lambda w: w.bianchi_sum())


def dense_map_rank(n, p, q, power):
    """The rank of g^power on D^{p,q} from its whole dense matrix."""
    return linalg.rank(g_power_matrix(n, p, q, power))


def flat_cells(n, p, q):
    """The cells (mask_I, mask_J) of D^{p,q} in the flattened layout."""
    return [(mask_i, mask_j) for mask_i in subset_masks(n, p) for mask_j in subset_masks(n, q)]


def reference_rank(matrix):
    """The whole-matrix rank: one forward elimination over every nonzero row."""
    rows = [r for r in matrix if any(r)]
    return len(linalg._echelon(rows)[1])


class ReferenceProjector:
    """The dense projector: Gram-Schmidt over every constraint row at once,
    then one Fraction update of the whole vector per basis vector.  Each
    basis vector keeps its support, so a dot product with it reads only its
    nonzero entries."""

    def __init__(self, constraint_rows):
        self.basis = []  # (integer vector, its support, its squared norm)
        for row in constraint_rows:
            vec = linalg._integer_row(row)
            for b, support, nb in self.basis:
                d = sum(vec[i] * b[i] for i in support)
                if d:
                    vec = linalg._reduce_content([nb * x - d * y for x, y in zip(vec, b)])
            support = [i for i, x in enumerate(vec) if x]
            if support:
                self.basis.append((vec, support, sum(vec[i] ** 2 for i in support)))

    def project(self, vector):
        out = [Fraction(v) for v in vector]
        for b, support, nb in self.basis:
            d = sum(out[i] * b[i] for i in support)
            if d:
                f = Fraction(d, nb)
                for i in support:
                    out[i] -= f * b[i]
        return out


def project_list(projector, vector, labels=None):
    """projector.project on a vector whose entries carry labels (default
    their positions), as the list of projected Fractions."""
    labels = range(len(vector)) if labels is None else labels
    nums, den = projector.project(dict(zip(labels, vector)))
    assert all(type(v) is int for v in nums.values()) and den > 0
    return [Fraction(nums[label], den) for label in labels]


def assert_projects_like_reference(rows, vector, projector=None, labels=None):
    """projector (default: the whole matrix as one block) against the dense
    Fraction projector of rows."""
    if projector is None:
        projector = linalg.KernelProjector([(range(len(vector)), rows)])
    fast = project_list(projector, vector, labels)
    assert fast == ReferenceProjector(rows).project(vector)
    assert all(type(v) is Fraction for v in fast)
    assert mat_vec(rows, fast) == [0] * len(rows)


def constraint_sets(max_n):
    """(label, rows) of every Bianchi and effective constraint set at n <= max_n."""
    for n in range(1, max_n + 1):
        for p in range(n + 1):
            bianchi = bianchi_rows(n, p)
            yield (n, p, "bianchi"), bianchi
            yield (n, p, "effective"), bianchi + operator_rows(n, p, p, lambda w: w.contract())


def test_blockwise_rank_matches_whole_matrix_on_g_power_matrices():
    for n in range(1, 6):
        for p in range(n + 1):
            for q in range(n + 1):
                for power in range(n + 1):
                    m = g_power_matrix(n, p, q, power)
                    assert map_rank(n, p, q, power) == reference_rank(m), (n, p, q, power)


def test_blockwise_rank_and_projector_match_whole_matrix_on_constraints():
    # each constraint set, Bianchi rows alone or with contraction rows, as
    # one block: its rank and KernelProjector against the whole matrix
    rng = random.Random("blockwise-constraints")
    for label, rows in constraint_sets(5):
        n, p, _ = label
        assert linalg.rank(rows) == reference_rank(rows), label
        width = len(rows[0])
        for _ in range(2):
            vector = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(width)]
            assert_projects_like_reference(rows, vector)
        assert_projects_like_reference(rows, _flatten(random_symmetric(rng, n, p)))


def power_rank_configs(n):
    """check_metric_power_rank's (p, q, l) at n."""
    return product(range(min(n, 2) + 1), range(min(n, 2) + 1), range(3))


def kernel_configs(n):
    """check_metric_kernel_contractions's (p, q, l) at n."""
    return [
        (p, q, l)
        for p in (1, 2) for q in (1, 2) for l in (1, 2, 3)
        if n < p + q + l <= n + 2 and p + l <= n and q + l <= n
    ]


@pytest.mark.parametrize("n", range(2, 7))
def test_keyed_g_power_rank_matches_the_dense_matrix_on_the_rank_check(n):
    for p, q, l in power_rank_configs(n):
        assert map_rank(n, p, q, l) == dense_map_rank(n, p, q, l), (n, p, q, l)


@pytest.mark.parametrize("n", range(2, 7))
def test_keyed_g_power_kernel_matches_the_dense_nullspace(n):
    # the dense kernel's dimension, and g^l annihilates every vector; on the
    # kernel check's configurations, where p + q + l > n, so does
    # c^(p + q + l - n)
    contracted = set(kernel_configs(n))
    for p, q, l in sorted(contracted | set(power_rank_configs(n))):
        kernel = list(_g_power_kernel(n, p, q, l))
        assert len(kernel) == len(linalg.nullspace(g_power_matrix(n, p, q, l))), (n, p, q, l)
        for w in kernel:
            assert (w.n, w.p, w.q) == (n, p, q) and not w.is_zero()
            assert w.mul_g_power(l).is_zero(), (n, p, q, l)
            if (p, q, l) in contracted:
                assert w.contract(p + q + l - n).is_zero(), (n, p, q, l)
        if (p, q, l) in contracted:
            assert kernel, (n, p, q, l)


def adjoint_bianchi(y):
    """b* = T b T, the adjoint of the Bianchi sum b, D^{p+1,q-1} -> D^{p,q}."""
    return y.transpose().bianchi_sum().transpose()


def bianchi_laplacians(x):
    """(b* b x, b b* x) for x in D^{p,q}; either is the zero form of D^{p,q}
    where b or b* has no target."""
    n, p, q = x.n, x.p, x.q
    down = adjoint_bianchi(x.bianchi_sum()) if q and p < n else make_zero(n, p, q)
    up = adjoint_bianchi(x).bianchi_sum() if p and q < n else make_zero(n, p, q)
    return down, up


def unit_form(n, p, q, cell):
    return _from_cells(n, p, q, {cell: 1}, 1)


def test_bianchi_adjoint_and_commutator_on_basis_forms():
    # every basis form of D^{p,q} at n <= 5: b* b - b b* = (q - p) Id, and
    # <b e_L, e_R> = <e_L, b* e_R>, which in the orthonormal basis is the
    # coefficient of e_R in b e_L against that of e_L in b* e_R
    for n in range(1, 6):
        for p, q in product(range(n + 1), repeat=2):
            for cell in flat_cells(n, p, q):
                x = unit_form(n, p, q, cell)
                down, up = bianchi_laplacians(x)
                assert down - up == x.scale(q - p), (n, p, q, cell)
            if not q or p == n:
                continue
            forward = {
                (cell, image): value for cell in flat_cells(n, p, q)
                for image, value in _stored_values(unit_form(n, p, q, cell).bianchi_sum())
            }
            backward = {
                (image, cell): value for cell in flat_cells(n, p + 1, q - 1)
                for image, value in _stored_values(adjoint_bianchi(unit_form(n, p + 1, q - 1, cell)))
            }
            assert forward == backward, (n, p, q)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_bianchi_adjoint_and_commutator_on_random_forms(n, data):
    x = data.draw(prime_denominator_forms(n))
    p, q = x.p, x.q
    down, up = bianchi_laplacians(x)
    assert down - up == x.scale(q - p)
    if q and p < n:
        y = data.draw(prime_denominator_forms(n, p + 1, q - 1))
        assert x.bianchi_sum().inner(y) == x.inner(adjoint_bianchi(y))


@pytest.mark.parametrize("n", range(2, 8))
def test_bianchi_projector_matches_the_dense_projector(n):
    # random_bianchi's closed form against the dense projector onto Ker b,
    # on the same symmetrized draw
    rng = random.Random(f"bianchi-projector-{n}")
    for p in range(1, n + 1):
        projector = ReferenceProjector(bianchi_rows(n, p))
        for _ in range(2):
            state = rng.getstate()
            got = random_bianchi(rng, n, p)
            rng.setstate(state)
            dense = projector.project(_flatten(random_symmetric(rng, n, p)))
            assert got == _unflatten(n, p, p, dense), (n, p)


def test_effective_random_bianchi_matches_the_joint_kernel_projector():
    # the oracle: one KernelProjector onto Ker B and Ker c together, applied
    # to the same draw.  B and c both keep I ^ J of a cell e_I (x) e_J, so the
    # dense rows split into blocks by that key
    for n in range(2, 7):
        for p in range(1, n // 2 + 1):
            rows = bianchi_rows(n, p)
            rows += operator_rows(n, p, p, lambda w: w.contract())
            cells = flat_cells(n, p, p)
            joint = linalg.KernelProjector(linalg.keyed_blocks(
                range(len(cells)),
                lambda c: cells[c][0] ^ cells[c][1],
                lambda c: [(r, row[c]) for r, row in enumerate(rows) if row[c]],
                "B and c",
            ))
            for seed in range(4):
                form = random_symmetric(random.Random(seed), n, p)
                expected = _unflatten(n, p, p, project_list(joint, _flatten(form)))
                got = random_bianchi(random.Random(seed), n, p, effective=True)
                assert got == expected, (n, p, seed)


@st.composite
def interleaved_block_matrices(draw):
    """Integer block-diagonal matrices with zero rows and columns, their rows
    and columns permuted so that the blocks interleave; with each column's
    block number (a zero column gets a block of its own)."""
    blocks = draw(st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
            lambda shape: st.lists(st.lists(st.integers(-3, 3), min_size=shape[1],
                                            max_size=shape[1]),
                                   min_size=shape[0], max_size=shape[0])
        ),
        min_size=1, max_size=4,
    ))
    zero_rows, zero_cols = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    rows = sum(len(b) for b in blocks) + zero_rows
    cols = sum(len(b[0]) for b in blocks) + zero_cols
    dense = [[0] * cols for _ in range(rows)]
    keys = []
    r0 = c0 = 0
    for number, b in enumerate(blocks):
        for i, row in enumerate(b):
            dense[r0 + i][c0:c0 + len(row)] = row
        keys += [number] * len(b[0])
        r0, c0 = r0 + len(b), c0 + len(b[0])
    keys += [-1 - c for c in range(zero_cols)]
    row_order = draw(st.permutations(range(rows)))
    col_order = draw(st.permutations(range(cols)))
    return [[dense[r][c] for c in col_order] for r in row_order], [keys[c] for c in col_order]


@settings(max_examples=150, deadline=None)
@given(interleaved_block_matrices(), st.data())
def test_blockwise_rank_and_projector_on_interleaved_blocks(m_keys, data):
    # a plain matrix is one block; keyed_blocks, keyed by the block numbers,
    # builds the blocks from the columns' images
    m, keys = m_keys
    assert linalg.rank(m) == reference_rank(m)
    vector = data.draw(st.lists(_entries, min_size=len(m[0]), max_size=len(m[0])))
    assert_projects_like_reference(m, vector)
    blocks = list(linalg.keyed_blocks(
        range(len(m[0])),
        keys.__getitem__,
        lambda c: [(r, row[c]) for r, row in enumerate(m) if row[c]],
        "an interleaved matrix",
    ))
    assert [cols for cols, _ in blocks] == [
        [c for c in range(len(keys)) if keys[c] == key] for key in dict.fromkeys(keys)
    ]
    assert sum(linalg.rank(rows) for _, rows in blocks) == reference_rank(m)
    assert_projects_like_reference(m, vector, linalg.KernelProjector(blocks))


def test_coordinate_frames_match_minors():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for idx in permutations(range(n), k):
                frame = Frame.coordinate(n, idx)
                coords = frame.wedge_coordinates
                assert len(coords) == 1 and all(coords.values()), (n, idx)
                for mask in subset_masks(n, k):
                    assert coords.get(mask, 0) == reference_minor(frame.vectors, mask), (
                        n, idx, mask,
                    )
                general = Frame.from_vectors(n, frame.vectors)
                assert frame == general
                assert general.wedge_coordinates == coords

def unit_frame(n, idx):
    """Frame.from_vectors of the unit vectors e_i, i in idx, written out."""
    return Frame.from_vectors(n, [[1 if j == i else 0 for j in range(n)] for i in idx])


def test_coordinate_frames_match_frames_of_unit_vectors():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for idx in permutations(range(n), k):
                frame, general = Frame.coordinate(n, idx), unit_frame(n, idx)
                assert frame.vectors == general.vectors, (n, idx)
                assert dict(frame.wedge_coordinates) == dict(general.wedge_coordinates), (n, idx)
                assert Frame.coordinate(n, list(idx)) is frame  # built once, shared
    with pytest.raises(TypeError):
        frame.wedge_coordinates[1] = -1
    assert dict(frame.wedge_coordinates) == dict(general.wedge_coordinates)


@pytest.mark.parametrize("n, built, refused, message", [
    (4, (1,), (1.0,), "must be integers"),
    (4, (1,), (True,), "must be integers"),
    (4, (0,), (False,), "must be integers"),
    (4, (0, 2), (0, Fraction(2)), "must be integers"),
    (4, (1,), ("1",), "must be integers"),
    (4, (1, 2), (1, 2.0), "must be integers"),
    (4, (1, 2), (1, 2, 1), "must be distinct"),
    (4, (3,), (4,), "out of range"),
    (4, (0,), (-1,), "out of range"),
    (4, (0, 3), (0, 3, 4), "out of range"),
    (4, (0,), (), "at least one vector"),
])
def test_coordinate_frames_refuse_after_the_plane_was_built(n, built, refused, message):
    """Each refusal keeps its message, also once the same plane has been
    built from ints."""
    Frame.coordinate(n, built)
    with pytest.raises(FrameError, match=message):
        Frame.coordinate(n, refused)


def test_coordinate_frames_refuse_a_bool_n_after_n_1_was_built():
    Frame.coordinate(1, (0,))
    with pytest.raises(FrameError, match="dimension must be an integer"):
        Frame.coordinate(True, (0,))


# -- curvature: one power sequence and one contraction chain ------------------


def test_constant_curvature_matches_g_squared():
    for n in range(2, 9):
        g = make_g(n)
        for lam in (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2, 3)):
            assert make_constant_curvature(n, lam).form == g.mul(g).scale(lam / 2), (n, lam)


def test_invariant_report_matches_per_q_invariants():
    for n in range(4, 8):
        g = make_g(n)
        for name, t in model_zoo(n, random.Random(0)):
            report = build_invariant_report(t, n // 2)
            assert report.h4_sign == sign_report_h4(t), (n, name)
            rq = t.form
            for q, row in enumerate(report.rows, start=1):
                if q > 1:
                    rq = rq.mul(t.form)
                assert power(t, q).form == rq, (n, name, q)
                assert (row.weyl, row.einstein) == (weyl_invariant(t, q), einstein_tensor(t, q))
                c = rq
                for _ in range(2 * q - 1):
                    c = c.contract()
                h = c.contract().scalar_value() / factorial(2 * q)
                assert row.weyl == h, (n, name, q)
                assert row.einstein == h * g - c.scale(Fraction(1, factorial(2 * q - 1)))


def two_pass_row(rq, q):
    """(h_{2q}, T_{2q}) from two contraction passes over R^q, c^{2q} and
    c^{2q-1}: the walked row's formula before it read both values off
    c^{2q-1} R^q."""
    h = rq.contract(2 * q).scalar_value() / factorial(2 * q)
    traced = rq.contract(2 * q - 1)
    return h, h * make_g(rq.n) - traced.scale(Fraction(1, factorial(2 * q - 1)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**32))
def test_walked_rows_match_two_contraction_passes(n, seed):
    tensor = CurvatureTensor(random_bianchi(random.Random(seed), n, 2))
    rows = curvature._rows(tensor, range(1, n // 2 + 1), newton=True)
    assert len(rows) == n // 2
    rq = tensor.form
    for q, row in enumerate(rows, start=1):
        if q > 1:
            rq = rq.mul(tensor.form)
        assert row == two_pass_row(rq, q), (n, q)


# -- curvature: model constructors against the expressions they replaced ----

_model_values = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 4, 7)))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 10),
    st.one_of(st.just(Fraction(0)), st.integers(-9, 9).map(Fraction), _model_values),
)
def test_constant_curvature_matches_lambda_half_g_squared(n, lam):
    assert make_constant_curvature(n, lam).form == make_scalar(n, lam / 2).mul_g_power(2)


@st.composite
def shape_operators(draw):
    """Symmetric (1,1)-forms at n <= 8 with fractional values: diagonal,
    dense, sparse with some rows left empty, or zero."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("diagonal", "dense", "sparse", "zero")))
    empty = draw(st.sets(st.integers(0, n - 1))) if kind == "sparse" else set()
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if kind == "zero" or (kind == "diagonal" and i != j) or {i, j} & empty:
                continue
            if kind == "sparse" and not draw(st.booleans()):
                continue
            matrix[i][j] = matrix[j][i] = draw(_model_values)
    return DoubleForm(n, 1, 1, matrix)


@settings(max_examples=200, deadline=None)
@given(shape_operators())
def test_hypersurface_matches_half_the_square(b):
    assert make_hypersurface(b).form == b.mul(b).scale(Fraction(1, 2))


def test_hypersurface_at_n1_is_the_clamped_zero_form():
    b = _diagonal(1, [Fraction(3, 2)])
    form = make_hypersurface(b).form
    assert form == b.mul(b) == make_zero(1, 1, 1)


@pytest.mark.parametrize("values", [[1, 2, 3], [1]])
def test_diagonal_takes_exactly_n_values(values):
    with pytest.raises(DimensionMismatchError):
        _diagonal(2, values)


def test_model_zoo_pads_its_diagonals_with_zeros_past_n8():
    models = dict(model_zoo(9))
    shape = _diagonal(9, [1, 1, 1, 0, 2, -1, 1, 3, 0])
    assert models["hypersurface_diag"].form == make_hypersurface(shape).form


def set_cell_shape(n, rows):
    """The (1,1)-form with the given rows, one set_cell per entry."""
    form = make_zero(n, 1, 1)
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            form.set_cell(1 << i, 1 << j, value)
    return form


def spec_value(value, data):
    """value as a JSON integer, its lowest-terms string or an unreduced one."""
    choices = [str(value), f"{value.numerator * 3}/{value.denominator * 3}"]
    if value.denominator == 1:
        choices.append(value.numerator)
    return data.draw(st.sampled_from(choices))


@settings(max_examples=100, deadline=None)
@given(shape_operators(), st.data())
def test_spec_shapes_match_set_cell_shapes(b, data):
    n = b.n
    rows = [[b.cell(1 << i, 1 << j) for j in range(n)] for i in range(n)]
    eigen = [rows[i][i] for i in range(n)]
    shape = set_cell_shape(n, [[v if i == j else 0 for j, v in enumerate(eigen)] for i in range(n)])
    assert _diagonal(n, eigen) == shape
    assert DoubleForm(n, 1, 1, rows) == set_cell_shape(n, rows) == b
    hypersurface = {"model": "hypersurface", "eigenvalues": [spec_value(v, data) for v in eigen]}
    conformal = {"model": "conformally_flat", "h_matrix": [[spec_value(v, data) for v in row] for row in rows]}
    built = build_curvature_tensor(model_spec_from_dict(hypersurface)).form
    assert built == shape.mul(shape).scale(Fraction(1, 2))
    built = build_curvature_tensor(model_spec_from_dict(conformal)).form
    assert built == make_g(n).mul(set_cell_shape(n, rows))


# -- serialize: one canonical writer against json.dumps -------------------------


def json_oracle(plain) -> str:
    return json.dumps(plain, indent=2, sort_keys=True) + "\n"


# values of pooled sparse_forms: few enough that cells share numerators
VALUE_POOL = (Fraction(1), Fraction(-3, 2), Fraction(2, 3), Fraction(7), Fraction(-5, 4))


@st.composite
def sparse_forms(draw, max_n=6, square=False, pooled=False):
    """Any bidegree at n <= 6, the zero form included; negative and
    multi-digit numerators, some denominators above 1.  Pooled forms take
    their values from VALUE_POOL, so numerators repeat across rows."""
    n = draw(st.integers(1, max_n))
    p = draw(st.integers(0, n))
    q = p if square else draw(st.integers(0, n))
    rows, cols = subset_masks(n, p), subset_masks(n, q)
    if pooled:
        values = st.sampled_from(VALUE_POOL)
    else:
        values = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=97)
    cells = draw(st.dictionaries(
        st.tuples(st.sampled_from(rows), st.sampled_from(cols)), values, max_size=40
    ))
    form = make_zero(n, p, q)
    for (mask_i, mask_j), value in cells.items():
        form.set_cell(mask_i, mask_j, value)
    return form


@settings(max_examples=200, deadline=None)
@given(sparse_forms())
def test_writer_matches_json_dumps_on_forms(form):
    plain = form_to_dict(form)
    assert dumps_canonical(form) == dumps_canonical(plain) == json_oracle(plain)


@settings(max_examples=100, deadline=None)
@given(sparse_forms(pooled=True))
def test_writer_matches_json_dumps_on_repeated_values(form):
    # the writer builds each distinct numerator's text once per form
    plain = form_to_dict(form)
    assert dumps_canonical(form) == dumps_canonical(plain) == json_oracle(plain)


def test_writer_matches_json_dumps_on_edge_bidegrees():
    for form in (make_zero(1, 0, 0), make_zero(5, 0, 3), make_g(1), make_g(4).scale(-12345)):
        assert dumps_canonical(form) == json_oracle(form_to_dict(form))
    scalar = make_zero(3, 0, 0)
    scalar.set_cell(0, 0, Fraction(-1000003, 7))
    assert dumps_canonical(scalar) == json_oracle(form_to_dict(scalar))


@settings(max_examples=40, deadline=None)
@given(sparse_forms(max_n=6, square=True))
def test_writer_matches_json_dumps_on_decompositions(w):
    d = decompose(w)
    plain = decomposition_to_dict(d)
    assert dumps_canonical(d) == dumps_canonical(plain) == json_oracle(plain)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.data())
def test_writer_matches_json_dumps_on_invariant_reports(n, data):
    name, tensor = data.draw(st.sampled_from(model_zoo(n, random.Random(n))))
    report = build_invariant_report(tensor, data.draw(st.integers(1, n // 2)))
    plain = report_to_dict(report)
    assert dumps_canonical(report) == dumps_canonical(plain) == json_oracle(plain), name
    # the pq command's report: one sample, no rows, no h4 sign
    p = data.draw(st.integers(0, n - 2))
    plane = tuple(range(p))
    value = pq_sectional(tensor, p, 1, Frame.coordinate(n, plane) if p else None)
    sample = InvariantReport(n, (), (SectionalSample(p, 1, plane, value),), None)
    assert dumps_canonical(sample) == json_oracle(report_to_dict(sample)), name


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(SUITES)), st.integers(2, 5), st.integers(0, 2**32))
def test_writer_matches_json_dumps_on_verify_payloads(suite, n, seed):
    outcome = run_verify(suite, n, 1, seed)
    payload = outcome.to_dict()
    assert dumps_canonical(payload) == json_oracle(payload)
    runs = {"runs": [payload, run_verify(suite, n, 1, seed + 1).to_dict()]}
    assert dumps_canonical(runs) == json_oracle(runs)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


@settings(max_examples=100, deadline=None)
@given(_json_values)
def test_writer_matches_json_dumps_on_json_values(value):
    # failure records carry free-form labels and inputs: escapes, nesting, empties
    assert dumps_canonical(value) == json_oracle(value)


# -- serialize: the streamed text is dumps_canonical's ---------------------------
#
# dumps_canonical(obj, stream) writes the text that dumps_canonical(obj)
# returns, in chunks: every write but the last of at least CHUNK_SIZE
# characters, and a shorter text in one write.  The tests of several chunks
# shrink CHUNK_SIZE to SMALL_CHUNK, so that a dense (7,3) form spans some.

SMALL_CHUNK = 1 << 16


class RecordingStream:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def assert_streams_as_dumped(obj, plain) -> list[str]:
    """The writes of dumps_canonical(obj, stream), checked against the
    returned text and json.dumps of plain."""
    stream = RecordingStream()
    assert dumps_canonical(obj, stream) is None
    writes = stream.writes
    assert "".join(writes) == dumps_canonical(obj) == json_oracle(plain)
    assert all(len(text) >= serialize.CHUNK_SIZE for text in writes[:-1])
    assert len(writes) == 1 or len(writes[0]) >= serialize.CHUNK_SIZE
    return writes


@settings(max_examples=100, deadline=None)
@given(st.lists(sparse_forms(pooled=True) | sparse_forms(), max_size=3))
def test_streamed_text_matches_on_forms(forms):
    # several forms' rows deferred, with strings between and around them
    assert_streams_as_dumped(forms, [form_to_dict(form) for form in forms])


@settings(max_examples=40, deadline=None)
@given(sparse_forms(max_n=6, square=True))
def test_streamed_text_matches_on_decompositions(w):
    d = decompose(w)
    assert_streams_as_dumped({"d": d, "w": w}, {"d": decomposition_to_dict(d), "w": form_to_dict(w)})


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.data())
def test_streamed_text_matches_on_invariant_reports(n, data):
    name, tensor = data.draw(st.sampled_from(model_zoo(n, random.Random(n))))
    report = build_invariant_report(tensor, data.draw(st.integers(1, n // 2)))
    assert len(assert_streams_as_dumped(report, report_to_dict(report))) == 1, name


@settings(max_examples=50, deadline=None)
@given(_json_values)
def test_streamed_text_matches_on_json_values(value):
    assert_streams_as_dumped(value, value)


def test_streamed_dense_decomposition_spans_several_chunks(monkeypatch):
    monkeypatch.setattr(serialize, "CHUNK_SIZE", SMALL_CHUNK)
    w = dense_rational_form(random.Random("stream-dense"), 7, 3, 3)
    d = decompose(w)
    writes = assert_streams_as_dumped(d, decomposition_to_dict(d))
    assert len(writes) >= 3
    # the rows go out as they are made: no write holds much more than a chunk
    assert max(map(len, writes)) < 2 * SMALL_CHUNK


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int() digit limit")
def test_a_number_too_long_in_a_later_form_leaves_the_stream_empty(monkeypatch):
    monkeypatch.setattr(serialize, "CHUNK_SIZE", SMALL_CHUNK)
    first = dense_rational_form(random.Random("stream-first"), 7, 3, 3)
    assert len(dumps_canonical(first)) > SMALL_CHUNK
    last = make_zero(3, 1, 1)
    last.set_cell(1, 2, Fraction(10 ** _DIGIT_LIMIT, 7))  # one digit past the limit
    for payload in ([first, last], {"a": first, "b": [make_g(3), {"c": last}]}):
        stream = RecordingStream()
        with pytest.raises(DoubleFormError, match="output number too long"):
            dumps_canonical(payload, stream)
        assert stream.writes == []


# -- serialize: the bulk reader against a per-entry reference -----------------
#
# form_from_dict reads well-formed entries by serialize._read_in_bulk, one
# check per column of the entries, and anything else by the validating
# per-entry loop.  The reference reads each entry on its own, through
# IndexSet.from_indices, rational_from_str and set_cell.


def reference_form_from_dict(data):
    form = make_zero(data["n"], data["p"], data["q"])
    for raw_i, raw_j, value in data["entries"]:
        left = IndexSet.from_indices(form.n, raw_i)
        right = IndexSet.from_indices(form.n, raw_j)
        assert (left.k, right.k) == (form.p, form.q)
        form.set_cell(left.mask, right.mask, rational_from_str(value))
    return form


def assert_reads_as(data, form):
    """form_from_dict(data) equals the reference and form, and the bulk
    route read it unless it has no entries."""
    read = _read_in_bulk(data["entries"], data["n"], data["p"], data["q"])
    assert (read is None) == (not data["entries"])
    assert form_from_dict(data) == reference_form_from_dict(data) == form


@settings(max_examples=200, deadline=None)
@given(sparse_forms())
def test_reader_matches_per_entry_reference(form):
    assert_reads_as(form_to_dict(form), form)


@settings(max_examples=100, deadline=None)
@given(sparse_forms(pooled=True), st.data())
def test_reader_matches_per_entry_reference_on_repeated_and_integer_values(form, data):
    # repeated value strings are read once; JSON integers are values too
    plain = form_to_dict(form)
    for entry in plain["entries"]:
        if "/" not in entry[2] and data.draw(st.booleans()):
            entry[2] = int(entry[2])
    assert_reads_as(plain, form)


def test_reader_matches_per_entry_reference_on_dense_forms():
    rng = random.Random(16)
    nonzero = [k for k in range(-9, 10) if k]
    for n in range(1, 7):
        for p in range(n + 1):
            for q in range(n + 1):
                form = make_zero(n, p, q)
                for mask_i in subset_masks(n, p):
                    for mask_j in subset_masks(n, q):
                        form.set_cell(mask_i, mask_j, Fraction(rng.choice(nonzero), rng.randint(1, 6)))
                data = form_to_dict(form)
                assert len(data["entries"]) == comb(n, p) * comb(n, q)
                assert_reads_as(data, form)


def dense_form_data():
    """Every cell of D^(2,1) at n = 4, valued from a pool of five strings."""
    pool = ("1", "-3/2", "2/3", "5", "-7/4")
    rows, cols = list(combinations(range(4), 2)), list(combinations(range(4), 1))
    return {"n": 4, "p": 2, "q": 1, "entries": [
        [list(i), list(j), pool[(r * len(cols) + c) % len(pool)]]
        for r, i in enumerate(rows) for c, j in enumerate(cols)
    ]}


def assert_refused_with(faults, message):
    """dense_form_data() with faults (index -> entry) is refused, by the
    validating route, with message; the bulk route declines it."""
    data = dense_form_data()
    assert _read_in_bulk(data["entries"], 4, 2, 1) is not None
    for index, entry in faults.items():
        data["entries"][index] = json.loads(json.dumps(entry))
    assert _read_in_bulk(data["entries"], 4, 2, 1) is None
    with pytest.raises(SchemaError) as err:
        form_from_dict(data)
    assert str(err.value) == message


def _as_bools(indices):
    """0 and 1 as False and True: equal values, and in order, of type bool."""
    return [bool(x) if x in (0, 1) else x for x in indices]


# name -> the malformed entry made of entries[k]: each kind of fault of
# tests/test_serialize.py's test_form_entry_errors_are_unchanged, made in
# place, so that an entry that breaks only one check stays in order.
ENTRY_FAULTS = {
    "bool index in I": lambda e, k: [_as_bools(e[k][0]), e[k][1], e[k][2]],
    "bool index in J": lambda e, k: [e[k][0], _as_bools(e[k][1]), e[k][2]],
    "float index in I": lambda e, k: [[float(x) for x in e[k][0]], e[k][1], e[k][2]],
    "float index in J": lambda e, k: [e[k][0], [float(x) for x in e[k][1]], e[k][2]],
    "I an object": lambda e, k: [{str(x): x for x in e[k][0]}, e[k][1], e[k][2]],
    "I a string": lambda e, k: ["".join(map(str, e[k][0])), e[k][1], e[k][2]],
    "J a string": lambda e, k: [e[k][0], "".join(map(str, e[k][1])), e[k][2]],
    "I decreasing": lambda e, k: [e[k][0][::-1], e[k][1], e[k][2]],
    "I repeated": lambda e, k: [e[k][0][:1] * 2, e[k][1], e[k][2]],
    "I past n": lambda e, k: [e[k][0][:1] + [4], e[k][1], e[k][2]],
    "I negative": lambda e, k: [[-1] + e[k][0][1:], e[k][1], e[k][2]],
    "I short": lambda e, k: [e[k][0][:1], e[k][1], e[k][2]],
    "J long": lambda e, k: [e[k][0], e[k][1] + [3], e[k][2]],
    "no value": lambda e, k: e[k][:2],
    "two values": lambda e, k: e[k] + e[k][2:],
    "a string entry": lambda e, k: "x",
    "a null entry": lambda e, k: None,
    "float value": lambda e, k: e[k][:2] + [1.5],
    "bool value": lambda e, k: e[k][:2] + [True],
    "list value": lambda e, k: e[k][:2] + [e[k][2:]],
    "zero denominator": lambda e, k: e[k][:2] + [e[k][2].partition("/")[0] + "/0"],
    "negative denominator": lambda e, k: e[k][:2] + ["1/-2"],
    "other digits": lambda e, k: e[k][:2] + ["١"],
    "repeats the previous entry": lambda e, k: e[k - 1],
    "copies the next entry": lambda e, k: e[k + 1],
}


# Each fault made at an index drawn once with random.Random(16), among the
# indices 1..22 where it changes the entry.  The messages are pinned from
# the per-entry reader that form_from_dict was before the bulk route.
@pytest.mark.parametrize(
    "fault, index, message",
    [
        ("bool index in I", 12, "form.entries[12][0][]: expected an integer, got True"),
        ("bool index in J", 16, "form.entries[16][1][]: expected an integer, got False"),
        ("float index in I", 16, "form.entries[16][0][]: expected an integer, got 1.0"),
        ("float index in J", 10, "form.entries[10][1][]: expected an integer, got 2.0"),
        ("I an object", 14, "form.entries[14][0]: expected an array, got dict"),
        ("I a string", 8, "form.entries[8][0]: expected an array, got str"),
        ("J a string", 15, "form.entries[15][1]: expected an array, got str"),
        ("I decreasing", 1, "form.entries[1][0]: indices must be strictly increasing, got (1, 0)"),
        ("I repeated", 14, "form.entries[14][0]: indices must be strictly increasing, got (1, 1)"),
        ("I past n", 22, "form.entries[22][0]: index 4 out of range [0, 4)"),
        ("I negative", 9, "form.entries[9][0]: index -1 out of range [0, 4)"),
        ("I short", 8, "form.entries[8][0]: expected 2 indices, got 1"),
        ("J long", 21, "form.entries[21][1]: expected 1 indices, got 2"),
        ("no value", 8, "form.entries[8]: expected [I, J, value], got [[0, 3], [0]]"),
        (
            "two values", 1,
            "form.entries[1]: expected [I, J, value], got [[0, 1], [1], '-3/2', '-3/2']",
        ),
        ("a string entry", 10, "form.entries[10]: expected an array, got str"),
        ("a null entry", 10, "form.entries[10]: expected an array, got NoneType"),
        ("float value", 11, "form.entries[11][2]: expected a rational string, got 1.5"),
        ("bool value", 22, "form.entries[22][2]: expected a rational string, got True"),
        ("list value", 5, "form.entries[5][2]: expected a rational string, got ['1']"),
        ("zero denominator", 20, "form.entries[20][2]: zero denominator"),
        (
            "negative denominator", 10,
            "form.entries[10][2]: expected 'num' or 'num/den' with positive denominator, got '1/-2'",
        ),
        (
            "other digits", 1,
            "form.entries[1][2]: expected 'num' or 'num/den' with positive denominator, got '١'",
        ),
        (
            "repeats the previous entry", 8,
            "form.entries[8]: entries must be strictly sorted by (rank I, rank J)",
        ),
        (
            "copies the next entry", 20,
            "form.entries[21]: entries must be strictly sorted by (rank I, rank J)",
        ),
    ],
)
def test_dense_form_entry_errors_are_unchanged(fault, index, message):
    entries = dense_form_data()["entries"]
    entry = ENTRY_FAULTS[fault](entries, index)
    assert json.dumps(entry) != json.dumps(entries[index])
    assert_refused_with({index: entry}, message)


@pytest.mark.parametrize(
    "faults, message",
    [
        # entry 3 repeats entry 1; entry 7 holds a bool index
        (
            {3: [[0, 1], [1], "-3/2"], 7: [[0, True], [1], "1"]},
            "form.entries[3]: entries must be strictly sorted by (rank I, rank J)",
        ),
        # entry 3 holds a bool index; entry 7 repeats entry 5
        (
            {3: [[0, 2], [True], "1"], 7: [[0, 2], [1], "1"]},
            "form.entries[3][1][]: expected an integer, got True",
        ),
        (
            {3: [[0, 4], [1], "1"], 7: [[0, 2], [1.0], "1"]},
            "form.entries[3][0]: index 4 out of range [0, 4)",
        ),
        # entry 9 repeats entry 0
        (
            {2: [[0, 1], [2], "1/0"], 9: [[0, 1], [0], "1"]},
            "form.entries[2][2]: zero denominator",
        ),
    ],
)
def test_the_first_of_two_faults_of_different_kinds_is_named(faults, message):
    assert_refused_with(faults, message)


# -- serialize: the h_matrix reader against per-entry rational_from_str -----
#
# model_spec_from_dict reads each distinct string of an h_matrix once and
# checks symmetry a row against its column; the values, and the message of
# the first fault, must be those of reading every entry and comparing every
# pair i < j.


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.data())
def test_h_matrix_reader_matches_per_entry_values(n, data):
    rows = [[data.draw(st.sampled_from(("1", "-3/2", 2, 0, "4/6", "2/3"))) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i]
    conformal = model_spec_from_dict({"model": "conformally_flat", "h_matrix": rows})
    assert conformal.h_matrix == tuple(tuple(map(rational_from_str, row)) for row in rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.data())
def test_the_first_asymmetric_pair_is_named(n, data):
    # equal values written differently ("2/3", "4/6") are symmetric
    pool = ("2/3", "4/6", "1", 1, "-1")
    rows = [[data.draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(n)]
    values = [[rational_from_str(v) for v in row] for row in rows]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if values[i][j] != values[j][i]]
    spec = {"model": "conformally_flat", "h_matrix": rows}
    if not pairs:
        assert model_spec_from_dict(spec).h_matrix == tuple(map(tuple, values))
        return
    with pytest.raises(SchemaError) as err:
        model_spec_from_dict(spec)
    assert str(err.value) == "spec.h_matrix: matrix is not symmetric at (%d,%d)" % pairs[0]


SPEC_POOL = ("1", "-3/2", 2, "2/3", 0)


def matrix_spec():
    """A symmetric 5 x 5 h_matrix of strings and JSON integers."""
    return {"model": "conformally_flat", "h_matrix": [
        [SPEC_POOL[(i * j + i + j) % len(SPEC_POOL)] for j in range(5)] for i in range(5)
    ]}


def _set(m, i, j, value, transpose=None):
    m[i][j] = value
    if transpose is not None:
        m[j][i] = transpose


# name -> the fault made in place at (i, j) of matrix_spec()'s h_matrix; a
# bool or float value sits across from a 1, which it equals as a number,
# and is met after the string "1" at (0, 0) was read
MATRIX_FAULTS = {
    "a string row": lambda m, i, j: m.__setitem__(i, "x"),
    "a null row": lambda m, i, j: m.__setitem__(i, None),
    "a short row": lambda m, i, j: m.__setitem__(i, m[i][:-1]),
    "a long row": lambda m, i, j: m.__setitem__(i, m[i] + ["1"]),
    "bool value": lambda m, i, j: _set(m, i, j, True, 1),
    "float value": lambda m, i, j: _set(m, i, j, 1.0, 1),
    "list value": lambda m, i, j: _set(m, i, j, [m[i][j]]),
    "zero denominator": lambda m, i, j: _set(m, i, j, "1/0"),
    "decimal string": lambda m, i, j: _set(m, i, j, "1.5"),
    "negative denominator": lambda m, i, j: _set(m, i, j, "1/-2"),
    "other digits": lambda m, i, j: _set(m, i, j, "١"),
    "asymmetric": lambda m, i, j: _set(m, i, j, "7"),
}


def assert_spec_refused_with(spec, message):
    with pytest.raises(SchemaError) as err:
        model_spec_from_dict(json.loads(json.dumps(spec)))
    assert str(err.value) == message


# (i, j) drawn once with random.Random(17); the messages are pinned from the
# per-entry reader that model_spec_from_dict was before the string cache
@pytest.mark.parametrize(
    "fault, i, j, message",
    [
        ("a string row", 4, 3, "spec.h_matrix[4]: expected an array, got str"),
        ("a null row", 2, 4, "spec.h_matrix[2]: expected an array, got NoneType"),
        ("a short row", 2, 1, "spec.h_matrix[2]: expected 5 columns, got 4"),
        ("a long row", 4, 2, "spec.h_matrix[4]: expected 5 columns, got 6"),
        ("bool value", 0, 4, "spec.h_matrix[0][4]: expected a rational string, got True"),
        ("float value", 1, 3, "spec.h_matrix[1][3]: expected a rational string, got 1.0"),
        ("list value", 3, 2, "spec.h_matrix[3][2]: expected a rational string, got ['-3/2']"),
        ("zero denominator", 4, 2, "spec.h_matrix[4][2]: zero denominator"),
        (
            "decimal string", 3, 1,
            "spec.h_matrix[3][1]: expected 'num' or 'num/den' with positive denominator, got '1.5'",
        ),
        (
            "negative denominator", 4, 0,
            "spec.h_matrix[4][0]: expected 'num' or 'num/den' with positive denominator, got '1/-2'",
        ),
        (
            "other digits", 1, 4,
            "spec.h_matrix[1][4]: expected 'num' or 'num/den' with positive denominator, got '١'",
        ),
        ("asymmetric", 1, 4, "spec.h_matrix: matrix is not symmetric at (1,4)"),
    ],
)
def test_h_matrix_errors_are_unchanged(fault, i, j, message):
    spec = matrix_spec()
    MATRIX_FAULTS[fault](spec["h_matrix"], i, j)
    assert spec != matrix_spec()
    assert_spec_refused_with(spec, message)


@pytest.mark.parametrize("value", [True, 1.0])
def test_a_value_equal_to_an_integer_read_before_it_is_refused(value):
    # the cache holds strings only, so 1's Fraction is never handed to True
    spec = {"model": "conformally_flat", "h_matrix": [[1, value], [value, 1]]}
    assert_spec_refused_with(spec, f"spec.h_matrix[0][1]: expected a rational string, got {value!r}")


def test_a_value_fault_is_named_before_an_asymmetry():
    spec = matrix_spec()
    _set(spec["h_matrix"], 0, 1, "7")
    _set(spec["h_matrix"], 4, 4, "1/0")
    assert_spec_refused_with(spec, "spec.h_matrix[4][4]: zero denominator")


# -- integer kernels against the Fraction-accumulating loops -----------------
#
# mul, mul_g_power and contract accumulate integer numerators over one common
# denominator.  The references below are the Fraction-accumulating loops they
# replaced, with the per-bit inversion count as their sign, so they share
# neither the arithmetic nor the parity table with the kernels.

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79)


def reference_sign(a, b):
    """Sign of e_A ^ e_B by counting, for each y in B, the x in A above it."""
    if a & b:
        return 0
    inversions = 0
    rest = b
    while rest:
        low = rest & -rest
        rest ^= low
        inversions += (a >> low.bit_length()).bit_count()
    return -1 if inversions & 1 else 1


def fraction_cells(w):
    """mask_I -> {mask_J -> Fraction} over the stored cells, read through entries()."""
    cells = {}
    for mask_i, mask_j, value in w.entries():
        cells.setdefault(mask_i, {})[mask_j] = value
    return cells


def _add(acc, mask_i, mask_j, value):
    row = acc.setdefault(mask_i, {})
    row[mask_j] = row.get(mask_j, 0) + value


def _kept(acc):
    """The accumulated map without cancelled cells and empty rows."""
    cells = {}
    for mask_i, row in acc.items():
        kept = {mask_j: value for mask_j, value in row.items() if value}
        if kept:
            cells[mask_i] = kept
    return cells


def reference_mul(a, b):
    """((p, q), cells) of a . b."""
    n, p, q = a.n, a.p + b.p, a.q + b.q
    if p > n or q > n:
        return (min(p, n), min(q, n)), {}
    acc = {}
    for mask_i, row_a in fraction_cells(a).items():
        for mask_k, row_b in fraction_cells(b).items():
            if mask_i & mask_k:
                continue
            row_sign = reference_sign(mask_i, mask_k)
            for mask_j, x in row_a.items():
                for mask_l, y in row_b.items():
                    if mask_j & mask_l:
                        continue
                    value = x * y
                    if reference_sign(mask_j, mask_l) != row_sign:
                        value = -value
                    _add(acc, mask_i | mask_k, mask_j | mask_l, value)
    return (p, q), _kept(acc)


def reference_mul_g_power(w, power):
    """((p, q), cells) of g^power . w, from g^k = k! sum_S e_S (x) e_S."""
    n, p, q = w.n, w.p + power, w.q + power
    if p > n or q > n:
        return (min(p, n), min(q, n)), {}
    acc = {}
    weight = factorial(power)
    for mask_i, row in fraction_cells(w).items():
        for mask_j, value in row.items():
            for mask_s in subset_masks(n, power):
                if mask_s & (mask_i | mask_j):
                    continue
                sign = reference_sign(mask_s, mask_i) * reference_sign(mask_s, mask_j)
                _add(acc, mask_s | mask_i, mask_s | mask_j, sign * weight * value)
    return (p, q), _kept(acc)


def reference_contract(w):
    """((p, q), cells) of c w."""
    if w.p == 0 or w.q == 0:
        return (max(w.p - 1, 0), max(w.q - 1, 0)), {}
    acc = {}
    for mask_i, row in fraction_cells(w).items():
        for mask_j, value in row.items():
            common = mask_i & mask_j
            while common:
                bit = common & -common
                common ^= bit
                below = bit - 1
                flips = (mask_i & below).bit_count() + (mask_j & below).bit_count()
                _add(acc, mask_i ^ bit, mask_j ^ bit, -value if flips & 1 else value)
    return (w.p - 1, w.q - 1), _kept(acc)


def assert_matches_reference(result, expected):
    """Same bidegree and values, stored as reduced nonzero integer numerators."""
    bidegree, cells = expected
    assert (result.p, result.q) == bidegree
    assert fraction_cells(result) == cells
    numerators = [v for row in result.cells.values() for v in row.values()]
    assert result.den >= 1 and gcd(result.den, *numerators) == 1
    for row in result.cells.values():
        assert row
        for value in row.values():
            assert type(value) is int and value != 0


@st.composite
def prime_denominator_forms(draw, n, p=None, q=None):
    """Up to 14 cells, each over its own prime, so the common denominator
    is a product of up to 14 primes; numerators in [-3, 3], 0 excluded."""
    p = draw(st.integers(0, n)) if p is None else p
    q = draw(st.integers(0, n)) if q is None else q
    keys = draw(st.lists(
        st.tuples(st.sampled_from(subset_masks(n, p)), st.sampled_from(subset_masks(n, q))),
        max_size=14, unique=True,
    ))
    primes = draw(st.permutations(PRIMES))
    form = make_zero(n, p, q)
    for (mask_i, mask_j), prime in zip(keys, primes):
        form.set_cell(mask_i, mask_j, Fraction(draw(st.sampled_from((-3, -2, -1, 1, 2, 3))), prime))
    return form


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_integer_mul_matches_fraction_loop(n, data):
    a = data.draw(prime_denominator_forms(n))
    b = data.draw(st.one_of(st.just(a), prime_denominator_forms(n)))
    assert_matches_reference(a.mul(b), reference_mul(a, b))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_integer_mul_cancels_to_the_zero_map(n, data):
    # w . w = (-1)^(p+q) w . w, so every cell cancels when p + q is odd
    p = data.draw(st.integers(0, n))
    q = data.draw(st.integers(0, n).filter(lambda q: (p + q) % 2))
    w = data.draw(prime_denominator_forms(n, p, q))
    product = w.mul(w)
    assert_matches_reference(product, reference_mul(w, w))
    assert product.cells == {}


@st.composite
def squared_forms(draw):
    """A form w for w . w, with w . w inside n.  Half have p >= 1 and
    p + q even, where the ordered row pairs (I, K) and (K, I) reach the same
    cells with the same sign, with several rows, several cells per row and
    den != 1.  The rest have p = 0, where the one row pairs with itself, or
    odd p + q, where the two orders cancel."""
    n = draw(st.integers(2, 7))
    half = n // 2
    kind = draw(st.sampled_from(("square", "square", "p = 0", "odd")))
    if kind == "square":
        p = draw(st.integers(1, half))
        q = draw(st.integers(0, half).filter(lambda q: not (p + q) % 2))
    elif kind == "p = 0":
        p, q = 0, draw(st.integers(0, half))
    else:
        p = draw(st.integers(0, half))
        q = draw(st.integers(0, half).filter(lambda q: (p + q) % 2))
    row_masks, col_masks = subset_masks(n, p), subset_masks(n, q)
    rows = draw(st.lists(st.sampled_from(row_masks), min_size=min(2, len(row_masks)),
                         max_size=6, unique=True))
    w = make_zero(n, p, q)
    for mask_i in rows:
        cols = draw(st.lists(st.sampled_from(col_masks), min_size=min(2, len(col_masks)),
                             max_size=5, unique=True))
        for mask_j in cols:
            num = draw(st.integers(-9, 9).filter(bool))
            w.set_cell(mask_i, mask_j, Fraction(num, draw(st.sampled_from(PRIMES[:5]))))
    w.set_cell(rows[0], col_masks[0], Fraction(1, 3))  # den != 1 whatever was drawn
    return w


def copy_of(w):
    """An equal form that is not w, so w.mul(copy) multiplies two distinct
    objects."""
    copy = make_zero(w.n, w.p, w.q)
    copy.cells = {mask_i: dict(row) for mask_i, row in w.cells.items()}
    copy.den = w.den
    return copy


@settings(max_examples=200, deadline=None)
@given(squared_forms())
def test_square_matches_the_general_loop_and_the_fraction_loop(w):
    assert w.den != 1
    copy = copy_of(w)
    assert copy is not w and copy == w
    square = w.mul(w)
    assert square == w.mul(copy)
    assert_matches_reference(square, reference_mul(w, w))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_is_symmetric_matches_the_transpose(n, data):
    # random, symmetrized, and symmetrized with one cell (I, J) changed
    p = data.draw(st.integers(0, n))
    w = data.draw(prime_denominator_forms(n, p, p))
    if data.draw(st.booleans()):
        w = w + w.transpose()
        if data.draw(st.booleans()):
            masks = subset_masks(n, p)
            w.set_cell(data.draw(st.sampled_from(masks)), data.draw(st.sampled_from(masks)),
                       data.draw(st.sampled_from((0, Fraction(1, 7), 5))))
    assert w.is_symmetric() == (w == w.transpose())


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(0, 7), st.data())
def test_integer_mul_g_power_matches_fraction_loop(n, k, data):
    w = data.draw(prime_denominator_forms(n))
    assert_matches_reference(w.mul_g_power(k), reference_mul_g_power(w, k))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_integer_contract_matches_fraction_loop(n, data):
    w = data.draw(prime_denominator_forms(n))
    assert_matches_reference(w.contract(), reference_contract(w))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.data())
def test_integer_kernels_cancel_on_effective_forms(n, data):
    # the top component w_p of w in D^(p,p), 2p <= n, is effective:
    # c w_p = 0 and g^(n-2p+1) w_p = 0, so every accumulated cell cancels
    p = data.draw(st.integers(1, n // 2))
    top = decompose(data.draw(prime_denominator_forms(n, p, p))).components[p]
    k = n - 2 * p + 1
    assert_matches_reference(top.contract(), reference_contract(top))
    assert_matches_reference(top.mul_g_power(k), reference_mul_g_power(top, k))
    assert top.contract().cells == {} and top.mul_g_power(k).cells == {}


# -- one linear-combination kernel against the chained Fraction loops --------
#
# g_power_sum evaluates sum_i c_i g^(k_i) w_i in one integer pass; +, - and
# mul_g_power are calls of it with one or two terms, and so are the closed
# forms of decomposition; scale is its own one numerator pass.  The
# references below are the Fraction loops they replaced: the _combined loop
# behind + and -, the loop of scale, and
# the chained acc + X.mul_g_power(r).scale(c) closed forms, built on
# reference_mul_g_power.


def _form(n, bidegree, cells):
    """The form with the given Fraction cells, built from dense rows."""
    p, q = bidegree
    return DoubleForm(n, p, q, [
        [cells.get(mask_i, {}).get(mask_j, 0) for mask_j in subset_masks(n, q)]
        for mask_i in subset_masks(n, p)
    ])


def reference_add(a, b, subtract=False):
    """a + b (or a - b) by the deleted DoubleForm._combined loop."""
    cells = fraction_cells(a)
    for mask_i, row in fraction_cells(b).items():
        for mask_j, value in row.items():
            _add(cells, mask_i, mask_j, -value if subtract else value)
    return _form(a.n, (a.p, a.q), _kept(cells))


def reference_scale(w, s):
    """s w by the deleted Fraction loop of DoubleForm.scale."""
    cells = {}
    if s:
        cells = {
            mask_i: {mask_j: s * v for mask_j, v in row.items()}
            for mask_i, row in fraction_cells(w).items()
        }
    return _form(w.n, (w.p, w.q), cells)


def reference_g(w, power):
    return _form(w.n, *reference_mul_g_power(w, power))


def reference_g_power_sum(n, p, q, terms):
    total = make_zero(n, p, q)
    for c, k, w in terms:
        total = reference_add(total, reference_scale(reference_g(w, k), Fraction(c)))
    return total


def reference_decompose(form):
    n, p = form.n, form.p
    chain = contractions(form, p)
    components = []
    for k in range(min(p, n - p) + 1):
        lead = Fraction(factorial(n - p - k), factorial(p - k) * factorial(n - 2 * k))
        acc = chain[p - k]
        for r in range(1, k + 1):
            denominator = factorial(r)
            for i in range(r):
                denominator *= n - 2 * k + 2 + i
            term = reference_g(chain[p - k + r], r)
            acc = reference_add(acc, reference_scale(term, Fraction((-1) ** r, denominator)))
        components.append(reference_scale(acc, lead))
    return components + [make_zero(n, k, k) for k in range(n - p + 1, p + 1)]


def reference_reconstruct(decomposition):
    total = make_zero(decomposition.n, decomposition.p, decomposition.p)
    for k, comp in enumerate(decomposition.components):
        total = reference_add(total, reference_g(comp, decomposition.p - k))
    return total


def reference_star_bianchi(form, k):
    n, p = form.n, form.p
    chain = contractions(form, p)
    result = make_zero(n, n - k, n - k)
    for r in range(max(0, p - n + k), p + 1):
        coefficient = Fraction((-1) ** (r + p), factorial(r) * factorial(n - k - p + r))
        term = reference_g(chain[r], n - k - p + r)
        result = reference_add(result, reference_scale(term, coefficient))
    return result


def reference_star_in_components(decomposition, g_power):
    n, p = decomposition.n, decomposition.p
    target = max(n - p - g_power, 0)
    result = make_zero(n, target, target)
    for i in range(min(p, n - p - g_power) + 1):
        coefficient = Fraction(
            factorial(p - i + g_power) * (-1) ** i, factorial(n - p - g_power - i)
        )
        term = reference_g(decomposition.components[i], n - p - g_power - i)
        result = reference_add(result, reference_scale(term, coefficient))
    return result


def assert_same_form(result, expected):
    assert_matches_reference(result, ((expected.p, expected.q), fraction_cells(expected)))


_coefficients = st.one_of(
    st.sampled_from((0, 1, -1, 2)),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)


@st.composite
def g_power_terms_into(draw, n, p, q):
    """(c, k, w) terms landing in D^(p,q): powers from 0 to min(p, q), zero
    coefficients and empty forms included."""
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        k = draw(st.integers(0, min(p, q)))
        terms.append((draw(_coefficients), k, draw(prime_denominator_forms(n, p - k, q - k))))
    return terms


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_g_power_sum_matches_chained_fraction_loops(n, data):
    p, q = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
    terms = data.draw(g_power_terms_into(n, p, q))
    assert_same_form(g_power_sum(n, p, q, terms), reference_g_power_sum(n, p, q, terms))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_linear_operations_match_fraction_loops(n, data):
    p, q = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
    a = data.draw(prime_denominator_forms(n, p, q))
    b = data.draw(st.one_of(st.just(a), prime_denominator_forms(n, p, q)))
    s = data.draw(_coefficients)
    assert_same_form(a + b, reference_add(a, b))
    assert_same_form(a - b, reference_add(a, b, subtract=True))
    assert_same_form(a.scale(s), reference_scale(a, Fraction(s)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_g_power_sum_cancels_to_the_zero_map(n, data):
    # c g^k w - c (g^k w) as a power-0 term, around terms that cancel in pairs
    p, q = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
    k = data.draw(st.integers(0, min(p, q)))
    w = data.draw(prime_denominator_forms(n, p - k, q - k))
    c = data.draw(_coefficients)
    others = data.draw(g_power_terms_into(n, p, q))
    terms = others + [(c, k, w), (-c, 0, reference_g(w, k))] + [(-x, j, u) for x, j, u in others]
    total = g_power_sum(n, p, q, terms)
    assert (total.n, total.p, total.q, total.cells) == (n, p, q, {})


def test_g_power_sum_refuses_terms_outside_the_target():
    w = make_g(4)
    for terms in (
        [(1, 1, w)],  # lands in D^(2,2)
        [(1, 0, make_g(5))],  # another n
        [(1, 0, make_zero(4, 1, 2))],  # another bidegree, even when empty
        [(0, 2, make_zero(4, 0, 0))],  # a zero coefficient is still checked
        [(1, -1, make_zero(4, 2, 2))],  # a negative power
    ):
        with pytest.raises(DegreeError):
            g_power_sum(4, 1, 1, terms)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_decompose_and_reconstruct_match_chained_references(n, data):
    w = data.draw(prime_denominator_forms(n, *(2 * [data.draw(st.integers(0, n))])))
    d = decompose(w)
    for component, expected in zip(d.components, reference_decompose(w), strict=True):
        assert_same_form(component, expected)
    assert_same_form(d.reconstruct(), reference_reconstruct(d))
    assert d.reconstruct() == w


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.data())
def test_star_formulas_match_chained_references(n, data):
    p = data.draw(st.integers(1, min(3, n // 2)))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    prime = data.draw(st.sampled_from(PRIMES))
    w = reference_scale(random_bianchi(rng, n, p), Fraction(data.draw(st.integers(1, 5)), prime))
    k = data.draw(st.integers(p, n))
    assert_same_form(star_bianchi(w, k), reference_star_bianchi(w, k))
    d = decompose(w)
    g_power = data.draw(st.integers(0, n + 1))  # no term once g_power > n - p
    assert_same_form(star_in_components(d, g_power), reference_star_in_components(d, g_power))


# -- value-reading methods against the Fraction loops they replaced ------------
#
# inner, evaluate, bianchi_sum and sectional_curvature accumulate the stored
# integer numerators and make one Fraction at the end.  The references are
# the Fraction loops of the per-cell Fraction storage, reading values through
# entries(), with minors by Fraction elimination of the unscaled vectors.


def reference_inner(a, b):
    if (a.p, a.q) != (b.p, b.q):
        return Fraction(0)
    right = fraction_cells(b)
    total = Fraction(0)
    for mask_i, row in fraction_cells(a).items():
        for mask_j, x in row.items():
            y = right.get(mask_i, {}).get(mask_j)
            if y is not None:
                total += x * y
    return total


def reference_det(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def reference_minor(vectors, mask):
    idx = [i for i in range(len(vectors[0]) if vectors else 0) if mask >> i & 1]
    return reference_det([[vec[i] for i in idx] for vec in vectors])


def reference_evaluate(w, xs, ys):
    total = Fraction(0)
    for mask_i, row in fraction_cells(w).items():
        for mask_j, value in row.items():
            total += value * reference_minor(xs, mask_i) * reference_minor(ys, mask_j)
    return total


def reference_bianchi_sum(w):
    """((p, q), cells) of B w."""
    n, p, q = w.n, w.p, w.q
    if q == 0:
        return (min(p + 1, n), 0), {}
    if p == n:
        return (n, q - 1), {}
    acc = {}
    for mask_i, row in fraction_cells(w).items():
        for mask_j, value in row.items():
            movable = mask_j & ~mask_i
            while movable:
                bit = movable & -movable
                movable ^= bit
                new_j = mask_j ^ bit
                flips = (mask_i & (bit - 1)).bit_count() + 1 + (new_j & (bit - 1)).bit_count()
                _add(acc, mask_i | bit, new_j, -value if flips & 1 else value)
    return (p + 1, q - 1), _kept(acc)


def reference_sectional_curvature(w, vectors):
    n, k = w.n, len(vectors)
    coords = {mask: reference_minor(vectors, mask) for mask in subset_masks(n, k)}
    value = Fraction(0)
    for mask_i, row in fraction_cells(w).items():
        for mask_j, entry in row.items():
            value += entry * coords[mask_i] * coords[mask_j]
    return value / sum(c * c for c in coords.values())


_vector_entries = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=7)
)


def rational_vectors(n, count):
    return st.lists(
        st.lists(_vector_entries, min_size=n, max_size=n), min_size=count, max_size=count
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.data())
def test_inner_and_bianchi_sum_match_fraction_loops(n, data):
    a = data.draw(prime_denominator_forms(n))
    b = data.draw(st.one_of(
        st.just(a), prime_denominator_forms(n, a.p, a.q), prime_denominator_forms(n)
    ))
    assert a.inner(b) == reference_inner(a, b)
    assert type(a.inner(b)) is Fraction
    assert_matches_reference(a.bianchi_sum(), reference_bianchi_sum(a))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.data())
def test_evaluate_matches_fraction_loop(n, data):
    w = data.draw(prime_denominator_forms(n))
    xs = data.draw(rational_vectors(n, w.p))
    ys = data.draw(rational_vectors(n, w.q))
    value = w.evaluate(xs, ys)
    assert value == reference_evaluate(w, xs, ys)
    assert type(value) is Fraction


@st.composite
def maybe_dependent_frames(draw, n):
    """k <= n + 1 rational vectors; often the last is a combination of the
    others, so that every minor vanishes."""
    k = draw(st.integers(0, n + 1))
    vectors = draw(rational_vectors(n, k))
    if k >= 2 and draw(st.booleans()):
        coefficients = draw(st.lists(_vector_entries, min_size=k - 1, max_size=k - 1))
        vectors[-1] = [
            sum((Fraction(c) * Fraction(vec[i]) for c, vec in zip(coefficients, vectors)), Fraction(0))
            for i in range(n)
        ]
    return vectors


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.data())
def test_wedge_matches_minors(n, data):
    vectors = data.draw(maybe_dependent_frames(n))
    k = len(vectors)
    # the kernel takes integer vectors: scale each by its denominators' lcm
    scales = [lcm(*(Fraction(x).denominator for x in vec)) for vec in vectors]
    ints = [[int(Fraction(x) * s) for x in vec] for vec, s in zip(vectors, scales)]
    coords = _wedge(ints)
    assert all(type(c) is int and c for c in coords.values())
    masks = subset_masks(n, k) if k <= n else ()
    assert set(coords) <= set(masks)
    minors = {mask: reference_minor(vectors, mask) for mask in masks}
    scale = prod(scales)
    for mask, minor in minors.items():
        assert coords.get(mask, 0) == scale * minor, mask
    assert (not coords) == (not any(minors.values()))
    if not k:
        assert coords == {0: 1}
    elif not coords:
        with pytest.raises(FrameError, match="linearly dependent"):
            Frame.from_vectors(n, vectors)
    else:
        assert Frame.from_vectors(n, vectors).wedge_coordinates == coords


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.data())
def test_sectional_curvature_matches_fraction_loop(n, data):
    k = data.draw(st.integers(1, n))
    w = data.draw(prime_denominator_forms(n, k, k))
    vectors = data.draw(rational_vectors(n, k).filter(
        lambda vs: any(reference_minor(vs, mask) for mask in subset_masks(n, k))
    ))
    value = sectional_curvature(w, Frame.from_vectors(n, vectors))
    assert value == reference_sectional_curvature(w, vectors)
    assert type(value) is Fraction


# -- one-pass c^k and the complement restriction -------------------------------


@st.composite
def contractible_forms(draw):
    """A sparse form of any bidegree at n <= 6, or a dense one, whose
    cells share many indices between I and J, scaled by a rational."""
    if draw(st.booleans()):
        return draw(sparse_forms())
    n = draw(st.integers(1, 6))
    p, q = draw(st.integers(0, n)), draw(st.integers(0, n))
    form = random_form(random.Random(draw(st.integers(0, 2**32))), n, p, q, density=0.6)
    return form.scale(draw(st.fractions(min_value=-5, max_value=5, max_denominator=12)))


@settings(max_examples=200, deadline=None)
@given(contractible_forms(), st.data())
def test_one_pass_contraction_matches_the_chain(w, data):
    k = data.draw(st.integers(0, min(w.p, w.q) + 1))
    fast = w.contract(k)
    chain = contractions(w, k)[-1]
    assert (fast.p, fast.q) == (chain.p, chain.q)
    assert fast.den == chain.den
    assert fast.cells == chain.cells


def oracle_models(rng, n):
    """The four model kinds with random rational data, and a random
    Bianchi tensor; the shape operator and conformal factor are not
    diagonal."""
    models = [
        ("constant", make_constant_curvature(n, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))),
        ("hypersurface", make_hypersurface(random_symmetric(rng, n, 1))),
        ("conformally_flat", make_conformally_flat(random_symmetric(rng, n, 1))),
        ("random_bianchi", CurvatureTensor(random_bianchi(rng, n, 2))),
    ]
    if n >= 4:
        left = make_constant_curvature(2, Fraction(rng.randint(-3, 3)))
        right = make_hypersurface(random_symmetric(rng, n - 2, 1))
        models.append(("product", make_product(left, right)))
    return models


def coordinate_planes(rng, n, p):
    """A coordinate plane as Frame.coordinate of unsorted indices and as
    Frame.from_vectors of its scaled, permuted coordinate vectors.  The
    scales are +-2 or +-3 over 1, 5 or 7, and each vector is scaled to
    integers, so the second frame's one wedge coordinate is at least 2^p
    in size, of either sign."""
    idx = rng.sample(range(n), p)
    scales = [Fraction(rng.choice((-3, -2, 2, 3)), rng.choice((1, 5, 7))) for _ in idx]
    vectors = [[s if j == i else 0 for j in range(n)] for i, s in zip(idx, scales)]
    scaled = Frame.from_vectors(n, vectors)
    return [Frame.coordinate(n, idx), scaled]


def test_restriction_route_matches_the_pq_tensor():
    rng = random.Random(13)
    signs = set()
    for n in range(2, 8):
        for name, model in oracle_models(rng, n):
            for q in range(1, n // 2 + 1):
                for p in range(1, n - 2 * q + 1):
                    tensor = pq_curvature_tensor(model, p, q)
                    for frame in coordinate_planes(rng, n, p):
                        (c,) = frame.wedge_coordinates.values()
                        signs.add((c > 0, abs(c) == 1))
                        fast = pq_sectional(model, p, q, frame)
                        assert fast == sectional_curvature(tensor, frame), (n, name, p, q)
                        assert type(fast) is Fraction
    # unsorted coordinate frames give -1 and +1; scaled ones, either sign
    assert signs == {(True, True), (False, True), (True, False), (False, False)}


def three_pass_pq_tensor(tensor, p, q):
    """star(g^m R^q) / m!, m = n-2q-p, by the route pq_curvature_tensor
    folded: g^m by mul_g_power, then the star, then a separate scale."""
    m = tensor.n - 2 * q - p
    return power(tensor, q).form.mul_g_power(m).hodge().scale(Fraction(1, factorial(m)))


def test_pq_curvature_tensor_matches_the_three_pass_route():
    rng = random.Random(28)
    for n in range(2, 8):
        models = list(_fixed_models(n))
        if n >= 3:
            models += [
                ("random_bianchi", CurvatureTensor(random_bianchi(rng, n, 2))) for _ in range(2)
            ]
        for name, model in models:
            for q in range(1, n // 2 + 1):
                for p in range(0, n - 2 * q + 1):
                    folded = pq_curvature_tensor(model, p, q)
                    assert folded == three_pass_pq_tensor(model, p, q), (n, name, p, q)
                    assert (folded.n, folded.p, folded.q) == (n, p, p)


# -- has_constant_sectional reads the cells ------------------------------------


def three_pass_constant_sectional(form, p):
    """The constant c with w = c g^p/p!, or None, by building g^p/p! (a
    scalar, mul_g_power, scale) and comparing whole forms: the route
    has_constant_sectional's cell test replaced."""
    model = make_scalar(form.n, 1).mul_g_power(p).scale(Fraction(1, factorial(p)))
    first = (1 << p) - 1
    candidate = form.cell(first, first)
    return candidate if form == candidate * model else None


@st.composite
def near_constant_sectional_forms(draw):
    """c g^p/p! at n <= 5, 0 <= p <= n, c zero or a random fraction (so den
    is often not 1), then one of: unchanged, a diagonal cell missing, an
    off-diagonal cell added, one diagonal value changed, or every cell
    redrawn."""
    n = draw(st.integers(1, 5))
    p = draw(st.integers(0, n))
    size = comb(n, p)
    value = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    c = draw(st.one_of(st.just(Fraction(0)), value))
    rows = [[c if i == j else Fraction(0) for j in range(size)] for i in range(size)]
    i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
    change = draw(st.sampled_from(["none", "missing", "extra", "unequal", "redrawn"]))
    if change == "missing":
        rows[i][i] = Fraction(0)
    elif change == "extra" and i != j:
        rows[i][j] = draw(value.filter(bool))
    elif change == "unequal":
        rows[i][i] = c + draw(value.filter(bool))
    elif change == "redrawn":
        rows = [[draw(st.one_of(st.just(Fraction(0)), value)) for _ in row] for row in rows]
    return DoubleForm(n, p, p, rows), p


@settings(max_examples=300, deadline=None)
@given(near_constant_sectional_forms())
def test_constant_sectional_cell_test_matches_the_three_pass_route(case):
    form, p = case
    got = has_constant_sectional(form, p)
    expected = three_pass_constant_sectional(form, p)
    assert got == expected and (got is None) == (expected is None), (form.n, p, form.cells)


def test_constant_sectional_cell_test_edge_cases():
    # the zero form, p = 0 and p = n (one diagonal cell), den != 1, and a
    # row whose one cell is off the diagonal
    for n in (1, 3, 4):
        for p in (0, n):
            for c in (0, 3, Fraction(-5, 6)):
                form = make_scalar(n, c).mul_g_power(p).scale(Fraction(1, factorial(p)))
                assert has_constant_sectional(form, p) == c
                assert three_pass_constant_sectional(form, p) == c
    model = make_scalar(4, Fraction(2, 3)).mul_g_power(2).scale(Fraction(1, 2))
    assert model.den == 3 and has_constant_sectional(model, 2) == Fraction(2, 3)
    shifted = DoubleForm(3, 1, 1, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert has_constant_sectional(shifted, 1) is None
    assert three_pass_constant_sectional(shifted, 1) is None
    swapped = DoubleForm(3, 1, 1, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert has_constant_sectional(swapped, 1) is None
    assert three_pass_constant_sectional(swapped, 1) is None


# -- h_{2q} as the trace of one product ------------------------------------------


def reference_trace(x, y):
    """sum_A (x . y)[A, A] through the formed product and c^m; past n both
    clamp to zero forms."""
    m = x.p + y.p
    return x.mul(y).contract(m).scalar_value() / factorial(m)


def reference_weyl_invariant(tensor, q):
    """h_{2q} from the whole of R^q, one contraction pass."""
    return power(tensor, q).form.contract(2 * q).scalar_value() / factorial(2 * q)


@st.composite
def trace_operands(draw):
    """(x, y) with x . y of square bidegree (m, m).  At n <= 6 both are
    sparse or 60%-dense rational forms, zero forms or y = x; at n = 7, 8 x
    is a dense (p, q)-form with p, q in {2, 3} and y has degree 0, 1 or 2,
    so x has cells with |J - I| past y's degree."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    scale = draw(st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool))
    if draw(st.integers(0, 4)) == 0:
        n = draw(st.sampled_from((7, 8)))
        p, q = draw(st.integers(2, 3)), draw(st.integers(2, 3))
        r = draw(st.integers(max(q - p, 0), 2 - max(p - q, 0)))
        x = dense_rational_form(rng, n, p, q)
        y = random_form(rng, n, r, p + r - q, density=0.3).scale(scale)
        return x, y
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, n + 1))  # m = n + 1: the product is zero
    degrees = st.integers(max(m - n, 0), min(m, n))
    p, q = draw(degrees), draw(degrees)
    r, s = m - p, m - q

    def operand(a, b):
        kind = draw(st.sampled_from(("sparse", "dense", "zero")))
        if kind == "sparse":
            return draw(prime_denominator_forms(n, a, b))
        if kind == "zero":
            return make_zero(n, a, b)
        return random_form(rng, n, a, b, density=0.6).scale(scale)

    x = operand(p, q)
    if (r, s) == (p, q) and draw(st.booleans()):
        return x, x
    return x, operand(r, s)


@settings(max_examples=150, deadline=None)
@given(trace_operands())
def test_trace_of_product_matches_mul_and_contract(operands):
    x, y = operands
    got = trace_of_product(x, y)
    assert type(got) is Fraction
    assert got == reference_trace(x, y)


def test_trace_of_product_refuses_other_bidegrees():
    with pytest.raises(DegreeError, match="square product"):
        trace_of_product(make_zero(4, 2, 1), make_zero(4, 1, 1))
    with pytest.raises(DimensionMismatchError):
        trace_of_product(make_zero(4, 1, 1), make_zero(5, 1, 1))


def weyl_oracle_tensors(rng, n):
    """Every zoo kind of verify and of oracle_models, and the same models
    restricted to the complement of a random coordinate plane."""
    models = model_zoo(n, rng) + oracle_models(rng, n)
    mask = sum(1 << i for i in rng.sample(range(n), rng.randint(1, max(n - 2, 1))))
    return models + [(name + " restricted", _restricted(t, mask)) for name, t in models]


def test_weyl_invariant_matches_the_whole_power():
    rng = random.Random(14)
    for n in range(2, 9):
        for name, tensor in weyl_oracle_tensors(rng, n):
            for q in range(1, n // 2 + 1):
                got = weyl_invariant(tensor, q)
                assert got == reference_weyl_invariant(tensor, q), (n, name, q)
                assert type(got) is Fraction


def test_weyl_invariant_matches_the_whole_power_on_random_bianchi():
    rng = random.Random(15)
    for n in range(2, 9):
        tensor = CurvatureTensor(random_bianchi(rng, n, 2))
        for q in range(1, n // 2 + 1):
            assert weyl_invariant(tensor, q) == reference_weyl_invariant(tensor, q), (n, q)


def test_weyl_invariant_refuses_other_degrees():
    # c^(2q) R^q is a scalar only for R in D^(2,2)
    for p in (1, 3):
        tensor = CurvatureTensor(random_bianchi(random.Random(p), 6, p))
        with pytest.raises(DegreeError, match="weyl_invariant"):
            weyl_invariant(tensor, 1)


def test_weyl_invariant_forms_only_the_larger_half_power(monkeypatch):
    tensor = CurvatureTensor(make_constant_curvature(10, Fraction(2, 3)).form)
    products = []
    mul = DoubleForm.mul

    def counted(self, other):
        products.append((self.p, other.p))
        return mul(self, other)

    monkeypatch.setattr(DoubleForm, "mul", counted)
    for q in range(1, 6):
        products.clear()
        weyl_invariant(tensor, q)
        assert len(products) == (q + 1) // 2 - 1, q
        # no product reaches past R^ceil(q/2), a (2 ceil(q/2))-form
        assert all(left + right <= 2 * ((q + 1) // 2) for left, right in products), q


# -- the walk over R's powers: each power made and certified once ---------------


@pytest.fixture
def certificates(monkeypatch):
    """Counts the Bianchi certificates curvature makes."""
    calls = []
    check = curvature._require_bianchi_symmetric

    def counted(form, who):
        calls.append(form.p)
        check(form, who)

    monkeypatch.setattr(curvature, "_require_bianchi_symmetric", counted)
    return calls


@pytest.fixture
def live_powers(monkeypatch):
    """At each product, how many tensors made since the fixture started are
    still alive: R, made in the test, and the powers the walk's caller holds."""
    made, alive = [], []
    post_init, mul = CurvatureTensor.__post_init__, DoubleForm.mul

    def tracked(self):
        post_init(self)
        made.append(weakref.ref(self))

    def counted(self, other):
        alive.append(sum(ref() is not None for ref in made))
        return mul(self, other)

    monkeypatch.setattr(CurvatureTensor, "__post_init__", tracked)
    monkeypatch.setattr(DoubleForm, "mul", counted)
    return alive


def test_power_certifies_each_power_it_makes_once(certificates):
    tensor = make_constant_curvature(10, Fraction(2, 3))
    tensor.form  # makes R, on this first read
    certificates.clear()  # R's own, when it was made
    assert power(tensor, 1) is tensor
    assert certificates == []
    for exponent in range(2, 6):
        certificates.clear()
        power(tensor, exponent)
        assert certificates == [2 * e for e in range(2, exponent + 1)], exponent


def test_weyl_invariant_certifies_the_powers_up_to_the_larger_half(certificates):
    tensor = CurvatureTensor(make_constant_curvature(10, Fraction(2, 3)).form)
    for q in range(1, 6):
        certificates.clear()
        weyl_invariant(tensor, q)
        assert len(certificates) == (q + 1) // 2 - 1, q


def test_invariant_report_certifies_each_power_once(certificates):
    for n, max_q in ((3, 1), (4, 2), (8, 4), (10, 5)):
        tensor = CurvatureTensor(make_constant_curvature(n, Fraction(-1, 2)).form)
        certificates.clear()
        build_invariant_report(tensor, max_q)
        assert certificates == [2 * q for q in range(2, max_q + 1)], n


def test_invariant_report_holds_one_power_at_a_time(live_powers):
    build_invariant_report(CurvatureTensor(make_constant_curvature(10, 1).form), 5)
    # the product making R^(k+1) sees R and R^k alive, no earlier power
    assert live_powers == [1, 2, 2, 2], live_powers


def test_weyl_invariant_holds_only_its_two_half_powers(live_powers):
    weyl_invariant(CurvatureTensor(make_constant_curvature(14, 1).form), 7)
    # beside R: R^2 is dropped once R^3 = R^floor(7/2) is made, and R^4 is
    # the last power made
    assert live_powers == [1, 2, 2], live_powers


# -- the partner subsets of trace_of_product -------------------------------------


def test_subsets_of_is_combinations_over_the_bits():
    for mask in range(1 << 7):
        bits = [1 << i for i in range(7) if mask >> i & 1]
        for k in range(8):
            expected = tuple(map(sum, combinations(bits, k)))
            assert _subsets_of(mask, k) == expected, (mask, k)
            assert tuple(s for s, _ in _subset_table(k)[mask]) == expected, (mask, k)


def test_trace_of_product_with_a_warm_memo():
    rng = random.Random(18)
    shapes = [(6, (2, 2), (2, 2)), (7, (2, 3), (2, 1)), (7, (1, 1), (3, 3)), (8, (3, 2), (1, 2))]
    operands = [
        (random_form(rng, n, *dx, density=0.5), random_form(rng, n, *dy, density=0.5))
        for n, dx, dy in shapes
    ]
    operands += [(x, x) for x, y in operands if (x.p, x.q) == (y.p, y.q)]
    expected = [reference_trace(x, y) for x, y in operands]
    _subsets_of.cache_clear()
    for round_ in range(3):
        assert [trace_of_product(x, y) for x, y in operands] == expected, round_
    info = _subsets_of.cache_info()
    assert info.hits > 2 * info.misses > 0


# -- the Hodge star's sign memo ---------------------------------------------------


def reference_hodge(w):
    """The per-cell loop hodge ran before its sign memo: two
    complement_sign_mask calls per stored cell."""
    n = w.n
    out = make_zero(n, n - w.p, n - w.q)
    full = (1 << n) - 1
    for mask_i, row in w.cells.items():
        sign_i = complement_sign_mask(n, mask_i)
        out.cells[full ^ mask_i] = {
            full ^ mask_j: value if sign_i == complement_sign_mask(n, mask_j) else -value
            for mask_j, value in row.items()
        }
    out.den = w.den
    return out


def test_complement_parity_matches_complement_sign_mask_and_its_closed_form():
    for n in range(1, 9):
        for k in range(n + 1):
            table = _complement_parity(n, k)
            assert list(table) == list(subset_masks(n, k)), (n, k)
            for mask, odd in table.items():
                assert complement_sign_mask(n, mask) == (-1 if odd else 1), (n, mask)
                # (a, b) in A x A^c with a > b: sum_{a in A} a - C(|A|, 2)
                assert odd == bool(sum(mask_to_indices(mask)) - comb(k, 2) & 1), (n, mask)


def test_hodge_matches_the_per_cell_loop_on_every_bidegree():
    rng = random.Random(24)
    for n in range(1, 7):
        for p in range(n + 1):
            for q in range(n + 1):
                odd = (p + q) * (n - p - q) % 2
                for density in (0.25, 1):
                    w = random_form(rng, n, p, q, density).scale(Fraction(-3, 7))
                    assert w.hodge() == reference_hodge(w), (n, p, q)
                    assert w.hodge().hodge() == (-w if odd else w), (n, p, q)


# -- random_form's draws against the randint loop --------------------------------


def reference_random_form(rng, n, p, q, density=0.25):
    """The loop random_form ran before it drew its own bits: one
    rng.randint(-9, 9) per hit cell."""
    form = make_zero(n, p, q)
    for mask_i in form.row_masks:
        row = {}
        for mask_j in form.col_masks:
            if rng.random() < density:
                value = rng.randint(-9, 9)
                if value:
                    row[mask_j] = value
        if row:
            form.cells[mask_i] = row
    return form


def test_random_form_draws_the_randint_stream():
    # one generator per side runs through every shape, so a draw too many
    # or too few shifts every later form as well as the state
    for seed in range(40):
        rng, oracle = random.Random(seed), random.Random(seed)
        for n in range(1, 7):
            for p in range(n + 1):
                for q in range(n + 1):
                    for density in (0, 0.25, 1):
                        form = random_form(rng, n, p, q, density)
                        assert form == reference_random_form(oracle, n, p, q, density), (
                            seed, n, p, q, density
                        )
                        assert rng.getstate() == oracle.getstate(), (seed, n, p, q, density)
        assert random_form(rng, 5, 2, 2) == reference_random_form(oracle, 5, 2, 2), seed
        assert rng.getstate() == oracle.getstate(), seed


# -- verify's adjointness maps against the all-pairs inner products ------------


def all_pairs_adjointness(rec, n):
    """The exhaustive branch check_adjointness ran before it compared
    coefficient maps: <g e_L, e_R> against <e_L, c e_R> through inner, for
    every pair of basis forms."""
    g = make_g(n)
    for p in range(n):
        for q in range(n):
            rights = []
            for mk in subset_masks(n, p + 1):
                for ml in subset_masks(n, q + 1):
                    right = _from_cells(n, p + 1, q + 1, {(mk, ml): 1}, 1)
                    rights.append((right, right.contract()))
            for mi in subset_masks(n, p):
                for mj in subset_masks(n, q):
                    left = _from_cells(n, p, q, {(mi, mj): 1}, 1)
                    g_left = g.mul(left)
                    for right, c_right in rights:
                        rec.case(
                            f"basis p={p} q={q}",
                            g_left.inner(right) == left.inner(c_right),
                            "<gw,t> != <w,ct>",
                            left=left,
                            right=right,
                        )


def adjointness_results(n):
    """The check's result and the all-pairs oracle's, as dicts."""
    maps, oracle = CheckResult("adjointness"), CheckResult("adjointness")
    check_adjointness(maps, random.Random(0), n, 10)
    all_pairs_adjointness(oracle, n)
    return maps.to_dict(), oracle.to_dict()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adjointness_maps_match_the_all_pairs_inner_products(n):
    maps, oracle = adjointness_results(n)
    assert maps == oracle
    assert maps["failures"] == []


def _negated_contract(original):
    """contract, negated on every basis form e_I (x) e_I: c e_R of such an R
    has a cell for each index of I, so several pairs of a bidegree fail, at
    several L for one R and several R for one L."""
    def contract(self, k=1):
        out = original(self, k)
        if self.den == 1 and len(self.cells) == 1:
            (mask_i, row), = self.cells.items()
            if row == {mask_i: 1}:
                return -out
        return out
    return contract


def _extra_cell_mul(original, basis, extra):
    """mul, with one more cell, extra, in the product of any form by the
    basis form whose one cell is basis."""
    def mul(self, other):
        out = original(self, other)
        if other.den == 1 and other.cells == {basis[0]: {basis[1]: 1}}:
            nums = {(mi, mj): v for mi, row in out.cells.items() for mj, v in row.items()}
            nums[extra] = nums.get(extra, 0) + 1
            out = _from_cells(out.n, out.p, out.q, nums, out.den)
        return out
    return mul


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("mutation", ["contract", "mul"])
def test_adjointness_maps_report_a_broken_kernel_as_the_inner_products_do(
    monkeypatch, n, mutation
):
    # c e_R is negated for every R = (I, I); g e_L for L = ({1}, {0}) gains
    # e_{0,1} (x) e_{0,2}, a cell with no counterpart in c e_{0,1} (x) e_{0,2}
    if mutation == "contract":
        broken = _negated_contract(DoubleForm.contract)
    else:
        broken = _extra_cell_mul(DoubleForm.mul, (0b010, 0b001), (0b011, 0b101))
    monkeypatch.setattr(DoubleForm, mutation, broken)
    maps, oracle = adjointness_results(n)
    assert maps["failures"], mutation
    assert maps == oracle
