"""The sparse cell map behind DoubleForm.

A form stores only its nonzero coefficients, mask_I -> {mask_J -> value},
with no stored zero and no empty row, so equality of forms is equality of
maps.  These properties check that invariant through the dense layouts
(rows given to the constructor, the flattened array), exact cancellation
in the kernels, symmetry and output order.
"""

from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from doubleforms import DoubleForm, make_basis, make_zero
from doubleforms.core import _flatten, _unflatten
from doubleforms.exterior import mask_rank, subset_masks
from doubleforms.serialize import form_from_dict, form_to_dict

values = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)


@st.composite
def small_forms(draw, p=None, q=None):
    """Forms at n <= 5 with about half of their cells zero."""
    n = draw(st.integers(1, 5))
    p = draw(st.integers(0, n)) if p is None else p
    q = draw(st.integers(0, n)) if q is None else q
    row = st.lists(values, min_size=comb(n, q), max_size=comb(n, q))
    return DoubleForm(n, p, q, draw(st.lists(row, min_size=comb(n, p), max_size=comb(n, p))))


def assert_no_stored_zero(w):
    for mask_i, row in w.cells.items():
        assert row, f"empty row {mask_i:b}"
        assert all(row.values()), f"stored zero in row {mask_i:b}"


@settings(max_examples=100, deadline=None)
@given(small_forms())
def test_dense_layouts_round_trip(w):
    assert_no_stored_zero(w)
    flat = _flatten(w)
    assert len(flat) == comb(w.n, w.p) * comb(w.n, w.q)
    again = _unflatten(w.n, w.p, w.q, flat)
    assert again == w
    assert again.cells == w.cells
    cols = comb(w.n, w.q)
    rows = [flat[at:at + cols] for at in range(0, len(flat), cols)]
    assert all(
        w.cell(mask_i, mask_j) == value
        for mask_i, row in zip(subset_masks(w.n, w.p), rows)
        for mask_j, value in zip(subset_masks(w.n, w.q), row)
    )


@settings(max_examples=100, deadline=None)
@given(small_forms())
def test_exact_cancellation_is_the_zero_form(w):
    zero = make_zero(w.n, w.p, w.q)
    for cancelled in (w - w, w + (-w), w.scale(0)):
        assert cancelled == zero
        assert cancelled.is_zero()
        assert cancelled.cells == {}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_products_that_cancel_store_nothing(data):
    # w.w = (-1)^(p+q) w.w, so it vanishes for odd p + q, cell by cell
    w = data.draw(small_forms())
    if (w.p + w.q) % 2 == 0:
        w = make_basis(w.n, (0,), ()).mul(w)
    square = w.mul(w)
    assert square.is_zero()
    assert square == make_zero(w.n, min(2 * w.p, w.n), min(2 * w.q, w.n))
    # h.h/2 for symmetric h is a curvature tensor: its Bianchi sum cancels
    h = data.draw(small_forms(p=1, q=1))
    h = h + h.transpose()
    bianchi = h.mul(h).bianchi_sum()
    assert bianchi.is_zero()
    assert bianchi == make_zero(h.n, bianchi.p, bianchi.q)
    assert bianchi.cells == {}


@settings(max_examples=100, deadline=None)
@given(small_forms(), small_forms())
def test_every_kernel_keeps_the_map_free_of_zeros(w, v):
    results = [
        w.contract(),
        w.hodge(),
        w.bianchi_sum(),
        w.transpose(),
        w.mul_g_power(2),
        w.scale(Fraction(-3, 2)),
    ]
    if w.n == v.n:
        results.append(w.mul(v))
        if (w.p, w.q) == (v.p, v.q):
            results += [w + v, w - v]
    for result in results:
        assert_no_stored_zero(result)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_cell_without_its_mirror_is_not_symmetric(data):
    n = data.draw(st.integers(2, 5))
    p = data.draw(st.integers(1, n - 1))
    mask_i, mask_j = data.draw(
        st.lists(st.sampled_from(subset_masks(n, p)), min_size=2, max_size=2, unique=True)
    )
    value = data.draw(values.filter(bool))
    w = make_zero(n, p, p)
    w.set_cell(mask_i, mask_j, value)
    assert not w.is_symmetric()
    w.set_cell(mask_j, mask_i, value + 1)
    assert not w.is_symmetric()
    w.set_cell(mask_j, mask_i, value)
    assert w.is_symmetric()


@settings(max_examples=100, deadline=None)
@given(small_forms(), st.data())
def test_writing_zero_removes_the_cell(w, data):
    if w.is_zero():
        return
    mask_i = data.draw(st.sampled_from(sorted(w.cells)))
    mask_j = data.draw(st.sampled_from(sorted(w.cells[mask_i])))
    i, j = mask_rank(w.n, mask_i), mask_rank(w.n, mask_j)
    cols = comb(w.n, w.q)
    dense = _flatten(w)
    row_was_single = len(w.cells[mask_i]) == 1
    w.set_cell(mask_i, mask_j, 0)
    dense[i * cols + j] = Fraction(0)
    assert mask_j not in w.cells.get(mask_i, {})
    assert (mask_i in w.cells) != row_was_single
    assert_no_stored_zero(w)
    assert _flatten(w) == dense
    rows = [dense[at:at + cols] for at in range(0, len(dense), cols)]
    assert w == DoubleForm(w.n, w.p, w.q, rows)


def test_entries_follow_lexicographic_order_not_insertion_order():
    # {0,3} (mask 9) precedes {1,2} (mask 6) in lexicographic order
    w = make_zero(4, 2, 2)
    for mask_i in reversed(subset_masks(4, 2)):
        for mask_j in reversed(subset_masks(4, 2)):
            w.set_cell(mask_i, mask_j, mask_i - mask_j or 1)
    ranks = [(mask_rank(4, i), mask_rank(4, j)) for i, j, _ in w.entries()]
    assert ranks == sorted(ranks) and len(ranks) == 36
    assert form_from_dict(form_to_dict(w)) == w
