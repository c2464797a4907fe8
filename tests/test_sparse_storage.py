"""The sparse cell map behind DoubleForm.

A form stores only its nonzero coefficients, as integer numerators
mask_I -> {mask_J -> int} over one positive denominator den, with no stored
zero, no empty row, gcd(den, every numerator) == 1 and den == 1 for the
zero form, so equality of forms is equality of maps and denominators.
These properties check that invariant on every construction route (dense
rows, set_cell, JSON, each kernel, hodge, transpose, the product
embedding), that two routes to the same form compare equal, and check
exact cancellation in the kernels, symmetry and output order.
"""

from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleforms import DoubleForm, DoubleFormError, make_basis, make_g, make_zero
from doubleforms.core import _flatten, _unflatten, g_power_sum
from doubleforms.curvature import _embed
from doubleforms.exterior import _mask_rank_table, subset_masks
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


def assert_normalized(w):
    """Nonzero int numerators, no empty row, den >= 1 coprime to them all
    (so den == 1 for the zero form)."""
    assert type(w.den) is int and w.den >= 1
    for mask_i, row in w.cells.items():
        assert row, f"empty row {mask_i:b}"
        assert all(type(v) is int and v for v in row.values()), f"bad numerator in row {mask_i:b}"
    assert gcd(w.den, *(v for row in w.cells.values() for v in row.values())) == 1


def _dense_rows(w):
    flat = _flatten(w)
    cols = comb(w.n, w.q)
    return [flat[at:at + cols] for at in range(0, len(flat), cols)]


@settings(max_examples=100, deadline=None)
@given(small_forms())
def test_dense_layouts_round_trip(w):
    assert_normalized(w)
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
@given(small_forms(), small_forms(), st.sampled_from([Fraction(-3, 2), Fraction(5, 4), 6]))
def test_every_kernel_keeps_the_map_free_of_zeros(w, v, s):
    n, p, q = w.n, w.p, w.q
    shifted = _embed(w, n + 3, 2)
    results = [
        w.contract(),
        w.hodge(),
        w.bianchi_sum(),
        w.transpose(),
        w.mul_g_power(2),
        w.scale(s),
        g_power_sum(n, p, q, [(s, 0, w), (Fraction(1, 3), 0, w)]),
        shifted,
    ]
    if n == v.n:
        results.append(w.mul(v))
        if (p, q) == (v.p, v.q):
            results += [w + v, w - v]
    for result in results:
        assert_normalized(result)
    # the same form by two routes
    sign = -1 if (p + q) * (n - p - q) % 2 else 1
    assert w.hodge().hodge() == w.scale(sign)
    assert w.transpose().transpose() == w
    assert g_power_sum(n, p, q, [(s, 0, w), (Fraction(1, 3), 0, w)]) == w.scale(s + Fraction(1, 3))
    if p < n and q < n:
        assert w.mul_g_power(1) == make_g(n).mul(w)
    scaled_rows = [[s * value for value in row] for row in _dense_rows(w)]
    assert w.scale(s) == DoubleForm(n, p, q, scaled_rows)
    by_cells = make_zero(n + 3, p, q)
    for mask_i, mask_j, value in w.entries():
        by_cells.set_cell(mask_i << 2, mask_j << 2, value)
    assert shifted == by_cells


@settings(max_examples=100, deadline=None)
@given(small_forms(), st.data())
def test_build_routes_store_reduced_numerators_and_agree(w, data):
    n, p, q = w.n, w.p, w.q
    assert_normalized(w)  # dense rows
    parsed = form_from_dict(form_to_dict(w))
    assert_normalized(parsed)
    assert parsed == w
    built = make_zero(n, p, q)
    for mask_i, mask_j, value in w.entries():
        built.set_cell(mask_i, mask_j, value)
        assert_normalized(built)
    assert built == w
    if w.is_zero():
        return
    # overwrite a cell with another value (zero included), put it back,
    # then remove it; each step against the dense rows of the same values
    mask_i = data.draw(st.sampled_from(sorted(w.cells)))
    mask_j = data.draw(st.sampled_from(sorted(w.cells[mask_i])))
    i = _mask_rank_table(n, p)[mask_i]
    j = _mask_rank_table(n, q)[mask_j]
    rows = _dense_rows(w)
    for value in (data.draw(values), rows[i][j], 0):
        built.set_cell(mask_i, mask_j, value)
        rows[i][j] = value
        assert_normalized(built)
        assert built == DoubleForm(n, p, q, rows)
        assert built.cell(mask_i, mask_j) == value
    assert (built.den == 1) == all(v.denominator == 1 for row in rows for v in map(Fraction, row))


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
    i = _mask_rank_table(w.n, mask_i.bit_count())[mask_i]
    j = _mask_rank_table(w.n, mask_j.bit_count())[mask_j]
    cols = comb(w.n, w.q)
    dense = _flatten(w)
    row_was_single = len(w.cells[mask_i]) == 1
    w.set_cell(mask_i, mask_j, 0)
    dense[i * cols + j] = Fraction(0)
    assert mask_j not in w.cells.get(mask_i, {})
    assert (mask_i in w.cells) != row_was_single
    assert_normalized(w)
    assert _flatten(w) == dense
    rows = [dense[at:at + cols] for at in range(0, len(dense), cols)]
    assert w == DoubleForm(w.n, w.p, w.q, rows)


scalars = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)


def _stored(w):
    return w.n, w.p, w.q, w.den, w.cells


@settings(max_examples=200, deadline=None)
@given(small_forms(), scalars)
def test_scale_is_the_one_term_linear_combination(w, c):
    # scale's one numerator pass against the general kernel it left
    fast = w.scale(c)
    assert _stored(fast) == _stored(g_power_sum(w.n, w.p, w.q, [(c, 0, w)]))
    assert_normalized(fast)
    assert _stored(c * w) == _stored(w * c) == _stored(fast)
    if c:
        assert _stored(w / (1 / Fraction(c))) == _stored(fast)


def test_scale_by_one_is_the_form_and_the_operators_are_scale():
    w = DoubleForm(3, 1, 2, [[Fraction(1, 6), 0, Fraction(-2, 3)], [0, Fraction(5, 4), 1],
                             [Fraction(3, 2), 0, 0]])
    assert w.den == 12
    assert w.scale(1) is w and w.scale(Fraction(1)) is w and 1 * w is w
    assert _stored(-w) == _stored(w.scale(-1)) == _stored(g_power_sum(3, 1, 2, [(-1, 0, w)]))
    # 4/5 shares a factor with den: the gcd reduction still runs
    for c in (Fraction(4, 5), Fraction(-3, 7), 6, 0):
        expected = g_power_sum(3, 1, 2, [(Fraction(c), 0, w)])
        assert _stored(w.scale(c)) == _stored(c * w) == _stored(expected), c
    assert _stored(w / Fraction(5, 4)) == _stored(w.scale(Fraction(4, 5)))
    assert w.scale(Fraction(4, 5)).den == 15
    assert _stored(w.scale(0)) == _stored(make_zero(3, 1, 2))
    for bad in (0.5, "1", None):
        with pytest.raises(DoubleFormError, match="expected an exact rational scalar"):
            w.scale(bad)


def test_entries_follow_lexicographic_order_not_insertion_order():
    # {0,3} (mask 9) precedes {1,2} (mask 6) in lexicographic order
    w = make_zero(4, 2, 2)
    for mask_i in reversed(subset_masks(4, 2)):
        for mask_j in reversed(subset_masks(4, 2)):
            w.set_cell(mask_i, mask_j, mask_i - mask_j or 1)
    ranks = [(_mask_rank_table(4, 2)[i], _mask_rank_table(4, 2)[j]) for i, j, _ in w.entries()]
    assert ranks == sorted(ranks) and len(ranks) == 36
    assert form_from_dict(form_to_dict(w)) == w
