"""Fast paths against independent exact oracles.

The closed-form decompose at 2p > n is checked against the solve-based
route (divide_g_power, then decompose of the quotient), and the
single-pass mul_g_power against repeated products by g.
"""

import random
from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from doubleforms import DoubleForm, decompose, make_g, make_zero
from doubleforms.decomposition import divide_g_power


def dense_rational_form(rng, n, p, q):
    """Every cell a random rational, most of them nonzero; not symmetric."""
    form = make_zero(n, p, q)
    for row in form.coeffs:
        for j in range(len(row)):
            row[j] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return form


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
    """Every (n, p) with 2p > n and C(n,p)^2 <= 500, up to n = 10.

    Past n = 10 only p >= n-1 qualifies, and the closed form's contraction
    chain runs through the dense middle degree: about 9 s at n = 12, and
    over the default cell budget from n = 14.
    """
    return [
        (n, p)
        for n in range(1, 11)
        for p in range(n // 2 + 1, n + 1)
        if comb(n, p) ** 2 <= 500
    ]


def test_closed_form_decompose_matches_solve_route():
    rng = random.Random("closed-form-vs-solve")
    for n, p in forced_division_degrees():
        assert_closed_form_matches_solve_route(dense_rational_form(rng, n, p, p))


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
