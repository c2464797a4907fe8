"""Core double-form algebra: product, contraction, inner product, star, Bianchi."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from doubleforms import (
    BasisError,
    CellBudgetError,
    DegreeError,
    DimensionMismatchError,
    DoubleForm,
    IndexSet,
    make_basis,
    make_g,
    make_scalar,
    make_zero,
    set_cell_budget,
)
from doubleforms.core import _flatten, cell_budget
from doubleforms.verify import random_form


def iter_contract(form, times):
    for _ in range(times):
        form = form.contract()
    return form


def test_constructors():
    g = make_g(2)
    assert _flatten(g) == [1, 0, 0, 1]
    assert g == DoubleForm(2, 1, 1, [[1, 0], [0, 1]])
    basis = make_basis(3, (0,), (1,))
    assert basis[(0,), (1,)] == 1
    assert sum(1 for _ in basis.entries()) == 1
    zero = make_zero(4, 2, 2)
    assert _flatten(zero) == [0] * 36 and zero.is_zero()


def test_constructor_errors():
    with pytest.raises(DegreeError):
        make_zero(4, 5, 0)
    with pytest.raises(DegreeError):
        make_zero(4, -1, 0)
    with pytest.raises(DegreeError):
        make_zero(0, 0, 0)
    with pytest.raises(DegreeError):
        make_zero(17, 1, 1)


def test_bool_indices_are_refused():
    # bool is an int subclass; True must not pass for the index 1
    with pytest.raises(BasisError, match="indices must be integers"):
        IndexSet.from_indices(4, (False, True))
    with pytest.raises(BasisError):
        make_basis(4, (True,), (0,))
    with pytest.raises(BasisError):
        make_basis(4, (0,), (False,))
    form = make_basis(4, (1,), (0,))
    with pytest.raises(BasisError):
        form[(True,), (0,)]
    with pytest.raises(BasisError):
        form[(1,), (False,)]
    assert form[(1,), (0,)] == 1


def test_bool_dimensions_and_masks_are_refused():
    # True == 1 and hashes like it, so build the n = 1 cache entries first:
    # the refusal must not depend on the lru_cached subset tables
    assert make_zero(1, 1, 1).row_masks == (1,)
    assert IndexSet(1, 1).indices == (0,)
    with pytest.raises(BasisError, match="out of range"):
        IndexSet(4, True)
    with pytest.raises(BasisError, match="out of range"):
        IndexSet(4, False)
    with pytest.raises(BasisError, match="ambient dimension"):
        IndexSet(True, 0)
    with pytest.raises(DegreeError, match="ambient dimension"):
        make_zero(True, 1, 1)
    with pytest.raises(DegreeError, match="ambient dimension"):
        make_g(True)


def test_bool_bidegrees_are_refused():
    # a form with p = True would be written as "p": true, which no reader takes
    for p, q in ((True, 1), (1, True), (False, 0), (0, False)):
        with pytest.raises(DegreeError, match="bidegree"):
            make_zero(4, p, q)
    assert make_zero(4, 1, 0).p == 1


class Count(int):
    """An int subclass that is not bool: the constructor accepts it."""


def test_constructor_checks_past_the_plain_int_test():
    # plain ints in range pass one test; everything else takes the full
    # checks, which accept an int subclass and refuse the rest as before
    form = DoubleForm(Count(4), Count(2), Count(1), [[1] * 4 for _ in range(6)])
    assert (form.n, form.p, form.q) == (4, 2, 1)
    assert form == DoubleForm(4, 2, 1, [[1] * 4 for _ in range(6)])
    assert DoubleForm(4, Count(0), 3) == make_zero(4, 0, 3)
    refusals = [
        ((True, 1, 1), "ambient dimension must be an integer in [1, 16], got True"),
        ((0, 0, 0), "ambient dimension must be an integer in [1, 16], got 0"),
        ((17, 1, 1), "ambient dimension must be an integer in [1, 16], got 17"),
        ((4.0, 1, 1), "ambient dimension must be an integer in [1, 16], got 4.0"),
        (("4", 1, 1), "ambient dimension must be an integer in [1, 16], got '4'"),
        ((Count(17), 1, 1), "ambient dimension must be an integer in [1, 16], got 17"),
        ((4, True, 1), "bidegree (True, 1) out of range for n=4"),
        ((4, 1, False), "bidegree (1, False) out of range for n=4"),
        ((4, 5, 0), "bidegree (5, 0) out of range for n=4"),
        ((4, 0, -1), "bidegree (0, -1) out of range for n=4"),
        ((4, 1.0, 1), "bidegree (1.0, 1) out of range for n=4"),
        ((4, None, 1), "bidegree (None, 1) out of range for n=4"),
        ((4, Count(5), 1), "bidegree (5, 1) out of range for n=4"),
    ]
    for (n, p, q), message in refusals:
        with pytest.raises(DegreeError) as caught:
            DoubleForm(n, p, q)
        assert str(caught.value) == message, (n, p, q)


def test_contract_count():
    w = random_form(random.Random(5), 5, 3, 2, density=0.6)
    assert w.contract(0) is w
    assert w.contract(1) == w.contract()
    assert w.contract(2) == w.contract().contract()
    for k in (3, 4):  # past min(p, q): the zero form of the clamped degree
        over = w.contract(k)
        assert (over.p, over.q, over.den) == (max(3 - k, 0), 0, 1) and over.is_zero()
    for bad in (-1, True, 1.0, "1"):
        with pytest.raises(DegreeError, match="contraction count"):
            w.contract(bad)


def test_cell_budget():
    previous = cell_budget()
    try:
        set_cell_budget(10)
        with pytest.raises(CellBudgetError):
            make_g(6).mul_g_power(1)  # 15 stored cells
        make_zero(6, 1, 0)  # 6 cells, still allowed
    finally:
        set_cell_budget(previous)


def test_cell_budget_counts_stored_cells():
    previous = cell_budget()
    try:
        set_cell_budget(10)
        assert make_zero(6, 2, 2).is_zero()  # 225 dense cells, none stored
        with pytest.raises(CellBudgetError, match=r"refusing 15 cells for D\^\(2,2\) at n=6"):
            make_g(6).mul(make_g(6))
        rows = [[int(i == j < 10) for j in range(15)] for i in range(15)]
        assert sum(1 for _ in DoubleForm(6, 2, 2, rows).entries()) == 10
        rows[10][10] = 1
        with pytest.raises(CellBudgetError):
            DoubleForm(6, 2, 2, rows)
    finally:
        set_cell_budget(previous)


def test_linear_structure():
    g = make_g(3)
    assert g + g == 2 * g
    assert (0 * g).is_zero()
    assert g - g == make_zero(3, 1, 1)
    assert -g == Fraction(-1) * g
    assert g / 2 == Fraction(1, 2) * g
    half_g2 = Fraction(1, 2) * (make_g(3) * make_g(3))
    assert half_g2 == make_scalar(3, Fraction(1, 2)).mul_g_power(2)
    with pytest.raises(DimensionMismatchError):
        g + make_zero(3, 2, 2)
    with pytest.raises(DimensionMismatchError):
        g + make_g(4)


def test_product_worked_example_n2():
    # (g.g)(e_0^e_1, e_0^e_1) = 2! det(identity) = 2
    g = make_g(2)
    assert (g * g)[(0, 1), (0, 1)] == 2


def test_product_of_basis_elements():
    left = make_basis(2, (0,), (0,))
    right = make_basis(2, (1,), (1,))
    assert left * right == make_basis(2, (0, 1), (0, 1))


def test_product_degree_overflow_clamps_to_zero():
    g = make_g(2)
    product = (g * g) * g
    assert product.is_zero()
    assert (product.p, product.q) == (2, 2)


def test_graded_commutativity_and_associativity():
    rng = random.Random("core-laws")
    n = 5
    for p, q, r, s in ((1, 1, 1, 1), (2, 1, 1, 2), (0, 1, 1, 0), (2, 2, 2, 2), (2, 0, 0, 2)):
        a = random_form(rng, n, p, q)
        b = random_form(rng, n, r, s)
        assert a * b == (-1) ** (p * r + q * s) * (b * a)
    for _ in range(5):
        a = random_form(rng, n, 1, 1)
        b = random_form(rng, n, 1, 1)
        c = random_form(rng, n, 2, 1)
        assert (a * b) * c == a * (b * c)


def test_contract_examples():
    assert make_g(5).contract().scalar_value() == 5
    for n in (3, 4, 6):
        g = make_g(n)
        assert (g * g).contract() == (2 * n - 2) * g
    # direct definition sum on a decomposable element
    w = make_basis(4, (0, 1), (0, 1))
    assert w.contract() == make_basis(4, (0,), (0,)) + make_basis(4, (1,), (1,))
    assert make_scalar(3, 7).contract().is_zero()


def test_metric_commutator_identity():
    rng = random.Random("eq5")
    for n in (4, 5):
        g = make_g(n)
        for p, q in ((1, 1), (2, 1), (2, 2), (3, 1)):
            w = random_form(rng, n, p, q)
            assert (g * w).contract() == g * w.contract() + (n - p - q) * w


def test_iterated_contraction_closed_form():
    # c^k(g^l/l! w) in terms of lower contractions, all k,l <= 3, n <= 6
    rng = random.Random("ck-gl")
    for n in (4, 5, 6):
        for p, q in ((1, 1), (2, 1), (2, 2)):
            w = random_form(rng, n, p, q)
            for k in range(1, 4):
                for l in range(1, 4):
                    if p + l > n or q + l > n or k > min(p, q) + l:
                        continue
                    lhs = iter_contract(
                        w.mul_g_power(l).scale(Fraction(1, factorial(l))), k
                    )
                    rhs = make_zero(n, p + l - k, q + l - k)
                    for r in range(0, min(k, l) + 1):
                        cm = iter_contract(w, k - r)
                        if r == 0:
                            term = cm.mul_g_power(l).scale(Fraction(1, factorial(l)))
                        else:
                            prod = 1
                            for i in range(r):
                                prod *= n - p - q + k - l - i
                            term = cm.mul_g_power(l - r).scale(
                                Fraction(comb(k, r) * prod, factorial(l - r))
                            )
                        if (term.p, term.q) == (rhs.p, rhs.q):
                            rhs = rhs + term
                        else:
                            assert term.is_zero()
                    assert lhs == rhs, (n, p, q, k, l)


def test_contraction_commutes_with_g_power_at_full_degree():
    rng = random.Random("ckgk")
    for n in (4, 6):
        p = n // 2
        w = random_form(rng, n, p, n - p)
        for k in (1, 2):
            assert iter_contract(w.mul_g_power(k), k) == iter_contract(w, k).mul_g_power(k)


def test_inner_product():
    for n in (3, 4, 5):
        g = make_g(n)
        assert g.inner(g) == n
        g2 = g * g
        assert g2.inner(g2) == 2 * n * (n - 1)
    assert (make_g(4) * make_g(4)).inner(make_g(4) * make_g(4)) == 24
    # cross-bidegree orthogonality and errors
    assert make_g(4).inner(make_zero(4, 2, 2)) == 0
    with pytest.raises(DimensionMismatchError):
        make_g(4).inner(make_g(5))
    # positivity
    rng = random.Random("norm")
    w = random_form(rng, 5, 2, 1)
    assert w.norm_sq() >= 0
    assert (w.norm_sq() == 0) == w.is_zero()


def test_adjointness_exhaustive_small_and_random():
    from doubleforms.exterior import mask_to_indices, subset_masks

    n = 3
    g = make_g(n)
    for p in range(n):
        for q in range(n):
            for mi in subset_masks(n, p):
                for mj in subset_masks(n, q):
                    left = make_basis(n, mask_to_indices(mi), mask_to_indices(mj))
                    for mk in subset_masks(n, p + 1):
                        for ml in subset_masks(n, q + 1):
                            right = make_basis(n, mask_to_indices(mk), mask_to_indices(ml))
                            assert (g * left).inner(right) == left.inner(right.contract())
    rng = random.Random("adjoint")
    for n in (5, 6):
        g = make_g(n)
        for p, q in ((1, 1), (2, 2), (2, 1), (0, 3)):
            a = random_form(rng, n, p, q)
            b = random_form(rng, n, p + 1, q + 1)
            assert (g * a).inner(b) == a.inner(b.contract())


def test_hodge_star_laws():
    rng = random.Random("hodge")
    for n in (4, 5):
        for p in range(n + 1):
            for q in range(n + 1):
                w = random_form(rng, n, p, q)
                double_sign = -1 if ((p + q) * (n - p - q)) % 2 else 1
                assert w.hodge().hodge() == double_sign * w
                # inner product through the star (top-form coefficient)
                t = random_form(rng, n, p, q)
                assert w.inner(t) == w.mul(t.hodge()).hodge().scalar_value()
                # star shifts across the pairing with the double-star sign
                other = random_form(rng, n, n - p, n - q)
                sign = -1 if ((p + q) * (n - p - q)) % 2 else 1
                assert w.inner(other.hodge()) == sign * w.hodge().inner(other)


def test_metric_contraction_duality():
    # gw = (-1)^(n(p+q)) *c*w; verbatim on even-total bidegrees
    rng = random.Random("duality")
    for n in (3, 4, 5, 6):
        g = make_g(n)
        for p in range(n + 1):
            for q in range(n + 1):
                w = random_form(rng, n, p, q)
                lhs = g * w
                rhs = w.hodge().contract().hodge()
                sign = -1 if (n * (p + q)) % 2 else 1
                if (lhs.p, lhs.q) == (rhs.p, rhs.q):
                    assert lhs == sign * rhs
                    if (p + q) % 2 == 0:
                        assert lhs == rhs
                else:
                    assert lhs.is_zero() and rhs.is_zero()


def test_hodge_of_metric_powers():
    for n in (3, 4, 5, 6):
        one = make_scalar(n, 1)
        for k in range(n + 1):
            lhs = one.mul_g_power(k).scale(Fraction(1, factorial(k))).hodge()
            rhs = one.mul_g_power(n - k).scale(Fraction(1, factorial(n - k)))
            assert lhs == rhs
    # *1 is the volume (x) volume element
    top = make_scalar(3, 1).hodge()
    assert top == make_basis(3, (0, 1, 2), (0, 1, 2))


def test_transpose_and_symmetry():
    assert make_basis(3, (0,), (1,)).transpose() == make_basis(3, (1,), (0,))
    assert (make_g(4) * make_g(4)).is_symmetric()
    w = make_basis(3, (0,), (1,))
    assert not w.is_symmetric()
    with pytest.raises(DegreeError):
        make_zero(3, 2, 1).is_symmetric()
    rect = make_basis(4, (0, 1), (2,)).transpose()
    assert (rect.p, rect.q) == (1, 2)


def test_bianchi_sum_examples():
    assert make_basis(4, (0,), (1,)).bianchi_sum() == make_basis(4, (0, 1), ())
    assert make_g(4).bianchi_sum().is_zero()
    g2 = make_g(4) * make_g(4)
    assert g2.bianchi_sum().is_zero()
    scalar_left = make_basis(3, (0, 1), ())
    assert scalar_left.bianchi_sum().is_zero()  # q = 0 clamps to zero


def test_bianchi_sum_matches_definition():
    # independent oracle: evaluate the alternating definition via the
    # multilinear form interface on all output basis tuples
    import itertools

    rng = random.Random("bianchi-oracle")
    n = 4
    basis = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for p, q in ((1, 1), (2, 1), (1, 2), (2, 2)):
        w = random_form(rng, n, p, q)
        result = w.bianchi_sum()
        for rows in itertools.combinations(range(n), p + 1):
            for cols in itertools.combinations(range(n), q - 1):
                expected = Fraction(0)
                for j, removed in enumerate(rows, start=1):
                    kept = [basis[r] for r in rows if r != removed]
                    expected += (-1) ** j * w.evaluate(
                        kept, [basis[removed]] + [basis[c] for c in cols]
                    )
                assert result[rows, cols] == expected, (p, q, rows, cols)


def test_bianchi_leibniz_and_kernel_closure():
    rng = random.Random("leibniz")
    n = 5
    for (p, q), (r, s) in (((1, 1), (1, 1)), ((2, 1), (1, 1)), ((2, 2), (1, 1))):
        a = random_form(rng, n, p, q)
        b = random_form(rng, n, r, s)
        lhs = (a * b).bianchi_sum()
        rhs = a.bianchi_sum() * b + (-1) ** (p + q) * (a * b.bianchi_sum())
        assert lhs == rhs
    from doubleforms.verify import random_bianchi, random_symmetric

    a = random_bianchi(rng, 5, 2)
    b = random_symmetric(rng, 5, 1)
    assert (a * b).bianchi_sum().is_zero()


def test_operations_do_not_mutate_inputs():
    rng = random.Random("immutability")
    w = random_form(rng, 4, 2, 2)
    snapshot = _flatten(w)
    g = make_g(4)
    (g * w).contract()
    w.hodge()
    w.bianchi_sum()
    w + w
    2 * w
    w.transpose()
    assert _flatten(w) == snapshot
