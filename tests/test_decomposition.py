"""Orthogonal decomposition, effective components, g-power ranks."""

import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from doubleforms import (
    BianchiRequiredError,
    CellBudgetError,
    DegreeError,
    DoubleForm,
    DoubleFormError,
    EffectiveDecomposition,
    decompose,
    g_power_matrix,
    is_effective,
    make_basis,
    make_g,
    make_scalar,
    make_zero,
    map_rank,
    project_conformal,
    reconstruct,
)
from doubleforms.core import cell_budget, set_cell_budget
from doubleforms.decomposition import _g_power_kernel, divide_g_power
from doubleforms.exterior import _mask_rank_table, subset_masks, wedge_sign_masks
from doubleforms.verify import (
    _bianchi_blocks,
    dim_effective,
    predicted_g_power_rank,
    random_bianchi,
    random_form,
)
from test_fast_path_oracles import operator_rows


def iter_contract(form, times):
    for _ in range(times):
        form = form.contract()
    return form


def test_roundtrip_exhaustive_basis_n4():
    for i in range(6):
        for j in range(6):
            w = make_zero(4, 2, 2)
            w.set_cell(subset_masks(4, 2)[i], subset_masks(4, 2)[j], Fraction(1))
            d = decompose(w)
            assert d.reconstruct() == w
            assert all(is_effective(c) for c in d.components[1:])


def test_roundtrip_random_all_degrees():
    rng = random.Random("roundtrip")
    for n in (4, 5, 6):
        for p in {1, 2, n - 1, n}:
            w = random_form(rng, n, p, p)
            d = decompose(w)
            assert d.reconstruct() == w, (n, p)
            assert all(is_effective(c) for c in d.components[1:])
            assert reconstruct(d) == w


def test_decompose_requires_square_bidegree():
    with pytest.raises(DegreeError):
        decompose(make_zero(4, 2, 1))


def test_pure_metric_part():
    # (lambda/2) g^2 has only the scalar component
    lam = Fraction(3, 2)
    w = make_scalar(4, lam / 2).mul_g_power(2)
    d = decompose(w)
    assert d.components[0].scalar_value() == lam / 2
    assert d.components[1].is_zero()
    assert d.components[2].is_zero()


def test_reconstruct_examples():
    zero = EffectiveDecomposition(
        4, 2, (make_zero(4, 0, 0), make_zero(4, 1, 1), make_zero(4, 2, 2))
    )
    assert zero.reconstruct().is_zero()
    unit = EffectiveDecomposition(
        4, 2, (make_scalar(4, 1), make_zero(4, 1, 1), make_zero(4, 2, 2))
    )
    assert unit.reconstruct() == make_scalar(4, 1).mul_g_power(2)


def test_effective_decomposition_validation():
    with pytest.raises(DegreeError):
        EffectiveDecomposition(4, 2, (make_zero(4, 0, 0), make_zero(4, 2, 2)))
    with pytest.raises(DegreeError):
        EffectiveDecomposition(
            4, 1, (make_zero(4, 0, 0), make_zero(4, 2, 2))
        )


def test_classical_weyl_ricci_scalar_split():
    # independent classical formula for the (2,2) split at n=4
    rng = random.Random("weyl-split")
    n = 4
    g = make_g(n)
    tensor = random_bianchi(rng, n, 2)
    ricci = tensor.contract()
    scalar = ricci.contract().scalar_value()
    traceless = Fraction(1, n - 2) * (ricci - Fraction(scalar, n) * g)
    scalar_part = Fraction(scalar, 2 * n * (n - 1))
    weyl = tensor - g * traceless - make_scalar(n, scalar_part).mul_g_power(2)
    d = decompose(tensor)
    assert d.components[2] == weyl
    assert d.components[1] == traceless
    assert d.components[0].scalar_value() == scalar_part
    assert is_effective(weyl)


def test_effectiveness_predicates():
    assert not is_effective(make_g(4))
    rng = random.Random("effective")
    weyl = decompose(random_bianchi(rng, 4, 2)).components[2]
    assert is_effective(weyl)
    g2 = make_g(4) * make_g(4)
    assert project_conformal(g2).is_zero()


def test_kernel_orthogonal_to_metric_multiples():
    rng = random.Random("orthogonality")
    for n in (4, 5):
        for p in (1, 2):
            w = random_form(rng, n, p, p)
            effective_part = decompose(w).components[p]
            other = random_form(rng, n, p - 1, p - 1)
            assert effective_part.inner(make_g(n) * other) == 0


def test_effective_pairing_scale():
    # <g^a w1, g^a w2> = a! prod_{i<a}(n-2r-i) <w1,w2> on effective degree-r forms
    rng = random.Random("pairing")
    for n in (5, 6):
        for a in (1, 2):
            for r in (1, 2):
                if a + r > n or 2 * r > n:
                    continue
                w1 = decompose(random_form(rng, n, r, r)).components[r]
                w2 = decompose(random_form(rng, n, r, r)).components[r]
                scale = factorial(a)
                for i in range(a):
                    scale *= n - 2 * r - i
                assert w1.mul_g_power(a).inner(w2.mul_g_power(a)) == scale * w1.inner(w2)
    # mixed powers with matching total bidegree pair to zero
    n = 6
    w1 = decompose(random_form(rng, n, 2, 2)).components[2]  # E^2, lifted by g
    w2 = decompose(random_form(rng, n, 1, 1)).components[1]  # E^1, lifted by g^2
    assert w1.mul_g_power(1).inner(w2.mul_g_power(2)) == 0


def test_effective_contraction_law():
    rng = random.Random("eff-contract")
    for n in (4, 5, 6):
        for p in (1, 2):
            if 2 * p > n:
                continue
            w = decompose(random_form(rng, n, p, p)).components[p]
            for k in (1, 2, 3):
                for l in (0, 1, 2, 3):
                    if p + l > n:
                        continue
                    lhs = iter_contract(w.mul_g_power(l), k)
                    if l < k:
                        assert lhs.is_zero(), (n, p, k, l)
                    else:
                        scale = Fraction(factorial(l), factorial(l - k))
                        for j in range(1, k + 1):
                            scale *= n - 2 * p - l + j
                        assert lhs == w.mul_g_power(l - k).scale(scale), (n, p, k, l)


def test_contraction_through_components():
    rng = random.Random("eq-components")
    for n in (4, 5):
        for p in (1, 2):
            w = random_form(rng, n, p, p)
            comps = decompose(w).components
            for k in range(1, p + 1):
                rhs = make_zero(n, p - k, p - k)
                for i in range(k, p + 1):
                    scale = Fraction(factorial(i), factorial(i - k))
                    for j in range(1, k + 1):
                        scale *= n - 2 * p + i + j
                    rhs = rhs + comps[p - i].mul_g_power(i - k).scale(scale)
                assert iter_contract(w, k) == rhs


def test_map_rank_examples():
    assert map_rank(5, 1, 1, 1) == 25  # injective: full source dimension
    assert map_rank(4, 2, 2, 1) == comb(4, 3) ** 2  # onto D^{3,3}
    assert map_rank(3, 1, 1, 1) == 9  # bijective at p+q = n-1


def test_map_rank_matches_prediction():
    for n in (4, 5):
        for p in range(4):
            for q in range(4):
                if p > n or q > n:
                    continue
                for l in range(4):
                    got = map_rank(n, p, q, l)
                    assert got == predicted_g_power_rank(n, p, q, l), (n, p, q, l)
                    # injectivity whenever p+q+l <= n
                    if p + q + l <= n:
                        assert got == comb(n, p) * comb(n, q)
                    if l == 1:
                        # the single-g trichotomy is an exact iff
                        source = comb(n, p) * comb(n, q)
                        target = comb(n, p + 1) * comb(n, q + 1)
                        assert (got == source) == (p + q <= n - 1)
                        assert (got == target) == (p + q >= n - 1)
                        assert (got == source == target) == (p + q == n - 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_g_power_matrix_entries_match_the_wedge_sign_oracle(n):
    # g^k . (e_I (x) e_J) = k! sum_S sign(S,I) sign(S,J) e_{S u I} (x) e_{S u J}
    # over the k-subsets S of range(n) disjoint from I and J
    for p, q, power in itertools.product(range(n + 1), repeat=3):
        matrix = g_power_matrix(n, p, q, power)
        sources = [(mi, mj) for mi in subset_masks(n, p) for mj in subset_masks(n, q)]
        if p + power > n or q + power > n:
            assert matrix == [[0] * len(sources)], (n, p, q, power)
            continue
        if power == 0:
            assert matrix == [
                [int(row == col) for col in range(len(sources))] for row in range(len(sources))
            ], (n, p, q)
        cols = comb(n, q + power)
        expected = [[0] * len(sources) for _ in range(comb(n, p + power) * cols)]
        for col, (mask_i, mask_j) in enumerate(sources):
            for subset in itertools.combinations(range(n), power):
                mask_s = sum(1 << s for s in subset)
                if mask_s & (mask_i | mask_j):
                    continue
                row = (
                    _mask_rank_table(n, p + power)[mask_s | mask_i] * cols
                    + _mask_rank_table(n, q + power)[mask_s | mask_j]
                )
                expected[row][col] = (
                    factorial(power)
                    * wedge_sign_masks(mask_s, mask_i)
                    * wedge_sign_masks(mask_s, mask_j)
                )
        assert matrix == expected, (n, p, q, power)


def test_dense_matrices_are_refused_past_the_cell_budget():
    # the dense g_power_matrix and the dense oracle operator_rows count a
    # whole matrix; map_rank's and the Bianchi projector's keyed blocks count
    # each block, and a refusal names the block by its key (the Bianchi
    # blocks are built uncached, as bianchi_projector builds them)
    previous = cell_budget()
    try:
        set_cell_budget(1000)
        with pytest.raises(CellBudgetError, match="the 25x100 matrix of g\\^2 on D\\^\\(2,2\\) at n=5"):
            g_power_matrix(5, 2, 2, 2)
        with pytest.raises(CellBudgetError, match="the 50x100 matrix"):
            operator_rows(5, 2, 2, lambda w: w.bianchi_sum())
        assert len(g_power_matrix(4, 2, 2, 1)) == 16  # 16 x 36 = 576 cells
        assert map_rank(5, 2, 2, 2) == 25  # no block of g^2 on D^(2,2) at n=5 passes 50 cells
        with pytest.raises(
            CellBudgetError,
            match=r"refusing 4536 cells for the 126x36 block \(0, 0\) of g\^2 on D\^\(2,2\) at n=9, "
            r"keyed by \(I - J, J - I\)",
        ):
            map_rank(9, 2, 2, 2)
        set_cell_budget(100)
        assert list(_bianchi_blocks(5, 2))  # its largest blocks have 4x6 cells
        with pytest.raises(
            CellBudgetError,
            match=r"refusing 300 cells for the 15x20 block \(0, 63\) of the Bianchi sum on "
            r"D\^\(3,3\) at n=6, keyed by \(I & J, I \| J\)",
        ):
            list(_bianchi_blocks(6, 3))
    finally:
        set_cell_budget(previous)


def test_metric_power_kernel_contractions():
    # g^l w = 0 with l+p+q < n+1+k forces c^k w = 0
    for n, p, q, l in ((4, 2, 2, 1), (4, 1, 1, 3), (5, 2, 2, 2), (4, 2, 1, 2)):
        kernel = list(_g_power_kernel(n, p, q, l))
        assert kernel, (n, p, q, l)
        k_min = l + p + q - n
        for w in kernel[:4]:
            assert w.mul_g_power(l).is_zero()
            assert iter_contract(w, k_min).is_zero()


def test_forced_division_path():
    # 2p > n: the unique g-power division agrees with reconstruction
    rng = random.Random("division")
    for n, p in ((4, 3), (5, 3), (5, 4), (4, 4)):
        w = random_form(rng, n, p, p)
        d = decompose(w)
        assert d.reconstruct() == w
        for k, comp in enumerate(d.components):
            if k > n - p:
                assert comp.is_zero(), (n, p, k)
    quotient = divide_g_power(make_scalar(4, 1).mul_g_power(3), 2)
    assert quotient == make_g(4)


def test_divide_g_power_rejects_indivisible():
    rng = random.Random("indivisible")
    weyl = decompose(random_bianchi(rng, 4, 2)).components[2]
    assert not weyl.is_zero()
    with pytest.raises(DoubleFormError):
        divide_g_power(weyl, 1)


def test_division_precondition_errors():
    with pytest.raises(DegreeError):
        divide_g_power(make_g(4), 2)
