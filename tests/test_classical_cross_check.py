"""Cross-validation against classical index-notation curvature tensors.

Everything here rebuilds the same geometry as plain nested arrays
R[i][j][k][l] with textbook formulas and compares the double-form pipeline
against them entry by entry: the Gauss equation for hypersurfaces, the
Kulkarni-Nomizu product for conformally flat models, Ricci and scalar
contractions, sectional curvatures, and the classical quadratic
Gauss-Bonnet combination (|R|^2 - 4|Ric|^2 + s^2)/4.
"""

import itertools
import random
from fractions import Fraction

from doubleforms import (
    Frame,
    einstein_tensor,
    make_conformally_flat,
    make_g,
    make_hypersurface,
    p_curvature,
    sectional_curvature,
    weyl_invariant,
)
from doubleforms.verify import random_form

F = Fraction


def random_symmetric_matrix(rng, n):
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = F(rng.randint(-3, 3))
    return m


def matrix_to_form(n, m):
    from doubleforms import DoubleForm

    return DoubleForm(n, 1, 1, m)


def gauss_equation_tensor(n, b):
    """R[i][j][k][l] = B_ik B_jl - B_il B_jk."""
    return [
        [
            [[b[i][k] * b[j][l] - b[i][l] * b[j][k] for l in range(n)] for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]


def kulkarni_nomizu_with_metric(n, h):
    """R[i][j][k][l] for g . h: the classical h (x) g wedge combination."""
    delta = lambda a, b: F(1 if a == b else 0)
    return [
        [
            [
                [
                    delta(i, k) * h[j][l]
                    + delta(j, l) * h[i][k]
                    - delta(i, l) * h[j][k]
                    - delta(j, k) * h[i][l]
                    for l in range(n)
                ]
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


def ricci_of(n, r4):
    return [[sum(r4[k][i][k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _check_model_against_index_tensor(model, r4):
    n = model.n
    form = model.form
    # every coefficient matches the index array on increasing pairs
    for i, j in itertools.combinations(range(n), 2):
        for k, l in itertools.combinations(range(n), 2):
            assert form[(i, j), (k, l)] == r4[i][j][k][l], (i, j, k, l)
    # Ricci and scalar contractions
    ricci = ricci_of(n, r4)
    contracted = form.contract()
    for i in range(n):
        for j in range(n):
            assert contracted[(i,), (j,)] == ricci[i][j]
    scalar = sum(ricci[i][i] for i in range(n))
    assert contracted.contract().scalar_value() == scalar
    assert weyl_invariant(model, 1) == F(scalar, 2)
    # classical Einstein tensor s/2 g - Ric
    einstein = einstein_tensor(model, 1)
    g = make_g(n)
    for i in range(n):
        for j in range(n):
            expected = F(scalar, 2) * g[(i,), (j,)] - ricci[i][j]
            assert einstein[(i,), (j,)] == expected
    # sectional curvature of coordinate 2-planes is the diagonal entry
    for i, j in itertools.combinations(range(n), 2):
        plane = Frame.coordinate(n, (i, j))
        assert sectional_curvature(form, plane) == r4[i][j][i][j]
        # and it equals the (n-2)-curvature of the complementary plane
        rest = tuple(sorted(set(range(n)) - {i, j}))
        assert p_curvature(model, n - 2, Frame.coordinate(n, rest)) == r4[i][j][i][j]
    # the quadratic Gauss-Bonnet combination (|R|^2 - 4|Ric|^2 + s^2)/4,
    # with |R|^2 the full four-index sum
    if n >= 4:
        full_r_sq = sum(
            r4[i][j][k][l] ** 2
            for i in range(n)
            for j in range(n)
            for k in range(n)
            for l in range(n)
        )
        full_ric_sq = sum(ricci[i][j] ** 2 for i in range(n) for j in range(n))
        assert weyl_invariant(model, 2) == F(1, 4) * (
            full_r_sq - 4 * full_ric_sq + scalar**2
        )


def test_hypersurface_matches_gauss_equation():
    rng = random.Random("classical-gauss")
    for n in (4, 5):
        b = random_symmetric_matrix(rng, n)
        model = make_hypersurface(matrix_to_form(n, b))
        _check_model_against_index_tensor(model, gauss_equation_tensor(n, b))


def test_conformally_flat_matches_kulkarni_nomizu():
    rng = random.Random("classical-kn")
    for n in (4, 5):
        h = random_symmetric_matrix(rng, n)
        model = make_conformally_flat(matrix_to_form(n, h))
        _check_model_against_index_tensor(model, kulkarni_nomizu_with_metric(n, h))


def test_constant_curvature_matches_space_form():
    # space form: R[i][j][k][l] = lam (d_ik d_jl - d_il d_jk)
    from doubleforms import make_constant_curvature

    lam = F(3, 2)
    n = 4
    model = make_constant_curvature(n, lam)
    delta = lambda a, b: F(1 if a == b else 0)
    r4 = [
        [
            [
                [lam * (delta(i, k) * delta(j, l) - delta(i, l) * delta(j, k)) for l in range(n)]
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    _check_model_against_index_tensor(model, r4)
