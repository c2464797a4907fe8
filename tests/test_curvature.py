"""Curvature models, (p,q)-curvatures, invariants, and predicates."""

import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from doubleforms import (
    CurvatureTensor,
    DegreeError,
    DoubleFormError,
    Frame,
    FrameError,
    build_invariant_report,
    decompose,
    einstein_tensor,
    has_constant_sectional,
    is_conformally_flat_algebraic,
    is_einstein,
    make_basis,
    make_conformally_flat,
    make_constant_curvature,
    make_g,
    make_hypersurface,
    make_product,
    make_scalar,
    make_zero,
    orthogonal_complement,
    p_curvature,
    power,
    pq_curvature_tensor,
    pq_sectional,
    sectional_curvature,
    weyl_invariant,
)
from doubleforms.core import IdentityError
from doubleforms.verify import elementary_symmetric, random_bianchi, random_form

F = Fraction


def diag11(n, values):
    form = make_zero(n, 1, 1)
    for i, v in enumerate(values):
        form.set_cell(1 << i, 1 << i, F(v))
    return form


def unit_sphere(n):
    return make_constant_curvature(n, 1)


def s2xs2():
    return make_product(unit_sphere(2), unit_sphere(2))


def test_model_constructors():
    assert make_constant_curvature(4, 0).form.is_zero()
    with pytest.raises(DegreeError):
        make_constant_curvature(1, 1)
    # unit sphere as a hypersurface with identity shape operator
    assert make_hypersurface(diag11(4, (1, 1, 1, 1))).form == unit_sphere(4).form
    # conformally flat with h = (lambda/2) g recovers constant curvature
    lam = F(2, 3)
    h = make_g(5).scale(lam / 2)
    assert make_conformally_flat(h).form == make_constant_curvature(5, lam).form
    # flat x flat is flat
    both = make_product(make_constant_curvature(2, 0), make_constant_curvature(2, 0))
    assert both.form.is_zero()
    # a vanishing shape operator gives the flat model
    assert make_hypersurface(diag11(4, (0, 0, 0, 0))).form.is_zero()
    with pytest.raises(DoubleFormError):
        make_hypersurface(make_basis(4, (0,), (1,)))
    with pytest.raises(DoubleFormError):
        make_conformally_flat(make_basis(4, (0,), (1,)))
    with pytest.raises(DegreeError):
        make_hypersurface(make_zero(4, 2, 2))
    with pytest.raises(DegreeError):
        make_product(unit_sphere(2), power(unit_sphere(4), 2))


def test_curvature_tensor_invariants():
    from doubleforms import BianchiRequiredError

    with pytest.raises(DoubleFormError):
        CurvatureTensor(make_basis(4, (0, 1), (0, 2)))  # not symmetric
    not_bianchi = make_basis(4, (0, 1), (2, 3)) + make_basis(4, (2, 3), (0, 1))
    with pytest.raises(BianchiRequiredError):
        CurvatureTensor(not_bianchi)


def test_curvature_tensor_refuses_an_asymmetric_form_as_star_bianchi_does():
    from doubleforms import BianchiRequiredError, star_bianchi

    asymmetric = make_basis(4, (0, 1), (0, 2))
    with pytest.raises(BianchiRequiredError, match="star_bianchi needs a symmetric form"):
        star_bianchi(asymmetric, 2)
    with pytest.raises(BianchiRequiredError, match="a curvature tensor needs a symmetric form"):
        CurvatureTensor(asymmetric)


def test_power_closed_forms():
    lam = F(3, 2)
    model = make_constant_curvature(5, lam)
    assert power(model, 1).form == model.form
    assert power(model, 2).form == make_scalar(5, lam**2 / 4).mul_g_power(4)
    shape = diag11(4, (1, 2, -1, 1))
    hyper = make_hypersurface(shape)
    assert power(hyper, 2).form == (shape * shape * shape * shape).scale(F(1, 4))
    with pytest.raises(DegreeError):
        power(model, 0)


def test_worked_numbers_unit_s4():
    model = unit_sphere(4)
    assert weyl_invariant(model, 1) == 6
    assert weyl_invariant(model, 2) == 6
    assert einstein_tensor(model, 1) == 3 * make_g(4)


def test_worked_numbers_hypersurface():
    model = make_hypersurface(diag11(4, (1, 1, 1, 0)))
    assert weyl_invariant(model, 1) == 3
    assert weyl_invariant(model, 2) == 0


def test_worked_numbers_products():
    prod = s2xs2()
    assert weyl_invariant(prod, 1) == 2
    assert weyl_invariant(prod, 2) == 2
    assert einstein_tensor(prod, 2).contract().scalar_value() == 0
    mixed = make_product(unit_sphere(2), make_constant_curvature(2, 0))
    assert weyl_invariant(mixed, 1) == 1
    assert weyl_invariant(mixed, 2) == 0


def test_pq_tensor_structure():
    rng = random.Random("pq-structure")
    model = CurvatureTensor(random_bianchi(rng, 5, 2))
    for q in (1, 2):
        for p in range(0, 5 - 2 * q + 1):
            tensor = pq_curvature_tensor(model, p, q)
            assert (tensor.p, tensor.q) == (p, p)
            if p > 0:
                assert tensor.is_symmetric()
                assert tensor.bianchi_sum().is_zero()
    with pytest.raises(DegreeError):
        pq_curvature_tensor(model, 4, 1)
    with pytest.raises(DegreeError):
        pq_curvature_tensor(model, 0, 3)
    with pytest.raises(DegreeError):
        pq_sectional(model, 0, 1, Frame.coordinate(5, (0,)))


@pytest.mark.parametrize("power", [0, 1, 3])
def test_invariants_of_a_tensor_that_is_not_2_2_are_refused(power):
    tensor = CurvatureTensor(make_scalar(6, 1).mul_g_power(power))
    for invariant in (weyl_invariant, einstein_tensor, build_invariant_report):
        with pytest.raises(DegreeError, match=r"applies to \(2,2\) curvature tensors"):
            invariant(tensor, 1)


def test_constant_curvature_pq_closed_form():
    rng = random.Random("pq-const")
    for n, lam in ((4, F(1)), (5, F(1, 2)), (6, F(-1))):
        model = make_constant_curvature(n, lam)
        for q in range(1, n // 2 + 1):
            for p in range(0, n - 2 * q + 1):
                expected = lam**q * F(factorial(n - p), 2**q * factorial(n - 2 * q - p))
                if p == 0:
                    assert pq_sectional(model, 0, q, None) == expected
                else:
                    tensor = pq_curvature_tensor(model, p, q)
                    frame = Frame.from_vectors(
                        n, [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(p)]
                    ) if rng.random() < 0.5 else Frame.coordinate(n, tuple(range(p)))
                    assert sectional_curvature(tensor, frame) == expected


def test_sectional_curvature_basics():
    # K of g^p/p! is 1 on every plane; frame scaling drops out
    n = 5
    for p in (1, 2, 3):
        model = make_scalar(n, F(1, factorial(p))).mul_g_power(p)
        frame = Frame.coordinate(n, tuple(range(p)))
        assert sectional_curvature(model, frame) == 1
    rng = random.Random("frames")
    w = (lambda f: (f + f.transpose()).scale(F(1, 2)))(random_form(rng, 4, 2, 2))
    base = Frame.from_vectors(4, [[1, 2, 0, 1], [0, 1, -1, 3]])
    scaled = Frame.from_vectors(4, [[3, 6, 0, 3], [0, F(1, 2), F(-1, 2), F(3, 2)]])
    assert sectional_curvature(w, base) == sectional_curvature(w, scaled)
    with pytest.raises(FrameError):
        Frame.from_vectors(4, [[1, 0, 0, 0], [2, 0, 0, 0]])
    with pytest.raises(DegreeError):
        sectional_curvature(w, Frame.coordinate(4, (0,)))


@pytest.mark.parametrize("indices", [(1.0,), (True,), (0, F(2)), ("1",)])
def test_coordinate_frames_refuse_non_integer_indices(indices):
    with pytest.raises(FrameError, match="must be integers"):
        Frame.coordinate(4, indices)


def test_frames_refuse_bool_dimensions():
    Frame.coordinate(1, (0,))  # True == 1: the n = 1 frame must not stand in
    with pytest.raises(FrameError, match="dimension must be an integer"):
        Frame.coordinate(True, (0,))
    with pytest.raises(FrameError, match="dimension must be an integer"):
        Frame.from_vectors(True, [[1]])


def test_metric_trace_formula():
    # (g^p w)(P,P) = p! trace(w | Lambda^r P) on orthonormal coordinate frames
    rng = random.Random("eq19")
    n = 6
    for p, r in ((1, 1), (2, 1), (1, 2), (2, 2)):
        w = (lambda f: (f + f.transpose()).scale(F(1, 2)))(random_form(rng, n, r, r))
        idx = tuple(sorted(rng.sample(range(n), p + r)))
        value = w.mul_g_power(p)[idx, idx]
        trace = sum(w[sub, sub] for sub in itertools.combinations(idx, r))
        assert value == factorial(p) * trace


def test_orthogonal_complement():
    coord = Frame.coordinate(5, (1, 3))
    comp = orthogonal_complement(coord)
    assert comp.vectors == Frame.coordinate(5, (0, 2, 4)).vectors
    general = Frame.from_vectors(4, [[1, 1, 0, 0], [0, 1, 1, 1]])
    comp = orthogonal_complement(general)
    assert comp.size == 2
    for v in comp.vectors:
        for w in general.vectors:
            assert sum(a * b for a, b in zip(v, w)) == 0


def test_summation_identity():
    for model in (unit_sphere(4), make_hypersurface(diag11(4, (1, 1, 1, 0))), s2xs2()):
        n = model.n
        for q in (1, 2):
            if 2 * q > n:
                continue
            for p in range(1, n - 2 * q + 1):
                tensor = pq_curvature_tensor(model, p, q)
                lower = (
                    weyl_invariant(model, q)
                    if p == 1
                    else None
                )
                lower_tensor = None if p == 1 else pq_curvature_tensor(model, p - 1, q)
                for base in itertools.combinations(range(n), p - 1):
                    total = F(0)
                    for k in range(n):
                        if k in base:
                            continue
                        total += sectional_curvature(tensor, Frame.coordinate(n, base + (k,)))
                    target = (n - 2 * q - p + 1) * (
                        lower if p == 1 else sectional_curvature(lower_tensor, Frame.coordinate(n, base))
                    )
                    assert total == target


def test_trace_identity_all_models():
    rng = random.Random("trace")
    models = [
        unit_sphere(4),
        make_constant_curvature(5, F(-1, 2)),
        make_hypersurface(diag11(5, (1, 2, 0, -1, 1))),
        make_conformally_flat(diag11(6, (1, -1, 2, 0, 1, -2))),
        s2xs2(),
        make_product(unit_sphere(2), unit_sphere(3)),
        CurvatureTensor(random_bianchi(rng, 4, 2)),
    ]
    for model in models:
        n = model.n
        for q in range(1, n // 2 + 1):
            t = einstein_tensor(model, q)
            assert t.contract().scalar_value() == (n - 2 * q) * weyl_invariant(model, q)


def test_einstein_tensor_matches_star_definition():
    # for 2q < n the contraction form agrees with *(g^{n-2q-1} R^q)/(n-2q-1)!
    rng = random.Random("t2q-star")
    for n, q in ((4, 1), (5, 1), (5, 2), (6, 2)):
        model = CurvatureTensor(random_bianchi(rng, n, 2))
        margin = n - 2 * q - 1
        direct = power(model, q).form.mul_g_power(margin).hodge().scale(
            F(1, factorial(margin))
        )
        assert einstein_tensor(model, q) == direct


def test_product_invariant_formula():
    def h_or_unit(model, q):
        if q == 0:
            return F(1)
        if 2 * q > model.n:
            return F(0)
        return weyl_invariant(model, q)

    pairs = [
        (unit_sphere(2), unit_sphere(2)),
        (unit_sphere(2), unit_sphere(3)),
        (unit_sphere(3), unit_sphere(3)),
        (unit_sphere(2), make_constant_curvature(4, 0)),
    ]
    for left, right in pairs:
        prod = make_product(left, right)
        for q in range(1, prod.n // 2 + 1):
            expected = sum(
                comb(q, i) * h_or_unit(left, i) * h_or_unit(right, q - i)
                for i in range(q + 1)
            )
            assert weyl_invariant(prod, q) == expected


def test_hypersurface_symmetric_functions():
    rng = random.Random("hyper-sym")
    for n in (4, 5, 6):
        for _ in range(3):
            values = [F(rng.randint(-3, 3)) for _ in range(n)]
            model = make_hypersurface(diag11(n, values))
            for q in range(1, n // 2 + 1):
                expected = F(factorial(2 * q), 2**q) * elementary_symmetric(values, 2 * q)
                assert weyl_invariant(model, q) == expected


def test_conformally_flat_closed_form():
    rng = random.Random("cf-closed")
    for n in (4, 5):
        values = [F(rng.randint(-3, 3)) for _ in range(n)]
        model = make_conformally_flat(diag11(n, values))
        for q in range(1, n // 2 + 1):
            for p in range(0, n - 2 * q + 1):
                expected = F(
                    factorial(n - q - p) * factorial(q), factorial(n - 2 * q - p)
                ) * elementary_symmetric(values[: n - p], q)
                got = (
                    pq_sectional(model, 0, q, None)
                    if p == 0
                    else pq_sectional(model, p, q, Frame.coordinate(n, tuple(range(n - p, n))))
                )
                assert got == expected


def test_thorpe_converse_on_constant_models():
    for n, lam in ((4, F(1)), (5, F(-1)), (6, F(2, 3))):
        model = make_constant_curvature(n, lam)
        for s, r in ((1, 1), (2, 1), (1, 2)):
            if s + 2 * r > n or 2 * (s + r) > n:
                continue
            lam_s = has_constant_sectional(power(model, s).form, 2 * s)
            mu = has_constant_sectional(power(model, s + r).form, 2 * (s + r))
            assert lam_s not in (None, 0) and mu is not None
            expected = mu * F(factorial(2 * s) * factorial(2 * r), factorial(2 * (s + r))) / lam_s
            assert has_constant_sectional(power(model, r).form, 2 * r) == expected


def test_power_scaling_of_invariants():
    for n, lam in ((5, F(1)), (6, F(-1, 2))):
        model = make_constant_curvature(n, lam)
        for s in (1, 2):
            lam_s = has_constant_sectional(power(model, s).form, 2 * s)
            if lam_s is None:
                continue
            for r in range(1, (n - 2 * s) // 2 + 1):
                expected = (
                    F(factorial(n - 2 * r), factorial(2 * s) * factorial(n - 2 * s - 2 * r))
                    * lam_s
                    * weyl_invariant(model, r)
                )
                assert weyl_invariant(model, s + r) == expected


def test_einstein_difference_identity():
    # s_p(P) - s_{n-p}(P^perp) constant over coordinate planes for Einstein models
    s3xs3 = make_product(unit_sphere(3), unit_sphere(3))
    for model in (unit_sphere(4), make_constant_curvature(5, F(2)), s2xs2(), s3xs3):
        assert is_einstein(model)
        n = model.n
        scalar = model.form.contract().contract().scalar_value()
        for p in range(2, n - 1):
            expected = F(n - 2 * p, 2 * n) * scalar
            upper = pq_curvature_tensor(model, p, 1)
            lower = pq_curvature_tensor(model, n - p, 1)
            for idx in itertools.combinations(range(n), p):
                rest = tuple(sorted(set(range(n)) - set(idx)))
                diff = sectional_curvature(upper, Frame.coordinate(n, idx)) - sectional_curvature(
                    lower, Frame.coordinate(n, rest)
                )
                assert diff == expected


def test_constant_sum_identity():
    for n, lam in ((4, F(2)), (5, F(1, 3)), (6, F(-1))):
        model = make_constant_curvature(n, lam)
        scalar = model.form.contract().contract().scalar_value()
        for p in range(2, n - 1):
            if 2 * p == n:
                continue
            expected = F(2 * p * (p - 1) + (n - 2 * p) * (n - 1), 2 * n * (n - 1)) * scalar
            upper = pq_curvature_tensor(model, p, 1)
            lower = pq_curvature_tensor(model, n - p, 1)
            for idx in itertools.combinations(range(n), p):
                rest = tuple(sorted(set(range(n)) - set(idx)))
                total = sectional_curvature(upper, Frame.coordinate(n, idx)) + sectional_curvature(
                    lower, Frame.coordinate(n, rest)
                )
                assert total == expected


def test_characterization_of_constant_pq_curvature():
    rng = random.Random("characterization")
    # forward: constant curvature has constant s_(p,q) and R^q ~ g^{2q}
    model = make_constant_curvature(6, F(2))
    for q in (1,):
        for p in range(2 * q, 6 - 2 * q + 1):
            tensor = pq_curvature_tensor(model, p, q)
            values = set()
            for _ in range(3):
                vectors = [[F(rng.randint(-2, 2)) for _ in range(6)] for _ in range(p)]
                try:
                    values.add(sectional_curvature(tensor, Frame.from_vectors(6, vectors)))
                except DoubleFormError:
                    continue
            assert len(values) == 1
    assert has_constant_sectional(power(model, 1).form, 2) is not None
    # refutation: the sphere product has non-constant sectional curvature
    prod = s2xs2()
    intra = pq_sectional(prod, 2, 1, Frame.coordinate(4, (0, 1)))
    cross = pq_sectional(prod, 2, 1, Frame.coordinate(4, (0, 2)))
    assert intra == 1 and cross == 0
    assert has_constant_sectional(prod.form, 2) is None
    # p < 2q branch: constancy of s_1 matches Ricci proportionality
    assert is_einstein(prod)
    lines = {pq_sectional(prod, 1, 1, Frame.coordinate(4, (i,))) for i in range(4)}
    assert len(lines) == 1
    skew = make_hypersurface(diag11(4, (1, 1, 1, 0)))
    assert not is_einstein(skew)
    lines = {pq_sectional(skew, 1, 1, Frame.coordinate(4, (i,))) for i in range(4)}
    assert len(lines) > 1


def test_constant_sectional_shape_detection():
    model = make_scalar(4, F(1, 2)).mul_g_power(2)
    assert has_constant_sectional(3 * model, 2) == 3
    assert has_constant_sectional(make_zero(4, 2, 2), 2) == 0
    perturbed = 3 * model + make_basis(4, (0, 1), (0, 2))
    assert has_constant_sectional(perturbed, 2) is None
    assert has_constant_sectional(make_constant_curvature(5, F(7)).form, 2) == 7
    with pytest.raises(DegreeError):
        has_constant_sectional(make_g(4), 2)


def test_predicates():
    prod = s2xs2()
    assert is_einstein(prod)
    assert not is_einstein(make_product(unit_sphere(2), unit_sphere(3)))
    assert is_conformally_flat_algebraic(
        make_conformally_flat(diag11(4, (1, 2, -1, 0)))
    )
    assert not is_conformally_flat_algebraic(prod)
    assert is_einstein(make_constant_curvature(4, 0))


def test_p_curvature_specializations():
    # s_0 is half the scalar curvature; s_{n-2} is the sectional curvature
    model = unit_sphere(4)
    assert p_curvature(model, 0, None) == weyl_invariant(model, 1)
    assert p_curvature(model, 2, Frame.coordinate(4, (0, 1))) == 1


def test_invariant_report():
    report = build_invariant_report(s2xs2(), 2)
    report.validate_trace()
    assert [row.weyl for row in report.rows] == [2, 2]
    assert report.h4_sign is not None and report.h4_sign.classification == "einstein"
    zero_report = build_invariant_report(make_constant_curvature(4, 0), 2)
    assert all(row.weyl == 0 and row.einstein.is_zero() for row in zero_report.rows)
    assert zero_report.h4_sign.classification == "flat"
    import dataclasses

    broken = dataclasses.replace(report, rows=(dataclasses.replace(report.rows[0], weyl=F(3)),))
    with pytest.raises(IdentityError):
        broken.validate_trace()
    with pytest.raises(DegreeError):
        build_invariant_report(s2xs2(), 3)


def test_alternating_coefficients_nonzero():
    # the alternating coefficients 1 - (-1)^i (s+l)!/l! k!/(s+k)! vanish only
    # in the allowed spots (even i with k == l); probed over the ranges the
    # suite exercises
    for n in range(4, 9):
        for p in (2, 4):
            for l in range(0, n - p + 1):
                k = n - l - 2 * p
                if k < 0 or k == l:
                    continue
                for i in range(1, p):
                    s = p - i
                    alpha = 1 - (-1) ** i * F(
                        factorial(s + l) * factorial(k), factorial(l) * factorial(s + k)
                    )
                    if i % 2 == 0:
                        assert alpha != 0, (n, p, l, k, i)
