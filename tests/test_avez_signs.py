"""Alternating-contraction pairings and the h_4 sign theorems."""

import random
from fractions import Fraction
from math import factorial

import pytest

from doubleforms import (
    BianchiRequiredError,
    CurvatureTensor,
    DegreeError,
    avez_pairing,
    decompose,
    make_basis,
    make_conformally_flat,
    make_constant_curvature,
    make_g,
    make_hypersurface,
    make_product,
    make_scalar,
    make_zero,
    power,
    sign_report_h4,
    weyl_invariant,
)
from doubleforms.verify import random_bianchi, random_form

F = Fraction


def diag11(n, values):
    form = make_zero(n, 1, 1)
    for i, v in enumerate(values):
        form.set_cell(1 << i, 1 << i, F(v))
    return form


def iter_contract(form, times):
    for _ in range(times):
        form = form.contract()
    return form


def test_avez_pairing_equals_star_of_product():
    rng = random.Random("avez")
    for n in (4, 6):
        p = n // 2
        for _ in range(8 if n == 4 else 3):
            a = random_bianchi(rng, n, p)
            b = random_bianchi(rng, n, p)
            assert avez_pairing(a, b) == a.mul(b).hodge().scalar_value()


def test_avez_pairing_preconditions():
    rng = random.Random("avez-pre")
    w = random_bianchi(rng, 4, 2)
    with pytest.raises(DegreeError):
        avez_pairing(w, random_bianchi(rng, 4, 1))
    with pytest.raises(DegreeError):
        avez_pairing(random_bianchi(rng, 5, 2), random_bianchi(rng, 5, 2))
    not_bianchi = make_basis(4, (0, 1), (2, 3))
    assert not not_bianchi.bianchi_sum().is_zero()
    with pytest.raises(BianchiRequiredError):
        avez_pairing(w, not_bianchi)


def test_metric_power_pairing_variant():
    rng = random.Random("avez-g")
    n, p = 4, 2
    for _ in range(6):
        a = random_bianchi(rng, n, p)
        b = random_bianchi(rng, n, p)
        total = sum(
            F((-1) ** (r + p), factorial(r) ** 2)
            * a.mul_g_power(r).inner(b.mul_g_power(r))
            for r in range(p + 1)
        )
        assert total == a.mul(b).hodge().scalar_value()


def _h4_by_contractions(form):
    ricci = form.contract()
    scalar = ricci.contract().scalar_value()
    return form.norm_sq() - ricci.norm_sq() + F(1, 4) * scalar**2


def test_h4_contraction_formula_all_models():
    rng = random.Random("h4")
    models = [
        make_constant_curvature(4, 1),
        make_constant_curvature(5, F(-1, 2)),
        make_hypersurface(diag11(4, (1, 1, 1, 0))),
        make_conformally_flat(diag11(5, (1, -1, 2, 0, 1))),
        make_product(make_constant_curvature(2, 1), make_constant_curvature(2, 1)),
        make_product(make_constant_curvature(2, 1), make_constant_curvature(4, 0)),
        CurvatureTensor(random_bianchi(rng, 4, 2)),
        CurvatureTensor(random_bianchi(rng, 5, 2)),
        CurvatureTensor(random_bianchi(rng, 6, 2)),
    ]
    for model in models:
        assert weyl_invariant(model, 2) == _h4_by_contractions(model.form)


def test_unit_s4_avez_terms():
    # |R|^2 = 6, |cR|^2 = 36, |c^2 R|^2 = 144: h_4 = 6 - 36 + 36 = 6
    model = make_constant_curvature(4, 1)
    form = model.form
    assert form.norm_sq() == 6
    assert form.contract().norm_sq() == 36
    assert iter_contract(form, 2).scalar_value() ** 2 == 144
    assert avez_pairing(form, form) == 6 == weyl_invariant(model, 2)


def test_gauss_bonnet_alternating_sum_n4():
    rng = random.Random("gb")
    models = [
        make_constant_curvature(4, 1),
        make_hypersurface(diag11(4, (2, -1, 1, 1))),
        CurvatureTensor(random_bianchi(rng, 4, 2)),
    ]
    for model in models:
        form = model.form
        total = F(0)
        c = form
        for r in range(3):
            if r:
                c = c.contract()
            total += F((-1) ** r, factorial(r) ** 2) * c.norm_sq()
        assert weyl_invariant(model, 2) == total


def test_component_pairing():
    rng = random.Random("component-pairing")
    for n in (4, 5):
        for p in (1, 2):
            theta = random_bianchi(rng, n, p)
            omega = random_bianchi(rng, n, n - p)
            d_theta = decompose(theta).components
            d_omega = decompose(omega).components
            total = sum(
                F((-1) ** i) * factorial(n - 2 * i) * d_omega[i].inner(d_theta[i])
                for i in range(min(p, n - p) + 1)
            )
            assert omega.mul(theta).hodge().scalar_value() == total


def test_h4_component_split():
    rng = random.Random("h4-split")
    for n in (4, 5, 6):
        model = CurvatureTensor(random_bianchi(rng, n, 2))
        comps = decompose(model.form).components
        total = sum(
            F((-1) ** i) * factorial(n - 2 * i) * comps[i].norm_sq() for i in range(3)
        )
        assert weyl_invariant(model, 2) == F(1, factorial(n - 4)) * total


def test_sign_theorem_einstein_models():
    s3xs3 = make_product(make_constant_curvature(3, 1), make_constant_curvature(3, 1))
    for model in (
        make_constant_curvature(4, 1),
        make_product(make_constant_curvature(2, 1), make_constant_curvature(2, 1)),
        s3xs3,
    ):
        report = sign_report_h4(model)
        assert report.classification == "einstein"
        assert report.h4 > 0
        assert report.inequality_holds


def test_sign_theorem_conformally_flat_scalar_flat():
    # frozen values: h = diag(1,-1,0,...) gives h_4 = -4 at n=4 and -12 at n=5
    cf4 = make_conformally_flat(diag11(4, (1, -1, 0, 0)))
    assert iter_contract(cf4.form, 2).scalar_value() == 0
    report = sign_report_h4(cf4)
    assert report.classification == "conformally_flat_scalar_flat"
    assert report.h4 == -4 and report.inequality_holds
    cf5 = make_conformally_flat(diag11(5, (1, -1, 0, 0, 0)))
    report = sign_report_h4(cf5)
    assert report.classification == "conformally_flat_scalar_flat"
    assert report.h4 == -12 and report.inequality_holds


def test_sign_theorem_flat_and_hypothesis_not_met():
    flat = make_constant_curvature(4, 0)
    report = sign_report_h4(flat)
    assert report.classification == "flat" and report.h4 == 0 and report.inequality_holds
    skew = make_hypersurface(diag11(4, (1, 1, 1, 0)))
    report = sign_report_h4(skew)
    assert report.classification == "hypothesis_not_met"
    assert report.inequality_holds is None
    with pytest.raises(DegreeError):
        sign_report_h4(make_constant_curvature(3, 1))


def test_sign_theorem_constructed_einstein():
    # generic Einstein tensors: effective Bianchi Weyl part plus scalar g^2 part
    rng = random.Random("einstein-construct")
    from doubleforms import is_einstein

    for n in (4, 5):
        for _ in range(4):
            weyl_part = random_bianchi(rng, n, 2, effective=True)
            form = weyl_part + make_scalar(n, F(rng.randint(-2, 2))).mul_g_power(2)
            tensor = CurvatureTensor(form)
            assert is_einstein(tensor)
            report = sign_report_h4(tensor)
            if form.is_zero():
                assert report.classification == "flat" and report.h4 == 0
            else:
                assert report.classification == "einstein"
                assert report.h4 > 0 and report.inequality_holds
