"""Acceptance criteria: one test per criterion, every check exact.

Everything here asserts equality of exact rationals; there are no
tolerances anywhere.  Each test prints its own pass line (visible with
pytest -s) summarizing what was verified.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from math import comb, factorial

from doubleforms import (
    CurvatureTensor,
    avez_pairing,
    decompose,
    einstein_tensor,
    is_effective,
    make_basis,
    make_conformally_flat,
    make_constant_curvature,
    make_g,
    make_hypersurface,
    make_product,
    make_scalar,
    make_zero,
    map_rank,
    pq_curvature_tensor,
    pq_sectional,
    sectional_curvature,
    sign_report_h4,
    star_bianchi,
    star_in_components,
    weyl_invariant,
    Frame,
)
from doubleforms.cli import main
from doubleforms.exterior import mask_to_indices, subset_masks
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


def model_suite():
    """The model zoo shared by criteria 8 and 9."""
    models = []
    for n in (4, 5, 6):
        models.append((f"S^{n}(1)", make_constant_curvature(n, 1)))
        models.append((f"S^{n}(-1/2)", make_constant_curvature(n, F(-1, 2))))
        models.append((f"flat^{n}", make_constant_curvature(n, 0)))
        models.append(
            (f"hyp^{n}", make_hypersurface(diag11(n, [1, 1, 1, 0, 2, -1][:n])))
        )
        models.append(
            (f"conf^{n}", make_conformally_flat(diag11(n, [1, -1, 2, 0, 1, -2][:n])))
        )
        models.append(
            (
                f"S^2xS^{n - 2}",
                make_product(make_constant_curvature(2, 1), make_constant_curvature(n - 2, 1)),
            )
        )
    rng = random.Random("acceptance-models")
    models.append(("random(4)", CurvatureTensor(random_bianchi(rng, 4, 2))))
    models.append(("random(5)", CurvatureTensor(random_bianchi(rng, 5, 2))))
    return models


def test_criterion_01_adjointness():
    started = time.perf_counter()
    checked = 0
    for n in (3, 4):
        g = make_g(n)
        for p in range(n):
            for q in range(n):
                for mi in subset_masks(n, p):
                    for mj in subset_masks(n, q):
                        left = make_basis(n, mask_to_indices(mi), mask_to_indices(mj))
                        g_left = g.mul(left)
                        for mk in subset_masks(n, p + 1):
                            for ml in subset_masks(n, q + 1):
                                right = make_basis(
                                    n, mask_to_indices(mk), mask_to_indices(ml)
                                )
                                assert g_left.inner(right) == left.inner(right.contract())
                                checked += 1
    rng = random.Random("criterion-1")
    for n in (5, 6):
        g = make_g(n)
        for _ in range(200):
            p = rng.randrange(0, n)
            q = rng.randrange(0, n)
            a = random_form(rng, n, p, q)
            b = random_form(rng, n, p + 1, q + 1)
            assert g.mul(a).inner(b) == a.inner(b.contract())
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"criterion 1 PASS: adjointness <gw,t> = <w,ct> on {checked} cases "
        f"(exhaustive n=3,4 + 200 random pairs at n=5 and n=6) in {elapsed:.1f}s"
    )


def test_criterion_02_hodge_duality_and_double_star():
    # The double-star sign law holds verbatim.  The metric-contraction
    # duality holds verbatim on every even-total bidegree (all square ones
    # in particular) and with the classical parity sign (-1)^(n(p+q)) in
    # general; see the decisions ledger for the erratum analysis.
    rng = random.Random("criterion-2")
    cases = 0
    for n in range(2, 7):
        g = make_g(n)
        for p in range(n + 1):
            for q in range(n + 1):
                for _ in range(3):
                    w = random_form(rng, n, p, q)
                    double_sign = -1 if ((p + q) * (n - p - q)) % 2 else 1
                    assert w.hodge().hodge() == double_sign * w
                    lhs = g.mul(w)
                    rhs = w.hodge().contract().hodge()
                    duality_sign = -1 if (n * (p + q)) % 2 else 1
                    if (lhs.p, lhs.q) == (rhs.p, rhs.q):
                        assert lhs == duality_sign * rhs
                        if (p + q) % 2 == 0:
                            assert lhs == rhs
                    else:
                        assert lhs.is_zero() and rhs.is_zero()
                    cases += 1
    print(
        f"criterion 2 PASS: ** sign law and gw = (-1)^(n(p+q)) *c*w "
        f"(verbatim gw = *c*w on all even-total bidegrees) on {cases} cases, n <= 6"
    )


def test_criterion_03_rank_trichotomy():
    def dim_effective(n, s, t):
        if s < 0 or t < 0 or s + t > n + 1:
            return 0
        lower = comb(n, s - 1) * comb(n, t - 1) if s >= 1 and t >= 1 else 0
        return comb(n, s) * comb(n, t) - lower

    cases = 0
    for n in (4, 5):
        for p in range(4):
            for q in range(4):
                for l in range(4):
                    predicted = sum(
                        dim_effective(n, p - j, q - j)
                        for j in range(min(p, q) + 1)
                        if p + q - j + l <= n
                    )
                    assert map_rank(n, p, q, l) == predicted, (n, p, q, l)
                    if p + q + l <= n:
                        assert predicted == comb(n, p) * comb(n, q)
                    cases += 1
    print(
        f"criterion 3 PASS: g-power rank matches the effective-split prediction "
        f"for all p,q,l <= 3 at n=4,5 ({cases} maps, injective iff p+q+l <= n confirmed)"
    )


def test_criterion_04_decomposition_roundtrip_and_weyl_split():
    for i in range(6):
        for j in range(6):
            w = make_zero(4, 2, 2)
            w.set_cell(subset_masks(4, 2)[i], subset_masks(4, 2)[j], F(1))
            d = decompose(w)
            assert d.reconstruct() == w
            assert all(is_effective(c) for c in d.components[1:])
    rng = random.Random("criterion-4")
    n = 4
    g = make_g(n)
    tensor = random_bianchi(rng, n, 2)
    ricci = tensor.contract()
    scalar = ricci.contract().scalar_value()
    traceless = F(1, n - 2) * (ricci - F(scalar, n) * g)
    conformal = tensor - g * traceless - make_scalar(n, F(scalar, 2 * n * (n - 1))).mul_g_power(2)
    d = decompose(tensor)
    assert d.components[2] == conformal
    assert d.components[1] == traceless
    assert d.components[0].scalar_value() == F(scalar, 2 * n * (n - 1))
    assert is_effective(conformal) and is_effective(traceless)
    print(
        "criterion 4 PASS: decompose/reconstruct identity on all 36 basis forms "
        "(n=4, p=2) and the classical Weyl/Ricci/scalar split of a random Bianchi tensor"
    )


def test_criterion_05_star_closed_forms():
    rng = random.Random("criterion-5")
    tensors = 0
    for n in (4, 5, 6):
        for _ in range(100):
            p = 2 if rng.random() < 0.75 else 1
            w = random_bianchi(rng, n, p)
            k = rng.randrange(p, n + 1)
            direct = w.mul_g_power(k - p).scale(F(1, factorial(k - p))).hodge()
            assert star_bianchi(w, k) == direct
            d = decompose(w)
            l = rng.randrange(0, 3)
            assert star_in_components(d, l) == w.mul_g_power(l).hodge()
            tensors += 1
    print(
        f"criterion 5 PASS: closed-form star equals the direct Hodge star on "
        f"{tensors} random Bianchi-projected tensors (100 each at n=4,5,6)"
    )


def test_criterion_06_worked_numbers():
    sphere = make_constant_curvature(4, 1)
    assert weyl_invariant(sphere, 1) == 6
    assert weyl_invariant(sphere, 2) == 6
    assert einstein_tensor(sphere, 1) == 3 * make_g(4)
    hyper = make_hypersurface(diag11(4, (1, 1, 1, 0)))
    assert weyl_invariant(hyper, 1) == 3
    assert weyl_invariant(hyper, 2) == 0
    product = make_product(make_constant_curvature(2, 1), make_constant_curvature(2, 1))
    assert weyl_invariant(product, 1) == 2
    assert weyl_invariant(product, 2) == 2
    print(
        "criterion 6 PASS: unit S^4 has h_2 = 6, h_4 = 6, T_2 = 3g; "
        "B = diag(1,1,1,0) gives h_2 = 3, h_4 = 0; S^2 x S^2 gives h_2 = 2, h_4 = 2"
    )


def test_criterion_07_avez_pairing():
    rng = random.Random("criterion-7")
    for _ in range(200):
        a = random_bianchi(rng, 4, 2)
        b = random_bianchi(rng, 4, 2)
        assert avez_pairing(a, b) == a.mul(b).hodge().scalar_value()
    # |c^r R^q|^2 alternating form reproduces h_4 on the models
    for name, model in model_suite():
        if model.n < 4:
            continue
        form = model.form
        ricci = form.contract()
        scalar = ricci.contract().scalar_value()
        expected = form.norm_sq() - ricci.norm_sq() + F(1, 4) * scalar**2
        assert weyl_invariant(model, 2) == expected, name
    # the introductory formula, symbol for symbol, on the middle dimension
    sphere = make_constant_curvature(4, 1)
    r = sphere.form
    assert r.norm_sq() == 6
    assert r.contract().norm_sq() == 36
    assert F(1, 4) * iter_contract(r, 2).scalar_value() ** 2 == 36
    assert avez_pairing(r, r) == 6 - 36 + 36 == weyl_invariant(sphere, 2)
    print(
        "criterion 7 PASS: alternating-contraction pairing equals *(w.t) on 200 "
        "random Bianchi pairs at n=4; h_4 = |R|^2 - |cR|^2 + |c^2R|^2/4 on every model"
    )


def test_criterion_08_sign_theorems():
    einstein_models = [
        ("S^4(1)", make_constant_curvature(4, 1)),
        (
            "S^2xS^2",
            make_product(make_constant_curvature(2, 1), make_constant_curvature(2, 1)),
        ),
        (
            "S^3xS^3",
            make_product(make_constant_curvature(3, 1), make_constant_curvature(3, 1)),
        ),
    ]
    for name, model in einstein_models:
        report = sign_report_h4(model)
        assert report.classification == "einstein", name
        assert report.h4 > 0 and report.inequality_holds, name
    for n in (4, 5):
        values = [1, -1] + [0] * (n - 2)
        model = make_conformally_flat(diag11(n, values))
        assert iter_contract(model.form, 2).scalar_value() == 0
        report = sign_report_h4(model)
        assert report.classification == "conformally_flat_scalar_flat"
        assert report.h4 < 0 and report.inequality_holds
    flat = make_constant_curvature(4, 0)
    report = sign_report_h4(flat)
    assert report.classification == "flat" and report.h4 == 0 and report.inequality_holds
    print(
        "criterion 8 PASS: h_4 > 0 on Einstein non-flat models (S^4, S^2xS^2, S^3xS^3), "
        "h_4 < 0 on conformally flat scalar-flat models at n=4,5, h_4 = 0 exactly on flat"
    )


def test_criterion_09_trace_and_summation_identities():
    trace_cases = 0
    sum_cases = 0
    for name, model in model_suite():
        n = model.n
        for q in (1, 2):
            if 2 * q > n:
                continue
            t = einstein_tensor(model, q)
            assert t.contract().scalar_value() == (n - 2 * q) * weyl_invariant(model, q), name
            trace_cases += 1
            for p in range(1, n - 2 * q + 1):
                tensor = pq_curvature_tensor(model, p, q)
                lower = None if p == 1 else pq_curvature_tensor(model, p - 1, q)
                for base in list(itertools.combinations(range(n), p - 1))[:6]:
                    total = F(0)
                    for k in range(n):
                        if k in base:
                            continue
                        total += sectional_curvature(tensor, Frame.coordinate(n, base + (k,)))
                    target = (n - 2 * q - p + 1) * (
                        weyl_invariant(model, q)
                        if p == 1
                        else sectional_curvature(lower, Frame.coordinate(n, base))
                    )
                    assert total == target, (name, p, q, base)
                    sum_cases += 1
    print(
        f"criterion 9 PASS: trace law (n-2q) h_2q on {trace_cases} model/q pairs and "
        f"the (n-2q-p+1) summation law on {sum_cases} coordinate planes, q <= 2, n <= 6"
    )


def test_criterion_10_determinism(capsys):
    argv = ["verify", "--suite", "all", "--n", "5", "--trials", "100", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["failures"] == 0
    assert payload["cases"] > 0
    print(
        f"criterion 10 PASS: two runs of `verify --suite all --n 5 --trials 100 --seed 7` "
        f"produced byte-identical reports ({payload['cases']} cases, 0 failures)"
    )
