"""The model record and its closed forms, against the walk over R's powers.

make_constant_curvature, make_hypersurface and make_conformally_flat record
their matrix on the CurvatureTensor, and h_{2q}, T_{2q}, the report rows and
the coordinate-plane s_{(p,q)} are then symmetric functions of it, from
linalg.characteristic.  CurvatureTensor(R.form) carries no record and walks
R, R^2, ..., so it is the oracle for every one of them.  The kernel itself
is checked against principal minors and the definition of N_k.  The h_4
sign report is classified by one rule, off the record's rows, against the
report of CurvatureTensor(R.form), and reads R only for a scalar-flat
hypersurface or product that is neither flat nor Einstein; its Einstein
test, T_2 a multiple of g, is held to is_einstein on every kind.  R itself,
made from the record by the product and g-power kernels, is held to the
Gauss equation and to lambda on the diagonal pairs, cell by cell.
make_product records its two factors, and a product's rows, h_4 report and
coordinate-plane s_{(p,q)} come from the factors' rows by Weyl's product
formula; they are held to the same walk.  A tensor's n and p, set when it
is made, are held to its form's on every kind, and reading them makes no
R.  sign_report_h4 is held to a rule built only from public predicates
(is_zero, is_einstein, weyl_invariant, is_conformally_flat_algebraic) on
models, products, walked random Bianchi tensors and walked Einstein
tensors, and to the h_4 report of every invariant report.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleforms import (
    CurvatureTensor,
    DegreeError,
    DoubleForm,
    DoubleFormError,
    IdentityError,
    build_invariant_report,
    einstein_tensor,
    is_conformally_flat_algebraic,
    is_einstein,
    make_conformally_flat,
    make_constant_curvature,
    make_g,
    make_hypersurface,
    make_product,
    make_zero,
    sign_report_h4,
    weyl_invariant,
)
from doubleforms import curvature, linalg, verify
from doubleforms.cli import main
from doubleforms.core import _diagonal
from doubleforms.curvature import Frame, pq_sectional
from doubleforms.linalg import characteristic
from doubleforms.serialize import dumps_canonical, form_to_dict


def symmetric_matrix(rng, n, density):
    """A random symmetric rational (1,1)-form, off-diagonal cells included."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < density:
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return DoubleForm(n, 1, 1, rows)


@st.composite
def recorded_models(draw):
    """A model tensor with its record, at n <= 8: conformally flat or a
    hypersurface on a random symmetric matrix, or constant curvature."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(("conformally_flat", "hypersurface", "constant")))
    if kind == "constant":
        return make_constant_curvature(n, draw(st.fractions(-4, 4, max_denominator=6)))
    matrix = symmetric_matrix(rng, n, draw(st.sampled_from((0.3, 0.6, 1.0))))
    if kind == "conformally_flat":
        return make_conformally_flat(matrix)
    return make_hypersurface(matrix)


@settings(max_examples=60, deadline=None)
@given(recorded_models(), st.randoms(use_true_random=False))
def test_model_invariants_match_the_walk(tensor, rng):
    walked = CurvatureTensor(tensor.form)
    assert tensor.model is not None and walked.model is None
    assert walked == tensor
    n = tensor.n
    for q in range(1, n // 2 + 1):
        h = weyl_invariant(tensor, q)
        assert type(h) is Fraction
        assert h == weyl_invariant(walked, q), q
        assert einstein_tensor(tensor, q) == einstein_tensor(walked, q), q
        for p in range(1, n - 2 * q + 1):
            plane = Frame.coordinate(n, rng.sample(range(n), p))
            assert pq_sectional(tensor, p, q, plane) == pq_sectional(walked, p, q, plane), (p, q)
    max_q = n // 2
    if max_q:
        report = build_invariant_report(tensor, max_q)
        expected = build_invariant_report(walked, max_q)
        assert report.rows == expected.rows
        assert report.h4_sign == expected.h4_sign


def test_only_the_model_constructors_record():
    h = _diagonal(4, [1, 2, 3, 4])
    assert make_conformally_flat(h).model == ("conformal", h)
    assert make_hypersurface(h).model == ("hypersurface", h)
    assert make_constant_curvature(4, Fraction(2, 3)).model == (
        "conformal", _diagonal(4, [Fraction(1, 3)] * 4)
    )
    sphere = make_constant_curvature(2, 1)
    line = make_hypersurface(_diagonal(1, [2]))
    assert line.model is None  # the (1,1) zero form
    product = make_product(sphere, line)
    assert product.model == ("product", (sphere, line))
    assert (product.n, product.p) == (3, 2)
    assert CurvatureTensor(product.form).model is None
    assert CurvatureTensor(sphere.form).model is None


def test_a_tensors_shape_is_set_when_it_is_made():
    """n and p are fields: a record's equal its form's, and reading them
    makes no R, for every kind and for nested products with a flat n = 1
    line, a (4,4) factor included."""
    line = make_hypersurface(DoubleForm(1, 1, 1, [[2]]))
    sphere = make_constant_curvature(3, 1)
    h = symmetric_matrix(random.Random(7), 4, 1.0)
    s4_squared = curvature.power(make_constant_curvature(4, 1), 2)
    tensors = [
        sphere, make_conformally_flat(h), make_hypersurface(h), line, s4_squared,
        CurvatureTensor(verify.random_bianchi(random.Random(8), 5, 2)),
        make_product(line, sphere), make_product(sphere, line), make_product(line, line),
        make_product(make_product(line, sphere), make_product(make_hypersurface(h), line)),
        make_product(line, s4_squared), make_product(make_product(line, line), line),
    ]
    for tensor in tensors:
        shape = (tensor.n, tensor.p)
        assert tensor.model is None or "form" not in vars(tensor), tensor.model
        assert shape == (tensor.form.n, tensor.form.p), tensor.model


def test_recorded_models_form_no_power(monkeypatch):
    """With the record, no invariant (the h_4 sign report included) forms a
    product."""
    models = [
        make_conformally_flat(symmetric_matrix(random.Random(3), 10, 0.5)),
        make_hypersurface(symmetric_matrix(random.Random(4), 10, 0.5)),
        make_constant_curvature(10, Fraction(-3, 2)),
    ]
    products = []
    mul = curvature.DoubleForm.mul

    def counted(self, other):
        products.append((self.p, other.p))
        return mul(self, other)

    monkeypatch.setattr(curvature.DoubleForm, "mul", counted)
    for tensor in models:
        build_invariant_report(tensor, 5)
        einstein_tensor(tensor, 3)
        pq_sectional(tensor, 2, 3, Frame.coordinate(10, (4, 1)))
    assert products == []


# -- products: Weyl's product formula against the walk ---------------------------


def product_factor(draw, rng, n, depth):
    """A factor over n indices: a flat line at n = 1; otherwise a constant,
    hypersurface or conformally flat model, an explicit tensor (no record),
    or, above depth 0, a nested product."""
    if n == 1:
        value = [[Fraction(rng.randint(-3, 3))]]
        return draw(st.sampled_from((make_hypersurface, make_conformally_flat)))(
            DoubleForm(1, 1, 1, value)
        )
    kinds = ["constant", "hypersurface", "conformally_flat", "explicit", "flat"]
    kind = draw(st.sampled_from(kinds + ["product"] * bool(depth)))
    if kind == "flat":
        return draw(st.sampled_from((make_hypersurface, make_conformally_flat)))(make_zero(n, 1, 1))
    if kind == "product":
        first = draw(st.integers(1, n - 1))
        return make_product(
            product_factor(draw, rng, first, depth - 1),
            product_factor(draw, rng, n - first, depth - 1),
        )
    if kind == "constant":
        return make_constant_curvature(n, draw(st.fractions(-3, 3, max_denominator=4)))
    matrix = symmetric_matrix(rng, n, draw(st.sampled_from((0.4, 1.0))))
    if kind == "hypersurface":
        return make_hypersurface(matrix)
    if kind == "conformally_flat":
        return make_conformally_flat(matrix)
    return CurvatureTensor(verify.random_bianchi(rng, n, 2) if n >= 3 else make_g(n).mul(matrix))


def einstein_factor(n, mu):
    """An Einstein factor over n indices with Ric = mu g: constant curvature
    mu / (n - 1), or at n = 1 a flat line (Ric = 0 whatever mu is)."""
    if n == 1:
        return make_hypersurface(DoubleForm(1, 1, 1, [[1]]))
    return make_constant_curvature(n, mu / (n - 1))


@st.composite
def products(draw, min_n=2, max_n=8):
    """A product at min_n <= n <= max_n: of two random factors, nested and
    flat ones included, or of two Einstein factors whose constants are
    equal, unequal with a zero scalar curvature (mu_1 n_1 + mu_2 n_2 = 0),
    or drawn apart."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(min_n, max_n))
    first = draw(st.integers(1, n - 1))
    if draw(st.booleans()):
        return make_product(
            product_factor(draw, rng, first, 1), product_factor(draw, rng, n - first, 1)
        )
    mu, other = (draw(st.fractions(-3, 3, max_denominator=4)) for _ in range(2))
    mus = draw(st.sampled_from(((mu, mu), (mu * (n - first), -mu * first), (mu, other))))
    return make_product(*(einstein_factor(size, m) for size, m in zip((first, n - first), mus)))


def coordinate_planes(rng, n, first, p):
    """p-subsets of range(n): one at random, one inside each factor of
    sizes first and n - first that has room, and one across both."""
    planes = [rng.sample(range(n), p)]
    for block in (range(first), range(first, n)):
        if p <= len(block):
            planes.append(rng.sample(block, p))
    if p >= 2:
        across = [rng.randrange(first), rng.randrange(first, n)]
        planes.append(across + rng.sample([i for i in range(n) if i not in across], p - 2))
    return planes


@settings(max_examples=100, deadline=None)
@given(products(), st.randoms(use_true_random=False))
def test_product_invariants_match_the_walk(tensor, rng):
    """Every row, the h_4 report and the coordinate-plane s_{(p,q)} of a
    recorded product equal the walk on CurvatureTensor(R.form), and the
    report reads R only for a scalar-flat product that is neither flat nor
    Einstein."""
    kind, (first, _) = tensor.model
    n = tensor.n
    report = build_invariant_report(tensor, n // 2)
    read_r = "form" in vars(tensor)
    walked = CurvatureTensor(tensor.form)
    assert kind == "product" and walked.model is None
    assert (n, tensor.p) == (walked.n, walked.p)
    for q in range(1, n // 2 + 1):
        h = weyl_invariant(tensor, q)
        assert type(h) is Fraction
        assert h == weyl_invariant(walked, q), q
        assert einstein_tensor(tensor, q) == einstein_tensor(walked, q), q
        for p in range(1, n - 2 * q + 1):
            for plane in coordinate_planes(rng, n, first.n, p):
                frame = Frame.coordinate(n, plane)
                assert pq_sectional(tensor, p, q, frame) == pq_sectional(walked, p, q, frame), (
                    p, q, plane
                )
    expected = build_invariant_report(walked, n // 2)
    assert report.rows == expected.rows
    assert report.h4_sign == expected.h4_sign
    scalar_flat = walked.form.contract().contract().is_zero()
    assert read_r == (
        n >= 4 and scalar_flat and report.h4_sign.classification not in ("flat", "einstein")
    )


# -- the h_4 sign report against public predicates -------------------------------


def h4_matrix(draw, rng, n):
    """A symmetric (1,1)-form over n for a model: zero, rank one (v v^T),
    trace-free, umbilic but for one eigenvalue and with sigma_2 = 0
    (diag(-(n-2) b/2, b, ..., b)), or random."""
    shape = draw(st.sampled_from(("zero", "rank_one", "trace_free", "quasi_umbilic", "random")))
    if shape == "zero":
        return make_zero(n, 1, 1)
    if shape == "rank_one":
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        return DoubleForm(n, 1, 1, [[x * y for y in v] for x in v])
    if shape == "quasi_umbilic":
        b = Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
        return _diagonal(n, [-(n - 2) * b / 2] + [b] * (n - 1))
    matrix = symmetric_matrix(rng, n, draw(st.sampled_from((0.4, 1.0))))
    if shape == "trace_free":
        matrix = matrix - _diagonal(n, [0] * (n - 1) + [matrix.contract().scalar_value()])
    return matrix


@st.composite
def h4_tensors(draw):
    """A (2,2) tensor at 4 <= n <= 7 of every kind the h_4 report reads: a
    conformally flat, hypersurface or constant curvature model, a product
    (products()), a walked random Bianchi tensor, or a walked Einstein
    tensor, an effective Bianchi part plus a multiple of g^2 (either may
    be zero)."""
    kinds = ("conformal", "hypersurface", "constant", "product", "walked", "einstein")
    kind = draw(st.sampled_from(kinds))
    if kind == "product":
        return draw(products(min_n=4, max_n=7))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(4, 7))
    if kind == "constant":
        return make_constant_curvature(n, draw(st.fractions(-3, 3, max_denominator=4)))
    if kind == "conformal":
        return make_conformally_flat(h4_matrix(draw, rng, n))
    if kind == "hypersurface":
        return make_hypersurface(h4_matrix(draw, rng, n))
    if kind == "walked":
        return CurvatureTensor(verify.random_bianchi(rng, n, 2))
    weyl = verify.random_bianchi(rng, n, 2, effective=True) if draw(st.booleans()) else None
    g_squared = make_g(n).mul_g_power(1).scale(draw(st.fractions(-3, 3, max_denominator=4)))
    return CurvatureTensor(g_squared if weyl is None else weyl + g_squared)


@settings(max_examples=120, deadline=None)
@given(h4_tensors())
def test_the_h4_report_follows_the_public_predicates(tensor):
    """sign_report_h4 names the theorem that a rule built only from public
    predicates names, with flatness tested first; its h_4 is weyl_invariant's,
    each named theorem's inequality holds, and every invariant report
    carries the same h_4 report."""
    report = sign_report_h4(tensor)
    if tensor.form.is_zero():
        expected = "flat"
    elif is_einstein(tensor):
        expected = "einstein"
    elif weyl_invariant(tensor, 1) == 0 and is_conformally_flat_algebraic(tensor):
        expected = "conformally_flat_scalar_flat"
    else:
        expected = "hypothesis_not_met"
    assert report.classification == expected
    assert report.h4 == weyl_invariant(tensor, 2)
    assert report.inequality_holds is (None if expected == "hypothesis_not_met" else True)
    for q in range(1, tensor.n // 2 + 1):
        assert build_invariant_report(tensor, q).h4_sign == report, q


def test_a_product_of_non_riemann_factors_is_refused():
    s4_squared = curvature.power(make_constant_curvature(4, 1), 2)  # a (4,4) tensor
    tensor = make_product(s4_squared, s4_squared)
    assert (tensor.n, tensor.p) == (8, 4)
    refusals = [
        lambda: build_invariant_report(tensor, 2),
        lambda: weyl_invariant(tensor, 1),
        lambda: einstein_tensor(tensor, 1),
        lambda: pq_sectional(tensor, 0, 1, None),
        lambda: pq_sectional(tensor, 2, 1, Frame.coordinate(8, (0, 5))),
    ]
    for refused in refusals:
        with pytest.raises(DegreeError, match=r"applies to \(2,2\) curvature tensors, got p=4"):
            refused()
    with pytest.raises(DegreeError, match="product factors must share the degree, got 2 and 4"):
        make_product(make_constant_curvature(3, 1), s4_squared)


def test_products_of_models_form_no_power(monkeypatch):
    """A product of model factors, nested ones included, forms no power of
    R: its rows are read off the factors' matrices, and so is the h_4 sign
    report unless the product is scalar-flat and neither flat nor
    Einstein."""
    rng = random.Random(5)
    conformal = make_conformally_flat(symmetric_matrix(rng, 4, 1.0))
    hypersurface = make_hypersurface(symmetric_matrix(rng, 3, 1.0))
    tensors = [
        make_product(conformal, hypersurface),
        make_product(make_product(hypersurface, make_constant_curvature(2, 3)), conformal),
    ]
    products = []
    mul = curvature.DoubleForm.mul

    def counted(self, other):
        if self.p >= 2 and other.p >= 2:
            products.append((self.p, other.p))
        return mul(self, other)

    monkeypatch.setattr(curvature.DoubleForm, "mul", counted)
    for tensor in tensors:
        n = tensor.n
        build_invariant_report(tensor, n // 2)
        einstein_tensor(tensor, n // 2)
        pq_sectional(tensor, 2, 2, Frame.coordinate(n, (1, n - 1)))
    assert products == []


def test_a_product_makes_and_certifies_r_on_the_first_read_of_form(made_forms):
    sphere = make_constant_curvature(2, 1)
    explicit = CurvatureTensor(make_constant_curvature(4, 2).form)
    made_forms.clear()
    tensor = make_product(sphere, make_product(explicit, sphere))
    assert (tensor.n, tensor.p) == (8, 2)
    for q in (1, 2, 3):
        weyl_invariant(tensor, q)
        einstein_tensor(tensor, q)
        pq_sectional(tensor, 1, q, Frame.coordinate(8, (0,)))
    assert made_forms and set(made_forms) == {4}  # only the explicit factor's R^2
    made_forms.clear()
    form = tensor.form
    # the sphere's R (one tensor, read twice), the inner sum, the outer sum
    assert made_forms == [2, 2, 2] and tensor.form is form
    assert form == sum(
        (curvature._embed(f.form, 8, at) for f, at in ((sphere, 0), (explicit, 2), (sphere, 6))),
        make_zero(8, 2, 2),
    )


@pytest.fixture
def made_forms(monkeypatch):
    """The bidegree p of each form a CurvatureTensor certifies, in order."""
    made = []
    certify = curvature._require_bianchi_symmetric

    def counted(form, who):
        made.append(form.p)
        certify(form, who)

    monkeypatch.setattr(curvature, "_require_bianchi_symmetric", counted)
    return made


def recorded_zoo(n):
    h = symmetric_matrix(random.Random(n), n, 0.5)
    return [
        make_conformally_flat(h), make_hypersurface(h), make_constant_curvature(n, Fraction(-3, 2))
    ]


def test_a_model_makes_and_certifies_r_on_the_first_read_of_form(made_forms):
    for tensor in recorded_zoo(6):
        kind, matrix = tensor.model
        assert (tensor.n, tensor.p) == (6, 2)
        for q in (1, 2, 3):
            weyl_invariant(tensor, q)
            einstein_tensor(tensor, q)
        pq_sectional(tensor, 2, 2, Frame.coordinate(6, (0, 3)))
        assert made_forms == [], kind
        form = tensor.form
        assert made_forms == [2] and tensor.form is form, kind
        if kind == "conformal":
            assert form == make_g(6).mul(matrix)
        else:
            assert form == gauss_form(matrix)
        made_forms.clear()


def test_walked_certifies_each_form_once(made_forms):
    """verify's _walked makes R from the record with the maker that
    reading form uses, and certifies it once: for a product, each factor's R
    and the sum, three certificates where reading the product's form and
    then CurvatureTensor(form) made four.  The model makes no R itself, and
    a tensor without a record is already walked."""
    product = make_product(make_constant_curvature(2, 1), make_constant_curvature(3, 1))
    explicit = CurvatureTensor(make_g(3).mul(make_g(3)))
    made_forms.clear()
    walked = verify._walked(product)
    assert made_forms == [2, 2, 2]
    assert walked.model is None and "form" not in vars(product)
    assert walked == CurvatureTensor(product.form)
    assert verify._walked(explicit) is explicit
    for tensor in recorded_zoo(5):
        made_forms.clear()
        walked = verify._walked(tensor)
        assert made_forms == [2] and walked.model is None, tensor.model[0]
        assert walked == CurvatureTensor(tensor.form)
        assert weyl_invariant(walked, 2) == weyl_invariant(tensor, 2)


def test_the_conformal_r_is_g_times_h():
    for n in range(2, 9):
        for density in (0.3, 1.0):
            h = symmetric_matrix(random.Random(10 * n), n, density)
            assert make_conformally_flat(h).form == make_g(n).mul(h), (n, density)


def gauss_form(b):
    """B.B/2 by the Gauss equation, for a symmetric (1,1)-form B at n >= 2:

        R[{i,j}, {k,l}] = B_ik B_jl - B_il B_jk    for i < j and k < l.

    B.B reaches that cell from (e_i (x) e_k).(e_j (x) e_l) and from the
    same two factors in the other order, with the same sign, and the 1/2
    cancels that double count.  So each unordered pair of stored rows
    i < j of B is visited once: B_ik B_jl with k != l goes to the column
    {k, l}, with sign + for k < l and - for k > l (e_l ^ e_k = -e_k ^ e_l).
    The numerators are published once, over B.den^2.
    """
    rows = sorted(b.cells.items())
    acc = {}
    for at, (mask_i, row_i) in enumerate(rows):
        for mask_j, row_j in rows[at + 1:]:
            target = acc[mask_i | mask_j] = {}
            for mask_k, x in row_i.items():
                for mask_l, y in row_j.items():
                    if mask_k == mask_l:
                        continue
                    col = mask_k | mask_l
                    if mask_k < mask_l:
                        target[col] = target.get(col, 0) + x * y
                    else:
                        target[col] = target.get(col, 0) - x * y
    out = make_zero(b.n, 2, 2)
    out._publish(acc, b.den * b.den)
    return out


@st.composite
def shape_operators(draw):
    """A random symmetric rational B at n = 2..8, diagonal or dense."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):
        return _diagonal(n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)])
    return symmetric_matrix(rng, n, draw(st.sampled_from((0.5, 1.0))))


@settings(max_examples=80, deadline=None)
@given(shape_operators())
def test_the_hypersurface_r_is_the_gauss_equation(b):
    assert make_hypersurface(b).form == gauss_form(b)


@pytest.mark.parametrize("lam", [Fraction(1), Fraction(-3, 2), Fraction(2, 7), Fraction(0)])
def test_the_constant_r_is_lambda_on_the_diagonal_pairs(lam):
    for n in range(2, 9):
        pairs = [(1 << a) | (1 << b) for a, b in combinations(range(n), 2)]
        expected = {(mask, mask): lam for mask in pairs} if lam else {}
        form = make_constant_curvature(n, lam).form
        assert {(i, j): v for i, j, v in form.entries()} == expected, n


def test_a_model_whose_r_fails_its_certificate_never_hands_r_out(monkeypatch):
    broken = make_zero(4, 2, 2)
    broken._publish({0b0011: {0b1100: 1}}, 1)  # not symmetric
    tensor = make_constant_curvature(4, 1)
    monkeypatch.setattr(DoubleForm, "mul_g_power", lambda self, power: broken)
    for _ in range(2):
        with pytest.raises(DoubleFormError, match="needs a symmetric form"):
            tensor.form
    with pytest.raises(AttributeError, match="'CurvatureTensor' object has no attribute 'mode'"):
        tensor.mode


def test_pq_on_a_model_spec_makes_no_curvature_tensor(made_forms, tmp_path, capsys):
    specs = [
        {"model": "constant", "n": 8, "lambda": "2/3"},
        {"model": "hypersurface", "eigenvalues": ["1", "-2", "1/3", "4", "5", "-1/2", "7", "3"]},
        {"model": "conformally_flat", "h_matrix": [[1, 2, 0], [2, -1, 1], [0, 1, 3]]},
        {"model": "product", "factors": [
            {"model": "constant", "n": 3, "lambda": "1"},
            {"model": "hypersurface", "eigenvalues": ["1", "2", "-3"]},
        ]},
    ]
    for spec in specs:
        path = tmp_path / "spec.json"
        path.write_text(dumps_canonical(spec))
        assert main(["pq", "--spec", str(path), "--p", "1", "--q", "1", "--plane", "2"]) == 0
        assert main(["pq", "--spec", str(path), "--p", "0", "--q", "1"]) == 0
        assert made_forms == [], spec
        assert main(["invariants", "--spec", str(path), "--max-q", "1"]) == 0
        assert made_forms == [], spec
    # a product's h_4 sign report reads its factors' rows
    assert main(["invariants", "--spec", str(path), "--max-q", "2"]) == 0
    assert made_forms == []
    # the h_4 sign report reads R only for a scalar-flat hypersurface that
    # is neither flat nor Einstein, here one with a vanishing Weyl part
    path = tmp_path / "spec.json"
    path.write_text(dumps_canonical({"model": "hypersurface", "eigenvalues": ["-1", "1", "1", "1"]}))
    assert main(["invariants", "--spec", str(path), "--max-q", "2"]) == 0
    assert made_forms == [2]
    assert '"conformally_flat_scalar_flat"' in capsys.readouterr().out


def test_a_conformal_model_classifies_h4_off_h(made_forms):
    for n in (4, 5, 6):
        rng = random.Random(n)
        swap = [[int(j == n - 1 - i) for j in range(n)] for i in range(n)]
        traceless = [[0] * n for _ in range(n)]
        traceless[0][0], traceless[1][1], traceless[0][2] = 2, -2, 1
        traceless[2][0] = 1
        matrices = [
            _diagonal(n, [0] * n),
            _diagonal(n, [Fraction(-3, 2)] * n),
            _diagonal(n, [1] * (n - 1) + [2]),
            _diagonal(n, [1, -1] + [0] * (n - 2)),
            DoubleForm(n, 1, 1, swap),
            DoubleForm(n, 1, 1, traceless),
            symmetric_matrix(rng, n, 0.5),
        ]
        seen = set()
        for h in matrices:
            tensor = make_conformally_flat(h)
            report = sign_report_h4(tensor)
            assert made_forms == [], (n, h)
            assert report == sign_report_h4(CurvatureTensor(tensor.form)), (n, h)
            seen.add(report.classification)
            made_forms.clear()
        assert seen == {
            "flat", "einstein", "conformally_flat_scalar_flat", "hypothesis_not_met"
        }, n


def rotated(b, rng):
    """Q B Q^T for Q a product of rational rotations (3/5, 4/5) on random
    coordinate pairs: B's eigenvalues, so its h_4 class, off the diagonal."""
    n = b.n
    rows = [[b.cell(1 << i, 1 << k) for k in range(n)] for i in range(n)]
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        c, s = Fraction(3, 5), Fraction(4, 5)
        for row in rows:  # B Q^T
            row[i], row[j] = c * row[i] - s * row[j], s * row[i] + c * row[j]
        rows[i], rows[j] = (  # Q (B Q^T)
            [c * x - s * y for x, y in zip(rows[i], rows[j])],
            [s * x + c * y for x, y in zip(rows[i], rows[j])],
        )
    return DoubleForm(n, 1, 1, rows)


@st.composite
def shape_operators_of_every_h4_class(draw):
    """A symmetric B at n = 4..7: random, or rotated from a diagonal that is
    flat (rank 1), Einstein (lambda I, or +-1 halves at even n),
    scalar-flat with a vanishing Weyl part (-(n-2)/2, 1, ..., 1) or
    without one (1, 1, -1/2, 0, ...)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(4, 7))
    lam = draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
    kind = draw(st.sampled_from(
        ("random", "rank1", "scalar", "halves", "weyl_free", "scalar_flat")
    ))
    if kind == "random":
        return symmetric_matrix(rng, n, draw(st.sampled_from((0.2, 0.5, 1.0))))
    diagonal = {
        "rank1": [lam] + [0] * (n - 1),
        "scalar": [lam] * n,
        "halves": [lam] * (n // 2) + [-lam] * (n - n // 2),
        "weyl_free": [Fraction(2 - n, 2) * lam] + [lam] * (n - 1),
        "scalar_flat": [lam, lam, -lam / 2] + [0] * (n - 3),
    }[kind]
    return rotated(_diagonal(n, diagonal), rng)


@settings(max_examples=150, deadline=None)
@given(shape_operators_of_every_h4_class())
def test_a_hypersurface_classifies_h4_off_b(b):
    tensor = make_hypersurface(b)
    report = sign_report_h4(tensor)
    read_r = "form" in vars(tensor)
    walked = CurvatureTensor(tensor.form)
    assert report == sign_report_h4(walked)
    # R is read only for a scalar-flat B that is neither flat nor Einstein
    scalar_flat = walked.form.contract().contract().is_zero()
    assert read_r == (scalar_flat and report.classification not in ("flat", "einstein"))


@st.composite
def einstein_candidates(draw):
    """A (2,2) tensor at n = 4..8, Einstein or not: a random Bianchi form,
    a constant model, a hypersurface of every h_4 class, a conformally flat
    model with h = c I plus random off-diagonal cells (so T_2 can have a
    constant diagonal without being a multiple of g), or a product; a model
    is walked as CurvatureTensor(R.form) half of the time."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(4, 8))
    kind = draw(st.sampled_from(
        ("random_bianchi", "constant", "hypersurface", "conformally_flat", "product")
    ))
    if kind == "random_bianchi":
        return CurvatureTensor(verify.random_bianchi(rng, n, 2))
    c = draw(st.fractions(-3, 3, max_denominator=4))
    if kind == "constant":
        tensor = make_constant_curvature(n, c)
    elif kind == "hypersurface":
        tensor = make_hypersurface(draw(shape_operators_of_every_h4_class()))
    elif kind == "conformally_flat":
        off = symmetric_matrix(rng, n, draw(st.sampled_from((0.0, 0.2, 0.6))))
        rows = [[c if i == j else off.cell(1 << i, 1 << j) for j in range(n)] for i in range(n)]
        tensor = make_conformally_flat(DoubleForm(n, 1, 1, rows))
    else:
        tensor = draw(products(min_n=4))
    return CurvatureTensor(tensor.form) if draw(st.booleans()) else tensor


@settings(max_examples=150, deadline=None)
@given(einstein_candidates())
def test_the_einstein_rule_reads_t2(tensor):
    """The h_4 report's Einstein test, T_2 = h_2 g - cR a multiple of g,
    agrees with is_einstein, which reads R's Ricci contraction."""
    einstein = curvature._is_multiple_of_identity(einstein_tensor(tensor, 1))
    assert einstein == is_einstein(tensor)


def test_invariants_up_to_h2_walk_no_square(monkeypatch, tmp_path):
    """invariants --max-q 1 on an explicit spec forms no R^2: its h_4 sign
    report takes h_4 as the trace of R . R (core.trace_of_product)."""
    products = []
    mul = curvature.DoubleForm.mul

    def counted(self, other):
        if self.p >= 2 and other.p >= 2:
            products.append((self.p, other.p))
        return mul(self, other)

    monkeypatch.setattr(curvature.DoubleForm, "mul", counted)
    path = tmp_path / "explicit.json"
    for n in (4, 6):
        form = verify.random_bianchi(random.Random(n), n, 2)
        path.write_text(dumps_canonical({"model": "explicit", "form": form_to_dict(form)}))
        assert main(["invariants", "--spec", str(path), "--max-q", "1"]) == 0
        assert products == [], n


# -- the characteristic-polynomial kernel -----------------------------------------


def determinant(rows):
    rows = [list(row) for row in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def matrix_product(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b[0]))] for row in a]


@st.composite
def square_matrices(draw):
    """(integer numerators, den, n): square, not symmetric, often sparse."""
    n = draw(st.integers(1, 6))
    density = draw(st.sampled_from((0.2, 0.5, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    nums = [[rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)]
    return nums, draw(st.integers(1, 7)), n


def sparse(nums):
    return {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(nums) if any(row)}


@settings(max_examples=120, deadline=None)
@given(square_matrices())
def test_characteristic_matches_minors_and_newton_definition(matrix):
    nums, den, n = matrix
    a = [[Fraction(v, den) for v in row] for row in nums]
    minors = [
        sum((determinant([[a[i][j] for j in s] for i in s]) for s in combinations(range(n), k)),
            Fraction(0))
        for k in range(n + 1)
    ]
    powers = [[[Fraction(int(i == j)) for j in range(n)] for i in range(n)]]
    for _ in range(n):
        powers.append(matrix_product(powers[-1], a))
    sigmas, tensors = characteristic(sparse(nums), den, range(n), n, newton=True)
    assert [scale for _, scale in sigmas] == [den**k for k in range(n + 1)]
    assert [Fraction(*sigma) for sigma in sigmas] == minors
    for k in range(n + 1):
        # N_k = sum_{i<=k} (-1)^i sigma_{k-i} A^i
        expected = [
            [sum((-1) ** i * minors[k - i] * powers[i][r][c] for i in range(k + 1))
             for c in range(n)]
            for r in range(n)
        ]
        rows, scale = tensors[k]
        got = [[Fraction(rows.get(r, {}).get(c, 0), scale) for c in range(n)] for r in range(n)]
        assert got == expected, k
    assert not any(map(any, expected))  # Cayley-Hamilton: N_n = 0


def test_characteristic_stops_at_top_and_skips_newton():
    nums = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    full, _ = characteristic(sparse(nums), 2, range(3), 3)
    sigmas, tensors = characteristic(sparse(nums), 2, range(3), 1)
    assert tensors is None
    assert sigmas == full[:2] == [(1, 1), (9, 2)]


def test_characteristic_refuses_entries_outside_its_index_set():
    with pytest.raises(DoubleFormError, match="outside its index set"):
        characteristic({0: {5: 1}, 5: {0: 1}}, 1, [0, 1], 2)


def test_characteristic_refuses_an_inexact_trace(monkeypatch):
    """An M_2 off by one in a diagonal entry leaves tr(a M_2) odd; the
    kernel must raise, not round."""
    next_newton = linalg._next_newton

    def off_by_one(rows, current, c):
        out = next_newton(rows, current, c)
        out[0][0] = out[0].get(0, 0) + 1
        return out

    monkeypatch.setattr(linalg, "_next_newton", off_by_one)
    with pytest.raises(IdentityError, match="not divisible by 2"):
        characteristic({0: {0: 1}, 1: {1: 4}}, 1, [0, 1], 2)


# -- verify keeps its closed-form checks on the walk -----------------------------


@pytest.mark.parametrize("check", [
    verify.check_hypersurface_symmetric_functions,
    verify.check_constant_curvature_values,
    verify.check_conformally_flat_values,
])
def test_closed_form_checks_walk_the_powers(check, monkeypatch):
    """These checks compare the invariants with the closed forms, so they
    run on tensors without the record: the record's formulas would be
    compared with themselves.  At n = 6, h_6 needs R^2, a (2,2) x (2,2)
    product."""
    def refused(*args, **kwargs):
        raise AssertionError("a closed-form check read the model record")

    products = []
    mul = curvature.DoubleForm.mul

    def counted(self, other):
        products.append((self.p, other.p))
        return mul(self, other)

    monkeypatch.setattr(curvature, "characteristic", refused)  # the record route's kernel
    monkeypatch.setattr(curvature.DoubleForm, "mul", counted)
    result = verify.CheckResult(check.__name__)
    check(result, random.Random(0), 6, 8)
    assert result.ok and result.cases
    assert (2, 2) in products


def test_model_zoo_builds_its_fixed_models_once_per_n(monkeypatch):
    calls = []
    make = verify.make_constant_curvature

    def counted(n, curvature):
        calls.append((n, curvature))
        return make(n, curvature)

    monkeypatch.setattr(verify, "make_constant_curvature", counted)
    verify._fixed_models.cache_clear()
    first = verify.model_zoo(5, random.Random(0))
    built = len(calls)
    second = verify.model_zoo(5, random.Random(0))
    assert built == 6 and len(calls) == built
    assert first is not second and len(first) == len(second) == 8
    assert [name for name, _ in first] == [name for name, _ in second]
    assert all(a is b for (_, a), (_, b) in zip(first[:-1], second[:-1]))
    # the random model is drawn on every call, from the rng it is given
    assert first[-1][0] == "random_bianchi" and first[-1][1] is not second[-1][1]
    assert first[-1][1] == second[-1][1]
    # a caller's list is its own: popping from it leaves the cache whole
    first.pop()
    assert len(verify.model_zoo(5)) == 7


def test_no_verify_check_changes_a_cached_model():
    for n in (4, 5):
        assert verify.run_verify("all", n, 4, 0).ok
        cached = verify._fixed_models(n)
        fresh = verify._fixed_models.__wrapped__(n)
        assert [(name, model.form, model.model) for name, model in cached] == [
            (name, model.form, model.model) for name, model in fresh
        ]


# -- the dense conformally flat model of the n = 14 CI pin, at small n -----------


@pytest.mark.parametrize("n", [6, 8, 10])
def test_dense_conformally_flat_report_matches_the_walk(n, tmp_path, capsys):
    """h[i][j] = 1 + (ij + i + j) mod 5, the CI's n = 14 model: the closed
    forms and the walk on the same R as an explicit spec print the same
    bytes."""
    h = [[1 + (i * j + i + j) % 5 for j in range(n)] for i in range(n)]
    tensor = make_conformally_flat(DoubleForm(n, 1, 1, h))
    specs = {
        "model": {"model": "conformally_flat", "h_matrix": h},
        "explicit": {"model": "explicit", "form": form_to_dict(tensor.form)},
    }
    out = {}
    for name, spec in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(dumps_canonical(spec))
        assert main(["invariants", "--spec", str(path), "--max-q", str(n // 2)]) == 0
        out[name] = capsys.readouterr().out
    assert out["model"] == out["explicit"]
