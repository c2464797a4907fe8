"""JSON schemas: canonical rationals, forms, model specs, reports."""

import json
import random
from fractions import Fraction

import pytest

from doubleforms import make_basis, make_g, make_zero
from doubleforms.core import CellBudgetError, cell_budget, set_cell_budget
from doubleforms.curvature import build_invariant_report
from doubleforms.serialize import (
    ModelSpec,
    SchemaError,
    build_curvature_tensor,
    decimal6,
    dumps_canonical,
    form_from_dict,
    form_to_dict,
    model_spec_from_dict,
    rational_from_str,
    rational_to_str,
    report_to_table,
)
from doubleforms.verify import CheckResult, random_form

F = Fraction


def test_rational_strings():
    assert rational_to_str(F(3)) == "3"
    assert rational_to_str(F(-7, 2)) == "-7/2"
    assert rational_from_str("6/4") == F(3, 2)
    assert rational_from_str("-5") == F(-5)
    assert rational_from_str(4) == F(4)
    for bad in ("1/-2", "1.5", "", "a", "1/0", True, None):
        with pytest.raises(SchemaError):
            rational_from_str(bad)


@pytest.mark.parametrize("text", ["1\n", "\u0661/\u0662"])
def test_rational_strings_are_ascii_digits_only(text):
    # `$` also matches before a final newline, and `\d` matches any Unicode digit
    with pytest.raises(SchemaError, match="spec.lambda"):
        model_spec_from_dict({"model": "constant", "n": 4, "lambda": text})


def test_decimal_rendering():
    assert decimal6(F(6)) == "6"
    assert decimal6(F(1, 6)) == "0.166667"
    assert decimal6(F(-22, 7)) == "-3.14286"
    assert decimal6(F(10**40)) == "1.00000E+40"


def test_form_round_trip():
    rng = random.Random("serialize-form")
    for n, p, q in ((4, 2, 2), (5, 2, 1), (3, 0, 0), (4, 0, 2)):
        form = random_form(rng, n, p, q)
        data = form_to_dict(form)
        assert form_from_dict(data) == form
        # canonical emission is stable through JSON text
        text = dumps_canonical(data)
        assert form_from_dict(json.loads(text)) == form
    zero = make_zero(4, 2, 2)
    assert form_to_dict(zero)["entries"] == []
    assert form_from_dict(form_to_dict(zero)).is_zero()


def test_form_schema_errors():
    good = form_to_dict(make_g(3))
    for mutate, expected_bit in (
        (lambda d: d.pop("n"), "missing"),
        (lambda d: d.update(extra=1), "unknown"),
        (lambda d: d.update(n="3"), "integer"),
        (lambda d: d.update(p=7), "bidegree"),
        (lambda d: d["entries"].append([[0], [0], "1"]), "sorted"),
        (lambda d: d["entries"][0].append("x"), "expected"),
        (lambda d: d["entries"][0].__setitem__(0, [0, 1]), "indices"),
        (lambda d: d["entries"][0].__setitem__(2, "1/-1"), "denominator"),
        (lambda d: d["entries"][0].__setitem__(0, [3]), "range"),
        (lambda d: d["entries"][0].__setitem__(0, [0, 0]), "increasing"),
    ):
        data = json.loads(json.dumps(good))
        mutate(data)
        with pytest.raises(SchemaError) as err:
            form_from_dict(data)
        assert expected_bit.lower() in str(err.value).lower()


def test_schema_error_carries_field_path():
    data = form_to_dict(make_g(3))
    data["entries"][1][2] = "bogus"
    with pytest.raises(SchemaError) as err:
        form_from_dict(data, path="input")
    assert "input.entries[1][2]" in str(err.value)


def test_model_spec_parsing():
    spec = model_spec_from_dict({"model": "constant", "n": 4, "lambda": "1"})
    assert spec.curvature == F(1, 1)
    hyper = model_spec_from_dict(
        {"model": "hypersurface", "eigenvalues": ["1", "1", "1", "0"]}
    )
    assert hyper.n == 4 and hyper.eigenvalues == (1, 1, 1, 0)
    product = model_spec_from_dict(
        {
            "model": "product",
            "factors": [
                {"model": "constant", "n": 2, "lambda": "1"},
                {"model": "constant", "n": 2, "lambda": "1"},
            ],
        }
    )
    assert product.n == 4
    conf = model_spec_from_dict(
        {"model": "conformally_flat", "h_matrix": [["1", "0"], ["0", "-1"]]}
    )
    assert conf.n == 2


def test_model_spec_schema_errors():
    cases = [
        ({}, "model"),
        ({"model": "torus"}, "unknown model"),
        ({"model": "constant", "n": 4}, "lambda"),
        ({"model": "constant", "n": 4, "lambda": "1/-2"}, "denominator"),
        ({"model": "hypersurface", "eigenvalues": []}, "at least one"),
        ({"model": "hypersurface", "eigenvalues": ["1"], "n": 3}, "eigenvalues"),
        ({"model": "conformally_flat", "h_matrix": [["1", "2"], ["0", "1"]]}, "symmetric"),
        ({"model": "conformally_flat", "h_matrix": [["1", "2"]]}, "columns"),
        ({"model": "product", "factors": [{"model": "constant", "n": 2, "lambda": "1"}]}, "two factors"),
        ({"model": "constant", "n": 4, "lambda": "1", "extra": 0}, "unknown"),
    ]
    for data, expected_bit in cases:
        with pytest.raises(SchemaError) as err:
            model_spec_from_dict(data)
        assert expected_bit.lower() in str(err.value).lower()


def nested_products(levels, leaf):
    """A product spec whose first factor is a product, levels deep."""
    for _ in range(levels):
        leaf = {"model": "product", "factors": [leaf, {"model": "constant", "n": 1, "lambda": "0"}]}
    return leaf


def test_product_nesting_is_bounded_by_the_largest_dimension():
    # each level adds a factor of n >= 1, so 15 levels of two n = 1 factors reach n = 16
    one = {"model": "constant", "n": 1, "lambda": "0"}
    assert model_spec_from_dict(nested_products(14, nested_products(1, one))).n == 16
    with pytest.raises(SchemaError) as err:
        model_spec_from_dict(nested_products(16, one))
    assert str(err.value).startswith("spec" + ".factors[0]" * 15 + ": products nested")


def test_explicit_model_requires_bianchi():
    good = form_to_dict(make_g(4).mul(make_g(4)))
    spec = model_spec_from_dict({"model": "explicit", "form": good})
    assert build_curvature_tensor(spec).p == 2
    bad_form = make_basis(4, (0, 1), (2, 3)) + make_basis(4, (2, 3), (0, 1))
    bad = model_spec_from_dict({"model": "explicit", "form": form_to_dict(bad_form)})
    with pytest.raises(SchemaError):
        build_curvature_tensor(bad)


def test_a_failed_verify_case_writes_its_inputs_as_plain_json():
    # a form, a Fraction and a tuple of Fractions among the inputs
    rec = CheckResult("forced")
    rec.case("passed", True, form=make_g(3))
    w = make_basis(3, (0,), (1,)).scale(F(1, 2)) + make_basis(3, (2,), (0,))
    rec.case("#0", False, "forced failure", form=w, value=F(-7, 2), values=(F(1, 3), F(2)))
    inputs = {
        "form": {"n": 3, "p": 1, "q": 1, "entries": [[[0], [1], "1/2"], [[2], [0], "1"]]},
        "value": "-7/2",
        "values": ["1/3", "2"],
    }
    failure = {"check": "forced", "case": "#0", "detail": "forced failure", "inputs": inputs}
    assert rec.to_dict() == {"name": "forced", "cases": 2, "failures": [failure]}
    text = dumps_canonical(rec.to_dict())
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    assert json.loads(text) == rec.to_dict()


def test_report_table_rendering():
    from doubleforms import make_constant_curvature

    report = build_invariant_report(make_constant_curvature(4, 1), 2)
    table = report_to_table(report)
    assert "n = 4" in table
    assert "6" in table  # h_2 = h_4 = 6 on the unit sphere
    assert "T_2 nonzero entries:" in table
    assert "einstein" in table


def test_dumps_canonical_is_deterministic():
    payload = {"b": 1, "a": [3, 2], "nested": {"z": "1/2", "y": None}}
    assert dumps_canonical(payload) == dumps_canonical(json.loads(json.dumps(payload)))
    assert dumps_canonical(payload).endswith("\n")


# -- form_from_dict: the mask-table fast path refuses what the validating route refuses

_BASE_FORM = {"n": 4, "p": 2, "q": 1, "entries": [[[0, 1], [0], "1"], [[0, 2], [1], "-3/2"]]}


@pytest.mark.parametrize(
    "entry, message",
    [
        ([[0, True], [1], "1"], "form.entries[1][0][]: expected an integer, got True"),
        ([[0, 2], [True], "1"], "form.entries[1][1][]: expected an integer, got True"),
        ([[0, 2], [1.0], "1"], "form.entries[1][1][]: expected an integer, got 1.0"),
        ([{"0": 0}, [1], "1"], "form.entries[1][0]: expected an array, got dict"),
        (["02", [1], "1"], "form.entries[1][0]: expected an array, got str"),
        ([[0, 2], "1", "1"], "form.entries[1][1]: expected an array, got str"),
        ([[2, 0], [1], "1"], "form.entries[1][0]: indices must be strictly increasing, got (2, 0)"),
        ([[2, 2], [1], "1"], "form.entries[1][0]: indices must be strictly increasing, got (2, 2)"),
        ([[0, 4], [1], "1"], "form.entries[1][0]: index 4 out of range [0, 4)"),
        ([[-1, 2], [1], "1"], "form.entries[1][0]: index -1 out of range [0, 4)"),
        ([[2], [1], "1"], "form.entries[1][0]: expected 2 indices, got 1"),
        ([[0, 2], [1, 2], "1"], "form.entries[1][1]: expected 1 indices, got 2"),
        ([[0, 2], [1]], "form.entries[1]: expected [I, J, value], got [[0, 2], [1]]"),
        ([[0, 2], [1], "1", "1"], "form.entries[1]: expected [I, J, value], got [[0, 2], [1], '1', '1']"),
        ("x", "form.entries[1]: expected an array, got str"),
        ([[0, 2], [1], 1.5], "form.entries[1][2]: expected a rational string, got 1.5"),
        ([[0, 2], [1], True], "form.entries[1][2]: expected a rational string, got True"),
        ([[0, 2], [1], "1/0"], "form.entries[1][2]: zero denominator"),
        (
            [[0, 2], [1], "١"],
            "form.entries[1][2]: expected 'num' or 'num/den' with positive denominator, got '١'",
        ),
        ([[0, 1], [0], "1"], "form.entries[1]: entries must be strictly sorted by (rank I, rank J)"),
    ],
)
def test_form_entry_errors_are_unchanged(entry, message):
    data = json.loads(json.dumps(_BASE_FORM))
    data["entries"][1] = entry
    with pytest.raises(SchemaError) as err:
        form_from_dict(data)
    assert str(err.value) == message


def test_form_entry_errors_after_a_reused_value_string():
    # a value string read once is reused; a later bad entry still fails on its own path
    data = json.loads(json.dumps(_BASE_FORM))
    data["entries"][1][2] = "1"
    data["entries"].append([[0, 3], [0], "1/0"])
    with pytest.raises(SchemaError) as err:
        form_from_dict(data)
    assert str(err.value) == "form.entries[2][2]: zero denominator"


def test_form_entries_past_the_cell_budget_are_refused():
    previous = cell_budget()
    set_cell_budget(1)
    try:
        with pytest.raises(CellBudgetError) as err:
            form_from_dict(_BASE_FORM)
    finally:
        set_cell_budget(previous)
    assert str(err.value) == (
        "refusing 2 cells for D^(2,1) at n=4: more than the budget of 1 "
        "(see set_cell_budget / DOUBLEFORMS_CELL_BUDGET)"
    )


def test_form_entry_accepts_a_json_integer_value():
    data = json.loads(json.dumps(_BASE_FORM))
    data["entries"][1][2] = 3
    form = form_from_dict(data)
    assert form[(0, 2), (1,)] == 3
    assert form[(0, 1), (0,)] == 1
    assert form_to_dict(form)["entries"][1] == [[0, 2], [1], "3"]
