"""End-to-end command-line behavior and exit codes."""

import decimal
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import doubleforms
from doubleforms import make_scalar
from doubleforms.cli import main
from doubleforms import serialize
from doubleforms.serialize import dumps_canonical, form_to_dict
from doubleforms.verify import random_bianchi


@pytest.fixture
def sphere_spec(tmp_path):
    path = tmp_path / "sphere.json"
    path.write_text(dumps_canonical({"model": "constant", "n": 4, "lambda": "1"}))
    return str(path)


@pytest.fixture
def product_spec(tmp_path):
    path = tmp_path / "s2s2.json"
    path.write_text(
        dumps_canonical(
            {
                "model": "product",
                "factors": [
                    {"model": "constant", "n": 2, "lambda": "1"},
                    {"model": "constant", "n": 2, "lambda": "1"},
                ],
            }
        )
    )
    return str(path)


def test_invariants_json(sphere_spec, capsys):
    assert main(["invariants", "--spec", sphere_spec, "--max-q", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 4
    assert [row["h"] for row in payload["invariants"]] == ["6", "6"]
    assert payload["h4_sign"]["classification"] == "einstein"
    # T_2 = 3g serializes with four diagonal entries of 3
    t2 = payload["invariants"][0]["T"]
    assert [entry[2] for entry in t2["entries"]] == ["3", "3", "3", "3"]


def test_invariants_table(sphere_spec, capsys):
    assert main(["invariants", "--spec", sphere_spec, "--max-q", "1", "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "n = 4" in out and "T_2 nonzero entries:" in out


def test_pq_command(product_spec, capsys):
    assert main(["pq", "--spec", product_spec, "--p", "2", "--q", "1", "--plane", "0,1"]) == 0
    intra = json.loads(capsys.readouterr().out)["samples"][0]["value"]
    assert main(["pq", "--spec", product_spec, "--p", "2", "--q", "1", "--plane", "0,2"]) == 0
    cross = json.loads(capsys.readouterr().out)["samples"][0]["value"]
    assert (intra, cross) == ("1", "0")


_SPHERE = {"model": "constant", "n": 2, "lambda": "1"}
_LINE = {"model": "hypersurface", "eigenvalues": ["1"]}


@pytest.mark.parametrize(
    "factors, n, entries",
    [
        # S^2 x R and R x S^2: the sphere's one cell, embedded
        ([_SPHERE, _LINE], 3, [[[0, 1], [0, 1], "1"]]),
        ([_LINE, _SPHERE], 3, [[[1, 2], [1, 2], "1"]]),
        # R x R is the flat plane
        ([_LINE, {"model": "conformally_flat", "h_matrix": [["2"]]}], 2, []),
    ],
)
def test_a_line_factor_adds_no_cells_to_a_product(tmp_path, capsys, factors, n, entries):
    product = tmp_path / "product.json"
    product.write_text(json.dumps({"model": "product", "factors": factors}))
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps(
        {"model": "explicit", "form": {"n": n, "p": 2, "q": 2, "entries": entries}}
    ))
    for command in (["invariants", "--max-q", "1"], ["pq", "--p", "0", "--q", "1"]):
        outputs = []
        for path in (product, explicit):
            assert main(command + ["--spec", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], command


def test_a_product_refuses_factors_of_different_degrees(tmp_path, capsys):
    # a nonzero (1,1) form at n = 1 is a degree-1 tensor, not a flat line
    line = {"model": "explicit", "form": {"n": 1, "p": 1, "q": 1, "entries": [[[0], [0], "5"]]}}
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"model": "product", "factors": [_SPHERE, line]}))
    assert main(["invariants", "--max-q", "1", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: product factors must share the degree, got 2 and 1\n"


@pytest.mark.parametrize(
    "command, who",
    [
        (["invariants", "--max-q", "1"], "build_invariant_report"),
        (["pq", "--p", "0", "--q", "1"], "weyl_invariant"),
        (["pq", "--p", "1", "--q", "1", "--plane", "2"], "weyl_invariant"),
        (["pq", "--p", "2", "--q", "1", "--plane", "0,3"], "weyl_invariant"),
    ],
)
def test_a_product_of_non_riemann_factors_is_refused(tmp_path, capsys, command, who):
    # two (0,0) factors make a degree-0 product, which has no h_{2q}
    scalar = {"model": "explicit", "form": {"n": 2, "p": 0, "q": 0, "entries": [[[], [], "3"]]}}
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"model": "product", "factors": [scalar, scalar]}))
    assert main(command + ["--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {who} applies to (2,2) curvature tensors, got p=0\n"


def test_pq_scalar_case(sphere_spec, capsys):
    assert main(["pq", "--spec", sphere_spec, "--p", "0", "--q", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples"][0]["value"] == "6"


def test_decompose_command(tmp_path, capsys):
    rng = random.Random("cli-decompose")
    form = random_bianchi(rng, 4, 2)
    path = tmp_path / "form.json"
    path.write_text(dumps_canonical(form_to_dict(form)))
    assert main(["decompose", "--input", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [tuple((c["p"], c["q"])) for c in payload["components"]] == [(0, 0), (1, 1), (2, 2)]


def test_verify_command_and_determinism(capsys):
    assert main(["verify", "--suite", "hodge", "--n", "4", "--trials", "10", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "hodge", "--n", "4", "--trials", "10", "--seed", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["failures"] == 0 and payload["cases"] > 0


def test_verify_default_runs_both_parities(capsys):
    assert main(["verify", "--suite", "hodge", "--trials", "5", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [run["n"] for run in payload["runs"]] == [4, 5]


# SHA-256 of the stdout of `verify --suite all --trials 10 --seed 0 --n N`,
# pinned so that a change to any check's cases or inputs shows up
VERIFY_DIGESTS = {
    2: "d434a98cd61da4dd8a671744b9bb45bb9b8513e51a73679cd4b097f15f477c0d",
    3: "ffe7462a9d8156b1c93fcf5e5ca1948fd588716acd95fff93f57137704c4e882",
    4: "590805e32d2be7cd7667bb6303c46fc61dfb39e41e98432c0695cf4e8da99e83",
    5: "81bd9f2584c4a9f418d71f3de0cee3161a4924fa591caceecf6fe97d4d369c73",
    6: "ba713c1bdb254b2b82228b09060d052dc212477a7d0a3a4ab140ef0a52c0292f",
}


@pytest.mark.parametrize("n", sorted(VERIFY_DIGESTS))
def test_verify_stdout_digest(n, capsys):
    args = ["verify", "--suite", "all", "--trials", "10", "--seed", "0", "--n", str(n)]
    assert main(args) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == VERIFY_DIGESTS[n]


def test_verify_timings_leave_stdout_unchanged(tmp_path, capsys):
    args = ["verify", "--suite", "all", "--trials", "2", "--seed", "4"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    path = tmp_path / "timings.json"
    assert main(args + ["--timings", str(path)]) == 0
    assert capsys.readouterr().out == plain
    timings = json.loads(path.read_text())
    runs = json.loads(plain)["runs"]
    assert [run["n"] for run in timings["runs"]] == [4, 5]
    for timed, run in zip(timings["runs"], runs):
        assert set(timed) == {"suite", "n", "trials", "seed", "cases", "elapsed_s", "checks"}
        assert (timed["suite"], timed["trials"], timed["seed"]) == ("all", 2, 4)
        assert timed["cases"] == run["cases"]
        assert sorted(c["name"] for c in timed["checks"]) == [c["name"] for c in run["checks"]]
        for check, reported in zip(sorted(timed["checks"], key=lambda c: c["name"]), run["checks"]):
            assert set(check) == {"name", "cases", "elapsed_s"}
            assert check["cases"] == reported["cases"]
            assert check["elapsed_s"] >= 0
        assert sum(c["elapsed_s"] for c in timed["checks"]) <= timed["elapsed_s"]


@pytest.mark.parametrize("target", ["missing-dir/timings.json", "."])
def test_verify_timings_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys, target):
    args = ["verify", "--suite", "hodge", "--n", "4", "--trials", "1"]
    assert main(args + ["--timings", str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --timings: cannot write file")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "flags",
    [["--suite", "bogus", "--n", "4"], ["--suite", "hodge", "--n", "17"],
     ["--suite", "hodge", "--n", "1"], ["--suite", "hodge", "--trials", "0"]],
)
def test_verify_usage_errors_leave_the_timings_file_as_it_was(tmp_path, capsys, flags):
    path = tmp_path / "timings.json"
    path.write_bytes(b'{"runs": []}\n')
    assert main(["verify", *flags, "--timings", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert path.read_bytes() == b'{"runs": []}\n'


@pytest.mark.parametrize("existing", [b'{"old": 1}', None])
def test_a_refusal_midway_leaves_the_timings_of_the_runs_that_finished(tmp_path, existing):
    # at a budget of 99 cells the decomposition suite passes at n = 4 and is
    # refused at n = 5, by the identity block of g^0 on D^(2,2) (10 x 10)
    path = tmp_path / "timings.json"
    if existing is not None:
        path.write_bytes(existing)
    args = ["verify", "--suite", "decomposition", "--trials", "2", "--seed", "0"]
    result = run_with_cell_budget("99", args=args + ["--timings", str(path)])
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith(
        "error: refusing 100 cells for the 10x10 block (0, 0) of g^0 on D^(2,2) at n=5, "
    ), result.stderr
    timings = json.loads(path.read_text())
    assert set(timings) == {"runs"}
    assert [(run["suite"], run["n"]) for run in timings["runs"]] == [("decomposition", 4)]
    assert timings["runs"][0]["cases"] > 0
    # refused in the only run: FILE holds no run
    result = run_with_cell_budget("99", args=args + ["--n", "5", "--timings", str(path)])
    assert result.returncode == 2 and result.stdout == ""
    assert json.loads(path.read_text()) == {"runs": []}


def test_verify_usage_errors_keep_their_messages(capsys):
    assert main(["verify", "--suite", "hodge", "--n", "17", "--trials", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: ambient dimension must be an integer in [1, 16], got 17\n"
    )
    assert main(["verify", "--suite", "bogus", "--n", "4"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown suite 'bogus'; expected one of (")


def test_an_unwritable_timings_file_is_refused_before_any_check_runs(
    tmp_path, capsys, monkeypatch
):
    def run_verify(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(doubleforms.verify, "run_verify", run_verify)
    target = str(tmp_path / "missing-dir" / "timings.json")
    assert main(["verify", "--suite", "hodge", "--n", "4", "--timings", target]) == 2
    assert capsys.readouterr().err.startswith("error: --timings: cannot write file")


def test_main_without_argv_runs_the_command_in_sys_argv(monkeypatch, capsys):
    argv = ["verify", "--suite", "hodge", "--n", "4", "--trials", "1"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr("sys.argv", ["doubleforms"] + argv)
    assert main() == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("value", ["2/3", "1/3000000000"])
def test_decimal_column_ignores_the_callers_decimal_context(tmp_path, capsys, value):
    spec = tmp_path / "spec.json"
    spec.write_text(dumps_canonical({"model": "constant", "n": 4, "lambda": value}))
    commands = [
        ["pq", "--spec", str(spec), "--p", "1", "--q", "1", "--plane", "0"],
        ["pq", "--spec", str(spec), "--p", "1", "--q", "1", "--plane", "0", "--format", "table"],
        ["invariants", "--spec", str(spec), "--max-q", "2", "--format", "table"],
    ]
    expected = []
    for argv in commands:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding, ctx.capitals = 2, decimal.ROUND_DOWN, 0
        ctx.traps[decimal.Inexact] = True
        for argv, out in zip(commands, expected):
            assert main(argv) == 0
            assert capsys.readouterr().out == out
    assert any("E-" in out for out in expected) == (value == "1/3000000000")


def test_usage_errors(tmp_path, capsys):
    assert main(["verify", "--suite", "bogus", "--n", "4"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "constant", "n": 4, "lambda": "1/-2"}')
    assert main(["invariants", "--spec", bad.name if False else str(bad), "--max-q", "1"]) == 2
    err = capsys.readouterr().err
    assert "lambda" in err
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    assert main(["invariants", "--spec", str(malformed), "--max-q", "1"]) == 2
    missing = tmp_path / "missing.json"
    assert main(["decompose", "--input", str(missing)]) == 2
    assert main(["pq", "--spec", str(bad), "--p", "1", "--q", "1", "--plane", "x"]) == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["unknown-command"])
    assert exit_info.value.code == 2


_BAD_INPUT_FILES = {
    "invalid_utf8": b'{"n": "\xff\xfe"}',
    "deep_nesting": b"[" * 100000,
}


@pytest.mark.parametrize("content", sorted(_BAD_INPUT_FILES))
@pytest.mark.parametrize(
    "command",
    [
        ["decompose", "--input"],
        ["invariants", "--max-q", "1", "--spec"],
        ["pq", "--p", "1", "--q", "1", "--plane", "0", "--spec"],
    ],
    ids=["decompose", "invariants", "pq"],
)
def test_unreadable_json_is_a_usage_error(tmp_path, capsys, command, content):
    path = tmp_path / "input.json"
    path.write_bytes(_BAD_INPUT_FILES[content])
    assert main(command + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: malformed JSON: ")


def test_products_nested_as_deep_as_json_allows_are_usage_errors(tmp_path, capsys):
    # past 15 levels no product fits in n <= 16; deeper specs once overflowed
    # the stack while the tensor was built
    leaf = '{"model": "constant", "n": 2, "lambda": "1"}'
    path = tmp_path / "spec.json"

    def error_line(levels):
        head, tail = '{"model": "product", "factors": [', ", " + leaf + "]}"
        path.write_text(head * levels + leaf + tail * levels)
        assert main(["invariants", "--max-q", "1", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        return lines[0]

    low, high = 16, 100000  # the deepest nesting json.load accepts, by bisection
    while high - low > 1:
        middle = (low + high) // 2
        if "nested too deeply" in error_line(middle):
            high = middle
        else:
            low = middle
    assert low > 100
    assert error_line(low).startswith("error: spec" + ".factors[0]" * 15 + ": products nested")


# CPython refuses int <-> str conversions past a digit limit (4300 by default)
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_LONG = "1" * 5000


@pytest.mark.skipif(not 0 < _DIGIT_LIMIT < len(_LONG), reason="no int() digit limit below 5000")
@pytest.mark.parametrize(
    "command, text, where",
    [
        (["invariants", "--max-q", "1", "--spec"],
         '{"model": "constant", "n": 4, "lambda": "%s"}' % _LONG, "spec.lambda: number too long"),
        (["invariants", "--max-q", "1", "--spec"],
         '{"model": "constant", "n": %s, "lambda": "1"}' % _LONG, "malformed JSON"),
        (["decompose", "--input"],
         '{"n": 2, "p": 1, "q": 1, "entries": [[[0], [0], "%s"]]}' % _LONG,
         "form.entries[0][2]: number too long"),
        (["decompose", "--input"],
         '{"n": 2, "p": 1, "q": 1, "entries": [[[0], [0], %s]]}' % _LONG, "malformed JSON"),
    ],
    ids=["lambda", "n", "entry_string", "entry_integer"],
)
def test_numbers_past_the_digit_limit_are_usage_errors(tmp_path, capsys, command, text, where):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main(command + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and where in lines[0], lines


@pytest.mark.skipif(not 0 < _DIGIT_LIMIT < 6000, reason="no int() digit limit below 6000")
@pytest.mark.parametrize(
    "command, text",
    [
        # a 3000-digit lambda is accepted; h_4 has about 6000 digits
        (["invariants", "--max-q", "2", "--format", fmt, "--spec"],
         '{"model": "constant", "n": 4, "lambda": "%s"}' % ("1" * 3000))
        for fmt in ("json", "table")
    ] + [
        # the trace 1/d1 + 1/d2 of coprime 3000-digit d1, d2 is over d1 d2
        (["decompose", "--input"],
         '{"n": 2, "p": 1, "q": 1, "entries": [[[0], [0], "1/%s"], [[1], [1], "1/1%s"]]}'
         % ("1" * 3000, "0" * 3000)),
    ],
    ids=["invariants_json", "invariants_table", "decompose"],
)
def test_output_numbers_past_the_digit_limit_are_usage_errors(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main(command + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: output number too long"), lines


def test_plane_arity_error(product_spec):
    assert main(["pq", "--spec", product_spec, "--p", "2", "--q", "1", "--plane", "0"]) == 2


def test_scalar_pq_rejects_a_plane(sphere_spec, capsys):
    assert main(["pq", "--spec", sphere_spec, "--p", "0", "--q", "1", "--plane", "5"]) == 2
    assert "--plane" in capsys.readouterr().err
    assert main(["pq", "--spec", sphere_spec, "--p", "0", "--q", "1"]) == 0


def test_pq_checks_the_degree_range_before_the_plane(sphere_spec, capsys):
    assert main(["pq", "--spec", sphere_spec, "--p", "-1", "--q", "1"]) == 2
    err = capsys.readouterr().err
    assert "need 0 <= p <= n - 2q, got p=-1" in err
    assert "plane" not in err


@pytest.mark.parametrize("power", [0, 1, 3])
def test_invariants_refuses_a_tensor_that_is_not_2_2(tmp_path, capsys, power):
    # the explicit spec of g^power, a (power, power) Bianchi form at n = 6
    form = make_scalar(6, 1).mul_g_power(power)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"model": "explicit", "form": form_to_dict(form)}))
    for command in (["invariants", "--max-q", "1"], ["pq", "--p", "0", "--q", "1"]):
        assert main(command + ["--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "applies to (2,2) curvature tensors, got p=%d" % power in captured.err


def run_with_cell_budget(value, code=None, args=()):
    """Run `code` (or `python -m doubleforms.cli args`) in a fresh interpreter
    whose only DOUBLEFORMS_* setting is the budget.

    The child imports the same `doubleforms` as this test, from `src/` or from
    an installed tree, and nothing else of the outer environment leaks in.
    It writes no bytecode, so a run leaves no `__pycache__` in that tree.
    """
    package_root = Path(doubleforms.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-c", code] if code else [sys.executable, "-m", "doubleforms.cli", *args],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(package_root),
            "PYTHONDONTWRITEBYTECODE": "1",
            "DOUBLEFORMS_CELL_BUDGET": value,
        },
        timeout=120,
    )


def test_cell_budget_environment_override():
    code = (
        "from doubleforms.core import cell_budget\n"
        "from doubleforms import CellBudgetError, DoubleForm\n"
        "assert cell_budget() == 123\n"
        "try:\n"
        "    DoubleForm(6, 2, 2, [[1] * 15] * 15)\n"
        "except CellBudgetError:\n"
        "    print('refused')\n"
    )
    result = run_with_cell_budget("123", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "refused"


@pytest.mark.parametrize("value", ["abc", "1e3", "-5", "0"])
def test_cell_budget_environment_rejects_bad_values(value):
    result = run_with_cell_budget(value, "import doubleforms\ndoubleforms.cell_budget()\n")
    assert result.returncode != 0
    last_line = result.stderr.strip().splitlines()[-1]
    assert last_line.startswith("doubleforms.core.DoubleFormError: DOUBLEFORMS_CELL_BUDGET "), last_line
    assert value in last_line
    assert "invalid literal" not in result.stderr


@pytest.mark.parametrize("value", ["abc", "1e3", "-5", "0"])
def test_cli_reports_bad_cell_budget_as_usage_error(value):
    result = run_with_cell_budget(
        value, args=["verify", "--suite", "hodge", "--n", "4", "--trials", "1"]
    )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert result.stderr.startswith("error: DOUBLEFORMS_CELL_BUDGET must be "), result.stderr
    assert value in result.stderr
    assert result.stdout == ""


def test_decompose_refuses_more_entries_than_the_cell_budget(tmp_path):
    form = form_to_dict(random_bianchi(random.Random("cli-budget"), 4, 2))
    path = tmp_path / "form.json"
    path.write_text(dumps_canonical(form))
    budget = len(form["entries"]) - 1
    result = run_with_cell_budget(str(budget), args=["decompose", "--input", str(path)])
    assert result.returncode == 2, result.stderr
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert result.stderr.startswith(
        f"error: refusing {budget + 1} cells for D^(2,2) at n=4: more than the budget of {budget}"
    ), result.stderr
    assert result.stdout == ""


def test_middle_degree_at_n14_fits_the_default_budget(tmp_path, capsys):
    # the contraction chain of R^7 passes through D^(7,7), whose dense size
    # 3432^2 exceeds the default budget; its forms store at most 3432 cells
    path = tmp_path / "s2s12.json"
    path.write_text(
        dumps_canonical(
            {
                "model": "product",
                "factors": [
                    {"model": "constant", "n": 2, "lambda": "1"},
                    {"model": "constant", "n": 12, "lambda": "1"},
                ],
            }
        )
    )
    assert main(["invariants", "--spec", str(path), "--max-q", "7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 14 and len(payload["invariants"]) == 7


def test_cell_budget_environment_keeps_int_syntax():
    code = "from doubleforms import cell_budget\nprint(cell_budget())\n"
    result = run_with_cell_budget(" 7 ", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "7"


def exit_code(argv) -> int:
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--max-q", "٢"),  # ARABIC-INDIC DIGIT TWO
        ("--max-q", "+1"),
        ("--max-q", " 1"),
        ("--max-q", "1 "),
        ("--p", "２"),  # FULLWIDTH DIGIT TWO
        ("--q", "0_1"),
        ("--n", "٤"),  # ARABIC-INDIC DIGIT FOUR
        ("--trials", "1_0"),
        ("--seed", "+1"),
        ("--seed", "1" * 5000),
        ("--plane", "١,٢"),
        ("--plane", "0,,1,"),
        ("--plane", ",0,1"),
        ("--plane", "0, 1"),
        ("--plane", "+0,1"),
        ("--plane", "0," + "1" * 5000),
    ],
)
def test_integer_flags_take_ascii_digits_matched_in_full(
    sphere_spec, product_spec, capsys, flag, text
):
    commands = {
        "--max-q": ["invariants", "--spec", sphere_spec, "--max-q", "1"],
        "--p": ["pq", "--spec", product_spec, "--p", "2", "--q", "1", "--plane", "0,1"],
        "--q": ["pq", "--spec", product_spec, "--p", "2", "--q", "1", "--plane", "0,1"],
        "--plane": ["pq", "--spec", product_spec, "--p", "2", "--q", "1", "--plane", "0,1"],
        "--n": ["verify", "--suite", "hodge", "--n", "4", "--trials", "1"],
        "--trials": ["verify", "--suite", "hodge", "--n", "4", "--trials", "1"],
        "--seed": ["verify", "--suite", "hodge", "--n", "4", "--trials", "1", "--seed", "0"],
    }
    argv = commands[flag]
    assert exit_code(argv) == 0  # the command runs with the plain value
    capsys.readouterr()
    argv[argv.index(flag) + 1] = text
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err and "Traceback" not in captured.err


def test_integer_flags_keep_a_leading_minus(sphere_spec, capsys):
    assert exit_code(["verify", "--suite", "hodge", "--n", "4", "--trials", "1", "--seed", "-3"]) == 0
    assert exit_code(["pq", "--spec", sphere_spec, "--p", "1", "--q", "1", "--plane", "-1"]) == 2
    assert "coordinate index out of range" in capsys.readouterr().err


# -- a stdout that refuses the output ------------------------------------------


def dense_form_dict(n, p):
    """The dense (p,p) form at n that CI's n14-zoo job writes for decompose
    (its dense107.json formula)."""
    subsets = list(combinations(range(n), p))
    return {"n": n, "p": p, "q": p, "entries": [
        [list(I), list(J), "%d/%d" % ((a * 7 + b * 3) % 11 - 5 or 1, 1 + (a + 2 * b) % 4)]
        for a, I in enumerate(subsets) for b, J in enumerate(subsets)
    ]}


@pytest.fixture
def dense_form_path(tmp_path):
    # its decompose prints about 280 KB, more than a pipe holds
    path = tmp_path / "dense73.json"
    path.write_text(json.dumps(dense_form_dict(7, 3)))
    return str(path)


def refused_commands(sphere_spec, product_spec, form_path):
    return {
        "invariants": ["invariants", "--spec", sphere_spec, "--max-q", "2"],
        "invariants_table": ["invariants", "--spec", sphere_spec, "--max-q", "2", "--format", "table"],
        "pq": ["pq", "--spec", product_spec, "--p", "2", "--q", "1", "--plane", "0,2"],
        "decompose": ["decompose", "--input", form_path],
        "verify": ["verify", "--suite", "hodge", "--n", "4", "--trials", "1"],
    }


class RefusingStdout:
    """A stdout whose write (after `accepted` writes) or flush raises error."""

    def __init__(self, method, error, accepted=0):
        self.method, self.error, self.accepted = method, error, accepted
        self.written = []

    def write(self, text):
        if self.method == "write" and len(self.written) == self.accepted:
            raise self.error
        self.written.append(text)
        return len(text)

    def flush(self):
        if self.method == "flush":
            raise self.error


REFUSALS = [
    OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
    BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)),
]


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("error", REFUSALS, ids=["ENOSPC", "EPIPE"])
@pytest.mark.parametrize("command", ["invariants", "invariants_table", "pq", "decompose", "verify"])
def test_a_refused_stdout_is_a_usage_error(
    sphere_spec, product_spec, dense_form_path, monkeypatch, capsys, method, error, command
):
    argv = refused_commands(sphere_spec, product_spec, dense_form_path)[command]
    monkeypatch.setattr(sys, "stdout", RefusingStdout(method, error))
    assert main(argv) == 2
    # one line, before verify's summary of cases
    assert capsys.readouterr().err == f"error: cannot write output: {error}\n"


def test_a_write_refused_midway_is_a_usage_error(dense_form_path, monkeypatch, capsys):
    chunk = 1 << 16  # a 280 KB output spans several chunks of this size
    monkeypatch.setattr(serialize, "CHUNK_SIZE", chunk)
    assert main(["decompose", "--input", dense_form_path]) == 0
    full = capsys.readouterr().out
    stdout = RefusingStdout("write", REFUSALS[1], accepted=2)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["decompose", "--input", dense_form_path]) == 2
    assert capsys.readouterr().err == f"error: cannot write output: {REFUSALS[1]}\n"
    written = "".join(stdout.written)
    assert len(stdout.written) == 2 and len(written) >= 2 * chunk
    assert full.startswith(written) and len(full) > len(written)


class ShortRaw(io.RawIOBase):
    """A raw binary stdout, as under python -u, that takes at most `most`
    bytes a write and, once it holds `limit` bytes, refuses like a pipe
    whose reader has gone."""

    def __init__(self, most, limit=None):
        self.most, self.limit, self.data = most, limit, bytearray()

    def writable(self):
        return True

    def write(self, data):
        room = self.most if self.limit is None else min(self.most, self.limit - len(self.data))
        if room <= 0:
            raise REFUSALS[1]
        taken = bytes(data[:room])
        self.data += taken
        return len(taken)


def raw_stdout(raw):
    """A text stdout over a raw binary stream, as python -u makes it."""
    return io.TextIOWrapper(raw, encoding="utf-8", write_through=True)


@pytest.mark.parametrize("command", ["invariants", "decompose", "verify"])
def test_short_raw_writes_are_completed(
    sphere_spec, product_spec, dense_form_path, monkeypatch, capsys, command
):
    argv = refused_commands(sphere_spec, product_spec, dense_form_path)[command]
    assert main(argv) == 0
    full = capsys.readouterr().out
    raw = ShortRaw(most=100)
    monkeypatch.setattr(sys, "stdout", raw_stdout(raw))
    assert main(argv) == 0
    assert raw.data.decode() == full


@pytest.mark.parametrize("command", ["invariants", "decompose", "verify"])
def test_a_raw_stdout_closed_in_the_last_chunk_exits_2(
    sphere_spec, product_spec, dense_form_path, monkeypatch, capsys, command
):
    argv = refused_commands(sphere_spec, product_spec, dense_form_path)[command]
    assert main(argv) == 0
    full = capsys.readouterr().out
    raw = ShortRaw(most=100, limit=len(full) - 5)
    monkeypatch.setattr(sys, "stdout", raw_stdout(raw))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write output: {REFUSALS[1]}\n"
    assert raw.data.decode() == full[:-5]


def run_cli(args, stdout, unbuffered):
    """python -m doubleforms.cli args in a fresh interpreter, stdout given,
    stderr captured, with or without PYTHONUNBUFFERED; it writes no
    bytecode into the package."""
    package_root = Path(doubleforms.__file__).resolve().parent.parent
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root), "PYTHONDONTWRITEBYTECODE": "1"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "doubleforms.cli", *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["invariants", "decompose", "verify"])
def test_stdout_on_dev_full_exits_2_with_one_line(
    sphere_spec, product_spec, dense_form_path, command, unbuffered
):
    argv = refused_commands(sphere_spec, product_spec, dense_form_path)[command]
    with open("/dev/full", "w") as full:
        proc = run_cli(argv, full, unbuffered)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2, err
    assert err == f"error: cannot write output: {REFUSALS[0]}\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_pipe_closed_midway_exits_2_with_one_line(dense_form_path, unbuffered):
    proc = run_cli(["decompose", "--input", dense_form_path], subprocess.PIPE, unbuffered)
    assert proc.stdout.read(10) == '{\n  "compo'
    proc.stdout.close()  # like `| head -c 10`
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 2, err
    assert err == f"error: cannot write output: {REFUSALS[1]}\n"
