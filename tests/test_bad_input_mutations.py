"""Mutated JSON input ends with exit code 0, or 2 and "error: ...", never a traceback.

Valid model specs (every kind, so the closed-form paths of the constant,
hypersurface and conformally flat models and the walk of the product and
explicit ones) and valid forms for decompose are mutated at one to three
JSON nodes: a node is replaced by a value from a fixed pool or by a copy
of another node of the same document, dropped, or duplicated.  Each mutant
drives cli.main under a small cell budget, with a fixed seed, so the cases
are the same on every run.
"""

import copy
import json
import random

import pytest

from doubleforms import DoubleForm, make_constant_curvature, set_cell_budget
from doubleforms.cli import main
from doubleforms.core import cell_budget
from doubleforms.serialize import form_to_dict
from doubleforms.verify import random_bianchi

SEED = 20
CASES_PER_DOCUMENT = 150
BUDGET = 20_000

POOL = [
    None, True, False, 0, 1, 2, 3, -1, 17, 2**70, 1.5, "", "1", "-1/2", "1/0", "x",
    "model", [], [[]], {}, {"model": "constant"},
]


def base_documents():
    """(name, JSON document, commands); each command is argv with FILE for
    the document's path."""
    h = [["2", "1", "0", "0"], ["1", "-1/2", "1", "0"], ["0", "1", "0", "3"], ["0", "0", "3", "1"]]
    spec_commands = [
        ["invariants", "--spec", "FILE", "--max-q", "2"],
        ["pq", "--spec", "FILE", "--p", "0", "--q", "2"],
        ["pq", "--spec", "FILE", "--p", "2", "--q", "1", "--plane", "0,1"],
    ]
    specs = {
        "constant": {"model": "constant", "n": 4, "lambda": "2/3"},
        "hypersurface": {"model": "hypersurface", "eigenvalues": ["1", "-2", "1/2", "3"]},
        "conformally_flat": {"model": "conformally_flat", "n": 4, "h_matrix": h},
        "product": {"model": "product", "factors": [
            {"model": "constant", "n": 2, "lambda": "1"},
            {"model": "hypersurface", "eigenvalues": ["1", "2", "3"]},
        ]},
        "explicit": {"model": "explicit", "form": form_to_dict(make_constant_curvature(4, 1).form)},
    }
    docs = [(name, spec, spec_commands) for name, spec in specs.items()]
    rng = random.Random(SEED)
    forms = {
        "form22": random_bianchi(rng, 4, 2),
        "form33": DoubleForm(5, 3, 3, [[(i + 2 * j) % 3 - 1 for j in range(10)]
                                       for i in range(10)]),
    }
    for name, form in forms.items():
        docs.append((name, form_to_dict(form), [["decompose", "--input", "FILE"]]))
    return docs


def node_paths(doc, path=()):
    """Every node below the root, as a path of keys and list indices."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(rng, doc):
    """One to three replace, drop or duplicate steps on a copy of doc."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        paths = list(node_paths(doc))
        if not paths:
            break
        path = rng.choice(paths)
        parent, key = at(doc, path[:-1]), path[-1]
        action = rng.choice(("pool", "node", "drop", "duplicate"))
        if action == "pool":
            parent[key] = copy.deepcopy(rng.choice(POOL))
        elif action == "node":
            parent[key] = copy.deepcopy(at(doc, rng.choice(paths)))
        elif action == "drop":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[f"{key}_copy"] = copy.deepcopy(parent[key])
    return doc


def mutants():
    rng = random.Random(SEED)
    for name, doc, commands in base_documents():
        for i in range(CASES_PER_DOCUMENT):
            yield f"{name}#{i}", mutate(rng, doc), rng.choice(commands)


@pytest.fixture
def small_budget():
    previous = cell_budget()
    set_cell_budget(BUDGET)
    yield
    set_cell_budget(previous)


def test_mutated_inputs_exit_0_or_2_with_a_message(tmp_path, capsys, small_budget):
    codes = {}
    for label, doc, command in mutants():
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if arg == "FILE" else arg for arg in command]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2), (label, doc, argv, code, err)
        if code == 2:
            assert err.startswith("error: ") and "Traceback" not in err, (label, doc, err)
        codes[code] = codes.get(code, 0) + 1
    # the mutants reach both outcomes, so neither is the only one tested
    assert codes.get(0, 0) > 10 and codes.get(2, 0) > 100, codes


def test_unmutated_inputs_exit_0(tmp_path, capsys, small_budget):
    for name, doc, commands in base_documents():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        for command in commands:
            argv = [str(path) if arg == "FILE" else arg for arg in command]
            assert main(argv) == 0, (name, argv, capsys.readouterr().err)
    capsys.readouterr()
