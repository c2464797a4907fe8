"""Every module of the package uses each name it imports.

A stdlib-only stand-in for a linter's unused-import rule: a name that an
import binds in a module other than __init__.py (whose imports are its
re-exports) must be referenced somewhere in that module.  from __future__
imports are exempt.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import doubleforms

PACKAGE = Path(doubleforms.__file__).resolve().parent
TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds a
            imported.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\nfrom math import comb, lcm as least\n"
        "def f():\n    return comb(system.maxsize, 2)\n"
    )
    assert unused_imports(source) == ["least", "os"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_exterior_exports_no_index_set_level_helpers():
    # rank, unrank, wedge_sign and complement_sign live on in
    # tests/test_exterior.py as oracles of the mask tables
    for name in ("rank", "unrank", "wedge_sign", "complement_sign"):
        assert not hasattr(doubleforms, name), name
        assert not hasattr(doubleforms.exterior, name), name


def test_index_set_has_no_complement_method():
    # the complement mask is (1 << n) - 1 ^ mask wherever it is needed
    assert not hasattr(doubleforms.exterior.IndexSet, "complement")


def test_every_traced_name_resolves_on_the_package():
    # bench/tracer.py wraps each SPANS target in place, so removing or
    # renaming one breaks `bench/run.py --trace 1`; the file is read, not edited
    spec = importlib.util.spec_from_file_location("doubleforms_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for span, targets in tracer.SPANS.items():
        for target in targets:
            owner = importlib.import_module(f"doubleforms.{target[0]}")
            if len(target) == 3:  # a method, looked up in its class's own dict
                found = target[2] in vars(getattr(owner, target[1], object))
            else:
                found = callable(getattr(owner, target[1], None))
            if not found:
                missing.append((span, target))
    assert tracer.SPANS
    assert missing == []
    assert set(tracer.SUITES) <= set(doubleforms.verify.SUITES)
