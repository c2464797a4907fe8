"""Every module of the package uses each name it imports, and every
module-level function and class has a use.

Stdlib-only stand-ins for a linter's unused-import and dead-code rules.  A
name that an import binds in a module other than __init__.py (whose imports
are its re-exports) must be referenced somewhere in that module.
from __future__ imports are exempt.  A module-level function or class must
be referenced somewhere in the package outside its own definition (so a
function that only calls itself has no use), be exported by
doubleforms.__all__, or be a target of bench/tracer.py's SPANS.
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


def _tracer():
    """bench/tracer.py, read from its file; the tests never edit it."""
    spec = importlib.util.spec_from_file_location("doubleforms_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """module.name of each module-level function and class in sources
    (module name -> source) that no other top-level statement of any module
    names, as a variable or as an attribute."""
    definitions, references = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, node))
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
            references.append((node, names))
    return sorted(
        f"{module}.{node.name}"
        for module, node in definitions
        if not any(node.name in names for other, names in references if other is not node)
    )


def test_unreferenced_definitions_are_found():
    sources = {
        "a": (
            "import b\n"
            "def walk(k):\n    return walk(k - 1) if k else 0\n"
            "def used_elsewhere():\n    return 1\n"
            "class Kept:\n    pass\n"
            "def dead():\n    return b.helper()\n"
        ),
        "b": "def helper():\n    return Kept\ndef caller():\n    return a.used_elsewhere()\n",
    }
    assert unreferenced_definitions(sources) == ["a.dead", "a.walk", "b.caller"]


def test_no_module_defines_a_function_or_class_nothing_uses():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    traced = {
        f"{target[0]}.{target[1]}" for targets in _tracer().SPANS.values() for target in targets
    }
    unused = [
        name
        for name in unreferenced_definitions(sources)
        if name.rpartition(".")[2] not in doubleforms.__all__ and name not in traced
    ]
    assert unused == []


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
    tracer = _tracer()
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
