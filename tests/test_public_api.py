"""Every public name, and every definition, has a caller.

Each name ``polarkit/__init__.py`` exports must be referenced, as an
``ast`` scan finds it, in the package's own modules, in ``scripts/`` or in
the benchmark's non-test files.  A name that only the tests call is API
nobody runs; ``ALLOWED`` lists the few kept public without a caller.  The
same scan must find every other function, method and class the package
defines, with no exceptions.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polarkit"

ALLOWED = {
    # the diagonal zoo model, beside the constructors the zoo script calls
    "normal",
    # writes the matrix files that --in reads
    "write_matrix",
    # reads back what normal-order --report json writes
    "normal_form_from_json",
    # the tower's hypotheses alone; build_tower reads them with X's frame
    "hypotheses_check",
}


def exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def referenced() -> set[str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "scripts").glob("*.py")
    files += [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_exported_name_has_a_caller():
    # equality, not inclusion: a name in ALLOWED that gains a caller leaves
    # the list, and the allowed names show that the scan can miss a name
    assert sorted(exported() - referenced()) == sorted(ALLOWED)


def defined() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def test_every_defined_function_has_a_caller():
    # every function, method and class of the package, public or private,
    # is referenced outside the tests; an exported name answers to the test
    # above instead, and no other name is let off
    assert sorted(defined() - referenced() - exported()) == []
