"""Every public name, and every definition, has a caller.

Each name ``polarkit/__init__.py`` exports must be referenced, as an
``ast`` scan finds it, in the package's own modules, in ``scripts/`` or in
the benchmark's non-test files.  A name that only the tests call is API
nobody runs; ``ALLOWED`` lists the few kept public without a caller.  The
same scan must find every other function and class the package defines,
and every method and property as an attribute (``x.name``), so that a
local variable of the same name does not stand in for a caller; there
are no exceptions.
"""

import ast
import re
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
    # one trial of the sum estimates; the graded suite runs its trials
    # stacked, through graded._sum_norms
    "sum_norm_inequalities",
}


def exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def references() -> tuple[set[str], set[str]]:
    """(every name the scan finds, the names it finds as an attribute)."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "scripts").glob("*.py")
    files += [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    names, attributes = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names | attributes, attributes


def test_every_exported_name_has_a_caller():
    # equality, not inclusion: a name in ALLOWED that gains a caller leaves
    # the list, and the allowed names show that the scan can miss a name
    assert sorted(exported() - references()[0]) == sorted(ALLOWED)


def defined() -> tuple[set[str], set[str]]:
    """(the functions and classes, the methods and properties) the package
    defines, dunder methods left out."""
    functions, methods = set(), set()
    for path in PACKAGE.glob("*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        members = [
            item
            for node in nodes
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        methods |= {item.name for item in members}
        functions |= {
            node.name
            for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not any(node is item for item in members)
        }

    def plain(names):
        return {name for name in names if not (name.startswith("__") and name.endswith("__"))}

    return plain(functions), plain(methods)


def test_every_defined_function_has_a_caller():
    # every function, method and class of the package, public or private,
    # is referenced outside the tests, a method or property as an attribute;
    # an exported name answers to the test above instead, and no other name
    # is let off
    names, attributes = references()
    functions, methods = defined()
    assert sorted(functions - names - exported()) == []
    assert sorted(methods - attributes) == []


def test_only_the_algebra_module_names_the_span_type():
    # the package stores every algebra by its atoms; MatrixAlgebra, the
    # span type the commutant returns, stays behind algebra.py and its
    # export, and no other module names it, not even in an annotation
    naming = {
        path.name
        for path in PACKAGE.glob("*.py")
        if re.search(r"\bMatrixAlgebra\b", path.read_text())
    }
    assert sorted(naming) == ["__init__.py", "algebra.py"]
