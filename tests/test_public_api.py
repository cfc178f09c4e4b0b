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
import dataclasses
import inspect
import os
import re
from pathlib import Path

import numpy as np
import pytest

import polarkit as pk

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
    # membership in C*(1, a) for any Hermitian a; verify_I1 reads the
    # eigenspaces of a*a off the polar SVD of a instead
    "is_function_of",
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


# -- one shape check for a matrix from outside ------------------------------


def _custom(m):
    return pk.ModelSpec(kind="custom", dim=2, matrix=m)


def _model():
    return pk.graded_model_for(pk.build(pk.weighted_shift((1.0, np.sqrt(2.0)))))


# every export that reads a matrix from outside, called with m where that
# matrix goes (a list of matrices holds one); GradedModel.element too
TAKES_A_MATRIX = {
    "GradedModel": lambda m: pk.GradedModel(m, pk.spectral_algebra(np.eye(2))),
    "GradedModel.element": lambda m: _model().element({0: m}),
    "bicommutant": lambda m: pk.bicommutant([m]),
    "build": lambda m: pk.build(_custom(m)),
    "coefficient_algebra": pk.coefficient_algebra,
    "commutant": lambda m: pk.commutant([m]),
    "commuting_projection_properties": lambda m: pk.commuting_projection_properties(m, 2),
    "custom": pk.custom,
    "endo_pair": pk.endo_pair,
    "evaluate": lambda m: pk.evaluate("a", m),
    "graded_model_for": pk.graded_model_for,
    "is_function_of": lambda m: pk.is_function_of(m, np.eye(2)),
    "matrix_to_json": pk.matrix_to_json,
    "model_spec_to_json": lambda m: pk.model_spec_to_json(_custom(m)),
    "partial_isometry_report": pk.partial_isometry_report,
    "polar_decompose": pk.polar_decompose,
    "power_isometry_check": lambda m: pk.power_isometry_check(m, 2),
    "spectral_algebra": pk.spectral_algebra,
    "sum_norm_inequalities": lambda m: pk.sum_norm_inequalities([m]),
    "theorem22_report": pk.theorem22_report,
    "verify_I1": pk.verify_I1,
    "write_matrix": lambda m: pk.write_matrix(os.devnull, m),
}

# the exports that read no matrix from outside, besides the errors and the
# record types (dataclasses), which the entry points build
TAKES_NO_MATRIX = {
    # primitives on the package's own arrays
    "dagger", "operator_norm",
    # constants
    "DEFAULT_TOL", "KINDS", "NF_ONE",
    # models by their parameters
    "jordan_block", "normal", "q_lambda", "q_oscillator", "weighted_shift", "phi_for",
    # on algebras, pairs, towers and graded elements the entry points built
    "build_tower", "verify_tower_theorems", "check_property_star", "graded_adjoint",
    "graded_mul", "norm_estimate", "random_element", "realize",
    # words and normal forms
    "deg", "interior_projection", "nf_mul", "normal_order", "parse_word",
    # JSON, whose matrices are ParseErrors, and suite configs
    "config_from_json", "dumps_canonical", "matrix_from_json", "model_spec_from_json",
    "normal_form_from_json", "normal_form_to_json", "read_matrix", "report_to_json",
    "report_to_text", "run_suite",
}


def test_every_export_is_sorted_by_whether_it_takes_a_matrix():
    # a new entry point joins one of the two tables, so none skips the guard
    objects = {name: getattr(pk, name) for name in exported()}
    records = {
        name
        for name, obj in objects.items()
        if isinstance(obj, type) and (issubclass(obj, Exception) or dataclasses.is_dataclass(obj))
    }
    entries = {name for name in TAKES_A_MATRIX if "." not in name}
    assert not entries & TAKES_NO_MATRIX
    assert sorted(exported() - records) == sorted(entries | TAKES_NO_MATRIX)


@pytest.mark.parametrize(
    "m",
    (np.zeros((2, 3)), np.zeros((2, 2, 2)), "abc", [[1, 2], [3]]),
    ids=("2x3", "2x2x2", "str", "ragged"),
)
@pytest.mark.parametrize("name", sorted(TAKES_A_MATRIX))
def test_a_malformed_matrix_is_an_invalid_spec_at_every_export(name, m):
    # all but the four relation views and sum_norm_inequalities raised a
    # bare ValueError on each of these
    with pytest.raises(pk.InvalidSpec, match="^expected a square complex matrix, got ") as err:
        TAKES_A_MATRIX[name](m)
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize(
    "call, message",
    (
        (lambda: pk.norm_estimate(pk.random_element(_model(), np.random.default_rng(0), 1), 0),
         "kmax must be at least 1, got 0"),
        (lambda: pk.power_isometry_check(np.eye(2), 0), "kmax must be at least 1, got 0"),
        (lambda: pk.commuting_projection_properties(np.eye(2), 0), "kmax must be at least 1, got 0"),
        (lambda: pk.random_element(_model(), np.random.default_rng(0), bandwidth=-1),
         "bandwidth must be at least 0, got -1"),
        (lambda: pk.check_property_star(_model(), samples=-3), "samples must be at least 0, got -3"),
        (lambda: pk.commutant([]), "commutant needs at least one matrix"),
        (lambda: pk.sum_norm_inequalities([]), "need at least one matrix"),
    ),
    ids=("norm_estimate", "power_isometry_check", "commuting_projection_properties",
         "bandwidth", "samples", "commutant", "sum_norm_inequalities"),
)
def test_an_argument_out_of_range_is_an_invalid_spec(call, message):
    # each raised a bare ValueError with the same message
    with pytest.raises(pk.InvalidSpec) as err:
        call()
    assert str(err.value) == message


# -- one door for a tolerance ------------------------------------------------


def _shift():
    return pk.build(pk.weighted_shift((1.0, np.sqrt(2.0))))


def _u():
    return pk.polar_decompose(_shift()).u


def _tower():
    seed, pair = pk.spectral_algebra(np.diag([1.0, 2.0, 0.0])), pk.endo_pair(_u())
    return pk.build_tower(seed, pair), pair


# every export that takes a tol, called with that tol and inputs that are
# valid at the default one
TAKES_A_TOL = {
    "GradedModel": lambda tol: pk.GradedModel(_u(), pk.spectral_algebra(np.diag([1.0, 2.0, 0.0])),
                                              tol=tol),
    "bicommutant": lambda tol: pk.bicommutant([_shift()], tol=tol),
    "build_tower": lambda tol: pk.build_tower(pk.spectral_algebra(np.eye(3)), pk.endo_pair(_u()),
                                              tol=tol),
    "check_property_star": lambda tol: pk.check_property_star(_model(), samples=2, tol=tol),
    "coefficient_algebra": lambda tol: pk.coefficient_algebra(_shift(), tol=tol),
    "commutant": lambda tol: pk.commutant([_shift()], tol=tol),
    "commuting_projection_properties": lambda tol: pk.commuting_projection_properties(_u(), 2, tol),
    "endo_pair": lambda tol: pk.endo_pair(_u(), tol=tol),
    "graded_model_for": lambda tol: pk.graded_model_for(_shift(), tol=tol),
    "is_function_of": lambda tol: pk.is_function_of(np.eye(2), np.diag([1.0, 2.0]), tol=tol),
    "partial_isometry_report": lambda tol: pk.partial_isometry_report(_u(), tol=tol),
    "polar_decompose": lambda tol: pk.polar_decompose(_shift(), tol=tol),
    "power_isometry_check": lambda tol: pk.power_isometry_check(_u(), 2, tol=tol),
    "spectral_algebra": lambda tol: pk.spectral_algebra(np.diag([1.0, 2.0]), tol=tol),
    "sum_norm_inequalities": lambda tol: pk.sum_norm_inequalities([_shift()], tol=tol),
    "theorem22_report": lambda tol: pk.theorem22_report(_shift(), tol=tol),
    "verify_I1": lambda tol: pk.verify_I1(_shift(), tol=tol),
    "verify_tower_theorems": lambda tol: pk.verify_tower_theorems(*_tower(), tol=tol),
}


def _parameters(obj) -> tuple[str, ...]:
    try:
        return tuple(inspect.signature(obj).parameters)
    except (TypeError, ValueError):  # not a callable, or one without a signature
        return ()


def test_every_export_that_takes_a_tol_is_in_the_tol_table():
    # a record type (SuiteConfig) checks its own fields, with a ConfigError
    objects = {name: getattr(pk, name) for name in exported()}
    taking = {
        name for name, obj in objects.items()
        if "tol" in _parameters(obj) and not dataclasses.is_dataclass(obj)
    }
    assert sorted(taking) == sorted(TAKES_A_TOL)


@pytest.mark.parametrize("name", sorted(TAKES_A_TOL))
def test_every_export_takes_its_inputs_at_the_default_tol(name):
    TAKES_A_TOL[name](pk.DEFAULT_TOL)


@pytest.mark.parametrize(
    "tol", (0.0, -1e-9, float("nan"), float("inf"), "1e-9", None, [1e-9], True), ids=str
)
@pytest.mark.parametrize("name", sorted(TAKES_A_TOL))
def test_a_tol_outside_zero_to_inf_is_an_invalid_spec_at_every_export(name, tol):
    # at tol = inf partial_isometry_report, is_function_of, power_isometry_check
    # and commuting_projection_properties passed np.ones((2, 2)), endo_pair
    # returned a pair; at tol = nan spectral_algebra had one atom, and a
    # negative tol was a NotHermitian; tol = True ran at tol 1
    with pytest.raises(pk.InvalidSpec) as err:
        TAKES_A_TOL[name](tol)
    assert str(err.value) == f"tol must be positive and finite, got {tol!r}"


# -- one door for a count ----------------------------------------------------

COUNTS = {"kmax": 1, "bandwidth": 0, "samples": 0}

# every export that takes a count, as "export:parameter", called with that
# count and inputs that are valid at its least
TAKES_A_COUNT = {
    "check_property_star:bandwidth": lambda k: pk.check_property_star(_model(), 2, bandwidth=k),
    "check_property_star:samples": lambda k: pk.check_property_star(_model(), samples=k),
    "commuting_projection_properties:kmax": lambda k: pk.commuting_projection_properties(_u(), k),
    "norm_estimate:kmax": lambda k: pk.norm_estimate(
        pk.random_element(_model(), np.random.default_rng(0), 1), kmax=k),
    "power_isometry_check:kmax": lambda k: pk.power_isometry_check(_u(), k),
    "random_element:bandwidth": lambda k: pk.random_element(
        _model(), np.random.default_rng(0), bandwidth=k),
}


def test_every_export_that_takes_a_count_is_in_the_count_table():
    # a record type (SuiteConfig) checks its own fields, with a ConfigError
    objects = {name: getattr(pk, name) for name in exported()}
    taking = {
        f"{name}:{param}" for name, obj in objects.items() if not dataclasses.is_dataclass(obj)
        for param in _parameters(obj) if param in COUNTS
    }
    assert sorted(taking) == sorted(TAKES_A_COUNT)


@pytest.mark.parametrize("name", sorted(TAKES_A_COUNT))
def test_every_export_takes_its_least_count(name):
    TAKES_A_COUNT[name](COUNTS[name.split(":")[1]])


@pytest.mark.parametrize("value", ("3", 2.5, None, "least - 1", True, False), ids=str)
@pytest.mark.parametrize("name", sorted(TAKES_A_COUNT))
def test_a_count_that_is_not_an_integer_from_its_least_is_an_invalid_spec(name, value):
    # "3", None and a kmax of 2.5 at power_isometry_check were a bare TypeError,
    # norm_estimate ran at kmax = 2.5, and a bool was read as the count 1 or 0
    param = name.split(":")[1]
    if value == "least - 1":
        value = COUNTS[param] - 1
    with pytest.raises(pk.InvalidSpec, match=f"^{param} must be "):
        TAKES_A_COUNT[name](value)


@pytest.mark.parametrize(
    "field, value", (("tol", "x"), ("tol", None), ("tol", True), ("kmax", 2.5), ("kmax", "3"),
                     ("kmax", True), ("seed", None), ("seed", 1.5), ("seed", False)),
    ids=str,
)
def test_suite_config_reads_its_scalars_through_the_doors(field, value):
    # tol = "x" and seed = None were a bare TypeError, kmax = 2.5 and the
    # bools were accepted
    spec = pk.weighted_shift((1.0, np.sqrt(2.0)))
    with pytest.raises(pk.ConfigError, match=f"^{field} must be "):
        pk.SuiteConfig(models=(spec,), suites=("polar",), **{field: value})


@pytest.mark.parametrize(
    "field, value",
    (("kmax", 2.5), ("kmax", "3"), ("kmax", True), ("seed", 1.5), ("seed", "3"), ("seed", False)),
    ids=str,
)
def test_a_json_config_reads_its_counts_through_the_doors(field, value):
    # config_from_json read them by int(...): a kmax of 2.5 ran at 2, a seed of "3" at 3;
    # then "kmax": true ran at kmax 1 and the report wrote the bools back
    spec = pk.model_spec_to_json(pk.weighted_shift((1.0, np.sqrt(2.0))))
    with pytest.raises(pk.ConfigError, match=f"^{field} must be "):
        pk.config_from_json({"models": [spec], "suites": ["polar"], field: value})
