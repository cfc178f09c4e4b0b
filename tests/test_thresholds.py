"""The threshold policy is written once, in ``linalg.py``: ``LIMITS`` holds
every rule that scales tol, and the fixed cut-offs are named constants
beside it.  These tests read ``src/polarkit/*.py`` with ``ast`` and fail
on a product, quotient or power that involves tol (a name or a ``.tol``
attribute), or on a small float literal, anywhere outside that table, so
that a new check cannot write its own rule again."""

import ast
import re
from pathlib import Path

import pytest

from polarkit import linalg

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "polarkit"
# the table: the assignments of these names in linalg.py
TABLE = ("DEFAULT_TOL", "LIMITS", "DROP_THRESHOLD", "COEFF_DROP", "ZERO_NORM", "LEVEL_COLLISION",
         "NORM_GAP")
SCALING = (ast.Mult, ast.Div, ast.Pow)


def _is_table(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id in TABLE for t in node.targets
    )


def _reads_tol(node) -> bool:
    names = (n.id if isinstance(n, ast.Name) else getattr(n, "attr", None) for n in ast.walk(node))
    return "tol" in names


def violations(source: str, table: bool = False) -> list[tuple[int, str]]:
    """(line, what) for each rule or cut-off ``source`` writes in place;
    with ``table``, the module-level assignments of :data:`TABLE` are
    skipped (linalg.py)."""
    tree = ast.parse(source)
    if table:
        tree.body = [node for node in tree.body if not _is_table(node)]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, SCALING):
            if _reads_tol(node):
                found.append((node.lineno, f"scales tol: {ast.unparse(node)}"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            if 0.0 < abs(node.value) < 0.1:
                found.append((node.lineno, f"fixed cut-off {node.value!r} read by value"))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_writes_a_threshold_rule_outside_the_table(path):
    assert violations(path.read_text(encoding="utf-8"), table=path.name == "linalg.py") == []


@pytest.mark.parametrize(
    "source",
    ("limit = tol * (1.0 + norm)", "ok = r <= self.tol * scale", "ok = r <= -tol * m * s",
     "cap = tol ** 0.5", "cap = f(2.0 * g(tol))", "limit *= tol", "keep = s > 1e-12 * top",
     "gap = x / tol"),
)
def test_the_guard_catches_a_rule_written_in_place(source):
    assert violations(source)


def test_the_guard_lets_the_table_and_plain_comparisons_pass():
    source = "ok = defect <= tol\nlimit = LIMITS['frame'](tol, nu)\nw = 0.5 * (a + b)\n"
    assert violations(source) == []
    assert violations((SRC / "linalg.py").read_text(encoding="utf-8")) != []


def test_every_rule_a_module_reads_is_in_the_table():
    read = {
        node.slice.value
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
        and node.value.id == "LIMITS"
    }
    assert read == set(linalg.LIMITS)


def test_the_table_is_not_a_setting():
    with pytest.raises(TypeError):
        linalg.LIMITS["frame"] = lambda tol, u: tol


def test_the_readme_has_a_row_for_every_rule_and_cut_off():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Thresholds", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `([A-Za-z_]+)`", section, flags=re.M))
    assert rows == set(linalg.LIMITS) | (set(TABLE) - {"DEFAULT_TOL", "LIMITS"})
