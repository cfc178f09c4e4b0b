"""The line budget of the package: the lines of ``src/polarkit/*.py`` may
not grow unnoticed.  A change that adds lines raises ``BUDGET`` in the same
diff and says why in CHANGES.md; one that removes lines may lower it."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polarkit"
BUDGET = 4975


def test_the_package_stays_within_its_line_budget():
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.glob("*.py"))
    assert lines <= BUDGET, f"src/polarkit has {lines} lines, over its budget of {BUDGET}"
