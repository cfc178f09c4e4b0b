"""The ladder's residuals, pinned as hex.

``tests/data/ladder_residuals.json`` holds, for the two ladder families
weighted_shift(sqrt(1..n-1)) and q_oscillator(n, 1, 1) at each rung n,
every residual of ``theorem22_report`` and every tower, theorem and
structure residual of ``coefficient_algebra``, each view on a fresh
matrix as the benchmark's ladder calls it, written by ``float.hex``.  A
change that claims the same residuals to the bit keeps this file; one
that moves a residual on purpose rewrites it, which prints each pin that
changes, and says why:

    PYTHONPATH=src python tests/test_ladder_pins.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import polarkit as pk

PINS = Path(__file__).resolve().parent / "data" / "ladder_residuals.json"
FAMILIES = {
    "shift": lambda n: pk.weighted_shift(np.sqrt(np.arange(1.0, n))),
    "osc": lambda n: pk.q_oscillator(n, 1.0, 1.0),
}
RUNGS = (4, 6, 8, 10, 12, 64)


def ladder_residuals(family: str, n: int) -> dict:
    """``{view: {check: residual as hex}}`` on one rung."""
    a = pk.build(FAMILIES[family](n))
    rep = pk.theorem22_report(a)
    crep = pk.coefficient_algebra(a)
    families = {
        "tower": crep.tower.checks,
        "theorem": crep.theorems.checks,
        "structure": crep.structure,
    }
    out = {"theorem22": {c.name: float(c.residual).hex() for c in rep.checks}}
    for view, checks in families.items():
        out[view] = {name: float(res).hex() for name, (_, res) in sorted(checks.items())}
    return out


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("n", RUNGS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ladder_residuals_keep_their_bits(pins, family, n):
    assert ladder_residuals(family, n) == pins[family][str(n)]


def main() -> int:
    """Rewrite the pins, printing each one that changes: family, rung,
    view, check, old -> new and new / old."""
    old = json.loads(PINS.read_text(encoding="utf-8"))
    pins = {fam: {str(n): ladder_residuals(fam, n) for n in RUNGS} for fam in sorted(FAMILIES)}
    for fam, rungs in pins.items():
        for n, views in rungs.items():
            for view, checks in views.items():
                for check, new in checks.items():
                    was = old.get(fam, {}).get(n, {}).get(view, {}).get(check)
                    if was != new:
                        a, b = (float.fromhex(x) if x else float("nan") for x in (was, new))
                        ratio = b / a if a else float("inf")
                        print(f"{fam} {n} {view} {check}: {a!r} -> {b!r} ({ratio:.4f}x)")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
