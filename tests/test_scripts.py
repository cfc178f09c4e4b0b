"""Smoke tests for the scripts under scripts/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_norm_convergence_brackets_two_cos_pi_over_five():
    proc = run_script("norm_convergence.py", "--dim", "4", "--kmax", "64")
    assert proc.returncode == 0, proc.stderr
    row = re.compile(r"^\s*(\d+)\s+(\d\.\d+)\s+(\d\.\d+)\s+\S+$")
    rows = [
        (int(m[1]), float(m[2]), float(m[3]))
        for m in map(row.match, proc.stdout.splitlines())
        if m
    ]
    assert [k for k, _, _ in rows] == [1, 2, 4, 8, 16, 32, 64]
    _, s_k, upper = rows[-1]
    target = 2.0 * np.cos(np.pi / 5.0)
    assert s_k <= target <= upper
    assert f"2 cos(pi/5)        : {target:.12f}" in proc.stdout
