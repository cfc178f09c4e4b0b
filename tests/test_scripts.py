"""Smoke tests for the scripts under scripts/."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import polarkit as pk

from conftest import zoo_specs

ROOT = Path(__file__).resolve().parent.parent


def _command(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return [sys.executable, str(ROOT / "scripts" / name), *args], env


def run_script(name, *args):
    cmd, env = _command(name, *args)
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


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


def test_zoo_report_is_the_same_in_fresh_processes(tmp_path):
    """Two fresh interpreters write the same zoo report bytes, and those
    are the bytes of an in-process run: nothing in the report depends on
    process state (the tower's fixed mixing weights included)."""
    outs = [tmp_path / f"zoo{i}.json" for i in range(2)]
    commands = [_command("run_zoo.py", "--seed", "0", "--out", str(out)) for out in outs]
    procs = [
        subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for cmd, env in commands
    ]
    for proc in procs:
        _, err = proc.communicate()
        assert proc.returncode == 1, err  # the negative controls fail by design
    digests = {hashlib.sha256(out.read_bytes()).hexdigest() for out in outs}
    assert len(digests) == 1
    suites = ["polar", "isometry", "tower", "theorem22", "graded", "norm_formula", "words"]
    config = pk.config_from_json({"models": zoo_specs(), "suites": suites, "seed": 0, "kmax": 64})
    assert outs[0].read_text(encoding="utf-8") == pk.report_to_json(pk.run_suite(config))
