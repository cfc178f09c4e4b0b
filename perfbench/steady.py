#!/usr/bin/env python3
"""Steadiness of the benchmark, from which the bounds in BENCHMARK.json are set.

Runs every workload of BENCHMARK.json once per seed for its run_seconds,
each run in its own process, and prints per end-to-end metric the median,
the quartiles and their distance as a share of the median, next to the
metric's bound; also the share of failed operations.  With --compare it checks a second set of runs against a first:
each median may be worse by at most the bound, and the failed shares must
be equal.

    python3 perfbench/steady.py --runs 10 --first-seed 1 --out perfbench/out/a.json
    python3 perfbench/steady.py --compare perfbench/out/a.json perfbench/out/b.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def report(runs: dict, spec: dict) -> bool:
    """Print the table; True when every spread but setup_s's is within a
    third of its bound and the failed share is the same in every run."""
    steady = True
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, results in runs.items():
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {len(results)} runs, failed shares {shares}, "
              f"correct {all(r['correct'] for r in results)}")
        steady &= len(shares) == 1
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = summarize(values)
            flag = "" if name == "setup_s" or s["spread"] <= bound / 3 else "  WIDE"
            steady &= not flag
            print(f"  {name:<14} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
                  f"  spread {s['spread']:.4f}  bound {bound}{flag}")
    return steady


def compare(path_a: str, path_b: str, spec: dict) -> bool:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    ok = True
    for m in spec["end_to_end"]:
        for workload in a:
            va = statistics.median(r["metrics"][m["name"]]["value"] for r in a[workload])
            vb = statistics.median(r["metrics"][m["name"]]["value"] for r in b[workload])
            worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            flag = "" if worse <= m["bound"] else "  WORSE"
            ok &= not flag
            print(f"{workload:<9} {m['name']:<14} {va:.5g} -> {vb:.5g}  worse by {worse:+.4f}"
                  f"  bound {m['bound']}{flag}")
    for workload in a:
        sa = {r["failed"] / r["attempted"] for r in a[workload]}
        sb = {r["failed"] / r["attempted"] for r in b[workload]}
        if sa != sb:
            ok = False
            print(f"{workload}: failed shares differ {sorted(sa)} vs {sorted(sb)}")
    return ok


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write every run's result here as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare, spec) else 1

    runs = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs[workload].append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: {json.dumps(runs[workload][-1])}", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
    return 0 if report(runs, spec) else 1


if __name__ == "__main__":
    raise SystemExit(main())
