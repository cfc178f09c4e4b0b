#!/usr/bin/env python3
"""polarkit benchmark: one workload per process, its result as the last line.

    python3 perfbench/run.py --workload zoo --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the program is imported from ./src.
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced pass, and the
spans are written under perfbench/out/.  ``--workload all`` runs each
workload in its own process and prints every result.
"""

import os
import sys
import time

# BLAS threads are fixed before numpy loads: one thread, at most nproc on
# any machine, and the steadiest timing on a shared one.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from harness import Recorder, Tally, pass_seconds  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("zoo", "ladder", "calculus")

MIN_PASSES = 3
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 900


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in
    BENCHMARK.json.  A per-layer name is <module>.<function>.<quantity>;
    README.md describes the quantities."""
    return {m["name"]: m["unit"] for m in load_spec()[kind]}


# A fresh interpreter loads the reference clock (and numpy with it), then
# imports polarkit and does the workload's set-up on that clock, as a run
# does before its first pass.  It reports when the clock started and its
# first speed sample: on Linux perf_counter is CLOCK_MONOTONIC, one clock
# for parent and child.
SETUP_CHILD = """
import json, sys, time
from harness import Recorder
rec = Recorder()
with rec.sampling():
    clock_start, speed, ref0 = time.perf_counter(), rec.speed, rec.ref_now()
    import polarkit
    from workloads import WORKLOADS
    WORKLOADS[sys.argv[1]](polarkit, int(sys.argv[2])).setup(rec)
    ref_s = rec.ref_now() - ref0
print(json.dumps({"clock_start": clock_start, "speed": speed, "ref_s": ref_s}))
"""


def _cold_setup_seconds(workload: str, seed: int) -> list[float]:
    """Times from interpreter start to the end of set-up, in fresh
    interpreters, in reference seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, workload, str(seed)],
                              env=env, cwd=ROOT, check=True, timeout=120,
                              capture_output=True, text=True)
        child = json.loads(proc.stdout)
        times.append((child["clock_start"] - start) * child["speed"] + child["ref_s"])
    return times


def _result(tally, metrics: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _passes(rec, wl, tally, seconds: float, min_passes: int) -> tuple[list, list]:
    """Closed loop of whole passes: per pass, each call's reference seconds,
    and the pass's wall seconds in program calls."""
    passes, walls = [], []
    start = time.perf_counter()
    with rec.sampling():
        while len(passes) < min_passes or time.perf_counter() - start < seconds:
            rec.start_pass()
            wl.run_pass(rec, tally)
            passes.append(rec.calls)
            walls.append(rec.wall_busy)
    return passes, walls


def measure(wl, seconds: float) -> tuple:
    """Untraced run: the end-to-end metrics."""
    setups = _cold_setup_seconds(wl.name, wl.seed)
    rec = Recorder()
    wl.setup(rec)
    wl.prepare()

    tally = Tally()
    passes, walls = _passes(rec, wl, tally, seconds, MIN_PASSES)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": median(setups), "pass_s": pass_seconds(passes), "peak_rss_mb": peak_mb}
    metrics = {name: (values[name], unit) for name, unit in metric_units("end_to_end").items()}
    detail = {"setups_s": setups, "passes_s": [sum(p) for p in passes],
              "passes_wall_s": walls}
    return _result(tally, metrics), detail, tally


def trace(pk, wl, seconds: float) -> tuple:
    """Traced run: untraced passes for the baseline, a timing-traced pass
    and sweep, then the calls whose allocation peak is a metric again with
    tracemalloc on; the per-layer metrics."""
    from workloads import PEAK_LAYERS, sweep

    rec = Recorder()
    with rec.sampling(), rec.tracing("setup"):
        wl.setup(rec)
    wl.prepare()
    tally = Tally()

    rec.by_key.clear()
    base, _ = _passes(rec, wl, tally, seconds / 2, 1)
    untraced_by_key = {k: v / len(base) for k, v in rec.by_key.items()}
    rates = wl.rates()

    with rec.sampling():
        with rec.tracing("pass"):
            rec.start_pass()
            wl.run_pass(rec, tally)
        traced_pass = rec.busy
        with rec.tracing("sweep"):
            sweep(pk, rec, tally, wl, wl.seed)
    if wl.covered & PEAK_LAYERS:
        with rec.tracing("pass", memory=True):
            wl.run_pass(rec, tally)
    with rec.tracing("sweep", memory=True):
        sweep(pk, rec, tally, wl, wl.seed, only=PEAK_LAYERS)

    totals = rec.layer_totals()
    untraced = median([sum(p) for p in base])
    metrics = {}
    for name, unit in metric_units("per_layer").items():
        if name == "trace.overhead_ratio":
            value = traced_pass / untraced
        elif name == "trace.untraced_pass_s":
            value = pass_seconds(base)
        elif name.startswith("calculus."):
            value = rates.get(name.split(".", 1)[1], 0.0)
        else:
            layer, qty = name.rsplit(".", 1)
            value = totals.get(layer, {}).get(qty, 0)
        metrics[name] = (value, unit)

    rungs = _rung_table(rec, untraced_by_key)
    detail = {
        "untraced_passes_s": [sum(p) for p in base],
        "traced_pass_s": traced_pass,
        "layers": totals,
        "rungs": rungs,
        "spans": rec.spans_json(),
    }
    return _result(tally, metrics), detail, tally


def _rung_table(rec, untraced_by_key: dict) -> list[dict]:
    """Per (rung, family, layer) of the pass: untraced seconds, and the
    traced allocation peak and LAPACK matrices."""
    rows = {}
    for (tags, name), seconds in untraced_by_key.items():
        t = dict(tags)
        if "rung" in t:
            rows[(t["rung"], t["family"], name)] = {
                "rung": t["rung"], "family": t["family"], "layer": name, "s": seconds,
                "peak_mb": 0.0, "svd_mats": 0, "eigh_mats": 0,
            }
    for s in rec.spans:
        key = (s.tags.get("rung"), s.tags.get("family"), s.name)
        if s.phase == "pass" and key in rows:
            row = rows[key]
            if s.memory:
                row["peak_mb"] = max(row["peak_mb"], s.peak_mb)
            else:
                row["svd_mats"] += s.svd_mats
                row["eigh_mats"] += s.eigh_mats
    return [rows[k] for k in sorted(rows)]


def run_one(args) -> int:
    if not (SRC / "polarkit" / "__init__.py").is_file():
        print(f"polarkit sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import polarkit as pk
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](pk, args.seed)
    if args.trace:
        result, detail, tally = trace(pk, wl, args.seconds)
    else:
        result, detail, tally = measure(wl, args.seconds)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = detail.pop("spans", None)
    if spans is not None:
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1, default=str)

    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"attempted {result['attempted']} failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, value in wl.rates().items():
            print(f"  {name} {value:.4g} 1/s")
    for row in detail.get("rungs", []):
        print(f"  rung n={row['rung']:<3} {row['family']:<6} {row['layer']:<32} "
              f"{row['s']:.4f} s  peak {row['peak_mb']:.2f} MB  svd {row['svd_mats']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    code = 0
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            code = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
