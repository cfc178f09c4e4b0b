"""Quick tests of the benchmark itself, at tiny sizes.

Each correctness check must reject a deliberately wrong output, the
recorder must count and nest as documented, and every workload must run
clean at a reduced size.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import polarkit as pk  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def shift_model():
    a = pk.build(pk.weighted_shift(np.sqrt(np.arange(1, 6))))
    model = pk.graded_model_for(a)
    upow = checks.matrix_powers(workloads.polar_reference(a), a.shape[0])
    return model, upow


def test_relation_oracle_separates_the_zoo_controls():
    assert checks.relation_holds(pk.build(pk.weighted_shift([1.0, 2.0 ** 0.5, 3.0 ** 0.5])))
    assert not checks.relation_holds(pk.build(pk.weighted_shift([1.0, 1.0, 1.0])))
    assert not checks.relation_holds(pk.build(pk.jordan_block(3)))


def test_shifted_norm_estimate_is_rejected(shift_model):
    model, upow = shift_model
    g = pk.random_element(model, np.random.default_rng(0), bandwidth=2)
    est = pk.norm_estimate(g, kmax=8)
    norm_b = checks.opnorm(checks.dense(g.coefficients, upow))
    assert checks.norm_estimate_ok(est.estimates, est.final, 2, norm_b, 8)
    shifted = [(k, s * 1.1) for k, s in est.estimates]
    assert not checks.norm_estimate_ok(shifted, shifted[-1][1], 2, norm_b, 8)
    low = [(k, s * 0.9) for k, s in est.estimates]
    assert not checks.norm_estimate_ok(low, low[-1][1], 2, norm_b, 8)


def test_perturbed_product_is_rejected(shift_model):
    model, upow = shift_model
    rng = np.random.default_rng(1)
    g1 = pk.random_element(model, rng, bandwidth=2)
    g2 = pk.random_element(model, rng, bandwidth=1)
    gp = pk.graded_mul(g1, g2)
    d1, d2 = checks.dense(g1.coefficients, upow), checks.dense(g2.coefficients, upow)
    dprod = checks.dense(gp.coefficients, upow)
    assert checks.product_ok(d1, d2, dprod)
    assert checks.close(pk.realize(gp), dprod)
    wrong = dict(gp.coefficients)
    wrong[0] = wrong[0] + 1e-6 * np.eye(wrong[0].shape[0])
    assert not checks.product_ok(d1, d2, checks.dense(wrong, upow))


def test_wrong_normal_form_is_rejected():
    a = pk.build(pk.q_oscillator(12, 0.5, 1.0))
    word = pk.parse_word("a a* a* a a a* a")
    nf = pk.normal_order(word, pk.PhiMap.affine(0.5, 1.0))
    assert checks.word_interior_ok(word, nf.l, nf.m, nf.p, a)
    bumped = (nf.p[0] + 0.01,) + tuple(nf.p[1:])
    assert not checks.word_interior_ok(word, nf.l, nf.m, bumped, a)
    assert not checks.word_interior_ok(word, nf.l + 1, nf.m + 1, nf.p, a)


def test_wrong_exact_product_is_rejected():
    phi = pk.PhiMap.affine_exact(0.5, 1.0)
    w1, w2 = pk.parse_word("a a* a"), pk.parse_word("a* a* a")
    n1, n2 = pk.normal_order(w1, phi), pk.normal_order(w2, phi)
    n12 = pk.normal_order(w1 + w2, phi)
    prod = pk.nf_mul(n1, n2, phi)
    assert checks.exact_pair_ok(w1, w2, n1, n2, n12, prod)
    off = pk.NormalForm(prod.l, prod.m, (prod.p[0] + 1,) + tuple(prod.p[1:]))
    assert not checks.exact_pair_ok(w1, w2, n1, n2, n12, off)
    floats = pk.NormalForm(prod.l, prod.m, tuple(float(c) for c in prod.p))
    assert not checks.exact_pair_ok(w1, w2, n1, n2, n12, floats)


@pytest.fixture(scope="module")
def small_zoo_report():
    config = pk.config_from_json({
        "models": [workloads.ZOO[0], workloads.NEGATIVE[1]],
        "suites": list(checks.SUITES), "seed": 0, "kmax": 8,
    })
    return pk.run_suite(config)


def test_flipped_zoo_verdict_is_rejected(small_zoo_report):
    holds = [True, False]
    assert all(ok for _, ok in checks.zoo_verdicts(small_zoo_report, holds))

    flipped = json.loads(json.dumps(small_zoo_report))
    flipped["models"][0]["suites"][0]["checks"][0]["pass"] = False
    verdicts = dict(checks.zoo_verdicts(flipped, holds))
    assert not verdicts["model 0 polar"]

    passed_control = json.loads(json.dumps(small_zoo_report))
    tower = next(s for s in passed_control["models"][1]["suites"] if s["name"] == "tower")
    tower["checks"][0]["pass"] = True
    assert not dict(checks.zoo_verdicts(passed_control, holds))["model 1 tower"]

    extra_failure = json.loads(json.dumps(small_zoo_report))
    extra_failure["models"][1]["suites"][0]["checks"][0]["pass"] = False
    assert not dict(checks.zoo_verdicts(extra_failure, holds))["model 1 polar"]


def test_json_difference_names_the_changed_pair(small_zoo_report):
    first = pk.report_to_json(small_zoo_report)
    changed = json.loads(first)
    changed["models"][0]["suites"][2]["checks"][0]["residual"] += 1.0
    labels = [label for label, _ in checks.zoo_verdicts({}, [True, False])]
    diff = workloads._json_differences(first, json.dumps(changed), labels)
    assert diff == {"model 0 tower"}


def test_recorder_counts_stacked_matrices_and_nests_spans():
    rec = harness.Recorder()
    plain_svd = np.linalg.svd
    with rec.tracing("pass"):
        with rec.op("op:demo"):
            rec.call("a.svd", lambda: np.linalg.svd(np.zeros((3, 4, 4)), compute_uv=False))
            rec.call("a.eigh", lambda: np.linalg.eigvalsh(np.eye(4)))
    assert np.linalg.svd is plain_svd
    totals = rec.layer_totals()
    assert totals["a.svd"]["svd_mats"] == 3 and totals["a.svd"]["calls"] == 1
    assert totals["a.eigh"]["eigh_mats"] == 1
    root = rec.spans[0]
    own = rec.self_times()
    children = sum(s.ref_s for s in rec.spans[1:])
    assert own[root.id] == pytest.approx(root.ref_s - children)
    assert all(s.op == root.op and s.parent == root.id for s in rec.spans[1:])


def test_memory_spans_see_the_allocation_peak():
    rec = harness.Recorder()
    with rec.tracing("pass", memory=True):
        rec.call("a.alloc", lambda: np.ones((512, 512)).sum())
    assert rec.layer_totals()["a.alloc"]["peak_mb"] >= 2.0


def test_raising_program_or_check_makes_the_result_incorrect():
    rec, tally = harness.Recorder(), harness.Tally()

    def program_raises():
        return rec.call("a.fail", lambda: 1 / 0)

    def check_raises():
        out = rec.call("a.ok", lambda: np.zeros((2, 3)))
        return checks.product_ok(out, out, out)  # a malformed output breaks the check

    assert not tally.attempt(rec, "program", program_raises)
    assert not tally.attempt(rec, "check", check_raises)
    assert tally.attempt(rec, "fine", lambda: True)
    result = run._result(tally, {})
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert "ZeroDivisionError" in tally.failures[0]


def test_zoo_pass_whose_run_suite_raises_fails_every_pair(monkeypatch):
    monkeypatch.setattr(workloads, "ZOO", workloads.ZOO[:1])
    wl = workloads.Zoo(pk, seed=0)
    rec, tally = harness.Recorder(), harness.Tally()
    wl.setup(rec)
    wl.prepare()
    monkeypatch.setattr(wl.pk, "run_suite", lambda config: 1 / 0)
    wl.run_pass(rec, tally)
    assert tally.failed == tally.attempted == 3 * len(checks.SUITES)
    assert run._result(tally, {})["correct"] is False


def test_benchmark_json_names_metrics_the_runner_can_fill():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.metric_units("end_to_end")) == ["setup_s", "pass_s", "peak_rss_mb"]
    quantities = {"s", "calls", "svd_mats", "eigh_mats", "peak_mb"}
    for name in run.metric_units("per_layer"):
        special = name.startswith(("trace.", "calculus."))
        assert special or name.rsplit(".", 1)[1] in quantities, name


@pytest.mark.parametrize("name, sizes", [
    ("zoo", {"ZOO": workloads.ZOO[:2]}),
    ("ladder", {"RUNGS": (4, 5)}),
    ("calculus", {"DIMS": (6,), "PRODUCTS_PER_DIM": 3, "WORD_LENGTHS": (8, 9),
                  "FLOAT_WORDS_PER_LENGTH": 3, "EXACT_PAIRS_PER_LENGTH": 2, "WORD_DIM": 12}),
])
def test_workload_runs_clean_at_tiny_size(monkeypatch, name, sizes):
    for attr, value in sizes.items():
        monkeypatch.setattr(workloads, attr, value)
    wl = workloads.WORKLOADS[name](pk, seed=3)
    rec, tally = harness.Recorder(), harness.Tally()
    wl.setup(rec)
    wl.prepare()
    for _ in range(2):
        wl.run_pass(rec, tally)
    with rec.tracing("sweep"):
        workloads.sweep(pk, rec, tally, wl, wl.seed)
    assert tally.attempted > 0 and tally.failed == 0, tally.failures


def test_checkout_without_sources_exits_without_a_result():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "zoo", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""


def test_setup_check_rejects_a_zoo_with_a_wrong_classification(monkeypatch):
    monkeypatch.setattr(workloads, "ZOO", workloads.ZOO[:1] + workloads.NEGATIVE[:1])
    wl = workloads.Zoo(pk, seed=0)
    wl.setup(harness.Recorder())
    with pytest.raises(RuntimeError):
        wl.prepare()



def test_cold_setup_is_timed_in_a_fresh_interpreter(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    (seconds,) = run._cold_setup_seconds("zoo", 1)
    assert 0.0 < seconds < 60.0
