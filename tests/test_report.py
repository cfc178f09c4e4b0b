import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import polarkit as pk
import polarkit.relation as relation
from polarkit.report import SUITE_ORDER

from conftest import zoo_specs


def small_config(**overrides):
    base = {
        "models": [
            {"kind": "weighted_shift", "weights": [1.0, 1.4142135623730951]},
            {"kind": "q_oscillator", "dim": 4, "q": 0.5, "h": 1.0},
        ],
        "suites": ["polar", "isometry", "theorem22", "words"],
        "seed": 1,
        "kmax": 16,
    }
    base.update(overrides)
    return pk.config_from_json(base)


def test_config_validation():
    with pytest.raises(pk.ConfigError):
        small_config(suites=[])
    with pytest.raises(pk.ConfigError):
        small_config(suites=["polar", "mystery"])
    with pytest.raises(pk.ConfigError):
        small_config(tol=-1.0)
    with pytest.raises(pk.ConfigError):
        small_config(kmax=0)
    with pytest.raises(pk.ConfigError):
        small_config(models=[])
    with pytest.raises(pk.ConfigError):
        pk.config_from_json({"suites": ["polar"]})


def test_run_suite_passes_on_good_models():
    report = pk.run_suite(small_config())
    assert report["all_pass"]
    assert report["seed"] == 1
    assert len(report["models"]) == 2
    for entry in report["models"]:
        suite_names = [s["name"] for s in entry["suites"]]
        assert suite_names == sorted(
            suite_names, key=SUITE_ORDER.index
        )  # deterministic order
        for suite in entry["suites"]:
            for check in suite["checks"]:
                assert check["pass"], (entry["model"], suite["name"], check)


def test_run_suite_records_negative_control():
    config = pk.config_from_json(
        {
            "models": [{"kind": "jordan_block", "dim": 3}],
            "suites": ["theorem22"],
            "seed": 0,
        }
    )
    report = pk.run_suite(config)
    assert not report["all_pass"]
    checks = report["models"][0]["suites"][0]["checks"]
    assert any(not c["pass"] for c in checks)


def test_run_suite_is_deterministic():
    config = small_config()
    r1 = pk.report_to_json(pk.run_suite(config))
    r2 = pk.report_to_json(pk.run_suite(config))
    assert r1 == r2


def test_run_suite_seed_changes_sampling():
    r1 = pk.run_suite(small_config(seed=1, suites=["graded"]))
    r2 = pk.run_suite(small_config(seed=2, suites=["graded"]))
    res1 = [
        c["residual"]
        for m in r1["models"]
        for s in m["suites"]
        for c in s["checks"]
    ]
    res2 = [
        c["residual"]
        for m in r2["models"]
        for s in m["suites"]
        for c in s["checks"]
    ]
    assert res1 != res2


def test_report_json_is_valid_and_sorted():
    text = pk.report_to_json(pk.run_suite(small_config()))
    obj = json.loads(text)
    assert obj["all_pass"] is True
    assert "elapsed" not in text  # timing would break byte determinism


def test_report_text_contains_verdict_lines():
    report = pk.run_suite(small_config())
    text = pk.report_to_text(report)
    assert "[PASS]" in text
    assert text.strip().endswith("all checks passed")


def test_words_suite_skips_non_q_models():
    config = pk.config_from_json(
        {
            "models": [{"kind": "normal", "diag": [[1.0, 0.0], [2.0, 0.0]]}],
            "suites": ["words"],
            "seed": 0,
        }
    )
    report = pk.run_suite(config)
    assert report["all_pass"]
    assert report["models"][0]["suites"][0]["checks"] == []


def test_graded_suite_skips_non_nilpotent_models():
    config = pk.config_from_json(
        {
            "models": [{"kind": "normal", "diag": [[1.0, 0.0], [2.0, 0.0]]}],
            "suites": ["graded", "norm_formula"],
            "seed": 0,
        }
    )
    report = pk.run_suite(config)
    assert report["all_pass"]
    for suite in report["models"][0]["suites"]:
        assert suite["checks"] == []


COUNTED = ("polar_decompose", "verify_I1", "partial_isometry_report", "build_tower")


@pytest.fixture(scope="module")
def counted_zoo_run():
    """All seven suites over the zoo, counting calls of the per-operator
    derivations in every polarkit module namespace that binds them."""
    counts = dict.fromkeys(COUNTED, 0)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "polarkit"]
    with pytest.MonkeyPatch.context() as mp:
        for fname in COUNTED:
            orig = getattr(pk, fname)

            def counting(*args, _orig=orig, _fname=fname, **kwargs):
                counts[_fname] += 1
                return _orig(*args, **kwargs)

            for module in modules:
                if getattr(module, fname, None) is orig:
                    mp.setattr(module, fname, counting)
        specs = zoo_specs()
        config = pk.config_from_json({"models": specs, "suites": list(SUITE_ORDER), "seed": 0})
        report = pk.run_suite(config)
    return specs, report, counts


def test_run_suite_derives_each_fact_once_per_model(counted_zoo_run):
    specs, _, counts = counted_zoo_run
    assert counts == dict.fromkeys(COUNTED, len(specs))


def test_run_suite_takes_the_norm_of_a_once_per_model(monkeypatch):
    # _suite_polar, theorem22_report and coefficient_algebra took one each;
    # a model whose a is its own polar part U is left out, since ||U|| is
    # a norm SVD of the same matrix
    svd = np.linalg.svd
    checked = 0
    for spec in zoo_specs():
        a = pk.build(pk.model_spec_from_json(spec))
        if np.array_equal(a, pk.polar_decompose(a).u):
            continue
        calls = []

        def counting(m, *args, _a=a, **kwargs):
            m = np.asarray(m)
            if not kwargs.get("compute_uv", True) and m.shape == _a.shape:
                calls.append(np.array_equal(m, _a))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        pk.run_suite(pk.config_from_json({"models": [spec], "suites": list(SUITE_ORDER)}))
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert sum(calls) == 1, spec
        checked += 1
    assert checked == 5


def test_run_suite_certifies_u_and_takes_its_norm_once_per_model(monkeypatch):
    # _suite_polar and Analysis.pair each took U's partial-isometry
    # certificate, a stack of norms holding U, and Analysis.pair and
    # Analysis.unit_closure each took ||U|| by an SVD of U alone: two of
    # each per model, where one certificate now holds ||U|| for all three
    svd = np.linalg.svd
    checked = 0
    for spec in zoo_specs():
        a = pk.build(pk.model_spec_from_json(spec))
        u = pk.polar_decompose(a).u
        if np.array_equal(a, u):
            continue
        calls = []

        def counting(m, *args, _u=u, **kwargs):
            m = np.asarray(m)
            if not kwargs.get("compute_uv", True) and m.shape[-2:] == _u.shape:
                if any(np.array_equal(x, _u) for x in m.reshape(-1, *_u.shape)):
                    calls.append("alone" if m.ndim == 2 else "stack")
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        pk.run_suite(pk.config_from_json({"models": [spec], "suites": list(SUITE_ORDER)}))
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert calls == ["stack"], spec
        checked += 1
    assert checked == 5


def test_shared_analysis_matches_standalone_views(counted_zoo_run):
    specs, report, _ = counted_zoo_run
    checked = 0
    for spec, entry in zip(specs, report["models"]):
        a = pk.build(pk.model_spec_from_json(spec))
        suites = {s["name"]: s["checks"] for s in entry["suites"]}
        if not pk.verify_I1(a).holds:
            continue
        rep = pk.theorem22_report(a)
        assert [c["residual"] for c in suites["theorem22"]] == [c.residual for c in rep.checks]
        crep = pk.coefficient_algebra(a)
        families = (crep.tower.checks, crep.theorems.checks, crep.structure)
        expected = [res for fam in families for _, (_, res) in sorted(fam.items())]
        assert [c["residual"] for c in suites["tower"]] == expected
        checked += 1
    assert checked == 5


GOLDEN = Path(__file__).resolve().parent / "data" / "zoo_report_seed0.json"


def _residuals_apart(node, residuals):
    """The report with every residual replaced by None, appended to
    ``residuals`` in report order."""
    if isinstance(node, dict):
        return {
            k: residuals.append(v) if k == "residual" else _residuals_apart(v, residuals)
            for k, v in node.items()
        }
    if isinstance(node, list):
        return [_residuals_apart(x, residuals) for x in node]
    return node


def test_zoo_report_matches_golden(counted_zoo_run):
    """The fixture's run is the canonical one of scripts/run_zoo.py --seed 0,
    whose report tests/data keeps: names, anchors, verdicts and errors must
    match exactly, residuals to 1e-10 absolute (room for another BLAS)."""
    _, report, _ = counted_zoo_run
    want, got = [], []
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _residuals_apart(json.loads(pk.report_to_json(report)), got) == _residuals_apart(
        golden, want
    )
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


def test_zoo_report_is_the_golden_file_byte_for_byte(counted_zoo_run):
    """The canonical run of scripts/run_zoo.py --seed 0 writes exactly the
    bytes tests/data keeps; a change that moves a byte on purpose rewrites
    the file and says why."""
    _, report, _ = counted_zoo_run
    assert pk.report_to_json(report) == GOLDEN.read_text(encoding="utf-8")


def test_failed_derivation_is_not_repeated(monkeypatch, rng):
    import polarkit.relation as relation

    calls = []

    def counting(*args, _orig=relation.build_tower, **kwargs):
        calls.append(args)
        return _orig(*args, **kwargs)

    monkeypatch.setattr(relation, "build_tower", counting)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    config = pk.SuiteConfig(models=(pk.custom(m),), suites=("graded", "norm_formula"))
    graded, norm = pk.run_suite(config)["models"][0]["suites"]
    assert graded["checks"] == norm["checks"]
    assert graded["checks"][0]["error"].startswith("HypothesisViolated")
    assert len(calls) == 1


def test_build_failure_is_recorded_per_suite():
    bad = pk.ModelSpec(kind="custom", dim=3, matrix=np.eye(2, dtype=complex))
    good = pk.weighted_shift((1.0, 1.4142135623730951))
    config = pk.SuiteConfig(models=(bad, good), suites=("polar", "words"))
    report = pk.run_suite(config)
    assert not report["all_pass"]
    first, second = report["models"]
    assert [s["name"] for s in first["suites"]] == ["polar", "words"]
    for suite in first["suites"]:
        (check,) = suite["checks"]
        assert check["anchor"] == "models.build"
        assert check["error"].startswith("InvalidSpec")
    assert all(c["pass"] for s in second["suites"] for c in s["checks"])


def test_non_finite_model_is_a_build_precondition():
    bad = pk.custom(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    good = pk.weighted_shift((1.0, 1.4142135623730951))
    suites = ("polar", "isometry", "theorem22")
    report = pk.run_suite(pk.SuiteConfig(models=(bad, good), suites=suites))
    first, second = report["models"]
    for suite in first["suites"]:
        (check,) = suite["checks"]
        assert check["anchor"] == "models.build"
        assert check["error"] == "InvalidSpec: model field 'matrix' has a non-finite entry"
    alone = pk.run_suite(pk.SuiteConfig(models=(good,), suites=suites))["models"][0]
    assert second["suites"] == alone["suites"]
    assert [s["name"] for s in second["suites"]] == list(suites)
    assert all(c["pass"] for s in second["suites"] for c in s["checks"])


def test_negative_level_model_is_a_build_precondition():
    # lambda = 0, 1, -1, 3 built a NaN matrix, and every suite recorded
    # "LinAlgError: SVD did not converge"
    bad = pk.q_oscillator(4, -2.0, 1.0)
    report = pk.run_suite(pk.SuiteConfig(models=(bad,), suites=SUITE_ORDER))
    (model,) = report["models"]
    assert [s["name"] for s in model["suites"]] == list(SUITE_ORDER)
    for suite in model["suites"]:
        (check,) = suite["checks"]
        assert check["anchor"] == "models.build"
        assert check["error"].startswith("InvalidSpec: q_oscillator level value lambda_2 = -1 ")
    assert not report["all_pass"]


def test_overflowing_level_model_is_a_build_precondition():
    # the levels overflowed to inf, and every suite recorded
    # "LinAlgError: SVD did not converge"
    bad = pk.q_oscillator(400, 10.0, 1.0)
    report = pk.run_suite(pk.SuiteConfig(models=(bad,), suites=SUITE_ORDER))
    (model,) = report["models"]
    assert [s["name"] for s in model["suites"]] == list(SUITE_ORDER)
    for suite in model["suites"]:
        (check,) = suite["checks"]
        assert check["anchor"] == "models.build"
        assert check["error"] == (
            "InvalidSpec: q_oscillator level value lambda_310 = inf is not finite "
            "(q=10.0, h=1.0)"
        )
    assert not report["all_pass"]


def test_overflowing_gram_is_a_build_precondition():
    # a*a overflowed to inf: numpy warned of the overflow, the tower and
    # theorem22 suites recorded "LinAlgError: SVD did not converge", and
    # the other suites passed
    bad = pk.weighted_shift((1e200, 1.0))
    good = pk.weighted_shift((1.0, 1.4142135623730951))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = pk.run_suite(pk.SuiteConfig(models=(bad, good), suites=SUITE_ORDER))
    first, second = report["models"]
    assert [s["name"] for s in first["suites"]] == list(SUITE_ORDER)
    for suite in first["suites"]:
        (check,) = suite["checks"]
        assert check["anchor"] == "models.build"
        assert check["error"] == (
            "InvalidSpec: a*a overflows double precision (largest entry 1.000e+200)"
        )
    assert not report["all_pass"]
    assert all(c["pass"] for s in second["suites"] for c in s["checks"])


def test_linalg_error_is_a_suite_precondition(monkeypatch):
    # numpy failing to factor a derived matrix fails the suites that read
    # it, once per model, and no other model
    bad = pk.weighted_shift((1.0, 2.0, 3.0))
    good = pk.weighted_shift((1.0, 1.4142135623730951))
    build_tower = relation.build_tower

    def failing(seed, pair, tol):
        if seed.dim == 4:
            raise np.linalg.LinAlgError("SVD did not converge")
        return build_tower(seed, pair, tol=tol)

    monkeypatch.setattr(relation, "build_tower", failing)
    suites = ("polar", "isometry", "tower", "theorem22")
    report = pk.run_suite(pk.SuiteConfig(models=(bad, good), suites=suites))
    first, second = report["models"]
    assert all(c["pass"] for s in first["suites"][:2] for c in s["checks"])
    for suite in first["suites"][2:]:
        (check,) = suite["checks"]
        assert check["anchor"] == f"{suite['name']}.run"
        assert check["error"] == "LinAlgError: SVD did not converge"
    assert not report["all_pass"]
    alone = pk.run_suite(pk.SuiteConfig(models=(good,), suites=suites))["models"][0]
    assert second["suites"] == alone["suites"]
    assert all(c["pass"] for s in second["suites"] for c in s["checks"])
