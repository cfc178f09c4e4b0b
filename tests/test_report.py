import hashlib
import json
import sys
import tracemalloc
import warnings
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarkit as pk
import polarkit.relation as relation
import polarkit.report as report_module
import polarkit.tower as tower
from polarkit.graded import _draws
from polarkit.linalg import LIMITS, _operator_norms
from polarkit.relation import Analysis
from polarkit.report import SUITE_ORDER
from polarkit.words import NormalForm, evaluate, interior_projection, nf_mul, normal_order

from conftest import zoo_specs
from test_relation import _haar_unitary, direct_sums


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
    with pytest.raises(pk.ConfigError, match="seed must be at least 0"):
        small_config(seed=-1)
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


# the function each count wraps: a tower is built by tower._build_tower,
# whether through build_tower or through Analysis.tower, which hands it the
# closure Analysis.closure found, and the relation is tested by
# relation._gate, whether through verify_I1 or through Analysis.certificate
COUNTED = {
    "polar_decompose": pk.polar_decompose,
    "gate": relation._gate,
    "partial_isometry_report": pk.partial_isometry_report,
    "build_tower": tower._build_tower,
}


@pytest.fixture(scope="module")
def counted_zoo_run():
    """All seven suites over the zoo, counting calls of the per-operator
    derivations in every polarkit module namespace that binds them."""
    counts = dict.fromkeys(COUNTED, 0)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "polarkit"]
    with pytest.MonkeyPatch.context() as mp:
        for fname, orig in COUNTED.items():

            def counting(*args, _orig=orig, _fname=fname, **kwargs):
                counts[_fname] += 1
                return _orig(*args, **kwargs)

            for module in modules:
                if getattr(module, orig.__name__, None) is orig:
                    mp.setattr(module, orig.__name__, counting)
        specs = zoo_specs()
        config = pk.config_from_json({"models": specs, "suites": list(SUITE_ORDER), "seed": 0})
        report = pk.run_suite(config)
    return specs, report, counts


def test_run_suite_derives_each_fact_once_per_model(counted_zoo_run):
    # only the tower suite builds the tower, and only where the relation
    # holds; the graded suites of the two negative controls read the
    # certified closure alone
    specs, _, counts = counted_zoo_run
    holds = sum(pk.verify_I1(pk.build(pk.model_spec_from_json(spec))).holds for spec in specs)
    assert holds == 5
    assert counts == {**dict.fromkeys(COUNTED, len(specs)), "build_tower": holds}


def svds_holding(lapack_calls, x) -> list[tuple[bool, bool]]:
    """``(with vectors, on a stack)`` for each SVD call whose input is x or a
    stack holding x."""
    return [
        (kwargs.get("compute_uv", True), m.ndim > 2)
        for name, m, kwargs in lapack_calls.inputs
        if name == "svd" and m.shape[-2:] == x.shape
        and any(np.array_equal(y, x) for y in m.reshape(-1, *x.shape))
    ]


def test_run_suite_takes_the_norm_of_a_once_per_model(lapack_calls):
    # ||a|| took a norm SVD of a of its own, beside the polar SVD; it is now
    # the largest singular value of the polar SVD, so the one SVD of a is
    # that factorization, with vectors.  A model whose a is its own polar
    # part U is left out, since U's partial-isometry stack holds it too
    checked = 0
    for spec in zoo_specs():
        a = pk.build(pk.model_spec_from_json(spec))
        if np.array_equal(a, pk.polar_decompose(a).u):
            continue
        lapack_calls.clear()
        pk.run_suite(pk.config_from_json({"models": [spec], "suites": list(SUITE_ORDER)}))
        assert svds_holding(lapack_calls, a) == [(True, False)], spec
        checked += 1
    assert checked == 5


def test_run_suite_certifies_u_and_takes_its_norm_once_per_model(lapack_calls):
    # _suite_polar and Analysis.pair each took U's partial-isometry
    # certificate, a stack of norms holding U, and Analysis.pair and
    # Analysis.unit_closure each took ||U|| by an SVD of U alone: two of
    # each per model, where one certificate now holds ||U|| for all three
    checked = 0
    for spec in zoo_specs():
        a = pk.build(pk.model_spec_from_json(spec))
        u = pk.polar_decompose(a).u
        if np.array_equal(a, u):
            continue
        lapack_calls.clear()
        pk.run_suite(pk.config_from_json({"models": [spec], "suites": list(SUITE_ORDER)}))
        norms = [stacked for vectors, stacked in svds_holding(lapack_calls, u) if not vectors]
        assert norms == [True], spec
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


@pytest.mark.parametrize(
    "seed, digest",
    (
        (1, "a29b9f303849b5bcd6cdfda9b8bd520c9a7b6d90da5538b8bacf451cbb4d0696"),
        (2027, "b52867df892d2d10156758a6fd570e730e209ab393258afb3d2882c8880388e4"),
    ),
    ids=("seed1", "seed2027"),  # so that a new digest keeps the test's name
)
def test_zoo_report_bytes_are_pinned_at_more_seeds(seed, digest):
    """The sha256 of the report scripts/run_zoo.py --seed <seed> writes,
    taken with numpy 2.4.6 and OpenBLAS; a change that moves a byte on
    purpose updates the digest and says why."""
    config = pk.config_from_json({"models": zoo_specs(), "suites": list(SUITE_ORDER), "seed": seed})
    text = pk.report_to_json(pk.run_suite(config))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_a_closure_that_fails_certification_is_found_once(monkeypatch, rng):
    # both suites read the graded model, and so the seed's double closure,
    # which is found once; only its certification, which fails, runs again
    calls = []

    def counting(*args, _orig=relation._double_closure, **kwargs):
        calls.append(args)
        return _orig(*args, **kwargs)

    monkeypatch.setattr(relation, "_double_closure", counting)
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


@pytest.mark.parametrize(
    "spec, refused",
    (
        (pk.ModelSpec(kind="weighted_shift", dim=2, weights=("abc",)), True),
        (pk.ModelSpec(kind="normal", dim=1, diag=(None,)), True),
        (pk.ModelSpec(kind="jordan_block", dim="4"), False),
    ),
    ids=("weights", "diag", "dim"),
)
def test_a_malformed_hand_built_spec_never_aborts_the_batch(spec, refused):
    # run_suite raised from model_spec_to_json (ValueError, AttributeError),
    # and build raised numpy's ValueError or Python's TypeError; a spec that
    # cannot be written is refused with the config, as a JSON one is, and
    # one that cannot be built fails its own suites
    with pytest.raises(pk.InvalidSpec, match="^model "):
        pk.build(spec)
    models = (pk.weighted_shift((1.0, 1.4142135623730951)), spec)
    if refused:
        with pytest.raises(pk.ConfigError, match="^model 1 is malformed: "):
            pk.SuiteConfig(models=models, suites=("polar",))
        return
    first, second = pk.run_suite(pk.SuiteConfig(models=models, suites=("polar",)))["models"]
    assert all(c["pass"] for s in first["suites"] for c in s["checks"])
    (check,) = second["suites"][0]["checks"]
    assert check["anchor"] == "models.build"
    assert check["error"].startswith("InvalidSpec: model spec is malformed: ")


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
    # it, once per model, and no other model: here the seed's double
    # closure, which the tower and theorem22 suites both read
    bad = pk.weighted_shift((1.0, 2.0, 3.0))
    good = pk.weighted_shift((1.0, 1.4142135623730951))
    double_closure = relation._double_closure

    def failing(seed, pair, tol):
        if seed.dim == 4:
            raise np.linalg.LinAlgError("SVD did not converge")
        return double_closure(seed, pair, tol)

    monkeypatch.setattr(relation, "_double_closure", failing)
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


# -- the graded suite's stacks against its per-sample loops ------------------


def ref_suite_graded(an, tol, rng):
    """The graded suite as a loop over its one draw: ten products of two
    elements, each realized and normed on its own, then each factor's
    coefficient bounds at the norm the ring check took and its sum
    estimates by sum_norm_inequalities on its realized homogeneous parts."""
    model, skipped = report_module._nilpotent_model(an)
    if model is None:
        return skipped
    bandwidth = min(3, model.dim - 1)
    factors, ring = [], []
    for _ in range(10):
        g1 = pk.random_element(model, rng, bandwidth=bandwidth)
        g2 = pk.random_element(model, rng, bandwidth=bandwidth)
        r1, r2 = pk.realize(g1), pk.realize(g2)
        ring += [r1, r2, pk.realize(pk.graded_mul(g1, g2)) - r1 @ r2]
        factors += [g1, g2]
    n1, n2, defect = np.array([pk.operator_norm(m) for m in ring]).reshape(-1, 3).T
    worst = float((defect / ((1.0 + n1) * (1.0 + n2))).max())
    checks = [report_module._check("ring_consistency", "graded.product", worst <= tol, worst)]
    worst_center = worst_any = np.inf
    violations, worst_margin, ok = 0, 0.0, True
    for g, nb in zip(factors, np.stack([n1, n2], axis=1).ravel()):
        center = nb - g.coefficient_norm(0)
        any_margin = nb - g.coefficient_norm()
        worst_center = min(worst_center, center)
        worst_any = min(worst_any, any_margin)
        if center < -tol * (1.0 + nb) or any_margin < -tol * (1.0 + nb):
            violations += 1
        degrees, values = g._atoms
        parts = [
            pk.realize(model._lift(degrees[j : j + 1], values[j : j + 1]))
            for j in range(len(degrees))
        ]
        rep = pk.sum_norm_inequalities(parts, tol)
        ok = ok and rep.passed
        worst_margin = min(worst_margin, min(rep.margins.values()))
    checks.append(
        report_module._check(
            "coefficient_bounds",
            "graded.norm_filtration",
            violations == 0,
            max(0.0, -min(worst_center, worst_any)),
        )
    )
    checks.append(
        report_module._check("sum_inequalities", "graded.sum_bounds", ok, max(0.0, -worst_margin))
    )
    return checks


def _hex(checks):
    return [(c["name"], c["pass"], float.hex(c["residual"]), c.get("error")) for c in checks]


def assert_graded_suite_matches_its_loops(a, seed):
    an = Analysis(a)
    spec = pk.custom(a)
    config = pk.SuiteConfig(models=(spec,), suites=("graded",), seed=seed)
    got = report_module._suite_graded(spec, an, config, np.random.default_rng([seed, 0, 4]))
    want = ref_suite_graded(an, config.tol, np.random.default_rng([seed, 0, 4]))
    # the sum estimates on atom values against the dense ones, to rounding
    assert _hex(got[:2]) == _hex(want[:2])
    assert [(c["name"], c["pass"]) for c in got] == [(c["name"], c["pass"]) for c in want]
    if len(got) == 3:
        assert got[2]["residual"] == pytest.approx(want[2]["residual"], rel=1e-12, abs=1e-12)
    return got


def _conjugated_chains():
    """Haar-conjugated weighted shifts tensored with 1_r, the nilpotent
    direct sums of test_relation.direct_sums: their atom bases are no
    signed permutations, unlike the zoo's."""
    cases = (((1.0, 2.0), 2, 5), ((np.sqrt(2.0), 1.0, np.sqrt(3.0)), 1, 6), ((2.0, 0.5), 3, 7))
    out = []
    for weights, r, seed in cases:
        a = np.kron(pk.build(pk.weighted_shift(weights)), np.eye(r))
        w = _haar_unitary(np.random.default_rng(seed), len(a))
        out.append(w @ a @ w.conj().T)
    return out


@pytest.mark.parametrize("seed", (0, 1, 2, 3, 2027))
def test_stacked_graded_suite_gives_the_checks_of_its_loops(seed):
    zoo = [pk.build(pk.model_spec_from_json(spec)) for spec in zoo_specs()]
    applied = 0
    for a in zoo + _conjugated_chains():
        applied += bool(assert_graded_suite_matches_its_loops(a, seed))
    # every zoo model but the normal one, and every chain
    assert applied == len(zoo) - 1 + 3


@settings(max_examples=25, deadline=None)
@given(a=direct_sums(), seed=st.sampled_from((0, 1, 2, 3, 2027)))
def test_stacked_graded_suite_matches_its_loops_on_direct_sums(a, seed):
    w = _haar_unitary(np.random.default_rng(seed), len(a))
    assert_graded_suite_matches_its_loops(w @ a @ w.conj().T, seed)


# The SVD calls of one zoo run_suite, seed 0 and every suite.  Like the
# line budget, a change that adds a call raises this pin in the same diff
# and says why in CHANGES.md; one that removes calls may lower it.
ZOO_SVD_CALLS = 78


def test_the_zoo_run_suite_stays_within_its_svd_calls(lapack_calls):
    config = pk.config_from_json({"models": zoo_specs(), "suites": list(SUITE_ORDER), "seed": 0})
    lapack_calls.clear()
    pk.run_suite(config)
    assert lapack_calls.calls["svd"] <= ZOO_SVD_CALLS, lapack_calls.calls


def test_graded_suite_makes_few_svd_calls(lapack_calls):
    # one call for the ring's norms, which the coefficient bounds and the
    # sum estimates read too; the per-sample loops made 21, and the suite
    # made 4 when it drew its own samples and Gaussian sum trials
    spec = pk.q_oscillator(16, 0.5, 1.0)
    an = Analysis(pk.build(spec))
    an.model._gathers
    lapack_calls.clear()
    config = pk.SuiteConfig(models=(spec,), suites=("graded",))
    checks = report_module._suite_graded(spec, an, config, np.random.default_rng([0, 3, 4]))
    assert [c["pass"] for c in checks] == [True] * 3
    assert lapack_calls.calls["svd"] <= 1, lapack_calls.calls


def test_graded_suite_draws_its_factors_once():
    # ten pairs are all the suite draws: no samples of its own for the
    # coefficient bounds, and no Gaussian trials for the sum estimates
    spec = pk.q_oscillator(8, 0.5, 1.0)
    an = Analysis(pk.build(spec))
    config = pk.SuiteConfig(models=(spec,), suites=("graded",))
    rng, ref = np.random.default_rng([0, 3, 4]), np.random.default_rng([0, 3, 4])
    report_module._suite_graded(spec, an, config, rng)
    _draws(an.model, ref, min(3, an.model.dim - 1), 20)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_run_suite_derives_each_power_fact_once(monkeypatch):
    # both isometry reports read the closure of C*(1) at kmax = n, and on
    # six of the seven zoo models that closure is the seed's, whose frame
    # theorem22 reads too: one derivation per model, and one more for the
    # normal model, whose closure of C*(1) is coarser than the seed's
    seen = []
    derive = tower._derive_power_facts

    def counted(frame, kmax):
        seen.append((frame, kmax))
        return derive(frame, kmax)

    monkeypatch.setattr(tower, "_derive_power_facts", counted)
    config = pk.config_from_json({"models": zoo_specs(), "suites": list(SUITE_ORDER), "seed": 0})
    assert pk.report_to_json(pk.run_suite(config)) == GOLDEN.read_text(encoding="utf-8")
    assert len({(id(frame), kmax) for frame, kmax in seen}) == len(seen) == 8


def test_run_suite_finds_one_closure_per_model(monkeypatch):
    # the isometry suite reads C*(1)'s double closure as a partition of
    # the seed's, so no model finds a closure twice, nor C*(1)'s on its own
    closures, units = [], []

    def counted(*args, _orig=tower._double_closure):
        closures.append(args)
        return _orig(*args)

    def unit(*args, _orig=tower._unit_closure):
        units.append(args)
        return _orig(*args)

    for module in (tower, relation):
        monkeypatch.setattr(module, "_double_closure", counted)
        monkeypatch.setattr(module, "_unit_closure", unit)
    config = pk.config_from_json({"models": zoo_specs(), "suites": list(SUITE_ORDER), "seed": 0})
    assert pk.report_to_json(pk.run_suite(config)) == GOLDEN.read_text(encoding="utf-8")
    assert len(closures) == len(zoo_specs()) == 7
    assert units == []


def test_run_suite_derives_each_frames_defect_once(monkeypatch):
    # a frame carries its certification defect: the closure's certificate,
    # the hypotheses and both isometry reports read it off the frame, and
    # a read after the run derives it again on no frame
    desc = tower._AtomFrame.__dict__["defect"]
    derive = desc.func if isinstance(desc, cached_property) else desc.fget
    frames, calls = [], Counter()

    def counted(self):
        calls[id(self)] += 1
        return derive(self)

    def made(self, *args, _orig=tower._AtomFrame.__init__):
        frames.append(self)
        _orig(self, *args)

    wrapped = type(desc)(counted)
    if isinstance(wrapped, cached_property):
        wrapped.__set_name__(tower._AtomFrame, "defect")
    monkeypatch.setattr(tower._AtomFrame, "defect", wrapped)
    monkeypatch.setattr(tower._AtomFrame, "__init__", made)
    config = pk.config_from_json({"models": zoo_specs(), "suites": list(SUITE_ORDER), "seed": 0})
    assert pk.report_to_json(pk.run_suite(config)) == GOLDEN.read_text(encoding="utf-8")
    for frame in frames:
        frame.defect
    # one frame per model, and one more for the normal model's C*(1)
    assert len(frames) == len(zoo_specs()) + 1 == 8
    assert [calls[id(frame)] for frame in frames] == [1] * len(frames)


def _words_check():
    """The interior_agreement check of the words suite on
    q_oscillator(24, 1, 100)."""
    config = pk.SuiteConfig(models=(pk.q_oscillator(24, 1.0, 100.0),), suites=("words",))
    check = pk.run_suite(config)["models"][0]["suites"][0]["checks"][0]
    assert check["name"] == "interior_agreement"
    return check


def test_words_suite_judges_each_word_at_its_norm():
    # ||a|| is about 48, so a length-6 word has norm about 1.5e10, and its
    # round-off reads 1.9e-6, which a bare 1e-8 failed
    check = _words_check()
    assert check["pass"] and check["residual"] > 1e-8


def test_words_suite_fails_a_perturbed_normal_form(monkeypatch):
    # the first normal form's leading coefficient off by a relative 1e-6
    forms = []

    def perturbed(word, phi, _orig=report_module.normal_order):
        nf = _orig(word, phi)
        forms.append(nf)
        if len(forms) > 1:
            return nf
        return NormalForm(nf.l, nf.m, nf.p[:-1] + (nf.p[-1] * (1.0 + 1e-6),))

    monkeypatch.setattr(report_module, "normal_order", perturbed)
    assert not _words_check()["pass"]


def ref_suite_words(spec, an, config, rng):
    """The words suite by dense products and one SVD of its defects: each
    word and its normal form by evaluate, their defect restricted to the
    interior columns, and its operator norm."""
    if spec.kind != "q_oscillator":
        return []
    a, phi, n = an.matrix, pk.phi_for(spec), spec.dim
    defects, limits = [], []
    for _ in range(40):
        w = report_module._random_word(rng)
        if len(w) + 1 > n:
            continue
        nf = normal_order(w, phi)
        defects.append((evaluate(w, a) - evaluate(nf, a)) @ interior_projection(n, len(w)))
        limits.append(LIMITS["word"](config.tol, an.norm, len(w)))
    norms = _operator_norms(defects)
    worst, ok = float(norms.max(initial=0.0)), bool((norms <= np.array(limits)).all())
    checks = [report_module._check("interior_agreement", "words.normal_order", ok, worst)]
    exact = True
    for _ in range(20):
        n1 = normal_order(report_module._random_word(rng), phi)
        n2 = normal_order(report_module._random_word(rng), phi)
        prod = nf_mul(n1, n2, phi)
        exact = exact and (prod.degree == n1.degree + n2.degree)
    checks.append(report_module._check("degree_additivity", "words.degree", exact,
                                       0.0 if exact else 1.0))
    return checks


@pytest.mark.parametrize("seed", (0, 1, 2027))
def test_words_suite_matches_its_dense_reference_on_the_zoo(seed):
    config = pk.config_from_json({"models": zoo_specs(), "suites": list(SUITE_ORDER), "seed": seed})
    si = SUITE_ORDER.index("words")
    report = pk.run_suite(config)
    checked = 0
    for mi, spec in enumerate(config.models):
        got = report["models"][mi]["suites"][si]["checks"]
        rng = np.random.default_rng([seed, mi, si])
        ref = ref_suite_words(spec, Analysis(pk.build(spec)), config, rng)
        assert got == ref, (mi, got, ref)
        checked += bool(ref)
    assert checked == 3  # the zoo's three oscillators


@pytest.mark.parametrize("qh", ((24, 1.0, 100.0), (64, 1.0, 1.0), (24, 2.0, 0.4)), ids=str)
def test_words_suite_matches_its_dense_reference_bit_for_bit(qh):
    spec = pk.q_oscillator(*qh)
    an = Analysis(pk.build(spec))
    config = pk.SuiteConfig(models=(spec,), suites=("words",))
    for mi in range(4):
        key = [config.seed, mi, 0]
        got = report_module._suite_words(spec, an, config, np.random.default_rng(key))
        assert got == ref_suite_words(spec, an, config, np.random.default_rng(key)), mi


def test_words_suite_takes_no_svd(lapack_calls):
    spec = pk.q_oscillator(16, 0.5, 1.0)
    an = Analysis(pk.build(spec))
    an.norm
    lapack_calls.clear()
    config = pk.SuiteConfig(models=(spec,), suites=("words",))
    checks = report_module._suite_words(spec, an, config, np.random.default_rng([0, 0, 0]))
    assert [c["pass"] for c in checks] == [True, True]
    assert sum(lapack_calls.calls.values()) == 0, lapack_calls.calls


def test_words_suite_stays_small_at_n_256():
    # its dense products and SVD traced 82 MB here
    spec = pk.q_oscillator(256, 1.0, 1.0)
    an = Analysis(pk.build(spec))
    an.norm
    config = pk.SuiteConfig(models=(spec,), suites=("words",))
    tracemalloc.start()
    try:
        checks = report_module._suite_words(spec, an, config, np.random.default_rng([0, 0, 0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c["pass"] for c in checks] == [True, True]
    assert peak < 8 * 2**20, peak
