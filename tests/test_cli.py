import json
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import polarkit as pk
from polarkit import cli
from polarkit.cli import main
from polarkit.isometry import CONDITIONS
from polarkit.relation import orbit_structure

from conftest import zoo_specs


@pytest.fixture()
def shift_file(tmp_path, shift4):
    path = tmp_path / "shift4.json"
    pk.write_matrix(str(path), shift4)
    return str(path)


@pytest.fixture()
def jordan_file(tmp_path):
    path = tmp_path / "jordan3.json"
    pk.write_matrix(str(path), pk.build(pk.jordan_block(3)))
    return str(path)


Q_MODEL = '{"kind": "q_oscillator", "dim": 6, "q": 0.5, "h": 1.0}'


def test_polar_decompose_text(shift_file, capsys):
    assert main(["polar-decompose", "--in", shift_file]) == 0
    out = capsys.readouterr().out
    assert "polar decomposition verified" in out
    assert "[PASS] triple_product" in out


def test_polar_decompose_json(shift_file, capsys):
    assert main(["polar-decompose", "--in", shift_file, "--report", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["pass"] is True
    assert obj["rank"] == 3
    pos = pk.matrix_from_json(obj["pos"])
    assert np.allclose(np.diag(pos).real, [1.0, np.sqrt(2.0), np.sqrt(3.0), 0.0])


def _rank_deficient_custom():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a[:, 0] = 0.0
    return pk.model_spec_to_json(pk.custom(a))


@pytest.mark.parametrize("tol", (pk.DEFAULT_TOL, 1e-15, 1e-17), ids=str)
@pytest.mark.parametrize("spec", zoo_specs() + [_rank_deficient_custom()],
                         ids=lambda spec: spec["kind"])
def test_polar_decompose_exits_with_the_polar_suites_verdict(spec, tol, capsys):
    # the command wrote its own rule and skipped the positive-part check;
    # both now read report._polar_checks (at 1e-15 the custom matrix fails)
    config = pk.SuiteConfig(models=(pk.model_spec_from_json(spec),), suites=("polar",), tol=tol)
    verdict = pk.run_suite(config)["all_pass"]
    code = main(["polar-decompose", "--model", json.dumps(spec), "--tol", str(tol)])
    assert code == (0 if verdict else 1)


def test_polar_decompose_reports_the_conditions_below_rounding(capsys):
    # at tol 1e-17 u*u and uu* are Hermitian only to 9.6e-17; the
    # conditions are reported, and fail, instead of a NotHermitian
    spec = _rank_deficient_custom()
    assert main(["polar-decompose", "--model", json.dumps(spec), "--tol", "1e-17"]) == 1
    out = capsys.readouterr().out
    assert "check failed" not in out and "POLAR CHECK FAILED" in out
    assert all(f"[FAIL] {name} " in out or f"[PASS] {name} " in out for name in CONDITIONS)
    config = pk.SuiteConfig(models=(pk.model_spec_from_json(spec),), suites=("polar",), tol=1e-17)
    checks = pk.run_suite(config)["models"][0]["suites"][0]["checks"]
    assert [c["name"] for c in checks] == [
        "factor_residual", "isometry_conditions", "conditions_consistent", "positive_part"
    ]
    assert not any("error" in c for c in checks)


def test_verify_relation_exit_codes(shift_file, jordan_file, capsys):
    assert main(["verify-relation", "--in", shift_file]) == 0
    assert main(["verify-relation", "--in", jordan_file]) == 1
    out = capsys.readouterr().out
    assert "NO" in out


def test_verify_theorems_inline_model(capsys):
    assert main(["verify-theorems", "--model", Q_MODEL]) == 0
    out = capsys.readouterr().out
    assert "all structure checks passed" in out


def test_tower_reports_dimensions(shift_file, capsys):
    assert main(["tower", "--in", shift_file]) == 0
    out = capsys.readouterr().out
    assert "double closure dimension 4" in out


@pytest.mark.parametrize(
    "spec", zoo_specs()[:5], ids=lambda spec: spec["kind"] + str(spec.get("dim", ""))
)
def test_tower_orbit_counts_cover_the_double_closure(spec, capsys):
    assert main(["tower", "--model", json.dumps(spec), "--report", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    orbits = obj["atom_orbits"]
    assert orbits["atoms"] == obj["double_closure_dimension"]
    assert orbits["orbits"] == orbits["cycles"] + len(orbits["chain_lengths"])


def test_orbit_counts_tell_chains_from_cycles(capsys):
    # a shift is one chain; a normal operator's U is diagonal, so every
    # atom is a cycle of length 1; a direct sum of two shifts is two chains
    a = np.zeros((7, 7), dtype=complex)
    a[:4, :4] = pk.build(pk.weighted_shift((1.0, np.sqrt(2.0), np.sqrt(3.0))))
    a[4:, 4:] = pk.build(pk.weighted_shift((0.5, 2.5)))
    normal = pk.build(pk.model_spec_from_json(zoo_specs()[4]))
    want = {7: (0, [4, 3]), 3: (3, [])}
    for m in (a, normal):
        an = pk.relation.Analysis(m)
        entry, _ = cli._orbits(orbit_structure(an.frame))
        got = (entry["atoms"], entry["cycles"], entry["chain_lengths"])
        assert got == (m.shape[0], *want[m.shape[0]])
    assert main(["tower", "--model", json.dumps(zoo_specs()[4])]) == 0
    out = capsys.readouterr().out
    assert "atom orbits under delta: atoms 3, orbits 3, cycles 3, chains 0\n" in out


def test_norm_estimate_unit_shift(capsys):
    code = main(
        [
            "norm-estimate",
            "--model",
            '{"kind": "weighted_shift", "weights": [1.0, 1.0, 1.0]}',
            "--kmax",
            "64",
            "--report",
            "json",
        ]
    )
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["relative_gap"] <= 0.05
    assert obj["dense_norm"] == pytest.approx(2.0 * np.cos(np.pi / 5.0))


def test_norm_estimate_takes_a_large_kmax(capsys):
    # u is nilpotent, so no product degree passes n - 1 = 3 whatever kmax
    # is; 4 * kmax * bandwidth = 8192 was refused with exit code 1
    argv = ["norm-estimate", "--model", '{"kind": "weighted_shift", "weights": [1, 1, 1]}']
    assert main([*argv, "--kmax", "2048", "--report", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [e["k"] for e in obj["estimates"]] == [2**i for i in range(12)]
    assert obj["relative_gap"] <= 0.05


@pytest.mark.parametrize("halved", (False, True), ids=("as_is", "upper_bounds_halved"))
def test_norm_estimate_verdict_is_the_suites_envelope_check(halved, monkeypatch, capsys):
    spec = zoo_specs()[2]
    if halved:  # brackets too low to hold the norm: both must fail
        upper = pk.NormEstimate.upper_bound
        monkeypatch.setattr(pk.NormEstimate, "upper_bound", lambda est, k, s: upper(est, k, s) / 2)
    config = pk.config_from_json({"models": [spec], "suites": ["norm_formula"], "seed": 0})
    checks = pk.run_suite(config)["models"][0]["suites"][0]["checks"]
    (envelope,) = [c for c in checks if c["name"] == "envelope"]
    code = main(["norm-estimate", "--model", json.dumps(spec), "--report", "json"])
    assert json.loads(capsys.readouterr().out)["pass"] is envelope["pass"] is (not halved)
    assert code == (1 if halved else 0)


def test_normal_order_output(capsys):
    assert main(["normal-order", "a a a*", "--q", "0.5", "--h", "1"]) == 0
    out = capsys.readouterr().out
    assert "l=0 m=1" in out
    assert "[1.5, 0.25]" in out


def test_normal_order_exact_fractions(capsys):
    assert main(["normal-order", "a a a*", "--q", "1/2", "--h", "1", "--exact"]) == 0
    assert "p=[3/2, 1/4]" in capsys.readouterr().out


def test_normal_order_exact_output_round_trips(capsys):
    argv = ["normal-order", "a a a* a* a*", "--q", "1/3", "--h", "1", "--exact"]
    assert main(argv) == 0
    assert "l=1 m=0 p=[52/27, 17/81, 1/243]\n" in capsys.readouterr().out
    assert main(argv + ["--report", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["p"] == ["52/27", "17/81", "1/243"]
    back = pk.normal_form_from_json(obj)
    assert back == pk.normal_order(pk.parse_word(argv[1]), pk.PhiMap.affine_exact("1/3", 1))
    assert back.p == (Fraction(52, 27), Fraction(17, 81), Fraction(1, 243))


def test_normal_order_float_output_unchanged(capsys):
    # the bytes printed before exact coefficients were serialized as strings
    assert main(["normal-order", "a* a a a*", "--q", "0.5", "--h", "1"]) == 0
    assert capsys.readouterr().out == "l=0 m=0 p=[0.0, 1.0, 0.5]\ndeg 0 (normal form degree 0)\n"
    assert main(["normal-order", "a a a*", "--q", "0.5", "--h", "1", "--report", "json"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "deg": 1,\n  "l": 0,\n  "m": 1,\n  "p": [\n    1.5,\n    0.25\n  ]\n}\n'
    )


@pytest.mark.parametrize(
    "flags", [["--q", "abc"], ["--exact", "--q", "1/0"], ["--exact", "--q", "inf"], ["--q", "nan"]]
)
def test_normal_order_bad_relation_coefficient(flags, capsys):
    assert main(["normal-order", "a a a*", "--h", "1", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: relation coefficient q")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_normal_order_bad_word(capsys):
    assert main(["normal-order", "a b", "--q", "1", "--h", "1"]) == 2


def test_algebra_info(shift_file, capsys):
    assert main(["algebra-info", "--in", shift_file]) == 0
    out = capsys.readouterr().out
    assert "full algebra C*(1,|a|,U) dimension 16" in out
    assert "graded bandwidth 3" in out


def test_algebra_info_reads_the_tower_without_its_theorems(
    shift_file, jordan_file, monkeypatch, capsys
):
    import polarkit.relation as relation

    def unused(*args, **kwargs):
        raise AssertionError("algebra-info prints no tower theorem")

    monkeypatch.setattr(relation, "_tower_theorems", unused)
    assert main(["algebra-info", "--in", shift_file]) == 0
    assert capsys.readouterr().out == (
        "ambient dimension 4\n"
        "seed algebra C*(1,|a|) dimension 4\n"
        "coefficient algebra dimension 4\n"
        "atom orbits under delta: atoms 4, orbits 1, cycles 0, chains 1 (lengths 4)\n"
        "full algebra C*(1,|a|,U) dimension 16\n"
        "graded bandwidth 3\n"
    )
    assert main(["algebra-info", "--model", Q_MODEL, "--report", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "atom_orbits": {"atoms": 6, "chain_lengths": [6], "cycles": 0, "orbits": 1},
        "coefficient_dimension": 6,
        "dim": 6,
        "full_algebra_dimension": 36,
        "graded_bandwidth": 5,
        "seed_dimension": 6,
        "stabilization": {
            "forward": 0,
            "forward_from_star_limit": 0,
            "star": 0,
            "star_from_forward_limit": 0,
        },
    }
    assert main(["algebra-info", "--in", jordan_file]) == 1
    assert capsys.readouterr().err == (
        "check failed: RelationViolated: aa* is not a function of a*a (residual 5.000e-01);"
        " eigenspace of a*a at 1 carries inconsistent aa* values\n"
    )


@pytest.mark.parametrize(
    "keys, message",
    (
        (["1.5"], "error: element degree '1.5' is not an integer\n"),
        (["x"], "error: element degree 'x' is not an integer\n"),
        (["1", "01"], "error: element degree 1 is given twice\n"),
    ),
)
def test_norm_estimate_element_degrees_are_integers_given_once(keys, message, tmp_path, capsys):
    model = pk.graded_model_for(pk.build(pk.weighted_shift((1.0, 1.0, 1.0))))
    p1 = pk.matrix_to_json(model.range_projection(1))
    path = tmp_path / "element.json"
    path.write_text(json.dumps({"coefficients": {key: p1 for key in keys}}))
    argv = ["norm-estimate", "--model", '{"kind": "weighted_shift", "weights": [1.0, 1.0, 1.0]}']
    assert main(argv + ["--element", str(path)]) == 2
    assert capsys.readouterr().err == message
    path.write_text(json.dumps({"coefficients": {"1": p1, "-1": p1}}))
    assert main(argv + ["--element", str(path)]) == 0


def test_missing_input_is_config_error(capsys):
    assert main(["verify-relation"]) == 2
    assert main(["verify-relation", "--in", "/nonexistent/x.json"]) == 2


def test_non_finite_input_exits_two(tmp_path, capsys):
    path = tmp_path / "nan.json"
    nan = float("nan")
    path.write_text(json.dumps({"dim": 2, "entries": [[nan, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}))
    assert main(["verify-relation", "--in", str(path)]) == 2
    assert capsys.readouterr().err == "error: entries[0] is not finite: (nan+0j)\n"
    assert main(["verify-relation", "--model", '{"kind": "weighted_shift", "weights": [1.0, NaN]}']) == 2
    assert capsys.readouterr().err.startswith("error: model field 'weights'")
    # in a batch, a non-finite model is one failed precondition, not an abort
    models = [{"kind": "normal", "diag": [[1.0, float("inf")]]}, {"kind": "normal", "diag": [[2.0, 0.0]]}]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"models": models, "suites": ["polar"]}))
    assert main(["run-suite", "--config", str(cfg)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("[InvalidSpec: model field 'diag' has a non-finite entry]")
    assert len(lines) == 6 and all(line.startswith("[PASS] model 1") for line in lines[1:5])



HUGE = {"dim": 2, "entries": [[1e200, 0], [1e200, 0], [0, 0], [1e-200, 0]]}


@pytest.mark.parametrize("command", ("verify-relation", "verify-theorems", "tower", "algebra-info"))
@pytest.mark.parametrize(
    "matrix, message",
    (
        (HUGE, "error: a*a overflows double precision (largest entry 1.000e+200)\n"),
        (
            {"dim": 2, "entries": [["x", 0], [0, 0], [0, 0], [0, 0]]},
            "error: entries[0] must be a [re, im] pair of numbers, got ['x', 0]\n",
        ),
        (
            {"dim": 2.5, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]},
            "error: matrix field 'dim' must be an integer, got 2.5\n",
        ),
        ({"dim": True, "entries": [[1, 0]]}, "error: matrix field 'dim' must be an integer, got True\n"),
    ),
    ids=("overflow", "text-entry", "float-dim", "bool-dim"),
)
def test_unreadable_matrix_input_exits_two(command, matrix, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(matrix))
    assert main([command, "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""


def test_model_dim_must_be_an_integer(capsys):
    for dim in ("2.5", "true", '"4"'):
        model = f'{{"kind": "q_oscillator", "dim": {dim}, "q": 0.5, "h": 1.0}}'
        assert main(["verify-relation", "--model", model]) == 2
        assert capsys.readouterr().err.startswith("error: model field 'dim' must be an integer")


@pytest.mark.parametrize(
    "matrix",
    ({"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]}, {"dim": 1, "entries": [[2, 0]]}),
)
def test_norm_estimate_refuses_a_u_that_is_not_nilpotent(matrix, tmp_path, capsys):
    # u = diag(1, 0) and u = 1 are their own powers, so degree 0 of
    # (b b*)^2k would also collect the degrees that wrap onto it, and the
    # estimate would leave its envelope
    path = tmp_path / "projection.json"
    path.write_text(json.dumps(matrix))
    assert main(["norm-estimate", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("check failed: ModelMismatch: u is not nilpotent")


def test_run_suite_infinite_custom_matrix_is_one_failed_model(tmp_path, capsys):
    inf = float("inf")
    entries = [[inf, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    bad = {"kind": "custom", "matrix": {"dim": 2, "entries": entries}}
    good = {"kind": "weighted_shift", "weights": [1.0, 1.4142135623730951]}
    suites = ["polar", "isometry", "theorem22"]
    reports = {}
    for name, models, code in (("batch", [bad, good], 1), ("alone", [good], 0)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"models": models, "suites": suites}))  # writes Infinity
        out = tmp_path / f"{name}-report.json"
        assert main(["run-suite", "--config", str(cfg), "--out", str(out)]) == code
        reports[name] = json.loads(out.read_text())
    capsys.readouterr()
    first, second = reports["batch"]["models"]
    for suite in first["suites"]:
        (check,) = suite["checks"]
        assert check["anchor"] == "models.build"
        assert check["error"] == "InvalidSpec: model field 'matrix' has a non-finite entry"
    assert second["suites"] == reports["alone"]["models"][0]["suites"]
    assert [s["name"] for s in second["suites"]] == suites
    assert all(c["pass"] for s in second["suites"] for c in s["checks"])

def test_out_flag_writes_json(shift_file, tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert main(["verify-relation", "--in", shift_file, "--out", str(out_file)]) == 0
    obj = json.loads(out_file.read_text())
    assert obj["holds"] is True


def test_run_suite_exit_and_determinism(tmp_path, capsys):
    config = {
        "models": [
            {"kind": "weighted_shift", "weights": [1.0, 1.4142135623730951]},
            {"kind": "q_oscillator", "dim": 4, "q": 0.5, "h": 1.0},
        ],
        "suites": ["polar", "graded", "words"],
        "seed": 7,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["run-suite", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run-suite", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = capsys.readouterr().out
    assert "all checks passed" in text


def test_run_suite_negative_control_exit_one(tmp_path, capsys):
    config = {
        "models": [{"kind": "jordan_block", "dim": 3}],
        "suites": ["theorem22"],
        "seed": 0,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert main(["run-suite", "--config", str(cfg), "--out", str(out)]) == 1
    # the report is still written on failure
    assert json.loads(out.read_text())["all_pass"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["run-suite", "--config", "c.json", "--seed", "7"],
        ["run-suite", "--config", "c.json", "--kmax", "2"],
        ["verify-relation", "--model", "{}", "--kmax", "2"],
        ["norm-estimate", "--model", "{}", "--seed", "1"],
    ],
    ids=("run_suite_seed", "run_suite_kmax", "verify_relation_kmax", "norm_estimate_seed"),
)
def test_a_flag_the_command_does_not_read_exits_two(argv, capsys):
    # the seed and the kmax of a run come from its config; --kmax is
    # norm-estimate's own, and no command takes --seed
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --" + argv[-2][2:] in capsys.readouterr().err


def test_run_suite_bad_config_exit_two(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"models": [], "suites": ["polar"]}))
    assert main(["run-suite", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "field",
    # a negative seed, which numpy's default_rng would reject mid-run
    [{"tol": None}, {"tol": "abc"}, {"tol": float("nan")}, {"kmax": "x"}, {"seed": [1]}, {"seed": -1}],
)
def test_run_suite_malformed_config_value_exits_two(field, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"models": [{"kind": "jordan_block", "dim": 3}], "suites": ["polar"], **field}))
    assert main(["run-suite", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_tol_env_override(shift_file, monkeypatch, capsys):
    monkeypatch.setenv("POLARKIT_TOL", "not-a-number")
    assert main(["verify-relation", "--in", shift_file]) == 2
    monkeypatch.setenv("POLARKIT_TOL", "1e-6")
    assert main(["verify-relation", "--in", shift_file]) == 0


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_tol_must_be_positive_and_finite(shift_file, tol, monkeypatch, capsys):
    argv = ["norm-estimate", "--in", shift_file]
    assert main([*argv, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --tol must be positive and finite")
    assert captured.out == ""
    monkeypatch.setenv("POLARKIT_TOL", tol)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: POLARKIT_TOL must be positive and finite")


@pytest.mark.parametrize("kmax", ["0", "-3"])
def test_kmax_must_be_at_least_one(shift_file, kmax, capsys):
    assert main(["norm-estimate", "--in", shift_file, "--kmax", kmax]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --kmax must be at least 1, got {kmax}\n"
    assert captured.out == ""


def test_console_script_entry_point(shift_file):
    proc = subprocess.run(
        [sys.executable, "-m", "polarkit.cli", "verify-relation", "--in", shift_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "yes" in proc.stdout


def test_algebra_info_on_q_oscillator_16(capsys):
    model = '{"kind": "q_oscillator", "dim": 16, "q": 0.5, "h": 1.0}'
    assert main(["algebra-info", "--model", model, "--report", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "atom_orbits": {"atoms": 16, "chain_lengths": [16], "cycles": 0, "orbits": 1},
        "coefficient_dimension": 16,
        "dim": 16,
        "full_algebra_dimension": 256,
        "graded_bandwidth": 15,
        "seed_dimension": 16,
        "stabilization": {
            "forward": 0,
            "forward_from_star_limit": 0,
            "star": 0,
            "star_from_forward_limit": 0,
        },
    }


def test_algebra_info_on_a_conjugated_shift(shift_file, shift4, tmp_path, capsys):
    rng = np.random.default_rng(7)
    w, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    path = tmp_path / "shift4_conj.json"
    pk.write_matrix(str(path), w @ shift4 @ w.conj().T)
    assert main(["algebra-info", "--in", shift_file]) == 0
    plain = capsys.readouterr().out
    assert main(["algebra-info", "--in", str(path)]) == 0
    assert capsys.readouterr().out == plain
    assert "full algebra C*(1,|a|,U) dimension 16\n" in plain


def test_algebra_info_after_the_tower_stays_small(monkeypatch, capsys):
    # B is read from delta's orbits, so no dense n x n matrix of B is
    # formed; at n = 48, dim B = 2304 such matrices would take 85 MB each
    # time they were stacked
    spec = {"kind": "weighted_shift", "weights": np.sqrt(np.arange(1.0, 48.0)).tolist()}
    an = cli.Analysis(pk.build(pk.model_spec_from_json(spec)))
    an.tower
    monkeypatch.setattr(cli, "Analysis", lambda matrix, tol: an)
    tracemalloc.start()
    try:
        assert main(["algebra-info", "--model", json.dumps(spec)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert "full algebra C*(1,|a|,U) dimension 2304\ngraded bandwidth 47\n" in out
    assert peak < 50e6
