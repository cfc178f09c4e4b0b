import warnings

import numpy as np
import pytest

import polarkit as pk


def test_weighted_shift_raises_indices():
    a = pk.build(pk.weighted_shift((2.0, 3.0)))
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    assert np.allclose(a @ e0, [0.0, 2.0, 0.0])
    assert np.allclose(a[:, 2], 0.0)  # top basis vector is annihilated


def test_weighted_shift_rejects_bad_weights():
    with pytest.raises(pk.InvalidSpec):
        pk.build(pk.weighted_shift(()))
    with pytest.raises(pk.InvalidSpec):
        pk.build(pk.weighted_shift((1.0, -2.0)))


@pytest.mark.parametrize(
    "spec",
    [
        pk.weighted_shift((1.0, float("nan"))),
        pk.q_oscillator(4, float("inf"), 1.0),
        pk.q_oscillator(4, 0.5, float("nan")),
        pk.normal((1.0, complex(0.0, float("inf")))),
        pk.custom(np.array([[float("inf"), 0.0], [0.0, 1.0]])),
    ],
    ids=["weights", "q", "h", "diag", "custom"],
)
def test_build_rejects_non_finite_numbers(spec):
    with pytest.raises(pk.InvalidSpec, match="non-finite"):
        pk.build(spec)


def test_q_lambda_ladder():
    lam = pk.q_lambda(5, 0.5, 1.0)
    assert lam[0] == 0.0
    for n in range(1, 5):
        assert lam[n] == pytest.approx(0.5 * lam[n - 1] + 1.0)


def test_q_oscillator_interior_identity():
    spec = pk.q_oscillator(8, 0.5, 1.0)
    a = pk.build(spec)
    r = a @ a.conj().T - 0.5 * a.conj().T @ a - np.eye(8)
    # the defect lives only in the top diagonal entry
    assert abs(r[7, 7]) > 1.0
    r[7, 7] = 0.0
    assert pk.operator_norm(r) <= 1e-12


def test_q_oscillator_heisenberg_weights():
    a = pk.build(pk.q_oscillator(4, 1.0, 1.0))
    pos = pk.polar_decompose(a).pos
    vals = sorted(np.linalg.eigvalsh(pos))
    assert np.allclose(vals, [0.0, 1.0, np.sqrt(2.0), np.sqrt(3.0)], atol=1e-12)


def test_q_oscillator_polar_factor_is_unit_pattern():
    a = pk.build(pk.q_oscillator(6, 0.5, 1.0))
    u = pk.polar_decompose(a).u
    assert np.allclose(np.abs(u), (np.abs(a) > 1e-12).astype(float), atol=1e-10)


def test_q_oscillator_rejects_collisions():
    # q = 0 makes every lambda_n equal for n >= 1
    with pytest.raises(pk.InvalidSpec):
        pk.build(pk.q_oscillator(4, 0.0, 1.0))
    with pytest.raises(pk.InvalidSpec):
        pk.build(pk.q_oscillator(1, 0.5, 1.0))
    with pytest.raises(pk.InvalidSpec):
        pk.build(pk.q_oscillator(4, 0.5, -1.0))


def test_q_oscillator_rejects_a_negative_level():
    # q = -2, h = 1 gives lambda = 0, 1, -1, 3: distinct, but a*a would
    # need sqrt(-1), which built a NaN matrix
    assert pk.q_lambda(4, -2.0, 1.0).tolist() == [0.0, 1.0, -1.0, 3.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(pk.InvalidSpec) as exc:
            pk.build(pk.q_oscillator(4, -2.0, 1.0))
    assert str(exc.value) == (
        "q_oscillator level value lambda_2 = -1 is negative (q=-2.0, h=1.0), "
        "but a*a = diag(lambda) is positive"
    )
    # the first negative level is named, and a nonnegative ladder builds
    with pytest.raises(pk.InvalidSpec, match="^q_oscillator level value lambda_2 = -0.5 "):
        pk.build(pk.q_oscillator(6, -1.5, 1.0))
    assert np.isfinite(pk.build(pk.q_oscillator(4, -0.5, 1.0))).all()


def test_q_oscillator_rejects_a_level_that_overflows():
    # q = 10, h = 1 gives lambda_n = (10^n - 1) / 9, past float max at
    # n = 310: the levels overflowed to inf, and the collision check read
    # their NaN differences
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(pk.InvalidSpec) as exc:
            pk.build(pk.q_oscillator(400, 10.0, 1.0))
    assert str(exc.value) == (
        "q_oscillator level value lambda_310 = inf is not finite (q=10.0, h=1.0)"
    )
    assert np.isfinite(pk.build(pk.q_oscillator(300, 10.0, 1.0))).all()


def test_normal_model_is_diagonal():
    a = pk.build(pk.normal((1.0, 1.0j)))
    assert np.allclose(a, np.diag([1.0, 1.0j]))
    assert pk.verify_I1(a).holds


def test_jordan_block_fails_relation():
    a = pk.build(pk.jordan_block(3))
    cert = pk.verify_I1(a)
    assert not cert.holds
    assert cert.holds == cert.conjugate_holds


def test_custom_model_round_trip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    spec = pk.custom(m)
    assert np.allclose(pk.build(spec), m)


def test_build_rejects_unknown_kind():
    spec = pk.custom(np.eye(2))
    bad = pk.ModelSpec(
        kind="mystery",
        dim=spec.dim,
        weights=None,
        q=None,
        h=None,
        diag=None,
        matrix=spec.matrix,
    )
    with pytest.raises(pk.InvalidSpec):
        pk.build(bad)


def test_phi_for_q_oscillator():
    phi = pk.phi_for(pk.q_oscillator(4, 0.5, 1.0))
    assert phi == pk.PhiMap.affine(0.5, 1.0)
    assert (phi.q, phi.h) == (0.5, 1.0)
    with pytest.raises(pk.UnsupportedPhi):
        pk.phi_for(pk.normal((1.0, 2.0)))


def test_validate_model_q_oscillator():
    # the relation holds, and a a* - q a*a - h vanishes except at the top
    # diagonal entry, the truncation artifact q lambda_15 + h
    a = pk.build(pk.q_oscillator(16, 0.5, 1.0))
    assert pk.verify_I1(a).holds
    r = a @ a.conj().T - 0.5 * (a.conj().T @ a) - np.eye(16)
    lam = pk.q_lambda(16, 0.5, 1.0)
    assert abs(r[15, 15]) == pytest.approx(0.5 * lam[15] + 1.0)
    r[15, 15] = 0.0
    assert pk.operator_norm(r) <= 1e-12


def test_validate_model_negative_control():
    assert not pk.verify_I1(pk.build(pk.jordan_block(3))).holds


@pytest.mark.parametrize(
    "make, message",
    (
        # q_oscillator(3.5, 0.5, 1) was 3 x 3, jordan_block(2.5) 2 x 2 and
        # q_oscillator("4", ...) 4 x 4; a bool was read as the dim 1 or 0
        (lambda: pk.q_oscillator(3.5, 0.5, 1.0), "dim must be an integer, got 3.5"),
        (lambda: pk.q_oscillator("4", 0.5, 1.0), "dim must be an integer, got '4'"),
        (lambda: pk.jordan_block(2.5), "dim must be an integer, got 2.5"),
        (lambda: pk.jordan_block(True), "dim must be an integer, got True"),
        (lambda: pk.jordan_block(-3), "dim must be at least 0, got -3"),
        # each of these was a bare ValueError
        (lambda: pk.jordan_block("x"), "dim must be an integer, got 'x'"),
        (lambda: pk.weighted_shift([1, "a"]), "model spec is malformed: could not convert "),
        (lambda: pk.q_oscillator(4, "q", 1.0), "model spec is malformed: could not convert "),
        (lambda: pk.normal(["x"]), "model spec is malformed: complex() arg is a malformed "),
    ),
    ids=("osc_float_dim", "osc_str_dim", "jordan_float_dim", "jordan_bool_dim",
         "jordan_negative_dim", "jordan_str_dim", "shift_str_weight", "osc_str_q", "normal_str"),
)
def test_a_model_field_that_is_not_a_number_is_an_invalid_spec(make, message):
    with pytest.raises(pk.InvalidSpec) as err:
        make()
    assert str(err.value).startswith(message)


def test_integral_dims_of_any_integer_type_build():
    assert pk.build(pk.q_oscillator(np.int64(4), 0.5, 1.0)).shape == (4, 4)
    assert pk.build(pk.jordan_block(np.int32(3))).shape == (3, 3)
