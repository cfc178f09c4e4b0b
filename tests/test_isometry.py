import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarkit as pk

from conftest import random_matrix
from test_residuals import ref_powers

CONDITION_NAMES = (
    "spec_initial",
    "spec_final",
    "idempotent_initial",
    "idempotent_final",
    "triple_product",
)


def test_five_conditions_on_polar_factor(shift4):
    u = pk.polar_decompose(shift4).u
    rep = pk.partial_isometry_report(u)
    assert tuple(c.name for c in rep.conditions) == CONDITION_NAMES
    assert rep.passed and rep.consistent
    assert all(c.passed for c in rep.conditions)


def test_conditions_fail_together_for_scaled_isometry(shift4):
    u = 1.5 * pk.polar_decompose(shift4).u
    rep = pk.partial_isometry_report(u)
    assert not rep.passed
    assert rep.consistent  # all five verdicts still agree
    assert rep.worst > 1.0


def test_conditions_are_reported_at_a_tol_below_rounding():
    # u*u and uu* are Hermitian by construction, to 9.6e-17 here: below
    # that tol the five conditions are reported, failing, not refused
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a[:, 0] = 0.0
    u = pk.polar_decompose(a).u
    rep = pk.partial_isometry_report(u, tol=1e-17)
    assert tuple(c.name for c in rep.conditions) == CONDITION_NAMES
    assert not rep.passed
    default = pk.partial_isometry_report(u)
    assert default.passed
    assert [c.residual for c in rep.conditions] == [c.residual for c in default.conditions]


def test_unitary_is_partial_isometry(rng):
    q, _ = np.linalg.qr(random_matrix(rng, 5))
    rep = pk.partial_isometry_report(q)
    assert rep.passed and rep.worst <= 1e-12


def test_projections_of_polar_factor(shift4):
    u = pk.polar_decompose(shift4).u
    p_init = u.conj().T @ u
    p_fin = u @ u.conj().T
    assert np.allclose(p_init, np.diag([1.0, 1.0, 1.0, 0.0]), atol=1e-12)
    assert np.allclose(p_fin, np.diag([0.0, 1.0, 1.0, 1.0]), atol=1e-12)


def test_power_isometry_equivalence(shift4):
    u = pk.polar_decompose(shift4).u
    rep = pk.power_isometry_check(u, kmax=4)
    assert rep.equivalent
    _, p_of, _ = ref_powers(u, 4)
    # final projections shrink as the power grows
    for k in range(1, 5):
        p, q = p_of[k - 1], p_of[k]
        assert pk.operator_norm(p @ q - q) <= 1e-12


def test_power_isometry_flags_failure(rng):
    a = random_matrix(rng, 4)
    u = pk.polar_decompose(a).u + 0.05 * random_matrix(rng, 4)
    rep = pk.power_isometry_check(u, kmax=3)
    assert rep.equivalent  # both sides fail together, so they stay equivalent
    assert not (rep.powers_ok or rep.family_ok)


def test_commuting_projection_properties(shift4):
    u = pk.polar_decompose(shift4).u
    rep = pk.commuting_projection_properties(u, kmax=3)
    assert rep.passed
    assert rep.family_residual <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    kind=st.sampled_from(["polar", "unitary", "perturbed", "raw"]),
)
def test_report_consistency_property(seed, n, kind):
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, n)
    if kind == "polar":
        v = pk.polar_decompose(a).u
    elif kind == "unitary":
        v, _ = np.linalg.qr(a)
    elif kind == "perturbed":
        v = pk.polar_decompose(a).u + 0.2 * random_matrix(rng, n)
    else:
        v = a
    rep = pk.partial_isometry_report(v)
    assert rep.consistent
    prep = pk.power_isometry_check(v, kmax=n)
    assert prep.equivalent


def test_threshold_squares_by_multiplication():
    """At a norm where libm's pow and a product round (1 + nu^2)^2
    differently, every verdict follows the product: the scale is squared
    by multiplication in partial_isometry_report."""
    rng = np.random.default_rng(0)
    for x in rng.uniform(0.5, 2.0, 200_000):
        u = x * np.eye(2, dtype=complex)
        nu = pk.operator_norm(u)
        s = 1.0 + nu * nu
        if s**2 == s * s:
            continue
        residuals = [c.residual for c in pk.partial_isometry_report(u).conditions]
        for r in residuals:
            mid = r / (s * s)
            for tol in (np.nextafter(mid, 0.0), mid, np.nextafter(mid, 1.0)):
                if (r <= tol * (s * s)) != (r <= tol * s**2):
                    rep = pk.partial_isometry_report(u, tol=float(tol))
                    assert [c.passed for c in rep.conditions] == [
                        res <= tol * (s * s) for res in residuals
                    ]
                    return
    pytest.skip("no sampled norm separates pow from a product under this libm")
