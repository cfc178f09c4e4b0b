import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarkit as pk
from polarkit.algebra import _eigenspaces
from polarkit.linalg import dagger, hermitian_eig

from conftest import random_matrix


def test_polar_reference_shift(shift4):
    pd = pk.polar_decompose(shift4)
    # |a| for weights (1, sqrt2, sqrt3) is diag(1, sqrt2, sqrt3, 0)
    want = np.diag([1.0, np.sqrt(2.0), np.sqrt(3.0), 0.0])
    assert np.allclose(pd.pos, want, atol=1e-12)
    assert pd.rank == 3
    assert pd.residual <= 1e-9 * (1.0 + pk.operator_norm(shift4))


def test_polar_recomposes(rng):
    for n in (2, 3, 5, 9):
        a = random_matrix(rng, n)
        pd = pk.polar_decompose(a)
        assert pk.operator_norm(a - pd.u @ pd.pos) <= 1e-9 * (1.0 + pk.operator_norm(a))


def test_polar_positive_factor_is_positive(rng):
    a = random_matrix(rng, 6)
    pd = pk.polar_decompose(a)
    assert pk.operator_norm(pd.pos - dagger(pd.pos)) <= 1e-12
    assert np.linalg.eigvalsh(pd.pos).min() >= -1e-12


def test_polar_zero_matrix():
    pd = pk.polar_decompose(np.zeros((3, 3)))
    assert pd.rank == 0
    assert pk.operator_norm(pd.u) == 0.0


def test_operator_norm_matches_svd(rng):
    a = random_matrix(rng, 7)
    assert pk.operator_norm(a) == float(np.linalg.svd(a, compute_uv=False)[0])
    # a stack gives the largest norm, bit for bit the max of per-matrix calls
    for k, n in ((1, 2), (3, 4), (7, 9), (16, 16)):
        stack = np.array([random_matrix(rng, n) for _ in range(k)])
        assert pk.operator_norm(stack) == max(pk.operator_norm(m) for m in stack)
        assert pk.operator_norm(list(stack)) == pk.operator_norm(stack)
    assert pk.operator_norm(np.zeros((0, 5, 5))) == 0.0
    assert pk.operator_norm([]) == 0.0


def test_hermitian_eig_ascending(rng):
    b = random_matrix(rng, 6)
    h = b + b.conj().T
    w, v = hermitian_eig(h)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-9)


def ref_groups(w, gap):
    """The ascending values w in runs whose neighbours lie within gap, as
    index lists, by a loop."""
    groups = [[0]] if w.size else []
    for i in range(1, w.size):
        if w[i] - w[i - 1] <= gap:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def test_eigenspaces_merge_close_values(rng):
    # the gap scales with the largest |w|, wherever it sits in the spectrum
    w = np.array([0.0, 1.0, 1.0 + 1e-13, 2.0])
    assert [g.tolist() for g in _eigenspaces(w, 1e-9)] == [[0], [1, 2], [3]]
    drawn = np.sort(rng.choice([-3.0, -1.0, 0.0, 2.0], 12) + 1e-10 * rng.standard_normal(12))
    for w in (drawn, np.array([-10.0, -10.0 + 5e-9, 0.0]), np.array([0.0, 10.0 - 5e-9, 10.0]),
              np.zeros(0)):
        want = ref_groups(w, 1e-9 * (1.0 + np.abs(w).max(initial=0.0)))
        assert [g.tolist() for g in _eigenspaces(w, 1e-9)] == want


def test_dagger(rng):
    a = random_matrix(rng, 3)
    assert np.allclose(pk.dagger(a), a.conj().T)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 10),
)
def test_polar_properties(seed, n):
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, n)
    pd = pk.polar_decompose(a)
    scale = 1.0 + pk.operator_norm(a)
    assert pk.operator_norm(a - pd.u @ pd.pos) <= 1e-9 * scale
    # u is a partial isometry: u u* u = u
    assert pk.operator_norm(pd.u @ pd.u.conj().T @ pd.u - pd.u) <= 1e-9 * scale
    # rank of the positive factor equals the matrix rank
    assert pd.rank == np.linalg.matrix_rank(a, tol=1e-8 * scale)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_polar_decompose_rejects_a_non_finite_matrix(bad):
    # numpy raised "LinAlgError: SVD did not converge"
    a = np.eye(3, dtype=complex)
    a[0, 2] = bad
    with pytest.raises(pk.InvalidSpec, match=r"the matrix has a non-finite entry .* at \(0, 2\)"):
        pk.polar_decompose(a)


ENTRY_POINTS = {
    "partial_isometry_report": ("u", pk.partial_isometry_report),
    "spectral_algebra": ("h", pk.spectral_algebra),
    "is_function_of(b)": ("b", lambda m: pk.is_function_of(m, np.eye(3))),
    "is_function_of(a)": ("a", lambda m: pk.is_function_of(np.eye(3), m)),
    "commutant": ("matrix 1", lambda m: pk.commutant([np.eye(3), m])),
    "endo_pair": ("u", pk.endo_pair),
    "power_isometry_check": ("v", lambda m: pk.power_isometry_check(m, 2)),
    "commuting_projection_properties": ("v", lambda m: pk.commuting_projection_properties(m, 2)),
    "verify_I1": ("the matrix", pk.verify_I1),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=("nan", "inf", "-inf"))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_points_reject_a_non_finite_matrix_before_any_decomposition(entry, bad):
    # they raised "LinAlgError: SVD did not converge" on a NaN, and an
    # infinite entry can keep LAPACK's SVD from returning at all
    name, call = ENTRY_POINTS[entry]
    a = np.eye(3, dtype=complex)
    a[1, 0] = bad
    with pytest.raises(pk.InvalidSpec, match=rf"^{name} has a non-finite entry .* at \(1, 0\)$"):
        call(a)
