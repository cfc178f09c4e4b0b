import numpy as np
import pytest

import polarkit as pk
from polarkit.algebra import _atom_algebra
from polarkit.linalg import dagger

from conftest import random_matrix
from test_acceptance import transport_compare


@pytest.fixture(scope="module")
def model():
    a = pk.build(pk.weighted_shift((1.0, np.sqrt(2.0), np.sqrt(3.0))))
    return pk.graded_model_for(a)


@pytest.fixture(scope="module")
def unit_model():
    return pk.graded_model_for(pk.build(pk.weighted_shift((1.0, 1.0, 1.0))))


def gauge_average_N0(m, bandwidth):
    """Average V_j m V_j* over the diagonal phase unitaries V_j =
    diag(w^(j n)), w = exp(2 pi i / M), M = 2 bandwidth + 2: the degree-0
    part of a band-limited m on a shift model, the independent oracle for
    N_0.  An average of unitary conjugates never increases the norm."""
    big_m = 2 * bandwidth + 2
    phases = np.exp(2j * np.pi * np.outer(np.arange(big_m), np.arange(len(m))) / big_m)
    return np.mean([(ph[:, None] * m) * ph.conj()[None, :] for ph in phases], axis=0)


def u_plus_ustar(model):
    p1 = model.range_projection(1)
    return model.element({-1: p1, 1: p1}, enforce_support=True)


def test_element_validates_membership(model, rng):
    with pytest.raises(pk.ModelMismatch):
        model.element({0: random_matrix(rng, 4)})


def test_element_validates_support(model):
    # a degree-1 coefficient must live under the one-step range projection
    bad = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(pk.SupportViolation):
        model.element({1: bad})
    # with enforce_support the offending part is projected away instead
    g = model.element({1: bad}, enforce_support=True)
    assert tuple(sorted(g.coefficients)) == ()


def test_high_degree_is_a_support_violation_not_a_recursion_error(unit_model):
    # U^k = 0 from k = 4 on, so the identity leaks outside P_k at any high k
    for k in (5, 1500):
        with pytest.raises(pk.SupportViolation, match=f"degree-{k} "):
            unit_model.element({k: np.eye(4)})


def test_unitary_model_reaches_high_powers():
    # on a cyclic permutation P_k never vanishes, so no power can be skipped
    u = np.roll(np.eye(4), 1, axis=0).astype(complex)
    m = pk.GradedModel(u, pk.spectral_algebra(np.diag([1.0, 2.0, 3.0, 4.0])))
    assert np.array_equal(m.range_projection(1500), np.eye(4))
    assert np.array_equal(m.power(1501), u)
    # each power is the one below times u, the product order of a recursion
    assert np.array_equal(m.power(7), ((((((u @ u) @ u) @ u) @ u) @ u) @ u))


def test_atom_basis_that_is_not_unitary_is_a_model_mismatch(shift4):
    # v = diag(1, 2, 1, 1) read the identity as atom values (1, 4, 1, 1),
    # and only the first product failed, on the invariance of the algebra
    v = np.diag([1.0, 2.0, 1.0, 1.0]).astype(complex)
    alg = _atom_algebra(v, [np.array([i]) for i in range(4)])
    u = pk.polar_decompose(shift4).u
    with pytest.raises(pk.ModelMismatch) as exc:
        pk.GradedModel(u, alg)
    assert str(exc.value) == (
        "the coefficient algebra's atom basis is not unitary (defect 2.400e+01)"
    )
    # the rule of the tower's commutativity check, which refuses it too
    with pytest.raises(pk.HypothesisViolated, match="not commutative"):
        pk.build_tower(alg, pk.endo_pair(u))


def test_non_finite_coefficient_is_a_model_mismatch(unit_model):
    p1 = unit_model.range_projection(1)
    nan = np.diag([1.0, np.nan, 0.0, 0.0]).astype(complex)
    with pytest.raises(pk.ModelMismatch, match="degree-1 coefficient has a non-finite entry"):
        unit_model.element({0: np.eye(4), 1: nan, -1: p1})
    # an earlier offender is still the one named
    with pytest.raises(pk.ModelMismatch, match="degree-0 coefficient is not in"):
        unit_model.element({0: np.ones((4, 4)), -2: np.diag([np.inf, 0.0, 0.0, 0.0])})


def test_realize_u_plus_ustar(model):
    g = u_plus_ustar(model)
    u = model.pair.u
    assert np.allclose(pk.realize(g), u + u.conj().T, atol=1e-12)


def test_square_of_u_plus_ustar_center(unit_model):
    g = u_plus_ustar(unit_model)
    sq = pk.graded_mul(g, g)
    center = sq.coefficients[0]
    assert np.allclose(center, np.diag([1.0, 2.0, 2.0, 1.0]), atol=1e-12)


def test_gauge_average_matches_center(unit_model):
    g = u_plus_ustar(unit_model)
    sq = pk.graded_mul(g, g)
    avg = gauge_average_N0(pk.realize(sq), bandwidth=2)
    assert np.allclose(avg, sq.coefficients[0], atol=1e-12)


def test_gauge_average_never_increases_norm(rng):
    m = random_matrix(rng, 4)
    avg = gauge_average_N0(m, bandwidth=3)
    assert pk.operator_norm(avg) <= pk.operator_norm(m) + 1e-12


def test_graded_mul_matches_dense(model, rng):
    for _ in range(25):
        g1 = pk.random_element(model, rng, bandwidth=3)
        g2 = pk.random_element(model, rng, bandwidth=3)
        lhs = pk.realize(pk.graded_mul(g1, g2))
        rhs = pk.realize(g1) @ pk.realize(g2)
        scale = 1.0 + pk.operator_norm(pk.realize(g1)) * pk.operator_norm(
            pk.realize(g2)
        )
        assert pk.operator_norm(lhs - rhs) <= 1e-9 * scale


def test_graded_adjoint_matches_dense(model, rng):
    g = pk.random_element(model, rng, bandwidth=2)
    assert np.allclose(
        pk.realize(pk.graded_adjoint(g)), pk.realize(g).conj().T, atol=1e-12
    )


def test_graded_mul_rejects_model_mix(model, unit_model, rng):
    g1 = pk.random_element(model, rng, bandwidth=1)
    g2 = pk.random_element(unit_model, rng, bandwidth=1)
    with pytest.raises(pk.ModelMismatch):
        pk.graded_mul(g1, g2)


def test_property_star_reference_model(model, rng):
    rep = pk.check_property_star(model, samples=50, rng=rng)
    assert rep.passed
    assert rep.violations == 0


def test_property_star_coefficient_bound_by_hand(model, rng):
    for _ in range(20):
        g = pk.random_element(model, rng, bandwidth=3)
        nb = pk.operator_norm(pk.realize(g))
        for c in g.coefficients.values():
            assert pk.operator_norm(c) <= nb + 1e-9 * (1 + nb)


def test_sum_norm_inequalities(rng):
    for m_count in (1, 2, 5):
        ds = [random_matrix(rng, 6) for _ in range(m_count)]
        rep = pk.sum_norm_inequalities(ds)
        assert rep.passed
        assert set(rep.margins) == {
            "square_vs_right_gram",
            "square_vs_left_gram",
            "abs_sum_vs_left_gram",
            "abs_sum_vs_right_gram",
        }
        assert min(rep.margins.values()) >= -1e-9


@pytest.mark.filterwarnings("error")
def test_sum_norm_inequalities_rejects_a_nan_entry(rng):
    # numpy warned, then raised "LinAlgError: SVD did not converge"
    ds = [random_matrix(rng, 3) for _ in range(3)]
    ds[2][1, 0] = np.nan
    with pytest.raises(pk.InvalidSpec, match=r"matrix 2 has a non-finite entry .* at \(1, 0\)"):
        pk.sum_norm_inequalities(ds)


@pytest.mark.filterwarnings("error")
def test_sum_norm_inequalities_rejects_an_infinite_entry(rng):
    ds = [random_matrix(rng, 3) for _ in range(2)]
    ds[0][2, 2] = -np.inf
    with pytest.raises(pk.InvalidSpec, match=r"matrix 0 has a non-finite entry .* at \(2, 2\)"):
        pk.sum_norm_inequalities(ds)


def test_sum_norm_inequalities_of_empty_matrices_are_zero():
    # an IndexError from reading the largest singular value of a 0 x 0 matrix
    rep = pk.sum_norm_inequalities([np.zeros((0, 0)), np.zeros((0, 0))])
    assert rep.passed and rep.count == 2
    assert set(rep.margins.values()) == {0.0}


def test_sum_norm_inequalities_rejects_mixed_sizes(rng):
    # numpy raised its "inhomogeneous shape" ValueError
    ds = [random_matrix(rng, 3), random_matrix(rng, 3), random_matrix(rng, 4)]
    with pytest.raises(pk.InvalidSpec, match=r"matrix 2 has shape \(4, 4\), matrix 0 \(3, 3\)"):
        pk.sum_norm_inequalities(ds)


def _eigh_sqrt(h):
    """Positive square root of a Hermitian positive semidefinite h."""
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def ref_sum_norm_margins(ds):
    """The four margins of sum_norm_inequalities, with |d| and |d*| taken
    as eigh square roots of d*d and d d*."""
    m = len(ds)
    norm = pk.operator_norm
    ns = norm(sum(ds)) ** 2
    right = sum(d @ d.conj().T for d in ds)
    left = sum(d.conj().T @ d for d in ds)
    return {
        "square_vs_right_gram": m * norm(right) - ns,
        "square_vs_left_gram": m * norm(left) - ns,
        "abs_sum_vs_left_gram": norm(sum(_eigh_sqrt(d.conj().T @ d) for d in ds)) ** 2
        - norm(left) / m,
        "abs_sum_vs_right_gram": norm(sum(_eigh_sqrt(d @ d.conj().T) for d in ds)) ** 2
        - norm(right) / m,
    }


@pytest.mark.parametrize("n", (1, 3, 6))
def test_sum_norm_margins_match_the_eigh_square_roots(rng, n):
    # full-rank factors: on a kernel the eigh root is off by about
    # sqrt(eps) ||d||, the SVD's by eps ||d||
    for m_count in (1, 2, 5):
        for scale in (1e-3, 1.0, 50.0):
            ds = [scale * random_matrix(rng, n) for _ in range(m_count)]
            got = pk.sum_norm_inequalities(ds).margins
            want = ref_sum_norm_margins(ds)
            bound = 1e-12 * (1.0 + pk.operator_norm(ds) ** 2)
            assert got.keys() == want.keys()
            assert all(abs(got[k] - want[k]) <= bound for k in want), (got, want)


def test_norm_estimate_unit_shift(unit_model):
    g = u_plus_ustar(unit_model)
    est = pk.norm_estimate(g, kmax=64)
    dense = pk.operator_norm(pk.realize(g))
    assert dense == pytest.approx(2.0 * np.cos(np.pi / 5.0), abs=1e-12)
    assert abs(est.final - dense) / dense <= 0.05
    assert [k for k, _ in est.estimates] == [1, 2, 4, 8, 16, 32, 64]
    for k, s_k in est.estimates:
        assert s_k <= dense + 1e-9
        assert dense <= est.upper_bound(k, s_k) + 1e-9


def test_norm_estimate_scales_linearly(unit_model):
    g = u_plus_ustar(unit_model)
    est1 = pk.norm_estimate(g, kmax=8)
    est2 = pk.norm_estimate(
        unit_model.element({d: 3.0 * c for d, c in g.coefficients.items()}), kmax=8
    )
    assert est2.final == pytest.approx(3.0 * est1.final, rel=1e-12)


def test_norm_estimate_zero_element(model):
    zero = model.element({})
    with pytest.raises(pk.ZeroElement):
        pk.norm_estimate(zero)


def test_norm_estimate_reads_membership_before_the_zero_test(model):
    # E_01 is not in the diagonal algebra; U* E_11 = E_01 on the shift, so
    # E_01 - U* E_11 would realize to 0, and the coefficient is named when
    # the element is built, before any estimate
    e = np.eye(4)
    e01, e11 = np.outer(e[0], e[1]), np.outer(e[1], e[1])
    assert pk.operator_norm(e01 - dagger(model.pair.u) @ e11) == 0.0
    with pytest.raises(pk.ModelMismatch, match="^degree-0 coefficient is not in"):
        model.element({0: e01, -1: -e11})


def test_norm_estimate_of_degrees_that_cancel_is_a_zero_element():
    # on a normal model with scalar holonomy l, -l P + P U realizes to 0,
    # though both coefficients are nonzero members of the algebra
    model = pk.graded_model_for(pk.build(pk.normal((1j, 1j, 2.0))))
    p = np.diag([1.0, 1.0, 0.0])
    g = model.element({0: -1j * p, 1: p})
    assert pk.operator_norm(pk.realize(g)) <= 1e-15
    with pytest.raises(pk.ZeroElement):
        pk.norm_estimate(g)


def test_transport_between_permuted_copies(rng):
    a = pk.build(pk.q_oscillator(6, 0.5, 1.0))
    model_a = pk.graded_model_for(a)
    perm = rng.permutation(6)
    w = np.zeros((6, 6), dtype=complex)
    for i, t in enumerate(perm):
        w[t, i] = 1.0
    a2 = w @ a @ w.conj().T
    model_b = pk.graded_model_for(a2)
    g = pk.random_element(model_a, rng, bandwidth=2)
    rep = transport_compare(g, model_a, model_b, perm, kmax=32)
    assert rep.passed
    assert rep.final_gap <= 1e-6
    assert rep.dense_gap <= 1e-9


def test_transport_rejects_wrong_permutation(rng):
    a = pk.build(pk.q_oscillator(5, 0.5, 1.0))
    model_a = pk.graded_model_for(a)
    g = pk.random_element(model_a, rng, bandwidth=1)
    with pytest.raises(pk.ModelMismatch):
        transport_compare(g, model_a, model_a, [1, 0, 2, 3, 4])


def test_degrees_are_integers_given_once(model):
    p1 = model.range_projection(1)
    with pytest.raises(pk.ModelMismatch, match=r"^degree 1\.5 is not an integer$"):
        model.element({1.5: p1})
    with pytest.raises(pk.ModelMismatch, match=r"^degree 'x' is not an integer$"):
        model.element({0: np.eye(4), "x": p1})
    with pytest.raises(pk.ModelMismatch, match="^degree 1 is given twice$"):
        model.element({1: p1, "1": 2 * p1})
    with pytest.raises(pk.ModelMismatch, match="^degree -1 is given twice$"):
        model.element({np.int64(-1): p1, "-1": p1})
    # an earlier non-member is still the one named
    with pytest.raises(pk.ModelMismatch, match="^degree-0 coefficient is not in"):
        model.element({0: np.ones((4, 4)), 2.5: p1})
    # integral numbers and decimal strings name their degree
    g = model.element({1.0: p1, "-1": 2 * p1, np.int64(0): np.eye(4)})
    assert list(g.coefficients) == [1, -1, 0]


def test_negative_sizes_are_rejected(model, rng):
    with pytest.raises(ValueError, match="bandwidth must be at least 0"):
        pk.random_element(model, rng, bandwidth=-1)
    with pytest.raises(ValueError, match="samples must be at least 0"):
        pk.check_property_star(model, samples=-3)
    assert list(pk.random_element(model, rng, bandwidth=0).coefficients) == [0]
