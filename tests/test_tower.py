import numpy as np
import pytest

import polarkit as pk

from span_closure import hypotheses


@pytest.fixture(scope="module")
def shift_pair():
    a = pk.build(pk.weighted_shift((1.0, np.sqrt(2.0), np.sqrt(3.0))))
    pd = pk.polar_decompose(a)
    return a, pd, pk.endo_pair(pd.u)


def coarse_seed():
    return pk.spectral_algebra(np.diag([1.0, 1.0, 0.0, 0.0]))


def test_endo_pair_rejects_non_isometry(rng):
    with pytest.raises(pk.HypothesisViolated):
        pk.endo_pair(np.diag([1.0, 2.0]))


def test_delta_shifts_diagonals(shift_pair):
    _, _, pair = shift_pair
    d = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    fwd = pair.delta(d)
    back = pair.delta_star(d)
    assert np.allclose(np.diag(fwd), [0.0, 1.0, 2.0, 3.0], atol=1e-12)
    assert np.allclose(np.diag(back), [2.0, 3.0, 4.0, 0.0], atol=1e-12)


def test_coarse_seed_tower_dimensions(shift_pair):
    _, _, pair = shift_pair
    t = pk.build_tower(coarse_seed(), pair)
    assert t.a0.dimension == 2
    assert [alg.dimension for alg in t.na_list] == [2, 4, 4, 4]
    assert t.stabilization["star"] == 1
    assert t.inf_a.dimension == 4
    assert t.inf_a_inf.dimension == 4


def test_coarse_seed_hypotheses(shift_pair):
    _, _, pair = shift_pair
    rep = hypotheses(coarse_seed(), pair)
    assert rep.weak_holds
    assert not rep.strong_holds  # delta pushes diag(1,1,0,0) outside the seed


def test_fine_seed_hypotheses(shift_pair):
    a, pd, pair = shift_pair
    seed = pk.spectral_algebra(pd.pos)
    rep = hypotheses(seed, pair)
    assert rep.weak_holds and rep.strong_holds


def test_rotation_off_axes_breaks_weak_hypotheses():
    # a quarter turn permutes the coordinate axes, so conjugation keeps
    # diagonals diagonal; a 45 degree turn smears them across the
    # antidiagonal and delta(A0) leaves the commutant of A0
    diag = pk.spectral_algebra(np.diag([1.0, 2.0]))
    for deg, expect in ((90.0, True), (45.0, False)):
        t = np.deg2rad(deg)
        u = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        rep = hypotheses(diag, pk.endo_pair(u))
        assert rep.weak_holds is expect


def test_tower_theorems_coarse_seed(shift_pair):
    _, _, pair = shift_pair
    t = pk.build_tower(coarse_seed(), pair)
    rep = pk.verify_tower_theorems(t, pair)
    assert rep.passed
    assert max(res for _, res in rep.checks.values()) <= 1e-9
    assert "double_closure_equality" in rep.checks
    assert "intertwining" in rep.checks


def test_tower_theorems_fine_seed_add_seed_level_checks(shift_pair):
    a, pd, pair = shift_pair
    t = pk.build_tower(pk.spectral_algebra(pd.pos), pair)
    rep = pk.verify_tower_theorems(t, pair)
    assert rep.passed
    # strong hypotheses admit the seed-level layer-product checks
    assert "layer_products_seed" in rep.checks
    assert rep.seed_layers_checked


def test_swap_roles_exchanges_directions(shift_pair):
    _, _, pair = shift_pair
    sw = pk.endo_pair(pair.u.conj().T)
    d = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    assert np.allclose(sw.delta(d), pair.delta_star(d))
    t = pk.build_tower(coarse_seed(), sw)
    # with roles swapped the forward tower is the star tower of the original
    assert [alg.dimension for alg in t.an_list] == [2, 4, 4, 4]


def test_stationary_tower_stabilizes_at_zero(shift_pair):
    a, pd, pair = shift_pair
    t = pk.build_tower(pk.spectral_algebra(pd.pos), pair)
    assert t.stabilization["forward"] == 0
    assert t.stabilization["star"] == 0


@pytest.mark.parametrize(
    "make",
    (lambda alg, pair: pk.build_tower(alg, pair), lambda alg, pair: pk.GradedModel(pair, alg)),
    ids=("build_tower", "GradedModel"),
)
def test_span_algebra_is_refused_as_not_stored_by_its_atoms(make):
    # the bicommutant is a span MatrixAlgebra, the same algebra as the
    # diagonal one stored by its atoms; the tower and the graded model
    # read atoms only, and refuse it by one rule
    span = pk.bicommutant(pk.spectral_algebra(np.diag([1.0, 2.0])))
    assert type(span) is pk.MatrixAlgebra and span.dimension == 2
    with pytest.raises(pk.ModelMismatch, match=r"^the \w+ algebra is not stored by its atoms$"):
        make(span, pk.endo_pair(np.eye(2)))


def test_q_oscillator_32_tower_theorems_and_graded_model(q_half_32):
    # the span closure behind top_layer_ideal overflowed here, and the
    # pairwise hypothesis commutators took most of graded_model_for
    rep = pk.verify_tower_theorems(q_half_32.tower, q_half_32.pair)
    assert rep.passed
    model = pk.graded_model_for(pk.build(pk.q_oscillator(32, 0.5, 1.0)))
    assert model.algebra.dimension == q_half_32.tower.inf_a_inf.dimension == 32
