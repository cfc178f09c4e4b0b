"""The atom tower against the span-closure tower it replaced.

``span_sequence`` is the tower construction by Krylov span closure: each
level is ``generate`` of the level below and the new delta images, and the
sequence has stabilized after two equalities in a row by mutual
containment.  ``build_tower`` builds the same levels by splitting atoms.
The two must give the same dimensions, the same stabilization indices,
and levels that contain each other within tol.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarkit as pk
import polarkit.algebra as algebra
import polarkit.relation as relation
import polarkit.tower as tower
from polarkit.relation import Analysis
from polarkit.linalg import dagger
from polarkit.report import _suite_isometry

from conftest import zoo_specs
from span_closure import algebras_equal, basis_of, generate, hypotheses

TOL = 1e-9


def apply_stack(pair, stack, direction):
    u = pair.u if direction == "forward" else dagger(pair.u)
    return u @ stack @ dagger(u)


def span_sequence(seed, pair, direction, tol=TOL):
    algs = [seed]
    images = basis_of(seed).astype(np.complex128)
    equal_run = 0
    while equal_run < 2:
        assert len(algs) <= pair.ambient_dim**2 + 2, "span tower failed to stabilize"
        images = apply_stack(pair, images, direction)
        nxt = generate(list(basis_of(algs[-1])) + list(images), unital=True)
        eq, _ = algebras_equal(nxt, algs[-1], tol=tol)
        equal_run = equal_run + 1 if eq else 0
        algs.append(nxt)
    return algs, len(algs) - 3


def span_tower(a0, pair, tol=TOL):
    """The four sequences of build_tower, by span closure."""
    fwd, stab_fwd = span_sequence(a0, pair, "forward", tol)
    star, stab_star = span_sequence(a0, pair, "star", tol)
    dbl, stab_dbl = span_sequence(fwd[-1], pair, "star", tol)
    dbl2, stab_dbl2 = span_sequence(star[-1], pair, "forward", tol)
    seqs = {"forward": fwd, "star": star, "star_from_forward_limit": dbl,
            "forward_from_star_limit": dbl2}
    stab = {"forward": stab_fwd, "star": stab_star, "star_from_forward_limit": stab_dbl,
            "forward_from_star_limit": stab_dbl2}
    return seqs, stab


def assert_matches_span_closure(a0, pair, tol=TOL):
    t = pk.build_tower(a0, pair, tol=tol)
    want, want_stab = span_tower(a0, pair, tol)
    got = {"forward": t.an_list, "star": t.na_list, "star_from_forward_limit": t.n_a_inf_list,
           "forward_from_star_limit": [t.a_inf_of_inf_a]}
    assert t.stabilization == want_stab
    for name, seq in got.items():
        if name == "forward_from_star_limit":
            pairs = [(seq[0], want[name][-1])]
        else:
            assert [alg.dimension for alg in seq] == [alg.dimension for alg in want[name]], name
            pairs = list(zip(seq, want[name]))
        for mine, ref in pairs:
            eq, res = algebras_equal(mine, ref, tol=tol)
            assert eq, f"{name}: levels differ (residual {res:.3e})"
    return t


def haar(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def shift(weights):
    return pk.build(pk.weighted_shift(weights))


def analysis_parts(a):
    an = Analysis(a)
    return an.seed, an.pair


def _id(spec):
    return spec["kind"] + str(spec.get("dim", ""))


@pytest.mark.parametrize("spec", zoo_specs(), ids=_id)
def test_zoo_towers_match_span_closure(spec):
    assert_matches_span_closure(*analysis_parts(pk.build(pk.model_spec_from_json(spec))))


@pytest.mark.parametrize("n", (4, 6, 8, 10, 12))
@pytest.mark.parametrize("family", ("osc", "shift"))
def test_ladder_towers_match_span_closure(family, n):
    spec = pk.q_oscillator(n, 1.0, 1.0) if family == "osc" else pk.weighted_shift(np.sqrt(np.arange(1, n)))
    phase = np.exp(2j * np.pi * np.random.default_rng([n, 1]).random(n))
    a = pk.build(spec)
    assert_matches_span_closure(*analysis_parts(phase[:, None] * a * phase.conj()[None, :]))


def test_coarse_seed_tower_matches_span_closure(shift4):
    seed = pk.spectral_algebra(np.diag([1.0, 1.0, 0.0, 0.0]))
    t = assert_matches_span_closure(seed, pk.endo_pair(pk.polar_decompose(shift4).u))
    assert t.a0 is seed


def test_conjugated_shift_matches_span_closure(rng):
    w = haar(rng, 5)
    a = shift((1.0, 2.0, 0.5, 3.0))
    assert_matches_span_closure(*analysis_parts(w @ a @ w.conj().T))


def test_shift_tensor_identity_has_rank_two_atoms(rng):
    w = haar(rng, 8)
    a = np.kron(shift((1.0, np.sqrt(2.0), np.sqrt(3.0))), np.eye(2))
    t = assert_matches_span_closure(*analysis_parts(w @ a @ w.conj().T))
    assert t.inf_a_inf.dimension == 4
    assert sorted(np.bincount(t.inf_a_inf.labels)) == [2, 2, 2, 2]


def test_direct_sum_of_two_shifts_matches_span_closure(rng):
    w = haar(rng, 7)
    a = np.zeros((7, 7), dtype=complex)
    a[:4, :4] = shift((1.0, np.sqrt(2.0), np.sqrt(3.0)))
    a[4:, 4:] = shift((0.5, 2.5))
    assert_matches_span_closure(*analysis_parts(w @ a @ w.conj().T))


@settings(max_examples=25, deadline=None)
@given(
    weights=st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), min_size=1, max_size=7),
    conjugate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_weighted_shift_towers_match_span_closure(weights, conjugate, seed):
    a = shift(weights)
    if conjugate:
        w = haar(np.random.default_rng(seed), a.shape[0])
        a = w @ a @ w.conj().T
    assert_matches_span_closure(*analysis_parts(a))


def test_package_has_no_span_closure():
    # every algebra of the package is built from atoms or graded atoms
    for module in (pk, algebra, relation, tower):
        for name in ("generate", "linear_span", "_SpanBuilder", "DimensionOverflow"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("spec", zoo_specs(), ids=_id)
def test_zoo_tower_and_coefficient_algebra_run_no_span_closure(spec):
    an = Analysis(pk.build(pk.model_spec_from_json(spec)))
    pk.build_tower(an.seed, an.pair)
    if an.certificate.holds:
        assert pk.coefficient_algebra(an).passed


def _count_svds(monkeypatch):
    count = [0]

    def counting(a, *args, _orig=np.linalg.svd, **kwargs):
        a = np.asarray(a)
        count[0] += int(np.prod(a.shape[:-2]))
        return _orig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return count


def test_tower_checks_svd_counts(monkeypatch):
    # counts of SVD'd matrices on q_oscillator(16, 0.5, 1): 5,083 in the
    # hypotheses and 16,271 in verify_tower_theorems with pairwise
    # commutators and span closures; 1,216 in the hypotheses with dense
    # images in the seed's atom basis
    an = Analysis(pk.build(pk.q_oscillator(16, 0.5, 1.0)))
    t = an.tower
    count = _count_svds(monkeypatch)
    hypotheses(an.seed, an.pair)
    assert count[0] <= 10 * 16
    count[0] = 0
    assert pk.verify_tower_theorems(t, an.pair).passed
    assert count[0] <= 1000


def test_tower_takes_a_few_svds_per_atom(monkeypatch):
    # the tower that pushed every seed image through U and split atoms per
    # image sent 9,873 matrices to SVD here
    n = 64
    an = Analysis(pk.build(pk.weighted_shift(np.sqrt(np.arange(1.0, n)))))
    an.seed, an.pair
    count = _count_svds(monkeypatch)
    assert an.tower.hypotheses.weak_holds
    assert count[0] <= 10 * n, count[0]


def test_isometry_suite_takes_a_few_svds_per_atom(monkeypatch):
    # the dense power table and its loops over pairs (k, l) sent 15,211
    # matrices to SVD here
    n = 64
    spec = pk.weighted_shift(np.sqrt(np.arange(1.0, n)))
    an = Analysis(pk.build(spec))
    an.pd
    count = _count_svds(monkeypatch)
    checks = _suite_isometry(spec, an, pk.SuiteConfig(models=(spec,), suites=("isometry",)), None)
    assert [c["pass"] for c in checks] == [True, True]
    assert count[0] <= 10 * n, count[0]


def test_mix_weights_keep_atoms_apart():
    # a refinement round mixes the atoms with these weights; two atoms the
    # images tell apart merge only if their weights lie within the grouping
    # gap tol (1 + 2 ||U||^2), far below the least spacing
    c = np.sort(tower._mix_weights(2048))
    assert np.diff(c).min() > 1e-7
    # read off one cached table that grows on demand, each a fresh draw
    for count in (16, 3, 2048, 2049, 5000, 7):
        draw = np.random.default_rng(tower.MIX_SEED).uniform(1.0, 2.0, count)
        assert np.array_equal(tower._mix_weights(count), draw)


def test_import_draws_no_mix_weights():
    # the table is drawn on first use, so importing the package does not
    # load numpy.random, a few MB of every process that imports it
    code = (
        "import sys, numpy; loaded = 'numpy.random' in sys.modules; import polarkit; "
        "sys.exit(not loaded and 'numpy.random' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tower.__file__).resolve().parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_chain_bound_forms_its_products_in_blocks():
    # the products x_k x_l - x_k over all (k, l) at once trace 8.1 MB at
    # n = 64 (0.5 GB at n = 256); the blocks give the same bound to the bit
    n = 64
    an = Analysis(pk.build(pk.weighted_shift(np.sqrt(np.arange(1.0, n)))))
    frame, _ = an.unit_closure
    for values, ties, _ in frame.powers(n)[2:]:
        dense = np.abs(values[:, None, :] * values[None, :, :] - values[:, None, :]).max(axis=-1)
        norms, lower = np.abs(values).max(axis=1), np.abs(values - 1.0).max(axis=1)
        dense = dense + np.outer(norms, ties) + np.outer(ties, lower) + np.outer(ties, ties)
        tracemalloc.start()
        try:
            bound = tower._chain_defect(values, ties)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bound == float(np.tril(dense).max(initial=0.0))
        assert peak < 4 << 20, peak


def test_image_off_the_atoms_is_rejected():
    # delta maps the atom e_0 of the diagonal seed to a projection off the
    # diagonal: no partial injection of atoms ties it to U
    t = np.deg2rad(30.0)
    u = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    seed = pk.spectral_algebra(np.diag([1.0, 2.0]))
    rep = hypotheses(seed, pk.endo_pair(u))
    assert not rep.weak_holds and not rep.strong_holds
    assert set(rep.details.values()) == {rep.weak_residual}
    assert rep.weak_residual >= np.sin(t) ** 2 - 1e-12
    with pytest.raises(pk.HypothesisViolated, match="fails the weak hypothesis set"):
        pk.build_tower(seed, pk.endo_pair(u))
