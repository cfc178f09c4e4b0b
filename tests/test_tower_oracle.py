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
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarkit as pk
import polarkit.algebra as algebra
import polarkit.relation as relation
import polarkit.tower as tower
from polarkit.algebra import _atom_algebra, _labels, _refine
from polarkit.relation import Analysis
from polarkit.linalg import LIMITS, _block_norms, dagger
from polarkit.report import _suite_isometry

from conftest import zoo_specs
from span_closure import algebras_equal, basis_of, generate, hypotheses
from test_batched_kernels import rank_deficient

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


def test_tower_checks_svd_counts(lapack_calls):
    # counts of SVD'd matrices on q_oscillator(16, 0.5, 1): 5,083 in the
    # hypotheses and 16,271 in verify_tower_theorems with pairwise
    # commutators and span closures; 1,216 in the hypotheses with dense
    # images in the seed's atom basis
    an = Analysis(pk.build(pk.q_oscillator(16, 0.5, 1.0)))
    t = an.tower
    lapack_calls.clear()
    hypotheses(an.seed, an.pair)
    assert lapack_calls.mats["svd"] <= 10 * 16
    lapack_calls.clear()
    assert pk.verify_tower_theorems(t, an.pair).passed
    assert lapack_calls.mats["svd"] <= 1000


def test_tower_takes_a_few_svds_per_atom(lapack_calls):
    # the tower that pushed every seed image through U and split atoms per
    # image sent 9,873 matrices to SVD here
    n = 64
    an = Analysis(pk.build(pk.weighted_shift(np.sqrt(np.arange(1.0, n)))))
    an.seed, an.pair
    lapack_calls.clear()
    assert an.tower.hypotheses.weak_holds
    assert lapack_calls.mats["svd"] <= 10 * n, lapack_calls.mats


def test_isometry_suite_takes_a_few_svds_per_atom(lapack_calls):
    # the dense power table and its loops over pairs (k, l) sent 15,211
    # matrices to SVD here
    n = 64
    spec = pk.weighted_shift(np.sqrt(np.arange(1.0, n)))
    an = Analysis(pk.build(spec))
    an.pd
    lapack_calls.clear()
    checks = _suite_isometry(spec, an, pk.SuiteConfig(models=(spec,), suites=("isometry",)), None)
    assert [c["pass"] for c in checks] == [True, True]
    assert lapack_calls.mats["svd"] <= 10 * n, lapack_calls.mats


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
    frame = an.unit_closure
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


# -- the double closure against its one-step refinement --------------------


def ref_double_closure(a0, pair, tol=TOL):
    """tower._double_closure with rounds of U h U* and U* h U only, which
    cut a chain of n atoms at one more place at each end per round: n/2
    rounds."""
    v, blocks = a0.v.copy(), a0.blocks
    seed, count, nu = _labels(blocks), 0, pair.norm
    while len(blocks) > count and any(idx.size > 1 for idx in blocks):
        count, gap = len(blocks), tol * (1.0 + 2.0 * nu * nu)
        h = (v * tower._mix_weights(count)[_labels(blocks)]) @ dagger(v)
        for image in (pair.delta(h), pair.delta_star(h)):
            blocks = _refine(v, blocks, image, gap)
    frame = tower._AtomFrame(
        a0 if len(blocks) == len(a0.blocks) else _atom_algebra(v, blocks), pair
    )
    defect = max(frame.injection(d)[2] for d in ("forward", "star"))
    return frame, seed[frame.ranges[0]], defect


def assert_same_closure(a0, pair, tol=TOL):
    """The atoms of the closure are those of the oracle's, as subspaces
    with their ranks, and both are certified or neither is."""
    frame = tower._double_closure(a0, pair, tol)
    seed, defect = frame.classes(a0)[0], frame.defect
    ref, ref_seed, ref_defect = ref_double_closure(a0, pair, tol)
    assert frame.size == ref.size
    # overlap[x, y] = ||V_x* V'_y||_F^2 / rank x is 1 exactly when atom x
    # lies in atom y
    overlap = _block_norms(frame.alg._vh @ ref.alg.v, frame.ranges, ref.ranges) / frame.ranks[:, None]
    match = overlap.argmax(axis=1)
    assert np.array_equal(np.sort(match), np.arange(ref.size))
    np.testing.assert_allclose(overlap[np.arange(frame.size), match], 1.0, rtol=0.0, atol=1e-6)
    assert np.array_equal(frame.ranks, ref.ranks[match])
    assert np.array_equal(seed, ref_seed[match])
    limit = LIMITS["frame"](tol, frame.pair.norm)
    assert (defect <= limit) == (ref_defect <= limit), (defect, ref_defect)


def unit_algebra(n):
    return _atom_algebra(np.eye(n, dtype=np.complex128), [np.arange(n)])


@st.composite
def unitary_shift_sums(draw):
    """u = W (D + S_1 + ... ) W*, n <= 16: a diagonal unitary D and truncated
    shifts S_i (a zero block for length 1) in one Haar basis W."""
    blocks = []
    for kind in draw(st.lists(st.sampled_from(("unitary", "shift")), min_size=1, max_size=3)):
        size = draw(st.integers(1, 6))
        if kind == "unitary":
            angles = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
            blocks.append(np.diag(np.exp(2j * np.pi * np.array(angles))))
        else:
            blocks.append(np.eye(size, k=-1, dtype=np.complex128))
    n = sum(len(b) for b in blocks)
    u, at = np.zeros((n, n), dtype=np.complex128), 0
    for b in blocks:
        u[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    w = haar(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    return w @ u @ dagger(w)


@settings(max_examples=40, deadline=None)
@given(
    u=st.one_of(
        unitary_shift_sums(),
        st.builds(rank_deficient, st.integers(0, 2**16), st.integers(3, 10), st.integers(1, 2)),
    )
)
def test_closure_of_c_star_1_matches_its_oracle(u):
    assert_same_closure(unit_algebra(len(u)), tower._free_pair(u))


@settings(max_examples=25, deadline=None)
@given(
    weights=st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), min_size=1, max_size=7),
    conjugate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_closure_of_the_seed_matches_its_oracle(weights, conjugate, seed):
    a = shift(weights)
    if conjugate:
        w = haar(np.random.default_rng(seed), a.shape[0])
        a = w @ a @ w.conj().T
    an = Analysis(a)
    assert_same_closure(an.seed, an.pair)
    assert_same_closure(unit_algebra(len(a)), an.pair)


def _ladder(family, n):
    spec = pk.weighted_shift(np.sqrt(np.arange(1.0, n))) if family == "shift" else pk.q_oscillator(
        n, 1.0, 1.0
    )
    return pk.build(spec)


def _ladder_pair(family, n):
    return Analysis(_ladder(family, n)).pair


@pytest.mark.parametrize("family", ("shift", "osc"))
def test_closure_of_a_ladder_matches_its_oracle(family):
    assert_same_closure(unit_algebra(64), _ladder_pair(family, 64))


def test_closure_stops_squaring_before_its_images_overflow():
    # v = 1e6 S on a chain of 64 atoms: ||v^32 h v*^32|| would be about
    # 1e384, so the images under v^32 are not formed and the single-step
    # rounds cut the rest of the chain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_closure(unit_algebra(64), tower._free_pair(1e6 * np.eye(64, k=-1)))


@pytest.mark.parametrize("family", ("shift", "osc"))
def test_closure_takes_log_n_rounds(monkeypatch, family):
    # C*(1) on a chain of n atoms: n/2 rounds when each cuts one more atom
    # off each end (128 here), 2 log2 n + 2 at most with the dyadic images
    n, rounds = 256, [0]

    def counting(count, _orig=tower._mix_weights):
        rounds[0] += 1
        return _orig(count)

    pair = _ladder_pair(family, n)
    monkeypatch.setattr(tower, "_mix_weights", counting)
    frame = tower._double_closure(unit_algebra(n), pair, TOL)
    assert rounds[0] <= 2 * np.log2(n) + 2, rounds[0]
    assert frame.size == n and frame.defect <= LIMITS["frame"](TOL, frame.pair.norm)


def _isometry_reports(closure, n):
    """Both isometry reports on ``closure``, the second as its error's
    message when it raises."""
    try:
        family = tower._commuting_projections(closure, n, TOL)
    except pk.HypothesisViolated as exc:
        family = str(exc)
    return tower._power_isometry(closure, n, TOL), family


def bits(mine, ref, scale):
    return mine == ref


def close(mine, ref, scale):
    return abs(mine - ref) <= 1e-12 * scale


def tighter(mine, ref, scale):
    return mine <= ref


def assert_unit_closure_matches(an, rule):
    """``an.unit_closure`` against C*(1)'s closure found on its own: the
    same atom count, the same verdicts from both isometry reports, and
    every residual against the oracle's by ``rule``."""
    n = len(an.matrix)
    got, want = an.unit_closure, tower._unit_closure(tower._free_pair(an.pd.u), TOL)
    assert got.size == want.size
    for mine, ref in zip(_isometry_reports(got, n), _isometry_reports(want, n)):
        assert type(mine) is type(ref)
        if isinstance(ref, str):
            assert mine == ref or rule is not bits
            continue
        for key, value in vars(ref).items():
            if isinstance(value, float):
                scale = LIMITS["frame"](1.0, want.pair.norm)
                assert rule(vars(mine)[key], value, scale), (key, vars(mine)[key], value)
            else:
                assert vars(mine)[key] == value, key
    return got


@pytest.mark.parametrize("spec", zoo_specs(), ids=_id)
def test_unit_closure_of_the_zoo_matches_its_oracle(spec):
    an = Analysis(pk.build(pk.model_spec_from_json(spec)))
    frame = assert_unit_closure_matches(an, rule=bits)
    # C*(1)'s closure is the seed's on every zoo model but the normal one
    assert (frame is an.frame) == (spec["kind"] != "normal")


@pytest.mark.parametrize("n", (4, 8, 16, 24, 32))
@pytest.mark.parametrize("family", ("shift", "osc"))
def test_unit_closure_of_a_ladder_matches_its_oracle(family, n):
    # from n = 28 the oscillator's |a| has eigenvectors a few ulps off the
    # unit vectors; the oracle's atoms, from eigenvectors of mixed images
    # under U^16, are further off, and its residuals reach 1e-11 where the
    # seed's read 5e-14
    an = Analysis(_ladder(family, n))
    rule = tighter if family == "osc" and n > 24 else bits
    assert assert_unit_closure_matches(an, rule) is an.frame


def _unitary_sum(a, phases):
    """a (+) diag(phases): a direct sum with a diagonal unitary, or with a
    normal block when the phases have other moduli."""
    out = np.zeros((len(a) + len(phases),) * 2, dtype=np.complex128)
    out[: len(a), : len(a)], out[len(a) :, len(a) :] = a, np.diag(phases)
    return out


def _conjugated(a, rng):
    w = haar(rng, len(a))
    return w @ a @ dagger(w)


@pytest.mark.parametrize(
    "make",
    (
        lambda rng: _conjugated(_ladder("shift", 8), rng),
        lambda rng: _conjugated(_ladder("osc", 12), rng),
        lambda rng: haar(rng, 6),
        lambda rng: _unitary_sum(_ladder("shift", 5), np.exp(2j * np.pi * rng.random(3))),
        lambda rng: _unitary_sum(_ladder("osc", 4), [1.0, 2.0j, -3.0]),
        lambda rng: _conjugated(_unitary_sum(_ladder("shift", 4), [1.0, 1j, 2.0]), rng),
    ),
    ids=("haar_shift", "haar_osc", "haar_unitary", "shift_unitary", "osc_normal", "haar_sum"),
)
def test_unit_closure_off_the_zoo_matches_its_oracle(make):
    an = Analysis(make(np.random.default_rng(2027)))
    frame = assert_unit_closure_matches(an, rule=close)
    assert frame.defect <= LIMITS["frame"](TOL, frame.pair.norm)


def _counted_fallback(monkeypatch):
    calls = []

    def counted(pair, tol, _orig=relation._unit_closure):
        calls.append(pair)
        return _orig(pair, tol)

    monkeypatch.setattr(relation, "_unit_closure", counted)
    return calls


def test_unit_closure_is_found_on_its_own_when_the_seeds_closure_is_uncertified(monkeypatch, rng):
    # a generic a: U is unitary and moves the rank-1 atoms of |a| off
    # themselves, so X is not certified, while C*(1) is invariant
    an = Analysis(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    frame = an.closure
    assert frame.defect > LIMITS["frame"](TOL, frame.pair.norm)
    calls = _counted_fallback(monkeypatch)
    unit = assert_unit_closure_matches(an, rule=bits)
    assert len(calls) == 1 and unit.size == 1
    assert unit.defect <= LIMITS["frame"](TOL, unit.pair.norm)


def test_unit_closure_is_found_on_its_own_when_the_pair_fails(monkeypatch):
    def failing(um, rep):
        raise pk.HypothesisViolated("u is not a partial isometry")

    monkeypatch.setattr(relation, "_checked_pair", failing)
    calls = _counted_fallback(monkeypatch)
    an = Analysis(_ladder("osc", 8))
    with pytest.raises(pk.HypothesisViolated):
        an.closure
    assert_unit_closure_matches(an, rule=bits)
    assert len(calls) == 1


def ref_unit_classes(frame):
    """``tower._unit_classes`` by join rounds: from one class, join with
    the classes gathered through delta and delta_* until none splits,
    classes numbered by first appearance."""
    index, mask, depth = frame.gathers(1)
    cls, count = np.zeros(frame.size, dtype=int), 0
    while count < cls.max(initial=0) + 1:
        count = cls.max(initial=0) + 1
        for row in (1, depth + 1):
            gathered = np.where(mask[row] > 0, cls[index[row]], -1)
            keys = cls * (len(cls) + 1) + gathered + 1
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            cls = np.argsort(np.argsort(first))[inverse]
    if count == frame.size:
        return frame
    return tower._AtomFrame(tower._class_algebra(frame, cls), frame.pair)


def chains_and_cycles(seed):
    """A direct sum of weighted chains (shifts) and weighted cycles, of
    random lengths, conjugated by a permutation: C*(1)'s atoms are the
    atoms at one distance from the start and the end of their chain."""
    rng = np.random.default_rng([seed, 13])
    blocks = []
    for _ in range(rng.integers(1, 5)):
        m, cycle = int(rng.integers(1, 7)), bool(rng.integers(2))
        block = np.diag(rng.uniform(1.0, 2.0, m - 1), -1).astype(np.complex128)
        if cycle:
            block[0, -1] = rng.uniform(1.0, 2.0)
        blocks.append(block)
    n = sum(len(b) for b in blocks)
    a, at = np.zeros((n, n), dtype=np.complex128), 0
    for b in blocks:
        a[at : at + len(b), at : at + len(b)], at = b, at + len(b)
    perm = rng.permutation(n)
    return a[perm][:, perm]


def assert_unit_classes_match(a):
    frame = Analysis(a).closure
    if not frame.defect <= LIMITS["frame"](TOL, frame.pair.norm):
        return
    got, want = tower._unit_classes(frame), ref_unit_classes(frame)
    got_defect, want_defect = got.defect, want.defect
    assert (got is frame) == (want is frame)
    assert np.array_equal(got.alg.labels, want.alg.labels)
    assert np.array_equal(got.alg.v, want.alg.v)
    assert bits(got_defect, want_defect, None)


UNIT_CASES = (
    [(_id(spec), lambda spec=spec: pk.build(pk.model_spec_from_json(spec))) for spec in zoo_specs()]
    + [(f"{fam}{n}", lambda fam=fam, n=n: _ladder(fam, n))
       for fam in ("shift", "osc") for n in (2, 8, 24, 40)]
    + [(f"chains{seed}", lambda seed=seed: chains_and_cycles(seed)) for seed in range(24)]
)


@pytest.mark.parametrize("make", [make for _, make in UNIT_CASES], ids=[i for i, _ in UNIT_CASES])
def test_unit_classes_match_the_join_rounds(make):
    # the counts of the gather masks against the join rounds they replaced:
    # the same partition, numbered the same, so the same frame and defect
    assert_unit_classes_match(make())
