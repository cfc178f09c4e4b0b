"""Batched residuals against the per-pair loops they replaced.

Every residual in the package is one ``operator_norm`` call on a stack of
defect matrices.  The reference implementations below are the per-matrix
loops the package used before: each takes one SVD per matrix and keeps the
running maximum.  The batched SVD and the stacked products run the same
LAPACK and BLAS routines on each matrix, so the two must agree exactly.

The tower theorems, the hypotheses, the sum-form checks, the ten
properties of ``theorem22_report`` and the two isometry reports
(``power_isometry_check`` and ``commuting_projection_properties``, on the
atoms of C*(1)'s double closure) are read on the atoms of a double
closure instead, with their own rounding and a tie bound added, so against
the per-pair loops (span closures, joint eigenbases and the power table
included) they must give the same verdict per check and residuals within
``GOLDEN``, and the ten properties and the isometry reports never fall
below the loops by more than 1e-12.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarkit as pk
from polarkit.algebra import _atom_algebra
from polarkit.linalg import dagger
from polarkit.relation import Analysis
from polarkit.tower import _unit_closure

from conftest import zoo_specs
from span_closure import (
    basis_of,
    generate,
    joint_eigenbasis,
    linear_span,
    nonunital_seed,
    project,
    ref_is_commutative,
)

JORDAN = {"kind": "jordan_block", "dim": 3}
TOL = 1e-9
GOLDEN = 1e-10


def ref_norm(m) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


def isometry_scale(u) -> float:
    """(1 + ||u||^2)^2, the scale of every threshold on a partial isometry."""
    nu = ref_norm(u)
    s = 1.0 + nu * nu
    return s * s


def ref_residual(alg, m) -> float:
    return ref_norm(m - project(alg, m))


def ref_chain(x, kmax):
    worst = 0.0
    for k in range(1, kmax + 1):
        for l in range(1, k + 1):
            worst = max(worst, ref_norm(x[k] @ x[l] - x[k]))
            worst = max(worst, ref_norm(x[l] @ x[k] - x[k]))
    return worst


def ref_max_commutator(xs, ys):
    worst = 0.0
    for x in xs:
        for y in ys:
            worst = max(worst, ref_norm(x @ y - y @ x))
    return worst


def ref_algebras_equal(a, b):
    worst = 0.0
    for m in basis_of(a):
        worst = max(worst, ref_residual(b, m))
    for m in basis_of(b):
        worst = max(worst, ref_residual(a, m))
    return worst


def ref_is_ideal_in(j, a):
    worst = 0.0
    for x in basis_of(j):
        for y in basis_of(a):
            worst = max(worst, ref_residual(j, x @ y), ref_residual(j, y @ x))
    return worst


def ref_powers(u, kmax):
    upow = {0: np.eye(u.shape[0], dtype=np.complex128)}
    for k in range(1, kmax + 1):
        upow[k] = upow[k - 1] @ u
    p_of = {k: upow[k] @ dagger(upow[k]) for k in range(kmax + 1)}
    q_of = {k: dagger(upow[k]) @ upow[k] for k in range(kmax + 1)}
    return upow, p_of, q_of


def ref_lattice(u, kmax):
    """(commutant, reduction, range-projection chain) of the power table."""
    upow, p_of, q_of = ref_powers(u, kmax)
    us = dagger(u)
    commutant = max(
        ref_norm(q_of[l] @ p_of[k] - p_of[k] @ q_of[l])
        for k in range(1, kmax + 1)
        for l in range(1, kmax + 1)
    )
    reduction = max(
        ref_norm(us @ upow[k] @ dagger(upow[l]) - upow[k - 1] @ dagger(upow[l]))
        for l in range(1, kmax + 1)
        for k in range(1, l + 1)
    )
    return commutant, reduction, ref_chain(p_of, kmax)


def ref_isometry(u, kmax):
    """Residuals of the two isometry reports from the power table: the
    worst of the five conditions over u^k, the Q-chain with the
    Hermiticity of each Q_k, and the commutant, reduction and P-chain of
    :func:`ref_lattice`."""
    upow, _, q_of = ref_powers(u, kmax)
    ks = range(1, kmax + 1)
    worst_power = max(pk.partial_isometry_report(upow[k]).worst for k in ks)
    worst_family = max(ref_chain(q_of, kmax), max(ref_norm(q_of[k] - dagger(q_of[k])) for k in ks))
    return (worst_power, worst_family), ref_lattice(u, kmax)


def assert_isometry_matches_per_pair_loops(u, close=None):
    """Both isometry reports against :func:`ref_isometry`: per residual,
    the verdict of the per-pair residual at tol (1 + ||u||^2)^2, a residual
    never below it by more than 1e-12, and within ``close`` of it when
    given.  Returns the two reports."""
    n = u.shape[0]
    (power, family), lattice = ref_isometry(u, n)
    prep = pk.power_isometry_check(u, kmax=n)
    crep = pk.commuting_projection_properties(u, kmax=n)
    threshold = TOL * isometry_scale(u)
    assert prep.powers_ok == (power <= threshold) and prep.family_ok == (family <= threshold)
    assert crep.passed == (max(lattice) <= threshold)
    got = (
        prep.worst_power, prep.worst_family,
        crep.commutant_residual, crep.reduction_residual, crep.family_residual,
    )
    for mine, want in zip(got, (power, family, *lattice), strict=True):
        assert mine >= want - 1e-12, (got, want)
        assert close is None or mine - want <= close, (got, want)
    return prep, crep


def ref_morphism(v, basis):
    vs = dagger(v)

    def mult_defect(w):
        ws = dagger(w)
        worst = 0.0
        for x in basis:
            for y in basis:
                worst = max(worst, ref_norm(w @ (x @ y) @ ws - (w @ x @ ws) @ (w @ y @ ws)))
        return worst

    inter = 0.0
    for x in basis:
        dx = v @ x @ vs
        inter = max(inter, ref_norm(v @ x - dx @ v), ref_norm(x @ vs - vs @ dx))
    return mult_defect(v), inter


def ref_block_defect(rot, blocks):
    """Defect of rot from being scalar on each block, one block at a time."""
    model = np.zeros_like(rot)
    for idx in blocks:
        sub = rot[np.ix_(idx, idx)]
        model[np.ix_(idx, idx)] = complex(np.trace(sub)) / len(idx) * np.eye(len(idx))
    return rot - model


def ref_family_defect(img, family, tol):
    v, blocks = joint_eigenbasis(family, tol=tol)
    return ref_norm(ref_block_defect(dagger(v) @ img @ v, blocks))


def ref_theorem22(an):
    """Residuals of the ten checks, in report order."""
    tol, pd = an.tol, an.pd
    kmax = an.matrix.shape[0]
    u, us = pd.u, dagger(pd.u)
    upow, p_of, q_of = ref_powers(u, kmax)
    seed_plain = nonunital_seed(pd.pos, tol=tol)
    bicom = pk.bicommutant(an.seed, tol=tol)
    commutant, reduction, _ = ref_lattice(u, kmax)
    ks = range(1, kmax + 1)
    out = [
        ref_residual(bicom, q_of[1]),
        max(ref_residual(bicom, p_of[k]) for k in ks),
        commutant,
        reduction,
        max(ref_norm(p_of[k] @ p_of[k] - p_of[k]) for k in ks),
        max(ref_chain(q_of, kmax), ref_chain(p_of, kmax)),
    ]
    mult, inter = ref_morphism(u, basis_of(seed_plain))
    range_res = max((ref_residual(an.seed, u @ b @ us) for b in basis_of(seed_plain)), default=0.0)
    out.append(max(mult, inter, range_res))
    image_res = absorb = 0.0
    for k in ks:
        family = [pd.pos] + [p_of[j] for j in range(1, k)]
        for b in basis_of(seed_plain):
            img = upow[k] @ b @ dagger(upow[k])
            image_res = max(image_res, ref_family_defect(img, family, tol))
            absorb = max(absorb, ref_norm(p_of[k] @ img - img), ref_norm(img @ p_of[k] - img))
    out += [image_res, absorb]
    round_trip = 0.0
    for b in basis_of(seed_plain):
        round_trip = max(
            round_trip,
            ref_norm(us @ (u @ b @ us) @ u - b),
            ref_norm(q_of[1] @ b - b),
            ref_norm(b @ q_of[1] - b),
        )
    out.append(round_trip)
    return out


def assert_theorem22_matches_per_pair_loops(an, close=None):
    """Per check: the verdict of the per-pair residual at
    tol (1 + ||a||)^2, a residual never below it by more than 1e-12 (the
    ties bound what the atoms leave out), and within ``close`` of it when
    given."""
    rep = pk.theorem22_report(an)
    scale = 1.0 + ref_norm(an.matrix)
    threshold = an.tol * scale * scale
    for check, want in zip(rep.checks, ref_theorem22(an), strict=True):
        assert check.passed == (want <= threshold), (check, want)
        assert check.residual >= want - 1e-12, (check, want)
        assert close is None or check.residual - want <= close, (check, want)


def ref_hypotheses(a0, pair, kmax):
    ds1 = [np.eye(pair.ambient_dim, dtype=np.complex128)]
    for _ in range(kmax):
        ds1.append(pair.delta_star(ds1[-1]))
    fwd = [basis_of(a0)]
    for _ in range(kmax):
        fwd.append(np.array([pair.delta(m) for m in fwd[-1]]))
    return {
        "delta_star_powers_of_1_projections": max(
            max(ref_norm(x @ x - x), ref_norm(x - dagger(x))) for x in ds1
        ),
        "delta_star_powers_of_1_commute_with_seed": ref_max_commutator(ds1, basis_of(a0)),
        "delta_powers_of_seed_commute_with_seed": max(
            ref_max_commutator(layer, basis_of(a0)) for layer in fwd
        ),
        "delta_star_of_1_commutes_with_delta_powers": max(
            ref_max_commutator([ds1[1]], layer) for layer in fwd
        ),
        "delta_of_seed_inside_seed": max(ref_residual(a0, pair.delta(m)) for m in basis_of(a0)),
        "delta_star_of_1_commutes_with_seed": ref_max_commutator([ds1[1]], basis_of(a0)),
    }


def ref_monotone(seq):
    worst = 0.0
    for lo, hi in zip(seq, seq[1:]):
        for m in basis_of(lo):
            worst = max(worst, ref_residual(hi, m))
    return worst


def ref_layers(pair, basis, direction, depth):
    step = pair.delta if direction == "forward" else pair.delta_star
    out = [basis.astype(np.complex128)]
    for _ in range(depth):
        out.append(np.array([step(m) for m in out[-1]]))
    return out


def ref_layer_products(layers):
    spans = [linear_span(list(st)) for st in layers]
    worst = 0.0
    for k in range(len(layers)):
        for l in range(k + 1):
            for x in layers[k]:
                for y in layers[l]:
                    worst = max(worst, ref_residual(spans[k], x @ y), ref_residual(spans[k], y @ x))
    return worst


def ref_tower_theorems(t, pair):
    """Residuals of every check verify_tower_theorems records, by name."""
    out = {}
    every = t.an_list + t.na_list + t.n_a_inf_list + [t.a_inf_of_inf_a, t.inf_a_inf]
    out["commutative"] = max(ref_is_commutative(alg) for alg in every)
    depth_seed = max(len(t.na_list), len(t.an_list))
    star_layers = ref_layers(pair, basis_of(t.a0), "star", depth_seed)
    for direction in ("star", "forward"):
        layers = ref_layers(pair, basis_of(t.a0), direction, depth_seed)
        worst = 0.0
        for i in range(len(layers)):
            for j in range(i + 1, len(layers)):
                worst = max(worst, ref_max_commutator(layers[i], layers[j]))
        out[f"{direction}_layers_commute"] = worst
    inf_star = ref_layers(pair, basis_of(t.a_inf), "star", len(t.n_a_inf_list))
    out["layer_products"] = ref_layer_products(inf_star)
    level = generate(list(basis_of(t.a_inf)) + [m for st in inf_star for m in st], unital=True)
    out["top_layer_ideal"] = ref_is_ideal_in(linear_span(list(inf_star[-1])), level)
    if t.hypotheses.strong_holds:
        out["layer_products_seed"] = ref_layer_products(star_layers)
        top_seed = linear_span(list(star_layers[len(t.na_list) - 1]))
        out["top_layer_ideal_seed"] = ref_is_ideal_in(top_seed, t.na_list[-1])
    seq = t.n_a_inf_list
    down = up = 0.0
    for n, alg in enumerate(seq):
        up_target = seq[n + 1] if n + 1 < len(seq) else t.inf_a_inf
        for m in basis_of(alg):
            if n >= 1:
                down = max(down, ref_residual(seq[n - 1], pair.delta(m)))
            up = max(up, ref_residual(up_target, pair.delta_star(m)))
    out["delta_lowers_level"] = down
    out["delta_star_raises_level"] = up
    big = t.inf_a_inf
    worst_d = worst_ds = inter = 0.0
    for x in basis_of(big):
        worst_d = max(worst_d, ref_residual(big, pair.delta(x)))
        worst_ds = max(worst_ds, ref_residual(big, pair.delta_star(x)))
        for y in basis_of(big):
            worst_d = max(worst_d, ref_norm(pair.delta(x @ y) - pair.delta(x) @ pair.delta(y)))
            worst_ds = max(
                worst_ds,
                ref_norm(pair.delta_star(x @ y) - pair.delta_star(x) @ pair.delta_star(y)),
            )
        inter = max(
            inter,
            ref_norm(pair.u @ x - pair.delta(x) @ pair.u),
            ref_norm(dagger(pair.u) @ x - pair.delta_star(x) @ dagger(pair.u)),
        )
    out["endomorphism_delta"] = worst_d
    out["endomorphism_delta_star"] = worst_ds
    out["intertwining"] = inter
    out["double_closure_equality"] = ref_algebras_equal(t.inf_a_inf, t.a_inf_of_inf_a)
    gens = list(basis_of(t.a0))
    for i in range(1, len(t.an_list) + 1):
        img = ref_layers(pair, basis_of(t.a0), "forward", i)[-1]
        gens += list(img)
        for back in ref_layers(pair, img, "star", len(t.n_a_inf_list))[1:]:
            gens += list(back)
    for back in ref_layers(pair, basis_of(t.a0), "star", len(t.na_list))[1:]:
        gens += list(back)
    minimal = generate(gens, unital=True)
    out["minimality"] = ref_algebras_equal(minimal, t.inf_a_inf)
    return out


def ref_sum_form(base, pair, direction, levels):
    worst = 0.0
    layers = ref_layers(pair, basis_of(base), direction, len(levels) - 1)
    for n, alg in enumerate(levels):
        if alg is not None:
            span = linear_span(list(np.concatenate(layers[: n + 1])))
            worst = max(worst, ref_algebras_equal(span, alg))
    return worst


def ref_structure(t, pair):
    stab = t.stabilization["forward_from_star_limit"]
    return {
        "sum_form_star_levels": ref_sum_form(t.a_inf, pair, "star", t.n_a_inf_list),
        "sum_form_forward_limit": ref_sum_form(
            t.inf_a, pair, "forward", [None] * stab + [t.a_inf_of_inf_a]
        ),
    }


def assert_same_verdicts(got, want, threshold):
    """Per check: the verdict of the reference residual, and a residual
    within GOLDEN of it."""
    assert set(want) <= set(got)
    for name, res in want.items():
        ok, mine = got[name]
        assert ok == (res <= threshold), (name, mine, res)
        assert abs(mine - res) <= GOLDEN, (name, mine, res)


def assert_tower_matches_per_pair_loops(an):
    """Hypotheses, tower theorems and (when the relation holds) the
    sum-form checks of an operator against the per-pair loops."""
    t, pair = an.tower, an.pair
    threshold = an.tol * isometry_scale(pair.u)
    ref = ref_hypotheses(t.a0, pair, pair.ambient_dim)
    for name, res in t.hypotheses.details.items():
        assert abs(res - ref[name]) <= GOLDEN, (name, res, ref[name])
    weak = [ref[k] for k in list(ref)[:4]]
    strong = [ref[k] for k in list(ref)[:1] + list(ref)[4:]]
    assert t.hypotheses.weak_holds == (max(weak) <= threshold)
    assert t.hypotheses.strong_holds == (max(strong) <= threshold)
    rep = pk.verify_tower_theorems(t, pair, tol=an.tol)
    want = ref_tower_theorems(t, pair)
    assert set(rep.checks) == set(want)
    assert_same_verdicts(rep.checks, want, threshold)
    if an.certificate.holds:
        structure = pk.coefficient_algebra(an).structure
        scale = 1.0 + ref_norm(an.matrix)
        assert_same_verdicts(structure, ref_structure(t, pair), an.tol * scale)


def _analysis(spec):
    return Analysis(pk.build(pk.model_spec_from_json(spec)))


POSITIVE = zoo_specs()[:5]
CASES = POSITIVE + [JORDAN]


def _id(spec):
    return spec["kind"] + str(spec.get("dim", ""))


@pytest.mark.parametrize("spec", CASES, ids=_id)
def test_isometry_residuals_match_per_pair_loops(spec):
    assert_isometry_matches_per_pair_loops(_analysis(spec).pd.u, GOLDEN)


@pytest.mark.parametrize("spec", CASES, ids=_id)
def test_theorem22_matches_per_pair_loops(spec):
    an = _analysis(spec)
    if not an.certificate.holds:
        with pytest.raises(pk.RelationViolated):
            pk.theorem22_report(an)
        return
    assert_theorem22_matches_per_pair_loops(an, GOLDEN)


@pytest.mark.parametrize("spec", CASES, ids=_id)
def test_tower_residuals_match_per_pair_loops(spec):
    an = _analysis(spec)
    t = an.tower
    assert t.checks["monotone_forward"][1] == ref_monotone(t.an_list)
    assert t.checks["monotone_star"][1] == ref_monotone(t.na_list)
    assert_tower_matches_per_pair_loops(an)


def test_tower_residuals_without_strong_hypotheses(shift4):
    pair = pk.endo_pair(pk.polar_decompose(shift4).u)
    seed = pk.spectral_algebra(np.diag([1.0, 1.0, 0.0, 0.0]))
    t = pk.build_tower(seed, pair)
    assert not t.hypotheses.strong_holds
    ref = ref_hypotheses(seed, pair, pair.ambient_dim)
    assert all(abs(t.hypotheses.details[k] - res) <= GOLDEN for k, res in ref.items())
    rep = pk.verify_tower_theorems(t, pair)
    want = ref_tower_theorems(t, pair)
    assert_same_verdicts(rep.checks, want, TOL * isometry_scale(pair.u))


def haar(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _ladder(family, n):
    """A ladder rung of the benchmark: D a D* for a seeded diagonal unitary D."""
    if family == "osc":
        spec = pk.q_oscillator(n, 1.0, 1.0)
    else:
        spec = pk.weighted_shift(np.sqrt(np.arange(1, n)))
    phase = np.exp(2j * np.pi * np.random.default_rng([n, 1]).random(n))
    return phase[:, None] * pk.build(spec) * phase.conj()[None, :]


def _haar_conjugate(a, seed):
    w = haar(np.random.default_rng([seed, 7]), a.shape[0])
    return w @ a @ dagger(w)


def _shift_tensor_identity():
    shift = pk.build(pk.weighted_shift((1.0, 2.0**0.5, 3.0**0.5)))
    return _haar_conjugate(np.kron(shift, np.eye(2)), 0)


def _two_shifts():
    a = np.zeros((7, 7), dtype=complex)
    a[:4, :4] = pk.build(pk.weighted_shift((1.0, 2.0**0.5, 3.0**0.5)))
    a[4:, 4:] = pk.build(pk.weighted_shift((0.5, 2.5)))
    return _haar_conjugate(a, 1)


CONJUGATES = {
    **{f"ladder-{fam}-{n}": (lambda fam=fam, n=n: _ladder(fam, n))
       for fam in ("osc", "shift") for n in (4, 6, 8, 10, 12)},
    **{f"haar-{name}-{s}": (lambda spec=spec, s=s: _haar_conjugate(pk.build(spec), s))
       for name, spec in (("shift6", pk.weighted_shift(np.sqrt(np.arange(1, 6)))),
                          ("q8", pk.q_oscillator(8, 0.5, 1.0)))
       for s in range(3)},
    "shift-tensor-I2": _shift_tensor_identity,
    "two-shifts": _two_shifts,
}


@pytest.mark.parametrize("case", list(CONJUGATES))
def test_tower_verdicts_match_per_pair_loops_on_conjugates(case):
    assert_tower_matches_per_pair_loops(Analysis(CONJUGATES[case]()))


def _halmos_wallen(rng, unitary, shifts):
    """A Haar unitary of size ``unitary`` plus one truncated shift
    e_i -> e_(i+1) per (length, forward) in ``shifts`` (its adjoint, a
    co-shift, when not forward; length 1 is a zero block), the sum
    conjugated by a Haar unitary."""
    blocks = [haar(rng, unitary)] if unitary else []
    blocks += [np.eye(m, k=-1 if fwd else 1, dtype=complex) for m, fwd in shifts]
    n = sum(len(b) for b in blocks)
    u = np.zeros((n, n), dtype=complex)
    start = 0
    for b in blocks:
        u[start : start + len(b), start : start + len(b)] = b
        start += len(b)
    return _haar_conjugate(u, int(rng.integers(2**31)))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    unitary=st.integers(0, 6),
    shifts=st.lists(st.tuples(st.integers(1, 6), st.booleans()), max_size=3),
)
def test_halmos_wallen_sums_pass_both_paths(seed, unitary, shifts):
    # every power of such a sum is a partial isometry (Halmos-Wallen)
    u = _halmos_wallen(np.random.default_rng(seed), max(unitary, 0 if shifts else 1), shifts)
    prep, crep = assert_isometry_matches_per_pair_loops(u)
    assert prep.powers_ok and prep.family_ok and crep.passed


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10), rank=st.integers(0, 8))
def test_rank_deficient_partial_isometries_leave_the_closure_uncertified(seed, n, rank):
    rng = np.random.default_rng(seed)
    rank = 1 + rank % (n - 1)
    v = haar(rng, n)[:, :rank] @ dagger(haar(rng, n)[:, :rank])
    threshold = TOL * isometry_scale(v)
    assert pk.partial_isometry_report(v).passed
    assert ref_isometry(v, n)[0][0] > threshold  # the per-pair path fails too
    _, defect = _unit_closure(v, TOL)
    assert defect > threshold
    prep = pk.power_isometry_check(v, kmax=n)
    assert not (prep.powers_ok or prep.family_ok) and prep.equivalent
    assert prep.worst_power == prep.worst_family == defect
    with pytest.raises(pk.HypothesisViolated, match="not certified"):
        pk.commuting_projection_properties(v, kmax=n)
    assert v.flags.writeable


def pairwise_products(xs, ys):
    """out[i, j] = xs[i] @ ys[j], from one matrix product."""
    k, n, _ = xs.shape
    flat = xs.reshape(k * n, n) @ ys.transpose(1, 0, 2).reshape(n, -1)
    return flat.reshape(k, n, len(ys), n).transpose(0, 2, 1, 3)


def test_layer_commutator_bound_is_tight_on_merged_eigenvalues(q_half_32):
    # the seed of q_oscillator(32, 0.5, 1) merges |a| eigenvalues about
    # 9e-10 apart; the layers' true commutators are about 7.5e-11, far
    # below the ties of their within-atom parts
    an = q_half_32
    t, pair = an.tower, an.pair
    rep = pk.verify_tower_theorems(t, pair)
    assert rep.passed
    depth = max(len(t.na_list), len(t.an_list))
    for direction in ("star", "forward"):
        layers = ref_layers(pair, basis_of(t.a0), direction, depth)
        per_pair = 0.0
        for i in range(len(layers)):
            for j in range(i + 1, len(layers)):
                comm = (pairwise_products(layers[i], layers[j])
                        - pairwise_products(layers[j], layers[i]).swapaxes(0, 1))
                comm = comm.reshape(-1, *comm.shape[-2:])
                # the operator norm is at most the Frobenius norm, so the
                # pairs are taken in falling Frobenius norm until none can
                # beat the largest operator norm found
                frob = np.linalg.norm(comm, axis=(-2, -1))
                for k in np.argsort(-frob):
                    if frob[k] <= per_pair:
                        break
                    per_pair = max(per_pair, ref_norm(comm[k]))
        got = rep.checks[f"{direction}_layers_commute"][1]
        assert per_pair / 4.0 <= got <= 4.0 * per_pair, (direction, got, per_pair)


def _merge_two_atoms(alg, j):
    blocks = alg.blocks
    merged = blocks[:j] + [np.concatenate(blocks[j : j + 2])] + blocks[j + 2 :]
    return _atom_algebra(alg.v.copy(), merged)


# checks that read the tampered algebra only through its atoms: every
# element's tie there is large, while the per-pair loop never uses it
ONLY_ON_ATOMS = {
    "delta_lowers_level", "delta_star_raises_level", "forward_layers_commute",
    "layer_products", "layer_products_seed", "minimality", "star_layers_commute",
    "top_layer_ideal", "top_layer_ideal_seed",
}


@pytest.mark.parametrize("field", ("inf_a_inf", "a_inf_of_inf_a"))
@pytest.mark.parametrize("case", ("shift4", "q8", "two-shifts"))
def test_tampered_tower_fails_every_check_the_oracle_fails(case, field, shift4, q_half_8):
    a = {"shift4": shift4, "q8": q_half_8, "two-shifts": _two_shifts()}[case]
    an = Analysis(a)
    t, pair = an.tower, an.pair
    threshold = TOL * isometry_scale(pair.u)
    bad = dataclasses.replace(t, **{field: _merge_two_atoms(getattr(t, field), 0)})
    oracle = {name for name, res in ref_tower_theorems(bad, pair).items() if res > threshold}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = pk.verify_tower_theorems(bad, pair)
    assert not any(np.isnan(res) for _, res in rep.checks.values())
    failed = {name for name, (ok, _) in rep.checks.items() if not ok}
    assert "double_closure_equality" in oracle
    assert oracle <= failed
    assert failed - oracle <= (ONLY_ON_ATOMS if field == "inf_a_inf" else set())


def test_theorem22_takes_a_few_svds_per_power(monkeypatch):
    # the per-pair path sent 575, 2,175 and 8,447 matrices to SVD here: one
    # joint eigenbasis per power and O(n^2) dense products
    for n in (8, 16, 32):
        an = Analysis(pk.build(pk.weighted_shift(np.sqrt(np.arange(1.0, n)))))
        an.structure  # the tower and U's block form, which the report reads
        count = [0]

        def counting(a, *args, _orig=np.linalg.svd, **kwargs):
            a = np.asarray(a)
            count[0] += int(np.prod(a.shape[:-2]))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert pk.theorem22_report(an).passed
        monkeypatch.undo()
        assert count[0] <= 5 * n, (n, count[0])


def test_raising_checks_name_the_first_offender():
    model = pk.graded_model_for(pk.build(pk.weighted_shift((1.0, np.sqrt(2.0), np.sqrt(3.0)))))
    e1 = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
    # e1 lies under P_1 = u u* but not under P_2 = u^2 u*^2
    with pytest.raises(pk.SupportViolation, match="degree-2 "):
        model.element({1: e1, 2: e1, 3: e1})
