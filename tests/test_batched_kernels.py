"""The batched kernels against the per-call loops they replaced, to the bit.

Every certificate sends its independent norms to LAPACK as one stack, and
every per-layer or per-pair bound of the tower is one array kernel, formed
in blocks of at most ``tower._BLOCK`` entries (``tower._STACK`` for the
atom images).  Each matrix still gets the LAPACK call it got alone, each
product is projected as a matrix of its own and each bound does the same
arithmetic, so the residuals must not move by a bit.  The ``ref_*``
functions below are the loops the kernels replaced: with them patched in,
``verify_I1``, ``partial_isometry_report``, ``theorem22_report`` and
``coefficient_algebra`` must give the same bits as with the kernels, at
every block size.  The loops that sit inside a check (the hypotheses'
commutators, the extended algebras of ``theorem22_report`` and the mapped
levels of the tower theorems) are compared with their reference loops by
name.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarkit as pk
import polarkit.algebra as algebra
import polarkit.relation as relation
import polarkit.tower as tower
from polarkit.errors import NotHermitian
from polarkit.linalg import dagger, eig_groups
from polarkit.relation import Analysis

from conftest import zoo_specs

TOL = 1e-9


def ref_norm(m) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


def ref_hermitian_eig(m, tol=TOL):
    a = np.asarray(m, dtype=np.complex128)
    defect, scale = ref_norm(a - dagger(a)), 1.0 + ref_norm(a)
    if defect > tol * scale:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {tol:.1e} * {scale:.3e}")
    return np.linalg.eigh((a + dagger(a)) / 2.0)


def ref_atom_ranges(labels):
    starts = np.flatnonzero(np.diff(labels, prepend=-1))
    return starts, np.diff(starts, append=labels.size)


def ref_normal_scale(bm, tol):
    comm = ref_norm(bm @ dagger(bm) - dagger(bm) @ bm)
    scale_b = 1.0 + ref_norm(bm)
    if comm > tol * scale_b * scale_b:
        raise NotHermitian(f"b is neither Hermitian nor normal (self-commutator {comm:.3e})")
    return scale_b


def ref_function_certificate(bm, scale_b, spaces, tol):
    w, v, groups, _ = spaces
    labels = algebra._labels(groups)
    rot = dagger(v) @ bm @ v
    resid, values = algebra._block_constant_defect(rot, labels, ref_atom_ranges(labels))
    defect = ref_norm(resid) if resid.size else 0.0
    exists = defect <= tol * scale_b
    table = tuple((float(np.mean(w[idx])), complex(val)) for idx, val in zip(groups, values))
    worst = None
    if not exists:
        rows = [float(np.linalg.norm(resid[idx, :])) for idx in groups]
        worst = float(np.mean(w[groups[int(np.argmax(rows))]]))
    return algebra.FunctionCertificate(exists, defect, table, worst)


def ref_eigenspaces(h, tol):
    w, v = ref_hermitian_eig(h, tol)
    scale = 1.0 + (abs(float(w[-1])) if w.size else 0.0)
    return w, v, eig_groups(w, tol * scale), scale


def ref_is_function_of(b, a, tol=TOL):
    bm = np.asarray(b, dtype=np.complex128)
    scale_b = ref_normal_scale(bm, tol)
    return ref_function_certificate(bm, scale_b, ref_eigenspaces(a, tol), tol)


def ref_verify_I1(a, tol=TOL):
    cert = ref_is_function_of(a @ dagger(a), dagger(a) @ a, tol)
    pd = pk.polar_decompose(a, tol)
    cert2 = ref_is_function_of(pd.u @ pd.pos @ dagger(pd.u), pd.pos, tol)
    table = tuple((float(ev), float(val.real)) for ev, val in cert.table)
    return relation.RelationCertificate(
        cert.exists, cert.residual, cert2.exists, cert2.residual, table, cert.worst_eigenvalue
    )


def ref_partial_isometry_report(u, tol=TOL):
    um = np.asarray(u, dtype=np.complex128)
    q, p = dagger(um) @ um, um @ dagger(um)
    nu = ref_norm(um)
    s = 1.0 + nu * nu
    residuals = [
        float(np.minimum(np.abs(w), np.abs(w - 1.0)).max())
        for w in (ref_hermitian_eig(q, tol)[0], ref_hermitian_eig(p, tol)[0])
    ]
    residuals += [ref_norm(q @ q - q), ref_norm(p @ p - p)]
    residuals.append(max(
        ref_norm(um @ dagger(um) @ um - um), ref_norm(dagger(um) @ um @ dagger(um) - dagger(um))
    ))
    names = ("spec_initial", "spec_final", "idempotent_initial", "idempotent_final",
             "triple_product")
    checks = tuple(pk.ConditionCheck(n, r, r <= tol * (s * s)) for n, r in zip(names, residuals))
    return pk.PartialIsometryReport(checks, all(c.passed for c in checks), max(residuals))


def ref_layers(frame, values, ties, direction, depth):
    _, taus, *projections = frame.powers(depth)
    proj, proj_ties, _ = projections[direction == "star"]
    index, mask, top = frame.gathers(depth)
    big = max(1.0, np.sqrt(frame.nu2)) ** depth
    size = np.abs(values).max(axis=1, initial=0.0)
    span = [v.max(axis=1, initial=0.0) - v.min(axis=1, initial=0.0)
            for v in (values.real, values.imag)]
    out = [(values, ties, ties)]
    for k in range(depth):
        row = k + 1 + (top if direction == "star" else 0)
        tie = size * proj_ties[k] + big * taus[k] * np.hypot(*span) + big * big * ties
        out.append((values[:, index[row]] * (mask[row] * proj[k]), tie, tie))
    return out


def ref_atom_map(frame, direction):
    if direction not in frame._maps:
        w = frame.u[direction]
        cols, images = tower._atom_images(w, frame.labels)
        values, ties, _ = frame.coords(images)
        inter = max(ref_norm(m) for m in (cols - images @ w) / np.sqrt(frame.ranks)[:, None, None])
        frame._maps[direction] = (values.T, ties, inter)
    return frame._maps[direction]


def ref_span_basis(frame, values, ties):
    root = np.sqrt(frame.ranks)
    left, s, vh = np.linalg.svd(values * root, full_matrices=False)
    keep = s > algebra.DROP_THRESHOLD * max(1.0, float(s[0]))
    coef = dagger(left[:, keep]) / s[keep][:, None]
    return vh[keep] / root, np.abs(coef) @ ties


def ref_span_bases(frame, layers):
    return [ref_span_basis(frame, v, t) for v, t, *_ in layers]


def ref_span_residual(frame, values, basis) -> float:
    proj = ((values * frame.ranks) @ dagger(basis)) @ basis
    return float(np.abs(values - proj).max(initial=0.0))


def ref_span_residuals(frame, values, basis):
    if values.ndim == 2:
        return np.float64(ref_span_residual(frame, values, basis))
    return np.array([ref_span_residual(frame, v, basis) for v in values])


def ref_commutator_max(one, other, layer=None) -> float:
    bound = tower._commutator_bounds(one, other)
    if layer is not None:
        bound = np.where(layer[:, None] < layer[None, :], bound, 0.0)
    return float(bound.max(initial=0.0))


def ref_layers_commutator(layers) -> float:
    rows = [np.concatenate(p) for p in zip(*((tower._spread(v), t, o) for v, t, o in layers))]
    ends = np.cumsum([len(t) for _, t, _ in layers])
    worst = 0.0
    for start, end in zip(np.concatenate(([0], ends[:-2])), ends[:-1]):
        bound = tower._commutator_bounds([r[start:end] for r in rows], [r[end:] for r in rows])
        worst = max(worst, float(bound.max(initial=0.0)))
    return worst


def ref_layer_product_defect(frame, layers, bases) -> float:
    def norm_bound(values, ties):
        return float(np.abs(values).max(initial=0.0) + ties.max(initial=0.0))

    worst = 0.0
    for k, (values, ties, _) in enumerate(layers):
        basis, basis_ties = ref_span_basis(frame, values, ties)
        for low, low_ties, _ in layers[: k + 1]:
            prods = (values[:, None, :] * low[None, :, :]).reshape(-1, frame.size)
            tie = (
                norm_bound(values, ties) * low_ties.max()
                + norm_bound(low, low_ties) * ties.max()
                + basis_ties.max(initial=0.0)
            )
            worst = max(worst, ref_span_residual(frame, prods, basis) + tie)
    return worst


def ref_sum_form_residual(frame, layers, levels) -> float:
    worst = 0.0
    for n, alg in enumerate(levels):
        if alg is None:
            continue
        values = np.concatenate([v for v, _, _ in layers[: n + 1]])
        ties = np.concatenate([e for _, e, _ in layers[: n + 1]])
        span, span_ties = ref_span_basis(frame, values, ties)
        cls, eps = frame.classes(alg)
        res = max(
            ref_span_residual(frame, span, frame.class_basis(cls)),
            ref_span_residual(frame, frame.class_basis(cls), span),
        )
        worst = max(worst, float(res + span_ties.max(initial=0.0) + eps))
    return worst


ORACLES = [
    (algebra, "hermitian_eig", ref_hermitian_eig),
    (algebra, "_normal_scale", ref_normal_scale),
    (relation, "_normal_scale", ref_normal_scale),
    (tower, "partial_isometry_report", ref_partial_isometry_report),
    (tower._AtomFrame, "layers", ref_layers),
    (tower._AtomFrame, "atom_map", ref_atom_map),
    (tower._AtomFrame, "span_bases", ref_span_bases),
    (tower._AtomFrame, "span_residuals", ref_span_residuals),
    (tower, "_commutator_max", ref_commutator_max),
    (tower, "_layer_product_defect", ref_layer_product_defect),
    (relation, "_sum_form_residual", ref_sum_form_residual),
]


def ref_hypotheses_commutators(frame, a0, kmax):
    """The hypotheses' commutators, by name: of the seed and of Q_1 with
    delta^k of the seed one layer at a time, and of the Q_k and Q_1 with
    the seed."""
    values, ties = frame.basis_coords(a0)
    seed = (values, ties, ties)
    q, q_ties, q_off = frame.powers(kmax)[3]
    q1 = (q[:1], q_ties[:1], q_off[:1])
    fwd = ref_layers(frame, values, ties, "forward", kmax)
    return {
        "delta_star_powers_of_1_commute_with_seed": ref_layers_commutator(
            [(q, q_ties, q_off), seed]
        ),
        "delta_powers_of_seed_commute_with_seed": max(
            ref_layers_commutator([seed, layer]) for layer in fwd
        ),
        "delta_star_of_1_commutes_with_delta_powers": max(
            ref_layers_commutator([q1, layer]) for layer in fwd
        ),
        "delta_star_of_1_commutes_with_seed": ref_layers_commutator([q1, seed]),
    }


def ref_layers_commute(t, frame):
    """The tower theorems' commutators of the seed's layers, one layer
    boundary at a time."""
    seed = frame.basis_coords(t.a0)
    depth = max(len(t.na_list), len(t.an_list))
    return {
        f"{d}_layers_commute": ref_layers_commutator(ref_layers(frame, *seed, d, depth))
        for d in ("star", "forward")
    }


def ref_extended(an):
    """theorem22_report's delta_powers_in_extended_algebra, one power at a time."""
    frame, tol, n = an.frame, an.tol, an.matrix.shape[0]
    _, _, (p, p_ties, _), _ = frame.powers(n)
    cls, eps = frame.classes(an.seed)
    pos = algebra._atom_means(frame.rotate(an.pd.pos), frame.ranges).real
    means = np.bincount(cls, pos * frame.ranks) / np.bincount(cls, frame.ranks)
    f = frame.class_basis(cls)[np.abs(means) > tol * (1.0 + np.abs(pos).max())]
    layers = ref_layers(frame, f, np.full(len(f), eps), "forward", n)[1:]
    extended, level = 0.0, tower._value_classes(pos[None, :], tol)
    for k in range(1, n + 1 if len(f) else 1):
        if k > 1 and level.max() < frame.size - 1:
            level = tower._value_classes(np.vstack([level, p[k - 2]]), tol)
        generators = max(eps, p_ties[: k - 1].max(initial=0.0))
        values, ties, _ = layers[k - 1]
        res = ref_span_residual(frame, values, frame.class_basis(level))
        extended = max(extended, res + float(np.max(ties)) + generators)
    return extended


def ref_mapped_levels(t, frame):
    """The tower theorems' mapped levels, one level at a time."""

    def mapped(src, direction, dst):
        values, ties, _ = ref_layers(frame, *frame.basis_coords(src), direction, 1)[1]
        cls, eps = frame.classes(dst)
        return frame.class_residual(values, cls) + ties.max() + eps

    seq = t.n_a_inf_list
    lowers = max((mapped(hi, "forward", lo) for lo, hi in zip(seq, seq[1:])), default=0.0)
    raises = max(mapped(lo, "star", hi) for lo, hi in zip(seq, seq[1:] + [t.inf_a_inf]))
    return {"delta_lowers_level": lowers, "delta_star_raises_level": raises}


def bits(x):
    """x with every float written out bit for bit."""
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (complex, np.complexfloating)):
        return (complex(x).real.hex(), complex(x).imag.hex())
    if isinstance(x, dict):
        return {k: bits(v) for k, v in sorted(x.items())}
    if isinstance(x, (tuple, list)):
        return [bits(v) for v in x]
    if dataclasses.is_dataclass(x):
        return bits(dataclasses.astuple(x))
    return x


def views(a):
    """Every residual of the four views of a, or the error a view raises."""
    out = {
        "verify_I1": bits(pk.verify_I1(a)),
        "partial_isometry_report": bits(pk.partial_isometry_report(pk.polar_decompose(a).u)),
    }
    try:
        out["theorem22_report"] = bits(pk.theorem22_report(a))
        rep = pk.coefficient_algebra(a)
        hyp = rep.tower.hypotheses
        out["coefficient_algebra"] = bits(
            [rep.tower.checks, rep.tower.stabilization, dataclasses.astuple(hyp),
             rep.theorems.checks, rep.structure]
        )
    except pk.PolarkitError as exc:
        out["error"] = repr(exc)
    return out


def haar(seed, n):
    rng = np.random.default_rng([seed, 11])
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ladder(family, n):
    spec = pk.q_oscillator(n, 1.0, 1.0) if family == "osc" else pk.weighted_shift(
        np.sqrt(np.arange(1, n))
    )
    phase = np.exp(2j * np.pi * np.random.default_rng([n, 1]).random(n))
    return phase[:, None] * pk.build(spec) * phase.conj()[None, :]


def conjugated(family, n, seed):
    spec = pk.q_oscillator(n, 0.5, 1.0) if family == "osc" else pk.weighted_shift(
        np.sqrt(np.arange(1, n))
    )
    w = haar(seed, n)
    return w @ pk.build(spec) @ dagger(w)


RUNGS = [("osc", n) for n in (4, 6, 8, 10, 12)] + [("shift", n) for n in (4, 6, 8, 10, 12)]
MODELS = st.one_of(
    st.sampled_from(RUNGS).map(lambda rung: ladder(*rung)),
    st.sampled_from(zoo_specs()).map(lambda spec: pk.build(pk.model_spec_from_json(spec))),
    st.builds(conjugated, st.sampled_from(["osc", "shift"]), st.integers(2, 24),
              st.integers(0, 2**16)),
)


@settings(max_examples=40, deadline=None)
@given(a=MODELS, block=st.sampled_from([1, 40, tower._BLOCK]))
def test_batched_kernels_give_the_bits_of_their_loops(a, block):
    with pytest.MonkeyPatch.context() as mp:
        for module, name, ref in ORACLES:
            mp.setattr(module, name, ref)
        want = views(a)
    assert bits(ref_verify_I1(a)) == want["verify_I1"]
    assert bits(ref_partial_isometry_report(pk.polar_decompose(a).u)) == want[
        "partial_isometry_report"
    ]
    with pytest.MonkeyPatch.context() as mp:
        for module in (tower, relation):
            mp.setattr(module, "_BLOCK", block)
        mp.setattr(tower, "_STACK", block)
        assert views(a) == want


@settings(max_examples=25, deadline=None)
@given(a=MODELS)
def test_checks_with_a_batched_inner_loop_give_the_bits_of_the_loop(a):
    an = Analysis(a)
    try:
        an.structure  # the relation, the tower and the block form
    except pk.PolarkitError:
        return
    t, frame = an.tower, an.frame
    details = t.hypotheses.details
    for name, residual in ref_hypotheses_commutators(frame, an.seed, an.matrix.shape[0]).items():
        assert bits(details[name]) == bits(residual), name
    rep = pk.theorem22_report(an)
    extended = {c.name: c.residual for c in rep.checks}["delta_powers_in_extended_algebra"]
    assert bits(extended) == bits(ref_extended(an))
    checks = pk.coefficient_algebra(an).theorems.checks
    for name, residual in {**ref_mapped_levels(t, frame), **ref_layers_commute(t, frame)}.items():
        assert bits(checks[name][1]) == bits(residual), name


@pytest.mark.parametrize("n", (4, 6, 8, 10, 12, 24, 48, 64))
@pytest.mark.parametrize("family", ("osc", "shift"))
def test_ladder_views_give_the_bits_of_the_loops(family, n):
    a = ladder(family, n)
    with pytest.MonkeyPatch.context() as mp:
        for module, name, ref in ORACLES:
            mp.setattr(module, name, ref)
        want = views(a)
    assert views(a) == want


def test_certificates_make_few_svd_calls(monkeypatch):
    # the calls, not the matrices: with one norm per LAPACK call these two
    # views made 83 SVD calls on this shift
    a = pk.build(pk.weighted_shift(np.sqrt(np.arange(1.0, 12))))
    calls = [0]

    def counting(*args, _orig=np.linalg.svd, **kwargs):
        calls[0] += 1
        return _orig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    pk.theorem22_report(a)
    pk.coefficient_algebra(a)
    assert calls[0] <= 50, calls[0]
    u = pk.polar_decompose(a).u
    calls[0] = 0
    pk.partial_isometry_report(u)
    assert calls[0] == 1


def test_tower_kernels_stay_blocked_at_n_128():
    # unblocked, the tower's bound kernels trace 456 MB here; blocked, 120 MB
    n = 128
    an = Analysis(pk.build(pk.weighted_shift(np.sqrt(np.arange(1.0, n)))))
    an.seed, an.pair
    tracemalloc.start()
    try:
        t = pk.build_tower(an.seed, an.pair)
        tower._tower_theorems(t, an.pair, t._frame, an.tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 << 20, peak
