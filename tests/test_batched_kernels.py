"""The batched kernels against the per-call loops they replaced, to the bit,
and the block-norm kernels against the dense ones they replaced.

Every certificate sends its independent norms to LAPACK as one stack, and
every per-layer or per-pair bound of the tower is one array kernel, formed
in blocks of at most ``tower._BLOCK`` entries.  Each matrix still gets the
LAPACK call it got alone, each product is projected as a matrix of its own
and each bound does the same arithmetic, so the residuals must not move by
a bit.  The ``ref_*`` functions below are the loops the kernels replaced:
with them patched in (``ORACLES``), ``verify_I1``,
``partial_isometry_report``, ``theorem22_report`` and
``coefficient_algebra`` must give the same bits as with the kernels, at
every block size.  The loops that sit inside a check (the hypotheses'
commutators, the extended algebras of ``theorem22_report`` and the mapped
levels of the tower theorems) are compared with their reference loops by
name.

Two routes moved, not only their stacking: the gate reads the
eigenspaces of a*a and |a| off the polar SVD, and the partial-isometry
spectra come from ``eigvalsh``.  ``ref_verify_I1`` and
``ref_partial_isometry_report`` keep the ``eigh`` routes they replaced,
and the new routes must keep their verdicts, with residuals and gamma
tables within 1e-12 (1 + ||a||^2) and spectra within 1e-15
(``assert_near_the_eigh_routes``).  The gate meets that on every fixed
input here and on every Hypothesis draw whose |a| does not crowd
(``rounding_scale`` at most 1e-12); on crowded draws it is not checked,
and ``CROWDED_CASES`` keep four inputs where it fails.

The frame's atom map and powers are read from block norms, and the layer
products and the top-layer ideal as class residuals, so these bound the
same quantities in another way.  Against the dense kernels they replaced
(``ref_atom_map``, ``ref_classes``, ``ref_frame_powers``,
``ref_layer_product_defect`` and ``ref_ideal_defect``, patched in as
``DENSE``) each kernel keeps its verdict, and no bound falls below the
dense one by more than 1e-12, so no check passes that failed with the
dense kernels.  A check that sums several ties can fail where it passed,
when its dense residual lay within the bounds' looseness (at most about
1.5) of its threshold.

The powers bound their first order L_k by ``linalg._split_norm_bound``,
O(n^2) per power; ``ref_first_facts`` keeps the bound ||L_k* L_k||_F^(1/2)
it replaced, which took one n x n product per power.  Every L_k the
suites form must have the new bound between that bound and ||L_k||_F,
and that bound at least ||L_k||, and the verdicts must not move, crowded
draws included: ``||L_k||_F`` alone moved checks near their threshold
there (``FIRST_ORDER_FLIPS``).
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
from polarkit.linalg import DROP_THRESHOLD, LIMITS, _norm_f, _push, dagger
from polarkit.relation import Analysis

from conftest import empty_slot, zoo_specs
from test_linalg import ref_groups
from test_relation import direct_sums

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
    scale = 1.0 + float(np.abs(w).max(initial=0.0))
    return w, v, [np.array(g) for g in ref_groups(w, tol * scale)], scale


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


def eigh_values(h, tol):
    return ref_hermitian_eig(h, tol)[0]


def eigvalsh_values(h, tol):
    return np.linalg.eigvalsh((h + dagger(h)) / 2.0)


def ref_partial_isometry_report(u, tol=TOL, spectrum=eigh_values):
    """The five conditions one norm and one spectrum at a time; the spectra
    by ``eigh`` as they were taken, or by ``spectrum``."""
    um = np.asarray(u, dtype=np.complex128)
    q, p = dagger(um) @ um, um @ dagger(um)
    nu = ref_norm(um)
    s = 1.0 + nu * nu
    residuals = [
        float(np.minimum(np.abs(w), np.abs(w - 1.0)).max())
        for w in (spectrum(q, tol), spectrum(p, tol))
    ]
    residuals += [ref_norm(q @ q - q), ref_norm(p @ p - p)]
    residuals.append(max(
        ref_norm(um @ dagger(um) @ um - um), ref_norm(dagger(um) @ um @ dagger(um) - dagger(um))
    ))
    names = ("spec_initial", "spec_final", "idempotent_initial", "idempotent_final",
             "triple_product")
    checks = tuple(pk.ConditionCheck(n, r, r <= tol * (s * s)) for n, r in zip(names, residuals))
    return pk.PartialIsometryReport(checks, all(c.passed for c in checks), max(residuals), nu)


def ref_layers(frame, values, ties, direction, depth):
    """``_AtomFrame.layers`` one power at a time, written into the pair
    ``(values, ties)`` it returns."""
    _, taus, *projections = frame.powers(depth)
    proj, proj_ties, _ = projections[direction == "star"]
    index, mask, top = frame.gathers(depth)
    big = max(1.0, np.sqrt(frame.nu2)) ** depth
    size = np.abs(values).max(axis=1, initial=0.0)
    span = [v.max(axis=1, initial=0.0) - v.min(axis=1, initial=0.0)
            for v in (values.real, values.imag)]
    out = (np.empty((depth + 1, *values.shape), dtype=np.complex128),
           np.empty((depth + 1, len(ties))))
    out[0][0], out[1][0] = values, ties
    for k in range(depth):
        row = k + 1 + (top if direction == "star" else 0)
        tie = size * proj_ties[k] + big * taus[k] * np.hypot(*span) + big * big * ties
        gathered = values.astype(np.complex128)[:, index[row]]
        out[0][k + 1], out[1][k + 1] = gathered * (mask[row] * proj[k]), tie
    return out


def triples(values, ties):
    """The layers ``(values, ties)`` of :meth:`_AtomFrame.layers` as a list
    of per-layer ``(values, ties, off)``, a layer's tie being its off-block
    bound too."""
    return [(v, t, t) for v, t in zip(values, ties)]


def ref_atom_images(w, labels):
    """(w P_x, w P_x w*) for the atoms P_x of the column labels."""
    onehot = labels[None, :] == np.arange(labels[-1] + 1)[:, None]
    cols = w[None, :, :] * onehot[:, None, :]
    return cols, cols @ dagger(w)


def ref_coords(frame, rot):
    """(values, ties, off) of a rotated (k, n, n) stack: atom means, the
    off-atom norm plus the largest Frobenius defect inside an atom, and the
    off-atom norm, by SVD."""
    inside = frame.labels[:, None] == frame.labels[None, :]
    values = algebra._atom_means(rot, frame.ranges)
    off = np.array([ref_norm(m) for m in np.where(inside, 0.0, rot)]) if len(rot) else np.zeros(0)
    diag = np.diagonal(rot, axis1=-2, axis2=-1) - values[..., frame.labels]
    within = np.where(inside & ~np.eye(len(inside), dtype=bool), np.abs(rot) ** 2, 0.0).sum(axis=-1)
    within += np.abs(diag) ** 2
    blocks = np.add.reduceat(within, frame.ranges[0], axis=-1)
    return values, off + np.sqrt(blocks.max(axis=-1)), off


def ref_atom_map(frame, direction):
    if direction not in frame._maps:
        w = frame.u[direction]
        cols, images = ref_atom_images(w, frame.labels)
        values, ties, _ = ref_coords(frame, images)
        inter = max(ref_norm(m) for m in (cols - images @ w) / np.sqrt(frame.ranks)[:, None, None])
        frame._maps[direction] = (values.T, ties, inter)
    return frame._maps[direction]


def ref_classes(frame, level):
    """The classes of X under level's atoms and their tie, from the dense
    images of level's atoms."""
    key = id(level)
    if key not in frame._classes:
        if level is frame.alg:
            frame._classes[key] = (np.arange(frame.size), 0.0, level)
        else:
            images = ref_atom_images(frame.alg._vh @ level.v, level.labels)[1]
            values, ties, _ = ref_coords(frame, images)
            _, cls = np.unique(values.real.argmax(axis=0), return_inverse=True)
            frame._classes[key] = (cls, float(ties.max()), level)
    return frame._classes[key][:2]


def ref_frame_powers(frame, depth):
    """The powers from the stack of W^k, its off-pattern norms and the
    coordinates of W^k W^k* and W^k* W^k, by SVD."""
    if frame._powers is None or len(frame._powers[0]) < depth:
        images = frame.images(depth)
        w = frame.u["forward"]
        stack = np.empty((depth, *w.shape), dtype=np.complex128)
        for k in range(depth):
            stack[k] = stack[k - 1] @ w if k else w
        off = frame.labels[:, None] != images[:, frame.labels][:, None, :]
        ties = np.array([ref_norm(m) for m in np.where(off, stack, 0.0)])
        p = ref_coords(frame, stack @ dagger(stack))
        q = ref_coords(frame, dagger(stack) @ stack)
        frame._powers = (images, ties, p, q)
    images, ties, p, q = frame._powers
    return images[:depth], ties[:depth], *(tuple(x[:depth] for x in pq) for pq in (p, q))


def ref_first_facts(first, block, image, idx) -> tuple:
    """``tower._first_facts`` with l_k = ||L_k* L_k||_F^(1/2), the bound it
    took before ``linalg._split_norm_bound``: one n x n product per power,
    taken of L_k over its Frobenius norm so that nothing underflows."""
    own, first, block, image = np.arange(len(block)), first[None], block[None], image[None]
    pairs = (_push(dagger(block), own, image, first, idx), _push(block, image, own, dagger(first), idx))
    scale = float(_norm_f(first)[0])
    unit = first / scale if scale else first
    return (scale * float(np.sqrt(_norm_f(dagger(unit) @ unit)[0])),
            *(float(_norm_f(x + dagger(x))[0]) for x in pairs))


def ref_span_basis(frame, values, ties):
    root = np.sqrt(frame.ranks)
    left, s, vh = np.linalg.svd(values * root, full_matrices=False)
    keep = s > DROP_THRESHOLD * max(1.0, float(s[0]))
    coef = dagger(left[:, keep]) / s[keep][:, None]
    return vh[keep] / root, np.abs(coef) @ ties


def ref_span_residual(frame, values, basis) -> float:
    proj = ((values * frame.ranks) @ dagger(basis)) @ basis
    return float(np.abs(values - proj).max(initial=0.0))


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


def ref_layer_product_defect(frame, values, ties) -> float:
    """Every product of a row of layer k with a row of layer l <= k,
    projected on the span of layer k's rows."""
    layers = triples(values, ties)

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


def ref_ideal_defect(frame, values, ties, cls) -> float:
    """The products of the span of a layer's rows with the class
    indicators, projected on that span."""
    basis, basis_ties = ref_span_basis(frame, values, ties)
    level = frame.class_basis(cls)
    prods = (basis[:, None, :] * level[None, :, :]).reshape(-1, frame.size)
    return ref_span_residual(frame, prods, basis) + 2.0 * basis_ties.max(initial=0.0)


def ref_sum_form_residual(frame, layers, levels) -> float:
    layers = triples(*layers)
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


def ref_operator_norms(m):
    return np.array([ref_norm(x) for x in m])


def loop_partial_isometry_report(u, tol=TOL):
    """``partial_isometry_report`` one norm and one ``eigvalsh`` at a time."""
    return ref_partial_isometry_report(u, tol, spectrum=eigvalsh_values)


ORACLES = [
    (relation, "_operator_norms", ref_operator_norms),
    (relation, "partial_isometry_report", loop_partial_isometry_report),
    (tower._AtomFrame, "layers", ref_layers),
    (tower._AtomFrame, "span_residuals", ref_span_residual),
    (tower, "_commutator_max", ref_commutator_max),
    (relation, "_sum_form_residual", ref_sum_form_residual),
]

DENSE = [
    (tower._AtomFrame, "atom_map", ref_atom_map),
    (tower._AtomFrame, "classes", ref_classes),
    (tower._AtomFrame, "powers", ref_frame_powers),
    (tower, "_layer_product_defect", ref_layer_product_defect),
    (tower, "_ideal_defect", ref_ideal_defect),
]


def ref_hypotheses_commutators(frame, a0, kmax):
    """The hypotheses' commutators, by name: of the seed and of Q_1 with
    delta^k of the seed one layer at a time, and of the Q_k and Q_1 with
    the seed."""
    values, ties = frame.basis_coords(a0)
    seed = (values, ties, ties)
    q, q_ties, q_off = frame.powers(kmax)[3]
    q1 = (q[:1], q_ties[:1], q_off[:1])
    fwd = triples(*ref_layers(frame, values, ties, "forward", kmax))
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


def ref_seed_inside_seed(frame, a0, kmax) -> float:
    """The hypotheses' delta_of_seed_inside_seed by the span route: the
    seed's basis orthonormalized by an SVD, with the ties that takes, and
    delta of the basis projected on its span."""
    values, ties = frame.basis_coords(a0)
    fwd, fwd_ties = frame.layers(values, ties, "forward", kmax)
    span, span_ties = ref_span_basis(frame, values, ties)
    return (ref_span_residual(frame, fwd[1], span) + 2.0 * fwd_ties[1].max(initial=0.0)
            + span_ties.max(initial=0.0))


def assert_seed_inside_seed_within_its_span_oracle(an):
    """delta_of_seed_inside_seed read as a class residual is at most the
    span route's plus 1e-12 of the scale, and the strong verdict is the
    one the span route gives."""
    frame, hyp = an.frame, an.tower.hypotheses
    ref = ref_seed_inside_seed(frame, an.seed, an.matrix.shape[0])
    got = hyp.details["delta_of_seed_inside_seed"]
    assert got <= ref + LIMITS["frame"](1e-12, frame.pair.norm), (got, ref)
    strong = ("delta_star_powers_of_1_projections", "delta_star_of_1_commutes_with_seed")
    ref_strong = max(ref, *(hyp.details[name] for name in strong))
    limit = LIMITS["frame"](an.tol, frame.pair.norm)
    assert hyp.strong_holds == (ref_strong <= limit), (got, ref)


def ref_layers_commute(t, frame):
    """The tower theorems' commutators of the seed's layers, one layer
    boundary at a time."""
    seed = frame.basis_coords(t.a0)
    depth = max(len(t.na_list), len(t.an_list))
    return {
        f"{d}_layers_commute":
            ref_layers_commutator(triples(*ref_layers(frame, *seed, d, depth)))
        for d in ("star", "forward")
    }


def ref_extended(an):
    """theorem22_report's delta_powers_in_extended_algebra, one power at a time."""
    frame, tol, n = an.frame, an.tol, an.matrix.shape[0]
    _, _, (p, p_ties, _), _ = frame.powers(n)
    cls, eps = frame.classes(an.seed)
    pos = algebra._atom_means(frame.alg._vh @ an.pd.pos @ frame.alg.v, frame.ranges).real
    means = np.bincount(cls, pos * frame.ranks) / np.bincount(cls, frame.ranks)
    f = frame.class_basis(cls)[np.abs(means) > tol * (1.0 + np.abs(pos).max())]
    layers = triples(*ref_layers(frame, f, np.full(len(f), eps), "forward", n))[1:]
    extended, level = 0.0, algebra._value_classes(pos[None, :], tol)
    for k in range(1, n + 1 if len(f) else 1):
        if k > 1 and level.max() < frame.size - 1:
            level = algebra._value_classes(np.vstack([level, p[k - 2]]), tol)
        generators = max(eps, p_ties[: k - 1].max(initial=0.0))
        values, ties, _ = layers[k - 1]
        res = ref_span_residual(frame, values, frame.class_basis(level))
        extended = max(extended, res + float(np.max(ties)) + generators)
    return extended


def ref_mapped_levels(t, frame):
    """The tower theorems' mapped levels, one level at a time."""

    def mapped(src, direction, dst):
        values, ties = (x[1] for x in ref_layers(frame, *frame.basis_coords(src), direction, 1))
        cls, eps = frame.classes(dst)
        return frame.class_residual(values, cls) + ties.max() + eps

    seq = t.n_a_inf_list
    lowers = max((mapped(hi, "forward", lo) for lo, hi in zip(seq, seq[1:])), default=0.0)
    raises = max(mapped(lo, "star", hi) for lo, hi in zip(seq, seq[1:] + [t.inf_a_inf]))
    return {"delta_lowers_level": lowers, "delta_star_raises_level": raises}


def rounding_scale(a) -> float:
    """n eps ||a|| / gap, gap the least gap between the eigenspaces of |a|:
    how far rounding alone may move an eigenvector of |a|, by either route."""
    sigma = pk.polar_decompose(a).sigma
    gaps = np.diff(sigma)
    gap = gaps[gaps > TOL * (1.0 + sigma[-1])].min(initial=np.inf)
    return len(a) * np.finfo(float).eps * sigma[-1] / gap


def assert_gate_near_the_eigh_route(a):
    """``verify_I1`` against the ``eigh`` route it replaced: the same
    verdicts, and residuals, gamma table and offending eigenvalue within
    1e-12 (1 + ||a||^2)."""
    got, old = pk.verify_I1(a), ref_verify_I1(a)
    near = 1e-12 * (1.0 + pk.operator_norm(a) ** 2)
    assert (got.holds, got.conjugate_holds) == (old.holds, old.conjugate_holds)
    assert abs(got.membership_residual - old.membership_residual) <= near
    assert abs(got.conjugate_residual - old.conjugate_residual) <= near
    if got.offending_eigenvalue is not None:
        assert abs(got.offending_eigenvalue - old.offending_eigenvalue) <= near
    assert len(got.gamma_table) == len(old.gamma_table)
    np.testing.assert_allclose(got.gamma_table, old.gamma_table, rtol=0.0, atol=near)


def assert_spectra_near_the_eigh_route(u):
    """``partial_isometry_report`` against the ``eigh`` spectra it replaced:
    the spectra within 1e-15, the other conditions, ||u|| and every verdict
    to the bit."""
    got, old = pk.partial_isometry_report(u), ref_partial_isometry_report(u)
    assert (got.passed, got.norm) == (old.passed, old.norm)
    for new, ref in zip(got.conditions, old.conditions):
        assert new.passed == ref.passed, new.name
        assert abs(new.residual - ref.residual) <= (1e-15 if new.name.startswith("spec_") else 0.0)


def assert_near_the_eigh_routes(a):
    assert_gate_near_the_eigh_route(a)
    assert_spectra_near_the_eigh_route(pk.polar_decompose(a).u)


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


def views(a, an=None):
    """Every residual of the four views of a, or the error a view raises,
    read on ``an``: by default on one Analysis derived afresh, as the views
    called on a would share the one the last call built, patched or not."""
    an = Analysis(a) if an is None else an
    out = {
        "verify_I1": bits(pk.verify_I1(an)),
        "partial_isometry_report": bits(pk.partial_isometry_report(pk.polar_decompose(a).u)),
    }
    try:
        out["theorem22_report"] = bits(pk.theorem22_report(an))
        rep = pk.coefficient_algebra(an)
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
    assert bits(loop_partial_isometry_report(pk.polar_decompose(a).u)) == want[
        "partial_isometry_report"
    ]
    assert_spectra_near_the_eigh_route(pk.polar_decompose(a).u)
    if rounding_scale(a) <= CROWDED:
        assert_gate_near_the_eigh_route(a)
    with pytest.MonkeyPatch.context() as mp:
        for module in (tower, relation):
            mp.setattr(module, "_BLOCK", block)
        assert views(a) == want


@settings(max_examples=25, deadline=None)
@given(a=MODELS)
def test_checks_with_a_batched_inner_loop_give_the_bits_of_the_loop(a):
    an = Analysis(a)
    try:
        an.structure, an.tower  # the relation, the block form and the tower
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
    assert_seed_inside_seed_within_its_span_oracle(an)


@pytest.mark.parametrize("n", (4, 6, 8, 10, 12, 24, 48, 64))
@pytest.mark.parametrize("family", ("osc", "shift"))
def test_seed_inside_seed_stays_within_its_span_oracle_on_the_ladder(family, n):
    assert_seed_inside_seed_within_its_span_oracle(Analysis(ladder(family, n)))


@pytest.mark.parametrize("n", (4, 6, 8, 10, 12, 24, 48, 64))
@pytest.mark.parametrize("family", ("osc", "shift"))
def test_ladder_views_give_the_bits_of_the_loops(family, n):
    a = ladder(family, n)
    with pytest.MonkeyPatch.context() as mp:
        for module, name, ref in ORACLES:
            mp.setattr(module, name, ref)
        want = views(a)
    assert views(a) == want
    assert_near_the_eigh_routes(a)


ROUTE_CASES = {
    **{f"zoo-{i}-{spec['kind']}": lambda spec=spec: pk.build(pk.model_spec_from_json(spec))
       for i, spec in enumerate(zoo_specs())},
    **{f"haar-{family}-{n}-{seed}": lambda args=(family, n, seed): conjugated(*args)
       for family in ("osc", "shift") for n in (3, 8, 11) for seed in (0, 1)},
    **{f"haar-shift-{n}-0": lambda n=n: conjugated("shift", n, 0) for n in (24, 64)},
    **{f"jordan-{n}": lambda n=n: pk.build(pk.jordan_block(n)) for n in (2, 5, 12, 64)},
}

# Haar-conjugated q-oscillators whose |a| crowds: 2(1 - 2^-k) are the
# eigenvalues of a*a, so their least gap halves with each step of n, and
# rounding_scale(a) exceeds CROWDED from n = 9.  There the two routes
# differ by more than 1e-12 (1 + ||a||^2), 21 to 2,900 times more on these
# four, and on the last three a verdict differs too or both fail a relation
# that holds exactly: each residual measures rounding, not the relation.
CROWDED = 1e-12
CROWDED_CASES = [("osc", 16, 0), ("osc", 20, 2), ("osc", 22, 0), ("osc", 24, 0)]


@pytest.mark.parametrize("case", sorted(ROUTE_CASES))
def test_the_svd_routes_stay_near_the_eigh_routes(case):
    assert_near_the_eigh_routes(ROUTE_CASES[case]())


@pytest.mark.xfail(strict=True, reason="the gate's residuals measure rounding on a crowded |a|")
@pytest.mark.parametrize("args", CROWDED_CASES)
def test_the_gate_misses_the_eigh_route_where_the_spectrum_crowds(args):
    a = conjugated(*args)
    assert rounding_scale(a) > CROWDED
    assert_gate_near_the_eigh_route(a)


def test_certificates_make_few_lapack_calls(lapack_calls):
    # the calls, not the matrices: with one norm per LAPACK call the two
    # structural views made 83 SVD calls on this shift, and with eigh(|a|)
    # and eigh(a*a) beside the polar SVD, 27 SVD and 6 eigh calls
    a = pk.build(pk.weighted_shift(np.sqrt(np.arange(1.0, 12))))
    pk.verify_I1(a)
    assert lapack_calls.calls == {"svd": 3, "eigh": 0, "eigvalsh": 0}
    lapack_calls.clear()
    for view in (pk.theorem22_report, pk.coefficient_algebra):
        empty_slot()  # each view on an Analysis of its own
        view(a)
    calls = lapack_calls.calls
    assert calls["svd"] <= 15 and calls["eigvalsh"] <= 2 and calls["eigh"] == 0, calls
    u = pk.polar_decompose(a).u
    lapack_calls.clear()
    pk.partial_isometry_report(u)
    assert lapack_calls.calls == {"svd": 1, "eigh": 0, "eigvalsh": 1}


def test_tower_kernels_stay_blocked_at_n_128():
    # unblocked, the tower's bound kernels traced 456 MB here; blocked, 120
    # MB; with the frame from block norms and the layer products as class
    # residuals, 35.5 MB, most of it the hypotheses' (kmax, rows, atoms)
    # layers
    n = 128
    an = Analysis(pk.build(pk.weighted_shift(np.sqrt(np.arange(1.0, n)))))
    an.seed, an.pair
    tracemalloc.start()
    try:
        t = pk.build_tower(an.seed, an.pair)
        tower._tower_theorems(t, t._frame, an.tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20, peak


def test_theorem22_report_reads_its_layers_in_place_at_n_128():
    # the seed's layers delta^k(f), k = 0..n, of its n - 1 rows are one
    # (n + 1, n - 1, n) complex stack, 33.5 MB here.  Copied into a second
    # stack and with the absorption bound formed over all of it at once, the
    # report peaked at 113 MiB; read in place, with that bound in blocks,
    # the stack is most of the peak
    n = 128
    an = Analysis(pk.build(pk.weighted_shift(np.sqrt(np.arange(1.0, n)))))
    an.frame
    stack = (n + 1) * (n - 1) * n * 16
    tracemalloc.start()
    try:
        assert pk.theorem22_report(an).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (113 << 20) - stack, peak
    assert peak < 1.5 * stack, peak


def rank_deficient(seed, n, rank):
    """v = W_r W'_r*, the first r columns of two Haar unitaries: a partial
    isometry whose C*(1) closure is not certified."""
    rng = np.random.default_rng([seed, 12])
    w = [np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
         for _ in range(2)]
    return w[0][:, :rank] @ dagger(w[1][:, :rank])


KERNEL_MODELS = st.one_of(
    MODELS,
    direct_sums(),
    st.builds(rank_deficient, st.integers(0, 2**16), st.integers(3, 10), st.integers(1, 2)),
)
SUITES = ("polar", "isometry", "tower", "theorem22")
LOOSE = 1e-12


def suite_checks(a):
    """Every check of the suites that read the frame: ``{(suite, name):
    (pass, residual, error type)}``."""
    report = pk.run_suite(pk.SuiteConfig(models=(pk.custom(a),), suites=SUITES))
    return {
        (suite["name"], check["name"]):
            (check["pass"], check["residual"], check.get("error", "").split(":")[0])
        for suite in report["models"][0]["suites"]
        for check in suite["checks"]
    }


def frames(an):
    """Fresh copies of the frames of C*(1)'s closure and, when the tower
    builds, of the tower's double closure."""
    out = [an.unit_closure]
    try:
        out.append(an.frame)
    except pk.PolarkitError:
        pass
    return [tower._AtomFrame(frame.alg, frame.pair) for frame in out]


def at_least(new, old):
    assert np.all(np.asarray(new) >= np.asarray(old) - LOOSE), (new, old)


@settings(max_examples=60, deadline=None)
@given(a=KERNEL_MODELS)
def test_block_kernels_keep_the_verdicts_and_stay_above_their_dense_oracles(a):
    # the atom map, the powers, the layer products and the top-layer ideal
    # from block norms and class residuals against the dense kernels: each
    # kernel's verdict is the dense one, no bound falls below the dense one
    # by 1e-12, and so no check passes that failed with the dense kernels
    an = Analysis(a)
    with pytest.MonkeyPatch.context() as mp:
        for module, name, ref in DENSE:
            mp.setattr(module, name, ref)
        want = suite_checks(a)
    got = suite_checks(a)
    for key, (ok, residual, _) in got.items():
        if key in want:
            at_least(residual, want[key][1])
        assert not ok or want.get(key, (False,))[0], key
    n = len(a)
    for frame in frames(an):
        dense = tower._AtomFrame(frame.alg, frame.pair)
        limit = LIMITS["frame"](TOL, frame.pair.norm)
        defects = []
        for direction in ("forward", "star"):
            (t, ties, inter), (t0, ties0, inter0) = (
                frame.atom_map(direction), ref_atom_map(dense, direction))
            np.testing.assert_allclose(t, t0, rtol=0.0, atol=LOOSE)
            at_least(ties, ties0)
            at_least(inter, inter0)
            defects.append((frame.injection(direction)[2], dense.injection(direction)[2]))
        assert all((new <= limit) == (old <= limit) for new, old in defects), defects
        images, taus, *pq = frame.powers(n)
        images0, taus0, *pq0 = ref_frame_powers(dense, n)
        assert np.array_equal(images, images0)
        at_least(taus[0], taus0[0])
        if max(new for new, _ in defects) > limit:
            continue  # p, q and the later powers are read on a certified frame only
        at_least(taus, taus0)
        for (values, ties, off), (values0, ties0, off0) in zip(pq, pq0):
            np.testing.assert_allclose(values, values0.real, rtol=0.0, atol=LOOSE)
            at_least(ties, ties0)
            at_least(off, off0)
    try:
        t = an.tower
    except pk.PolarkitError:
        return
    frame, limit = an.frame, LIMITS["frame"](TOL, an.frame.pair.norm)
    seed = frame.basis_coords(t.a0)
    layers = [frame.layers(*frame.basis_coords(t.a_inf), "star", len(t.n_a_inf_list)),
              frame.layers(*seed, "star", max(len(t.na_list), len(t.an_list)))]
    for values, ties in layers:
        new = tower._layer_product_defect(frame, values, ties)
        old = ref_layer_product_defect(frame, values, ties)
        at_least(new, old)
        assert (new <= limit) == (old <= limit), (new, old)
        cls = algebra._value_classes(values, TOL)
        top = values[-1], ties[-1]
        new, old = tower._ideal_defect(frame, *top, cls), ref_ideal_defect(frame, *top, cls)
        at_least(new, old)
        assert (new <= limit) == (old <= limit), (new, old)


def test_the_frame_takes_no_svd_and_no_cube_at_n_128(monkeypatch):
    # the atom map took one SVD per atom and direction of an n x n image,
    # and the powers formed the (n, n, n) stack of W^k and two products of
    # it, 33.5 MB each here, and took 3 n SVDs; the unitary's frame peaked
    # at 99 MB
    n = 128

    def refused(*args, **kwargs):
        raise AssertionError("an SVD in the frame")

    cases = [
        Analysis(pk.build(pk.q_oscillator(n, 1.0, 1.0))).frame,
        Analysis(pk.build(pk.weighted_shift(np.sqrt(np.arange(1.0, n))))).frame,
        Analysis(conjugated("shift", n, 5)).frame,  # W has a part off its blocks
        # one atom of rank n, whose blocks are n x n: the C*(1) closure of a unitary
        tower._unit_closure(tower._free_pair(haar(3, n)), TOL),
    ]
    for case in cases:
        frame = tower._AtomFrame(case.alg, case.pair)
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "svd", refused)
            tracemalloc.start()
            try:
                frame.atom_map("forward"), frame.atom_map("star"), frame.powers(n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 << 20, peak


def test_class_bases_are_built_once_per_class_array(monkeypatch):
    # a ladder pass rebuilt the class indicators 380 times over 20 frames;
    # each frame now builds one read-only basis per class array it reads
    built = []

    def counting(cls, ranks, _orig=tower._class_basis):
        built.append(cls.tobytes())
        return _orig(cls, ranks)

    monkeypatch.setattr(tower, "_class_basis", counting)
    for family, n in RUNGS:
        an = Analysis(ladder(family, n))
        built.clear()
        pk.verify_I1(an), pk.theorem22_report(an), pk.coefficient_algebra(an)
        assert len(built) == len(set(built)) == len(an.frame._bases), (family, n)
        assert all(not basis.flags.writeable for basis in an.frame._bases.values())


def first_orders(a):
    """``(verdicts, oracle verdicts, bounds)``: the ``suite_checks`` verdicts
    on ``a``, the same with ``ref_first_facts`` patched in, and
    ``(l_k, ||L_k* L_k||_F^(1/2), ||L_k||, ||L_k||_F)`` for every L_k that
    the frames' powers form on the way, ||L_k|| by SVD."""
    bounds = []

    def recording(first, block, image, idx, _orig=tower._first_facts):
        facts = _orig(first, block, image, idx)
        bounds.append((facts[0], ref_first_facts(first, block, image, idx)[0], ref_norm(first),
                       float(_norm_f(first))))
        return facts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tower, "_first_facts", ref_first_facts)
        want = suite_checks(a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tower, "_first_facts", recording)
        got = suite_checks(a)
    for new, old, norm, fro in bounds:  # relative: each L_k here is far below LOOSE
        assert fro * (1.0 + LOOSE) >= new >= old * (1.0 - LOOSE), (fro, new, old)
        assert old >= norm * (1.0 - LOOSE), (old, norm)
    verdicts = [{key: check[0] for key, check in checks.items()} for checks in (got, want)]
    return *verdicts, bounds


@settings(max_examples=30, deadline=None)
@given(a=st.builds(conjugated, st.sampled_from(["osc", "shift"]), st.integers(2, 24),
                   st.integers(0, 2**16)))
def test_first_order_bound_keeps_the_verdicts_of_its_oracle(a):
    # l_k was ||L_k* L_k||_F^(1/2), one n x n product per power; it is that
    # bound with the part of L_k off its heaviest rows taken at its
    # Frobenius norm: never below it, never above ||L_k||_F
    got, want, _ = first_orders(a)
    assert got == want


# Haar-conjugated q-oscillators whose |a| crowds (rounding_scale 4.7e-9),
# on which ||L_k||_F alone, up to 1.5 times the product bound, failed
# checks that the product bound passed: tower minimality and
# top_layer_ideal at seed 0, and minimality and layer_products at seed 6,
# which passed every check.
FIRST_ORDER_FLIPS = [("osc", 20, 0), ("osc", 20, 6)]
FIRST_ORDER_CASES = {
    **{f"haar-{family}-{n}-{seed}": lambda args=(family, n, seed): conjugated(*args)
       for family, n, seed in CROWDED_CASES + FIRST_ORDER_FLIPS},
    "osc-64": lambda: pk.build(pk.q_oscillator(64, 1.0, 1.0)),
}


@pytest.mark.parametrize("case", sorted(FIRST_ORDER_CASES))
def test_first_order_bound_keeps_the_verdicts_where_it_forms(case):
    got, want, bounds = first_orders(FIRST_ORDER_CASES[case]())
    assert bounds and got == want
