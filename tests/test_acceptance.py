"""Acceptance suite: twelve end-to-end criteria with fixed seeds.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s, and in
captured output on failure) and then asserts, so a red run still shows
the full verdict list.
"""

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import polarkit as pk
from polarkit.words import GEN, GEN_STAR

from conftest import random_matrix
from span_closure import generate

TOL = 1e-9


def verdict(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    return ok


def test_criterion_01_polar_suite():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    violations = 0
    worst = 0.0
    for i in range(200):
        n = 2 + i % 15
        a = random_matrix(rng, n)
        pd = pk.polar_decompose(a, tol=TOL)
        scale = 1.0 + pk.operator_norm(a)
        rep = pk.partial_isometry_report(pd.u, tol=TOL)
        worst = max(worst, pd.residual / scale)
        if pd.residual > TOL * scale or not (rep.consistent and rep.passed):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    assert verdict(
        1,
        ok,
        f"polar suite, 200 matrices dims 2-16, worst scaled residual "
        f"{worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_equivalence_invariants():
    rng = np.random.default_rng(1002)
    violations = 0
    for i in range(500):
        n = 2 + i % 9
        a = random_matrix(rng, n)
        kind = i % 4
        if kind == 0:
            v = pk.polar_decompose(a).u
        elif kind == 1:
            v, _ = np.linalg.qr(a)
        elif kind == 2:
            v = pk.polar_decompose(a).u + 0.3 * random_matrix(rng, n)
        else:
            v = a
        rep = pk.partial_isometry_report(v, tol=TOL)
        prep = pk.power_isometry_check(v, kmax=n, tol=TOL)
        if not (rep.consistent and prep.equivalent):
            violations += 1
    ok = violations == 0
    assert verdict(
        2, ok, f"consistency and power equivalence, 500 inputs, {violations} violations"
    )


def test_criterion_03_relation_gate():
    rng = np.random.default_rng(1003)
    zoo = [pk.weighted_shift((1.0, np.sqrt(2.0), np.sqrt(3.0)))]
    for _ in range(10):
        n = int(rng.integers(2, 9))
        weights = np.sort(rng.uniform(0.5, 3.0, n - 1))
        while np.any(np.diff(weights) < 1e-3):
            weights = np.sort(rng.uniform(0.5, 3.0, n - 1))
        zoo.append(pk.weighted_shift(tuple(weights)))
    zoo.append(pk.normal((1.0, 2.0, 3.0j)))
    zoo.append(pk.normal(tuple(rng.standard_normal(5) + 1j * rng.standard_normal(5))))
    zoo.append(pk.q_oscillator(8, 0.5, 1.0))
    ok = True
    for spec in zoo:
        cert = pk.verify_I1(pk.build(spec), tol=TOL)
        ok = ok and cert.holds and (cert.holds == cert.conjugate_holds)
    jordan = pk.verify_I1(pk.build(pk.jordan_block(3)), tol=TOL)
    ok = ok and not jordan.holds and (jordan.holds == jordan.conjugate_holds)
    assert verdict(
        3,
        ok,
        f"relation gate over {len(zoo)} positive models and the dim-3 "
        "Jordan negative control",
    )


def test_criterion_04_tower_suite():
    t0 = time.perf_counter()
    a = pk.build(pk.weighted_shift((1.0, np.sqrt(2.0), np.sqrt(3.0))))
    pd = pk.polar_decompose(a, tol=TOL)
    pair = pk.endo_pair(pd.u, tol=TOL)
    seed = generate([np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)], unital=True)
    tower = pk.build_tower(seed, pair, tol=TOL)
    rep = pk.verify_tower_theorems(tower, pair, tol=TOL)
    elapsed = time.perf_counter() - t0
    worst = max(res for _, res in rep.checks.values())
    ok = (
        tower.inf_a.dimension == 4
        and rep.passed
        and worst <= TOL
        and "double_closure_equality" in rep.checks
        and "intertwining" in rep.checks
        and elapsed < 5.0
    )
    assert verdict(
        4,
        ok,
        f"tower from C*(1, diag(1,1,0,0)): star limit dim "
        f"{tower.inf_a.dimension}, worst residual {worst:.3e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_05_ten_property_theorem():
    worst = 0.0
    ok = True
    for q in (1.0, 0.5):
        for dim in (4, 8, 16):
            a = pk.build(pk.q_oscillator(dim, q, 1.0))
            rep = pk.theorem22_report(a, tol=TOL)
            worst = max(worst, *(c.residual for c in rep.checks))
            ok = ok and rep.passed
    assert verdict(
        5,
        ok and worst <= TOL,
        f"ten structure checks on q in {{1, 1/2}}, dims {{4, 8, 16}}, "
        f"worst residual {worst:.3e}",
    )


def _model_pool(dims, q=0.5):
    pool = []
    for d in dims:
        a = pk.build(pk.q_oscillator(d, q, 1.0))
        pool.append(pk.graded_model_for(a, tol=TOL))
    return pool


def test_criterion_06_graded_ring():
    rng = np.random.default_rng(1006)
    pool = _model_pool((4, 6, 8, 12, 16))
    violations = 0
    worst = 0.0
    for i in range(200):
        model = pool[i % len(pool)]
        bw = int(rng.integers(1, 4))
        g1 = pk.random_element(model, rng, bandwidth=bw)
        g2 = pk.random_element(model, rng, bandwidth=bw)
        lhs = pk.realize(pk.graded_mul(g1, g2))
        rhs = pk.realize(g1) @ pk.realize(g2)
        scale = 1.0 + pk.operator_norm(pk.realize(g1)) * pk.operator_norm(
            pk.realize(g2)
        )
        gap = pk.operator_norm(lhs - rhs) / scale
        worst = max(worst, gap)
        if gap > TOL:
            violations += 1
    ok = violations == 0
    assert verdict(
        6,
        ok,
        f"graded products vs dense, 200 pairs bandwidth <= 3 dim <= 16, "
        f"worst scaled gap {worst:.3e}",
    )


def test_criterion_07_property_star_and_sandwich():
    rng = np.random.default_rng(1007)
    shift = pk.graded_model_for(
        pk.build(pk.weighted_shift((1.0, np.sqrt(2.0), np.sqrt(3.0)))), tol=TOL
    )
    pool = [shift] + _model_pool((8, 16))
    violations = 0
    for model in pool:
        for _ in range(100):
            bw = int(rng.integers(1, 4))
            b = pk.random_element(model, rng, bandwidth=bw)
            nb = pk.operator_norm(pk.realize(b))
            n_band = max((abs(d) for d in b.degrees), default=0)
            slack = TOL * (1.0 + nb) ** 2
            if pk.operator_norm(b.coefficient(0)) > nb + slack:
                violations += 1
            bb = pk.graded_mul(b, pk.graded_adjoint(b))
            center = pk.operator_norm(bb.coefficient(0))
            if center > nb * nb + slack:
                violations += 1
            if nb * nb > (2 * n_band + 1) * center + slack:
                violations += 1
    ok = violations == 0
    assert verdict(
        7,
        ok,
        f"coefficient bound and center sandwich, 100 elements x "
        f"{len(pool)} models, {violations} violations",
    )


def test_criterion_08_norm_formula():
    t0 = time.perf_counter()
    model = pk.graded_model_for(pk.build(pk.weighted_shift((1.0, 1.0, 1.0))), tol=TOL)
    p1 = model.range_projection(1)
    g = model.element({-1: p1, 1: p1}, enforce_support=True)
    est = pk.norm_estimate(g, kmax=64)
    dense = pk.operator_norm(pk.realize(g))
    target = 2.0 * np.cos(np.pi / 5.0)
    rel = abs(est.final - target) / target
    envelope = all(
        s_k <= dense + TOL and dense <= est.upper_bound(k, s_k) + TOL
        for k, s_k in est.estimates
    )
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.05 and envelope and abs(dense - target) <= 1e-12 and elapsed < 30.0
    assert verdict(
        8,
        ok,
        f"norm estimate for U + U*: final {est.final:.6f} vs 2cos(pi/5) "
        f"{target:.6f} (rel {rel:.4f}), envelope at "
        f"{len(est.estimates)} checkpoints, {elapsed:.2f}s",
    )


def test_criterion_09_sum_norm_lemma():
    rng = np.random.default_rng(1009)
    violations = 0
    for i in range(200):
        m = 1 + i % 5
        n = int(rng.integers(2, 11))
        ds = [random_matrix(rng, n) for _ in range(m)]
        rep = pk.sum_norm_inequalities(ds, tol=TOL)
        if not rep.passed:
            violations += 1
    ok = violations == 0
    assert verdict(
        9,
        ok,
        f"four sum-norm inequalities, 200 tuples m <= 5 dim <= 10, "
        f"{violations} violations",
    )


def test_criterion_10_word_engine():
    rng = np.random.default_rng(1010)
    spec = pk.q_oscillator(32, 0.5, 1.0)
    a = pk.build(spec)
    phi_num = pk.phi_for(spec)
    phi_exact = pk.PhiMap.affine_exact(Fraction(1, 2), 1)
    worst = 0.0
    forms = []
    for _ in range(200):
        length = int(rng.integers(1, 7))
        w = tuple(GEN if rng.integers(2) else GEN_STAR for _ in range(length))
        nf = pk.normal_order(w, phi_num)
        gap = pk.operator_norm(
            (pk.evaluate(w, a) - pk.evaluate(nf, a))
            @ pk.interior_projection(32, len(w))
        )
        worst = max(worst, gap)
        forms.append(pk.normal_order(w, phi_exact))
    degree_exact = True
    for i in range(0, 200, 2):
        n1, n2 = forms[i], forms[i + 1]
        prod = pk.nf_mul(n1, n2, phi_exact)
        degree_exact = degree_exact and prod.degree == n1.degree + n2.degree
    ok = worst <= 1e-8 and degree_exact
    assert verdict(
        10,
        ok,
        f"normal order vs evaluation, 200 words len <= 6 in dim-32 "
        f"q-model, worst interior gap {worst:.3e}; degree additive on "
        "100 products",
    )


@dataclass(frozen=True)
class TransportReport:
    final_a: float
    final_b: float
    final_gap: float
    dense_a: float
    dense_b: float
    dense_gap: float
    passed: bool


def transport_compare(g, model_a, model_b, perm, kmax=64, final_tol=1e-6, dense_tol=1e-9):
    """Unitary-transport consistency between a model and a relabeled copy.

    ``perm`` maps basis index i of model_a to perm[i] of model_b; model_b's
    isometry must equal the conjugated one (:class:`ModelMismatch`
    otherwise).  The graded element is transported coefficientwise and the
    norm estimates and dense norms of the two realizations are compared.
    """
    if g.model is not model_a:
        raise pk.ModelMismatch("graded element does not belong to model_a")
    n = model_a.dim
    if model_b.dim != n or len(perm) != n:
        raise pk.ModelMismatch("permutation or model dimensions do not match")
    w = np.zeros((n, n), dtype=np.complex128)
    w[np.asarray(perm, dtype=int), np.arange(n)] = 1.0
    mismatch = pk.operator_norm(w @ model_a.pair.u @ w.conj().T - model_b.pair.u)
    if mismatch > model_a.tol * (1.0 + pk.operator_norm(model_a.pair.u)):
        raise pk.ModelMismatch(f"model_b is not the permutation-conjugated copy (gap {mismatch:.3e})")
    g2 = model_b.element(
        {d: w @ c @ w.conj().T for d, c in g.coefficients.items()}, enforce_support=True
    )
    final_a = pk.norm_estimate(g, kmax=kmax).final
    final_b = pk.norm_estimate(g2, kmax=kmax).final
    dense_a = pk.operator_norm(pk.realize(g))
    dense_b = pk.operator_norm(pk.realize(g2))
    final_gap, dense_gap = abs(final_a - final_b), abs(dense_a - dense_b)
    return TransportReport(
        final_a=final_a,
        final_b=final_b,
        final_gap=final_gap,
        dense_a=dense_a,
        dense_b=dense_b,
        dense_gap=dense_gap,
        passed=final_gap <= final_tol and dense_gap <= dense_tol,
    )


def test_criterion_11_transport():
    rng = np.random.default_rng(1011)
    a = pk.build(pk.q_oscillator(6, 0.5, 1.0))
    model_a = pk.graded_model_for(a, tol=TOL)
    worst = 0.0
    ok = True
    for _ in range(20):
        perm = rng.permutation(6)
        w = np.zeros((6, 6), dtype=complex)
        for i, t in enumerate(perm):
            w[t, i] = 1.0
        model_b = pk.graded_model_for(w @ a @ w.conj().T, tol=TOL)
        g = pk.random_element(model_a, rng, bandwidth=2)
        rep = transport_compare(g, model_a, model_b, perm, kmax=32)
        worst = max(worst, rep.final_gap)
        ok = ok and rep.passed
    assert verdict(
        11,
        ok,
        f"transport across 20 permuted copies, worst final gap {worst:.3e}",
    )


def test_criterion_12_determinism():
    config = pk.config_from_json(
        {
            "models": [
                {"kind": "weighted_shift", "weights": [1.0, 1.4142135623730951, 1.7320508075688772]},
                {"kind": "q_oscillator", "dim": 8, "q": 0.5, "h": 1.0},
                {"kind": "jordan_block", "dim": 3},
            ],
            "suites": ["polar", "isometry", "tower", "theorem22", "graded", "norm_formula", "words"],
            "seed": 12,
            "kmax": 32,
        }
    )
    r1 = pk.report_to_json(pk.run_suite(config))
    r2 = pk.report_to_json(pk.run_suite(config))
    ok = r1 == r2
    assert verdict(
        12, ok, f"run_suite byte-identical over two runs ({len(r1)} bytes)"
    )
