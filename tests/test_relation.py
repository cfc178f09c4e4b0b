import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarkit as pk
from polarkit.algebra import _atom_means
from polarkit.relation import (
    _GRAM_ROUNDOFF,
    Analysis,
    _combination_norms,
    _graded_atom_gram_defect,
)

from conftest import zoo_specs
from span_closure import algebras_equal, contains, generate


def test_verify_I1_shift_table(shift4):
    cert = pk.verify_I1(shift4)
    assert cert.holds and cert.conjugate_holds
    table = {round(ev, 9): round(val.real, 9) for ev, val in cert.gamma_table}
    assert table == {0.0: 3.0, 1.0: 0.0, 2.0: 1.0, 3.0: 2.0}


def test_verify_I1_booleans_agree_on_zoo(unit_shift4, q_half_8):
    for a in (
        unit_shift4,
        q_half_8,
        pk.build(pk.normal((1.0, 2.0, 3.0j))),
        pk.build(pk.jordan_block(3)),
    ):
        cert = pk.verify_I1(a)
        assert cert.holds == cert.conjugate_holds


def test_verify_I1_jordan_names_offender():
    cert = pk.verify_I1(pk.build(pk.jordan_block(3)))
    assert not cert.holds
    assert cert.offending_eigenvalue == pytest.approx(1.0)


def test_nonunital_seed_excludes_kernel(shift4):
    pos = pk.polar_decompose(shift4).pos
    seed = pk.nonunital_seed(pos)
    # eigenvalues 1, sqrt2, sqrt3 contribute; the kernel eigenprojection does not
    assert seed.dimension == 3
    eye = np.eye(4, dtype=complex)
    ok, _ = contains(seed, eye)
    assert not ok


def test_theorem22_on_reference_shift(shift4):
    rep = pk.theorem22_report(shift4)
    assert rep.passed
    assert rep.worst <= 1e-9
    names = {c.name for c in rep.checks}
    assert {
        "initial_projection_in_bicommutant",
        "range_projections_in_bicommutant",
        "projection_families_commute",
        "power_reduction",
        "range_projections_idempotent",
        "ordered_products_nest",
        "delta_morphism_on_seed",
        "delta_powers_in_extended_algebra",
        "range_projection_absorbs_image",
        "delta_star_delta_identity",
    } <= names


def test_theorem22_rejects_relation_violator():
    with pytest.raises(pk.RelationViolated):
        pk.theorem22_report(pk.build(pk.jordan_block(3)))


def test_theorem22_kmax_must_be_at_least_one(shift4):
    for kmax in (0, -1):
        with pytest.raises(ValueError, match="^kmax must be at least 1$"):
            pk.theorem22_report(shift4, kmax=kmax)
    assert pk.theorem22_report(shift4, kmax=1).kmax == 1


def test_theorem22_q_models():
    for q, dim in ((1.0, 4), (0.5, 8)):
        a = pk.build(pk.q_oscillator(dim, q, 1.0))
        rep = pk.theorem22_report(a)
        assert rep.passed, rep.by_name


def _haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    moduli=st.sampled_from([(1.0,), (0.5, 2.0), (0.0, 1.0, 3.0)]),
    conjugate=st.booleans(),
)
def test_seed_is_its_own_bicommutant(seed, n, moduli, conjugate):
    """Normal operators with repeated moduli (unitary ones when the only
    modulus is 1), optionally in a random unitary basis: C*(1, |a|) equals
    the Kronecker bicommutant, and the two bicommutant checks of
    theorem22_report, which read the seed, give the bicommutant's verdicts."""
    rng = np.random.default_rng(seed)
    diag = rng.choice(moduli, size=n) * np.exp(2j * np.pi * rng.random(n))
    a = np.diag(diag)
    if conjugate:
        w = _haar_unitary(rng, n)
        a = w @ a @ w.conj().T
    an = Analysis(a)
    bicom = pk.bicommutant(an.seed)
    assert algebras_equal(bicom, an.seed)[0]
    rep = pk.theorem22_report(an)
    p, q = pk.power_projections(an.pd.u, n)
    scale = 1.0 + pk.operator_norm(a)
    thr = an.tol * (scale * scale)
    oracle = {
        "initial_projection_in_bicommutant": bicom.residual(q[1]) <= thr,
        "range_projections_in_bicommutant": bicom.residual(p[1:]) <= thr,
    }
    assert {name: rep.by_name(name).passed for name in oracle} == oracle
    assert all(oracle.values())


def test_theorem22_builds_no_commutant(monkeypatch, q_half_8):
    import polarkit.algebra as algebra

    calls = []

    def counting(*args, _orig=algebra.commutant, **kwargs):
        calls.append(args)
        return _orig(*args, **kwargs)

    monkeypatch.setattr(algebra, "commutant", counting)
    unitary = pk.build(pk.normal([1.0, 1j, -1.0, 2.0]))  # |a| = diag(1, 1, 1, 2)
    for a in (q_half_8, unitary):
        assert pk.theorem22_report(a).passed
    assert calls == []


def test_coefficient_algebra_reference_shift(shift4):
    rep = pk.coefficient_algebra(shift4)
    assert rep.passed
    assert rep.algebra.dimension == 4  # the full diagonal algebra
    assert rep.tower.hypotheses.weak_holds
    for name, (ok, res) in rep.structure.items():
        assert ok, (name, res)


def test_coefficient_algebra_is_commutative_and_invariant(q_half_8):
    rep = pk.coefficient_algebra(q_half_8)
    alg = rep.algebra
    assert pk.is_commutative(alg)[0]
    pd = pk.polar_decompose(q_half_8)
    pair = pk.endo_pair(pd.u)
    worst = 0.0
    for b in alg.basis:
        for image in (pair.delta(b), pair.delta_star(b)):
            _, res = contains(alg, image)
            worst = max(worst, res)
    assert worst <= 1e-9


def test_q_half_oscillator_at_32_builds_its_graded_model():
    # the level gaps of |a| (about 9e-10) merge atoms of the seed; the delta
    # images split them again, and the tower needs no span closure to do it
    an = Analysis(pk.build(pk.q_oscillator(32, 0.5, 1.0)))
    assert an.seed.dimension < 32
    assert pk.graded_model_for(an).algebra.dimension == 32


def test_graded_model_for_skips_relation_gate(unit_shift4):
    # verify_I1 fails for the unit-weight shift, yet the graded model exists
    assert not pk.verify_I1(unit_shift4).holds
    model = pk.graded_model_for(unit_shift4)
    assert model.dim == 4
    assert model.algebra.dimension == 4


def test_build_calB_reference_shift(shift4):
    alg, graded = pk.build_calB(shift4)
    assert alg.dimension == 16  # {1, |a|, U} generates the full matrix algebra
    assert max(g.bandwidth for g in graded) == 3
    worst = 0.0
    for b, g in zip(alg.basis, graded):
        worst = max(worst, pk.operator_norm(b - pk.realize(g)))
    assert worst <= 1e-9


def test_build_calB_coefficients_live_in_coefficient_algebra(shift4):
    rep = pk.coefficient_algebra(shift4)
    _, graded = pk.build_calB(shift4)
    worst = 0.0
    for g in graded:
        for c in g.coefficients.values():
            _, res = contains(rep.algebra, c)
            worst = max(worst, res)
    assert worst <= 1e-9


CALB_TOL = 1e-9


def _calB_operator(name):
    """Operator and its unconjugated copy for the build_calB cases; the
    Haar-conjugated ones take their unitary from rng seed 7."""
    plain = {
        "shift4": pk.weighted_shift((1.0, np.sqrt(2.0), np.sqrt(3.0))),
        "osc8": pk.q_oscillator(8, 0.5, 1.0),
        "zoo_normal": pk.model_spec_from_json(
            next(s for s in zoo_specs() if s["kind"] == "normal")
        ),
        "normal6": pk.normal((1.0, 1j, -1.0, 2.0, 2j, 0.5)),
    }[name.removesuffix("_conj")]
    a = pk.build(plain)
    if name.endswith("_conj"):
        w = _haar_unitary(np.random.default_rng(7), a.shape[0])
        return w @ a @ w.conj().T, pk.build(plain)
    return a, a


CALB_CASES = ("shift4", "osc8", "shift4_conj", "osc8_conj", "zoo_normal", "normal6")


@pytest.mark.parametrize("name", CALB_CASES)
def test_build_calB_from_graded_atoms(name):
    a, plain = _calB_operator(name)
    an = Analysis(a, CALB_TOL)
    alg, graded = pk.build_calB(an)
    basis = alg.basis
    k, n = len(basis), a.shape[0]
    flat = basis.reshape(k, -1)
    assert np.abs(flat.conj() @ flat.T - np.eye(k)).max() <= 1e-12
    assert alg.residual(np.array([np.eye(n), an.pd.pos, an.pd.u])) <= CALB_TOL
    products = (basis[:, None] @ basis[None, :]).reshape(-1, n, n)
    assert alg.residual(np.concatenate((products, basis.conj().transpose(0, 2, 1)))) <= CALB_TOL
    model = an.model
    assert len(graded) == k
    for b, g in zip(basis, graded):
        assert g.model is model
        coeffs = np.array(list(g.coefficients.values()))
        assert model.algebra.residual(coeffs) <= CALB_TOL
        for d, c in g.coefficients.items():
            p = model.range_projection(abs(d))
            assert pk.operator_norm(np.array([p @ c - c, c @ p - c])) <= CALB_TOL
        assert pk.operator_norm(pk.realize(g) - b) <= CALB_TOL
    assert k == pk.build_calB(plain)[0].dimension
    closure = generate([*an.seed.basis, an.pd.u], unital=True)
    assert k == closure.dimension


def test_build_calB_conjugated_sqrt_shift_matches_its_plain_copy():
    # the span closure of {C*(1, |a|), U} overflows (DimensionOverflow) on
    # this copy, so its dimension is compared with the plain copy's only
    plain = pk.build(pk.weighted_shift(np.sqrt(np.arange(1.0, 12.0))))
    rng = np.random.default_rng(7)
    w, _ = np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    alg, graded = pk.build_calB(w @ plain @ w.conj().T)
    assert alg.dimension == pk.build_calB(plain)[0].dimension == 144
    assert max(g.bandwidth for g in graded) == 11


def _conjugated_oscillator(n):
    """Q q_oscillator(n, 1/2, 1) Q* for Q from the QR of a complex Gaussian
    of rng seed 7: the atoms of its double closure carry the eigenvector
    error of |a|, whose level gaps are about 2^-n."""
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q @ pk.build(pk.q_oscillator(n, 0.5, 1.0)) @ q.conj().T


def _span_gram_defect(model):
    """Largest entry of G - I for the graded atoms, from their n^2 x n^2 Gram."""
    alg, n = model.algebra, model.dim
    projs = np.array([model.range_projection(k) for k in range(1, n)])
    under = _atom_means(alg._vh @ projs @ alg.v, alg._ranges).real > 0.5
    b = alg.basis
    mats = [b]
    for k in range(1, n):
        xs = np.flatnonzero(under[k - 1])
        mats += [b[xs] @ model.power(k), model._power_star(k) @ b[xs]]
    flat = np.concatenate(mats).reshape(-1, n * n)
    return np.abs(flat.conj() @ flat.T - np.eye(len(flat))).max(), under


@pytest.mark.parametrize("name", ("shift4", "shift4_conj", "osc8_conj", "osc16_conj"))
def test_graded_atom_gram_defect_matches_the_span_gram(name):
    a = _conjugated_oscillator(16) if name == "osc16_conj" else _calB_operator(name)[0]
    model = Analysis(a, CALB_TOL).model
    want, under = _span_gram_defect(model)
    got = _graded_atom_gram_defect(model, under)
    assert abs(got - want) <= 1e-14 + 1e-3 * want
    assert (got > _GRAM_ROUNDOFF) == (name == "osc16_conj")


@pytest.mark.parametrize("n", (16, 20))
def test_build_calB_keeps_a_conjugated_oscillator_basis_orthonormal(n):
    # the graded atoms alone are 1.8e-11 (n = 16) and 6.2e-10 (n = 20) from
    # orthonormal, so B's basis comes from the thin SVD of their span
    an = Analysis(_conjugated_oscillator(n), CALB_TOL)
    alg, graded = pk.build_calB(an)
    assert alg.dimension == n * n
    flat = alg.basis.reshape(n * n, -1)
    assert np.abs(flat.conj() @ flat.T - np.eye(n * n)).max() <= 1e-12
    assert alg.residual(an.pd.u) <= 1e-3 * CALB_TOL
    assert max(g.bandwidth for g in graded) == n - 1
    for b, g in zip(alg.basis[::37], graded[::37]):
        assert pk.operator_norm(pk.realize(g) - b) <= CALB_TOL


def test_combinations_the_atom_bounds_do_not_clear_are_checked_by_element(shift4, monkeypatch):
    model = Analysis(shift4).model
    alg = model.algebra
    checked = []
    element = model.element
    monkeypatch.setattr(model, "element", lambda c: checked.append(c) or element(c))
    xs = np.arange(alg.dimension)
    weights = np.eye(xs.size)
    # exact atoms clear every combination of degree 0 by the bounds alone
    norms = _combination_norms(model, np.zeros(xs.size), 0, weights, xs)
    assert checked == [] and np.allclose(norms, 1.0)
    # with each atom's defect taken as 1 none is cleared, and each passes element
    assert np.array_equal(_combination_norms(model, np.ones(xs.size), 0, weights, xs), norms)
    assert len(checked) == xs.size
    # the atom on e_0 lies outside P_1: its leak bound is 1, and element names it
    first = np.flatnonzero(np.abs(alg.basis[:, 0, 0]) > 0.5)
    assert first.size == 1
    with pytest.raises(pk.SupportViolation, match="^degree-1 coefficient leaks"):
        _combination_norms(model, np.zeros(xs.size), 1, np.eye(1), first)
