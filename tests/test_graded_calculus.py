"""The graded calculus on atom values against the dense per-pair product.

The reference implementations below are the graded product and norm
estimate on dense coefficients: every term is a product of n x n
matrices through powers of u, every range projection and conjugation is
recomputed per call, every term is formed and then truncated, every
coefficient norm is its own SVD, and the last squaring of the estimate
forms every degree.  The package runs the same products as gathers over
the atoms of the coefficient algebra, so it must give the same degrees
and recorded k, coefficients within 1e-12 (1 + ||g1||)(1 + ||g2||)
(2e-11 on the one model whose atom maps are not exact to round-off, see
PRODUCT_BOUND) and each s_k within 1e-12 relative.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarkit as pk
import polarkit.graded as graded
from polarkit.graded import COEFF_DROP
from polarkit.linalg import dagger
from polarkit.relation import Analysis
from polarkit.report import SUITE_ORDER

from conftest import zoo_specs
from span_closure import basis_of


def ref_norm(m) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


def ref_power(model, k):
    return np.linalg.matrix_power(model.pair.u, k)


def ref_range_projection(model, k):
    uk = ref_power(model, k)
    return uk @ dagger(uk)


def ref_delta_k(model, m, k):
    uk = ref_power(model, k)
    return uk @ m @ dagger(uk)


def ref_delta_star_k(model, m, k):
    uk = ref_power(model, k)
    return dagger(uk) @ m @ uk


def ref_term_product(model, m, beta, n, gamma):
    if m >= 0 and n >= 0:
        return m + n, beta @ ref_delta_k(model, gamma, m)
    if m <= 0 and n <= 0:
        return m + n, ref_delta_k(model, beta, -n) @ gamma
    if m > 0 and n < 0:
        r = -n
        if m >= r:
            return m - r, beta @ ref_delta_k(model, ref_range_projection(model, r) @ gamma, m - r)
        return -(r - m), ref_delta_k(model, beta @ ref_range_projection(model, m), r - m) @ gamma
    s = -m
    if n >= s:
        return n - s, ref_delta_star_k(model, beta @ gamma, s)
    return -(s - n), ref_delta_star_k(model, beta @ gamma, n)


def ref_graded_mul(model, left, right):
    """The product of two degree -> coefficient maps, as such a map."""
    factors = [*left.values(), *right.values()]
    scale = max([1.0] + [ref_norm(c) for c in factors])
    acc = {}
    for m, beta in left.items():
        for n, gamma in right.items():
            # a term vanishes only with its P_|d|: at |d| >= dim on a
            # nilpotent u, never on a cycle
            d, raw = ref_term_product(model, m, beta, n, gamma)
            if d != 0:
                p = ref_range_projection(model, abs(d))
                raw = p @ raw @ p
            acc[d] = acc[d] + raw if d in acc else raw
    return {d: c for d, c in acc.items() if ref_norm(c) > COEFF_DROP * scale * scale}


def ref_prescaled(g):
    """The estimate's scale t, the dense norm of g, and g / t as a
    degree -> coefficient map."""
    t = pk.operator_norm(pk.realize(g))
    return t, {d: c / t for d, c in g.coefficients.items()}


def ref_norm_estimates(g, kmax):
    model = g.model
    t, h = ref_prescaled(g)
    c = ref_graded_mul(model, h, {-d: dagger(x) for d, x in h.items()})
    power = ref_graded_mul(model, c, c)
    zero = np.zeros((model.dim, model.dim), dtype=np.complex128)
    out = []
    k = 1
    while True:
        out.append((k, float(t * ref_norm(power.get(0, zero)) ** (1.0 / (4 * k)))))
        if 2 * k > kmax:
            break
        power = ref_graded_mul(model, power, power)
        k *= 2
    return tuple(out)


def _shift(n):
    return pk.build(pk.weighted_shift(np.sqrt(np.arange(1, n))))


def _haar_conjugated_shift(n, seed=7):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q @ _shift(n) @ dagger(q)


def _cyclic_unitary():
    # on a cyclic permutation P_k never vanishes, so no degree is truncated by u
    u = np.roll(np.eye(4), 1, axis=0).astype(complex)
    return pk.GradedModel(u, pk.spectral_algebra(np.diag([1.0, 2.0, 3.0, 4.0])))


MODELS = {
    **{f"shift{n}": (lambda n=n: pk.graded_model_for(_shift(n))) for n in (12, 16, 24)},
    **{
        f"zoo{i}_{spec['kind']}": (
            lambda spec=spec: pk.graded_model_for(pk.build(pk.model_spec_from_json(spec)))
        )
        for i, spec in enumerate(zoo_specs()[:5])
    },
    "q_oscillator8": lambda: pk.graded_model_for(pk.build(pk.q_oscillator(8, 0.5, 1.0))),
    "haar_shift8": lambda: pk.graded_model_for(_haar_conjugated_shift(8)),
    "cyclic_unitary4": _cyclic_unitary,
    "q_oscillator32": lambda: pk.graded_model_for(pk.build(pk.q_oscillator(32, 0.5, 1.0))),
}


@pytest.fixture(scope="module", params=list(MODELS))
def model(request):
    return MODELS[request.param]()


def _close(g, ref, bound):
    """g's coefficients against the degree -> coefficient map ref."""
    assert sorted(g.coefficients) == sorted(ref)
    for d, c in ref.items():
        assert ref_norm(g.coefficients[d] - c) <= bound, f"degree {d}"


# The dense product moves coefficients through the matrix U, the atom
# product through U's 0/1 maps on the atoms, so the two agree to round-off
# wherever those maps are exact.  q_oscillator32's seed merges |a|
# eigenvalues about 9e-10 apart, so its maps carry a tie of 7.4e-11 and
# the two products part by up to 1.7e-11 (1 + ||g1||)(1 + ||g2||): there
# the dense product's coefficients leave A by up to 8.5e-10, while the
# atom product's stay in A.
PRODUCT_BOUND = {"q_oscillator32": 2e-11}


def test_graded_mul_matches_per_pair_reference(model, request):
    rel = PRODUCT_BOUND.get(request.node.callspec.params["model"], 1e-12)
    rng = np.random.default_rng(11)
    for b1, b2 in ((1, 1), (1, 3), (3, 2), (2, 3), (3, 3)):
        g1 = pk.random_element(model, rng, bandwidth=b1)
        g2 = pk.random_element(model, rng, bandwidth=b2)
        g1s = pk.graded_adjoint(g1)
        for x, y in ((g1, g2), (g1, g1), (g1, g1s)):
            bound = rel * (1.0 + ref_norm(pk.realize(x))) * (1.0 + ref_norm(pk.realize(y)))
            _close(pk.graded_mul(x, y), ref_graded_mul(model, x.coefficients, y.coefficients), bound)


def _close_estimates(got, want):
    assert [k for k, _ in got] == [k for k, _ in want]
    for (k, s), (_, r) in zip(got, want):
        assert abs(s - r) <= 1e-12 * r, f"k = {k}"


def _nilpotent(model):
    return ref_norm(np.linalg.matrix_power(model.pair.u, model.dim)) <= 1e-9


@pytest.mark.parametrize("band", (1, 3))
def test_norm_estimate_matches_per_pair_reference(model, band):
    g = pk.random_element(model, np.random.default_rng([12, band]), bandwidth=band)
    if not _nilpotent(model):
        # on a cycle degree 0 also reads the degrees that wrap around it
        with pytest.raises(pk.ModelMismatch, match="^u is not nilpotent"):
            pk.norm_estimate(g, kmax=64)
        return
    est = pk.norm_estimate(g, kmax=64)
    _close_estimates(est.estimates, ref_norm_estimates(g, 64))
    assert est.dense_norm == ref_prescaled(g)[0]
    for kmax in (1, 3):
        _close_estimates(pk.norm_estimate(g, kmax=kmax).estimates, ref_norm_estimates(g, kmax))


def test_products_on_a_cycle_keep_every_degree():
    # U^4 = 1 on the 4-cycle, so no power of U vanishes and degree 4 of
    # g g is the coefficient of U^4 = 1, not a truncated term
    model = _cyclic_unitary()
    g = model.element({2: np.eye(4)})
    gg = pk.graded_mul(g, g)
    assert list(gg.coefficients) == [4]
    assert ref_norm(pk.realize(gg) - np.eye(4)) <= 1e-15
    rng = np.random.default_rng(14)
    for b1 in range(1, 4):
        for b2 in range(1, 4):
            g1 = pk.random_element(model, rng, bandwidth=b1)
            g2 = pk.random_element(model, rng, bandwidth=b2)
            r1, r2 = pk.realize(g1), pk.realize(g2)
            got = pk.realize(pk.graded_mul(g1, g2))
            assert ref_norm(got - r1 @ r2) <= 1e-12 * (1.0 + ref_norm(r1)) * (1.0 + ref_norm(r2))


def test_last_square_forms_only_degree_zero(monkeypatch):
    model = pk.graded_model_for(_shift(12))
    g = pk.random_element(model, np.random.default_rng(3), bandwidth=3)
    assert g.bandwidth == 3
    calls = []

    def recording(gathers, left, right, degree=None, _orig=graded._product):
        out = _orig(gathers, left, right, degree)
        calls.append((degree, out[0].tolist()))
        return out

    monkeypatch.setattr(graded, "_product", recording)
    pk.norm_estimate(g, kmax=64)
    # g g*, its squares for k = 1, 2, .., 32, then the last square for k = 64
    assert [degree for degree, _ in calls] == [None] * 7 + [0]
    assert calls[-1][1] == [0]
    assert len(calls[-2][1]) > 1


class _CountingMatmul(np.ndarray):
    """An array that counts the matrix products it takes part in."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingMatmul.calls += 1
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


@pytest.mark.parametrize("name", ["shift12", "haar_shift8", "q_oscillator32"])
def test_range_projection_is_formed_from_the_power_table(name):
    # the table holds T_k = V* u^k, so u^k is V T_k and P_k = u^k u*^k
    # is formed from it, within round-off of numpy's matrix powers
    model = MODELS[name]()
    for k in (0, 1, 3):
        uk = ref_power(model, k)
        assert np.array_equal(model.power(k), model.algebra.v @ model._powers(k)[k])
        assert ref_norm(model.power(k) - uk) <= 1e-12 * (1.0 + ref_norm(uk))
        p = ref_range_projection(model, k)
        assert ref_norm(model.range_projection(k) - p) <= 1e-12
    # neither the table nor a returned power can be changed
    for m in (model.power(3), model._powers(3)):
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


def _e(i, j, n=4):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def test_element_errors_name_the_first_bad_degree_in_caller_order():
    model = pk.graded_model_for(pk.build(pk.weighted_shift((1.0, np.sqrt(2.0), np.sqrt(3.0)))))
    h = _e(2, 3) + _e(3, 2)  # off-diagonal: not in the diagonal algebra, under P_2
    e1 = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)  # under P_1, not under P_2
    e2 = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
    # degree -1 sorts first, but degree 2 comes first in the caller's order
    for enforce in (False, True):
        with pytest.raises(pk.ModelMismatch) as exc:
            model.element({0: np.eye(4), 2: 3 * h, -1: 2 * h}, enforce_support=enforce)
        assert str(exc.value) == (
            "degree-2 coefficient is not in the coefficient algebra (residual 3.000e+00)"
        )
    with pytest.raises(pk.SupportViolation) as exc:
        model.element({1: e1, 3: 2 * e1, -2: e1, 2: e2})
    assert str(exc.value) == (
        "degree-3 coefficient leaks outside its range projection (defect 2.000e+00)"
    )
    # a malformed coefficient is reported only after the degrees before it pass
    with pytest.raises(pk.ModelMismatch, match="^degree-0 coefficient is not in"):
        model.element({0: h, 1: np.eye(3)})
    with pytest.raises(pk.ModelMismatch, match="^degree-0 coefficient is not in"):
        model.element({0: h, 1: np.ones((4, 3))})
    with pytest.raises(pk.ModelMismatch, match="^coefficient dimension does not match"):
        model.element({0: np.eye(4), 1: np.eye(3), 2: h})
    not_square = r"^expected a square complex matrix, got ndarray of shape \(4, 3\)$"
    with pytest.raises(pk.InvalidSpec, match=not_square):
        model.element({0: np.eye(4), 1: np.ones((4, 3)), 2: h})


def test_element_drops_coefficients_at_or_below_the_drop_threshold():
    model = pk.graded_model_for(pk.build(pk.weighted_shift((1.0, np.sqrt(2.0), np.sqrt(3.0)))))
    h = _e(2, 3) + _e(3, 2)
    e1 = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
    e2 = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
    # neither the non-member nor the leaking coefficient is checked once dropped
    g = model.element({0: COEFF_DROP * h, 2: COEFF_DROP * e1, 1: e2, -1: 0.5 * COEFF_DROP * h})
    assert list(g.coefficients) == [1]
    assert np.array_equal(g.coefficients[1], e2)
    g = model.element({0: 2 * COEFF_DROP * np.eye(4)})
    assert list(g.coefficients) == [0]


def test_norm_estimate_squarings_make_no_dense_product(monkeypatch):
    model = pk.graded_model_for(_shift(24))
    rng = np.random.default_rng(5)
    g = pk.random_element(model, rng, bandwidth=3)
    want = pk.norm_estimate(g, kmax=64)
    alg = model.algebra

    # every matrix a dense product could start from counts its products
    def counting(m):
        return m.view(_CountingMatmul)

    model._table = counting(model._table)
    object.__setattr__(model.pair, "u", counting(model.pair.u))
    object.__setattr__(alg, "v", counting(alg.v))
    alg.__dict__["_vh"] = counting(alg._vh)

    dense = []

    def realized(g, _orig=graded.realize):
        out = _orig(g)
        dense.append(_CountingMatmul.calls)
        _CountingMatmul.calls = 0
        return out

    monkeypatch.setattr(graded, "realize", realized)
    _CountingMatmul.calls = 0
    est = pk.norm_estimate(g, kmax=64)
    # the dense realization for the zero test takes products with the
    # table and the atom basis, then the squarings run on the carried
    # atom values only
    assert len(dense) == 1 and dense[0] >= 1
    assert _CountingMatmul.calls == 0
    assert est.estimates == want.estimates


def _non_invariant_model():
    # delta(diag(1, 1, 0, 0)) = diag(0, 1, 1, 0) is not in C*(1, diag(1, 1, 2, 2))
    u = np.eye(4, k=-1).astype(complex)
    return pk.GradedModel(u, pk.spectral_algebra(np.diag([1.0, 1.0, 2.0, 2.0])))


def _plain_algebra_model():
    u = np.eye(4, k=-1).astype(complex)
    basis = np.array([np.diag(np.eye(4)[i]) for i in range(4)]).astype(complex)
    return pk.GradedModel(u, pk.MatrixAlgebra(dim=4, basis=basis))


@pytest.mark.parametrize(
    "make, message",
    (
        (_non_invariant_model, "^delta does not map the coefficient algebra into itself"),
        (_plain_algebra_model, "^the coefficient algebra is not stored by its atoms"),
    ),
)
def test_product_on_a_model_without_atom_maps_is_a_model_mismatch(make, message):
    if make is _plain_algebra_model:
        # an algebra not stored by its atoms is refused when the model is built
        with pytest.raises(pk.ModelMismatch, match=message):
            make()
        return
    model = make()
    u = model.pair.u
    top = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)  # in the algebra, under P_1
    g = model.element({0: np.eye(4), 1: top, -1: 2 * top})
    assert sorted(g.coefficients) == [-1, 0, 1]
    assert np.array_equal(pk.realize(g), np.eye(4) + top @ u + 2 * dagger(u) @ top)
    with pytest.raises(pk.ModelMismatch, match=message):
        pk.graded_mul(g, g)
    with pytest.raises(pk.ModelMismatch, match=message):
        pk.norm_estimate(g)
    # element validation is unchanged: non-members and leaks are still named
    with pytest.raises(pk.ModelMismatch, match="^degree-0 coefficient is not in"):
        model.element({0: _e(0, 1)})
    with pytest.raises(pk.SupportViolation, match="^degree-1 coefficient leaks"):
        model.element({1: np.eye(4)})


def test_product_of_a_coefficient_outside_the_algebra_is_a_model_mismatch():
    # u is a shift-banded partial isometry and A = {diag(a, b, a, b)} is
    # mapped into itself by delta and delta_*, so the model has atom maps
    u = _e(1, 0) + _e(3, 2)
    model = pk.GradedModel(u, pk.spectral_algebra(np.diag([1.0, 2.0, 1.0, 2.0])))
    inside = model.element({0: np.diag([1.0, 2.0, 1.0, 2.0]), 1: np.diag([0.0, 1.0, 0.0, 1.0])})
    ref = ref_graded_mul(model, inside.coefficients, inside.coefficients)
    _close(pk.graded_mul(inside, inside), ref, 1e-15)
    # the degree-0 coefficient diag(1, 2, 3, 4) is not in A, though its
    # support is fine; every element carries certified atom values, so it
    # never reaches a product: element names it
    message = r"^degree-0 coefficient is not in the coefficient algebra \(residual 1\.000e\+00\)$"
    with pytest.raises(pk.ModelMismatch, match=message):
        model.element({0: np.diag([1.0, 2.0, 3.0, 4.0]), 1: u @ dagger(u)})
    # so is a coefficient off the atoms' blocks
    shift = pk.graded_model_for(_shift(4))
    h = _e(2, 3) + _e(3, 2)
    with pytest.raises(pk.ModelMismatch, match="^degree-0 coefficient is not in"):
        shift.element({0: h})


def test_product_coefficients_lie_under_their_range_projections():
    # gamma leaks 1e-12 outside P_2, well inside the element tolerance; the
    # degree-1 coefficient of (u* beta)(gamma u^2) = u* beta gamma u^2 would
    # carry that leak outside P_1 without the mask of P_1
    model = pk.graded_model_for(pk.build(pk.weighted_shift((1.0, np.sqrt(2.0), np.sqrt(3.0)))))
    beta = np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex)
    gamma = np.diag([0.0, 1e-12, 1.0, 1.0]).astype(complex)
    g1, g2 = model.element({-1: beta}), model.element({2: gamma})
    got = pk.graded_mul(g1, g2)
    assert list(got.coefficients) == [1]
    c, p = got.coefficients[1], model.range_projection(1)
    assert ref_norm(p @ c @ p - c) <= 1e-15
    _close(got, ref_graded_mul(model, g1.coefficients, g2.coefficients), 1e-15)


def test_element_product_and_estimate_share_one_membership_check(monkeypatch):
    model = pk.graded_model_for(_shift(8))
    g = pk.random_element(model, np.random.default_rng(4), bandwidth=2)
    read = []

    def recording(self, mats, degrees, norms, _orig=pk.GradedModel._atom_values):
        read.append(sorted(np.asarray(degrees).tolist()))
        return _orig(self, mats, degrees, norms)

    monkeypatch.setattr(pk.GradedModel, "_atom_values", recording)
    model.element(g.coefficients)
    pk.graded_mul(g, g)
    pk.norm_estimate(g, kmax=4)
    # element reads its coefficients once; product and estimate run on the
    # values the random element carries and read nothing
    assert read == [sorted(g.coefficients)]


def ref_random_element(model, rng, bandwidth):
    """The dense random element: per degree a combination of the basis of
    the coefficient algebra, projected by the dense P_|d| and validated by
    ``model.element``, from the same draws as ``random_element``."""
    b = min(bandwidth, model.dim - 1)
    k = model.algebra.dimension
    coeffs = {}
    for d in range(-b, b + 1):
        w = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        c = np.tensordot(w, basis_of(model.algebra), axes=(0, 0))
        if d != 0:
            p = ref_range_projection(model, abs(d))
            c = p @ c @ p
        coeffs[d] = c
    return model.element(coeffs)


@pytest.mark.parametrize("band", range(4))
def test_random_element_matches_the_dense_construction(model, band):
    rng, ref_rng = np.random.default_rng([13, band]), np.random.default_rng([13, band])
    g = pk.random_element(model, rng, bandwidth=band)
    ref = ref_random_element(model, ref_rng, band)
    assert list(g.coefficients) == list(ref.coefficients)
    for d, c in ref.coefficients.items():
        assert ref_norm(g.coefficients[d] - c) <= 1e-12 * (1.0 + ref_norm(c)), f"degree {d}"
    # the same draws, and an element the dense checks accept
    assert rng.standard_normal() == ref_rng.standard_normal()
    again = model.element(g.coefficients)
    assert list(again.coefficients) == list(g.coefficients)


def test_random_element_and_product_support_make_no_svd(monkeypatch, lapack_calls):
    model = pk.graded_model_for(_shift(24))
    model._gathers  # the atom maps are derived and tied to u once per model

    def refused(*args, **kwargs):
        raise AssertionError("random_element validated its own output")

    lapack_calls.clear()
    with monkeypatch.context() as m:
        m.setattr(pk.GradedModel, "element", refused)
        m.setattr(graded, "_check_support", refused)
        rng = np.random.default_rng(6)
        g1 = pk.random_element(model, rng, bandwidth=3)
        g2 = pk.random_element(model, rng, bandwidth=2)
    assert lapack_calls.calls["svd"] == 0
    assert list(g1.coefficients) == list(range(-3, 4))
    assert list(g2.coefficients) == list(range(-2, 3))
    pk.realize(pk.graded_mul(g1, g2))
    assert lapack_calls.calls["svd"] == 0


def ref_support_message(model, coefficients, tol):
    """The exact dense support check: the message for the first nonzero
    degree, in order, whose leak outside P_|d| exceeds tol (1 + ||c||)."""
    for d, c in coefficients.items():
        if d == 0:
            continue
        p = ref_range_projection(model, abs(d))
        defect = max(ref_norm(p @ c - c), ref_norm(c @ p - c))
        if defect > tol * (1.0 + ref_norm(c)):
            return (
                f"degree-{d} coefficient leaks outside its range projection (defect {defect:.3e})"
            )
    return None


def _refusal(check):
    """The type and message of the error ``check`` raises, or None."""
    try:
        check()
    except (pk.SupportViolation, pk.ModelMismatch) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("side", ("left", "right", "both"))
@pytest.mark.parametrize("factor", (0.5, 0.99, 1.01, 2.0))
def test_support_check_decides_as_the_dense_check_at_its_boundary(side, factor):
    # a leak of factor * tol (1 + ||c||) in P c - c, in c P - c or, for a
    # coefficient of the algebra, in both; ||c|| is 1 to round-off.  Degree
    # -1 comes first and leaks 0.6 times as much, so it is the offender
    # named at factor 2 and passes at 1.01.
    model = pk.graded_model_for(_shift(8))
    tol = model.tol
    p1, p2 = model.range_projection(1), model.range_projection(2)
    out = int(np.flatnonzero(np.diag(p1).real < 0.5)[0])
    inside = int(np.flatnonzero(np.diag(p2).real > 0.5)[0])
    leak = {"left": _e(out, inside, 8), "right": _e(inside, out, 8), "both": _e(out, out, 8)}[side]
    eps = factor * tol * 2.0
    coeffs = {0: np.eye(8), -1: p1 + 0.6 * eps * leak, 2: p2, 1: p1 + eps * leak}
    want = ref_support_message(model, coeffs, tol)
    named = {0.5: None, 0.99: None, 1.01: "degree-1 ", 2.0: "degree--1 "}[factor]
    assert want is None if named is None else want.startswith(named)
    got = _refusal(lambda: model.element(coeffs))
    if side == "both" or want is None:
        # element passes the operator norms it has taken
        assert got == (None if want is None else (pk.SupportViolation, want))
    else:
        # a one-sided leak does not commute with P_|d|, so it leaves the
        # commutative algebra by as much, and the membership check, which
        # runs first at the same threshold, names the same degree
        assert got[0] is pk.ModelMismatch
        assert got[1].startswith(named + "coefficient is not in the coefficient algebra")


# -- carried atom values ------------------------------------------------------


def _carrying_models():
    """The zoo's graded models, whose atom bases are permutations up to
    phase, so a rotation reads carried values back exactly, and a
    Haar-conjugated shift, where it reads them back at round-off."""
    models = []
    for spec in zoo_specs():
        try:
            models.append(Analysis(pk.build(pk.model_spec_from_json(spec))).model)
        except pk.PolarkitError:
            continue
    return models + [pk.graded_model_for(_haar_conjugated_shift(8))]


CARRYING_MODELS = _carrying_models()


def ref_realize(g):
    """Sum u*^|d| beta_d + beta_0 + beta_d u^d, each coefficient lifted to
    its dense matrix and multiplied by numpy's matrix power of u: one
    product per degree."""
    u = g.model.pair.u
    out = np.zeros_like(u)
    for d, c in g.coefficients.items():
        ud = np.linalg.matrix_power(u, abs(d))
        out += c @ ud if d >= 0 else dagger(ud) @ c
    return out


def _assert_certified(g):
    model = g.model
    degrees, values = g._atoms
    assert degrees.tolist() == list(g.coefficients)
    mats = np.array(list(g.coefficients.values())).reshape(-1, model.dim, model.dim)
    rotated = model._atom_values(mats, degrees, np.array([ref_norm(c) for c in mats]))
    for i, c in enumerate(mats):
        norm = ref_norm(c)
        assert np.abs(values[i] - rotated[i]).max() <= model.tol * (1.0 + norm)
        assert abs(g.coefficient_norm(degrees[i]) - norm) <= 1e-12 * (1.0 + norm)
    dense = ref_realize(g)
    assert ref_norm(pk.realize(g) - dense) <= 1e-12 * (1.0 + ref_norm(dense))


@pytest.mark.parametrize("band", (0, 1, 3))
def test_realize_matches_the_per_degree_lift(model, band):
    # single elements and stacks, over both sides of the degrees, one side
    # only, and none: A or B, or both, are then empty sums
    degrees, values = graded._draws(model, np.random.default_rng([17, band]), band, 4)
    sides = (degrees == degrees, degrees >= 0, degrees > 0, degrees <= 0, degrees < 0)
    for keep in sides:
        kept, stack = degrees[keep], values[:, keep]
        dense = graded._realize_values(model, kept, stack)
        assert dense.shape == (len(stack), model.dim, model.dim)
        for item, got in zip(stack, dense):
            g = model._lift(kept, item)
            want = ref_realize(g)
            bound = 1e-12 * (1.0 + ref_norm(want))
            assert ref_norm(pk.realize(g) - want) <= bound
            assert ref_norm(got - want) <= bound
    g = pk.random_element(model, np.random.default_rng([18, band]), bandwidth=band)
    want = ref_realize(g)
    assert ref_norm(pk.realize(g) - want) <= 1e-12 * (1.0 + ref_norm(want))


def test_realize_takes_the_same_products_at_any_bandwidth():
    # the per-degree lift took the lift and one product per nonzero degree,
    # 3 at bandwidth 1 and 11 at bandwidth 5; the table's rows take one
    # call for A and B, then V A and V B are the two dense products
    model = pk.graded_model_for(_shift(64))
    rng = np.random.default_rng(19)
    elements = [pk.random_element(model, rng, bandwidth=b) for b in (1, 5)]
    wants = [ref_realize(g) for g in elements]
    pk.realize(elements[1])  # the table grows to T_5 before the count

    def counting(m):
        return m.view(_CountingMatmul)

    alg = model.algebra
    model._table = counting(model._table)
    object.__setattr__(model.pair, "u", counting(model.pair.u))
    object.__setattr__(alg, "v", counting(alg.v))
    alg.__dict__["_vh"] = counting(alg._vh)
    counts = []
    for g, want in zip(elements, wants):
        _CountingMatmul.calls = 0
        got = pk.realize(g)
        counts.append(_CountingMatmul.calls)
        assert ref_norm(got - want) <= 1e-12 * (1.0 + ref_norm(want))
    assert counts == [3, 3]


def test_realizing_a_stack_forms_no_coefficient():
    # the per-degree lift traced a 10.3 MB peak on these 20 elements; the
    # rows of A and B take a block of items at a time, so the peak is the
    # 5.2 MB output and about one item's products
    model = pk.graded_model_for(_shift(128))
    degrees, values = graded._draws(model, np.random.default_rng(16), 3, 20)
    graded._realize_values(model, degrees, values)
    tracemalloc.start()
    try:
        graded._realize_values(model, degrees, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


@settings(max_examples=40, deadline=None)
@given(
    which=st.integers(0, len(CARRYING_MODELS) - 1),
    seed=st.integers(0, 2**32 - 1),
    b1=st.integers(0, 3),
    b2=st.integers(0, 3),
)
def test_built_elements_carry_the_atom_values_of_their_coefficients(which, seed, b1, b2):
    model = CARRYING_MODELS[which]
    rng = np.random.default_rng(seed)
    g1 = pk.random_element(model, rng, bandwidth=b1)
    g2 = pk.random_element(model, rng, bandwidth=b2)
    built = [
        g1,
        pk.graded_mul(g1, g2),
        pk.graded_adjoint(g2),
        model.element({d: np.array(c) for d, c in g2.coefficients.items()}),
    ]
    for g in built:
        _assert_certified(g)


def test_carried_values_cannot_go_stale():
    model = pk.graded_model_for(_shift(8))
    g = pk.random_element(model, np.random.default_rng(9), bandwidth=2)
    with pytest.raises(TypeError):
        g.coefficients[5] = np.eye(8)
    for a in (g.coefficients[1], g._atoms[0], g._atoms[1]):
        with pytest.raises(ValueError):
            a[0] = 0
    # element copies the caller's coefficients and leaves them writable
    c = np.array(g.coefficients[0])
    h = model.element({0: c})
    c[0, 0] += 1.0
    assert np.array_equal(h.coefficients[0], g.coefficients[0])
    assert c.flags.writeable


def test_only_a_read_of_the_coefficients_lifts_them(monkeypatch):
    model = pk.graded_model_for(_shift(8))
    lifts = []

    def counting(self, values, _orig=pk.GradedModel._coefficients):
        lifts.append(values.shape)
        return _orig(self, values)

    monkeypatch.setattr(pk.GradedModel, "_coefficients", counting)
    rng = np.random.default_rng(11)
    g1 = pk.random_element(model, rng, bandwidth=2)
    g2 = pk.random_element(model, rng, bandwidth=1)
    h = pk.graded_adjoint(pk.graded_mul(g1, g2))
    assert h.bandwidth == 3
    assert h.coefficient_norm(1) <= h.coefficient_norm()
    assert lifts == []
    # the estimate's dense zero test realizes its input from the values
    pk.norm_estimate(h, kmax=8)
    assert lifts == []
    assert list(h.coefficients) == h._atoms[0].tolist()
    assert lifts == [h._atoms[1].shape]
    first = g1.coefficients
    assert g1.coefficients is first
    assert lifts[1:] == [g1._atoms[1].shape]


def test_element_keeps_the_lift_of_the_values_it_read():
    model = pk.graded_model_for(_haar_conjugated_shift(8))
    rng = np.random.default_rng(12)
    g = pk.random_element(model, rng, bandwidth=2)
    given = {}
    for d, c in g.coefficients.items():
        # a defect well inside the membership bound, under P_|d|
        p = model.range_projection(abs(d))
        e = p @ (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) @ p
        given[d] = c + 0.1 * model.tol * e / ref_norm(e)
    h = model.element(given)
    lifted = model._coefficients(h._atoms[1])
    assert list(h.coefficients) == list(given)
    for (d, c), want in zip(h.coefficients.items(), lifted):
        assert np.array_equal(c, want), f"degree {d}"
        assert 0.0 < ref_norm(c - given[d]) <= model.tol * (1.0 + ref_norm(given[d]))


def test_norm_estimate_keeps_its_dense_norm():
    model = pk.graded_model_for(_shift(12))
    for g in (
        pk.random_element(model, np.random.default_rng(10), bandwidth=2),
        model.element({1: model.range_projection(1)}),
    ):
        est = pk.norm_estimate(g, kmax=8)
        assert est.dense_norm == pk.operator_norm(pk.realize(g))


def test_zoo_pass_checks_support_only_for_given_coefficients(monkeypatch):
    config = pk.config_from_json({"models": zoo_specs(), "suites": list(SUITE_ORDER), "seed": 0})
    counts = {"element": 0, "support": 0}

    def counted(name, orig):
        def call(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        return call

    monkeypatch.setattr(pk.GradedModel, "element", counted("element", pk.GradedModel.element))
    monkeypatch.setattr(graded, "_check_support", counted("support", graded._check_support))
    report = pk.run_suite(config)
    assert [m["index"] for m in report["models"]] == list(range(len(zoo_specs())))
    # one support check per coefficient map a suite supplies
    assert counts["support"] == counts["element"] <= 6


# -- the product kernel -------------------------------------------------------


def ref_atom_product(frame, left, right, degree=None):
    """graded._product one left degree at a time, against all right
    degrees at once, each degree's terms added into it in the order of
    the left degrees: the slow oracle of the blocked kernel."""
    ldeg, lval = left
    rdeg, rval = right
    lmax, rmax = int(np.abs(ldeg).max(initial=0)), int(np.abs(rdeg).max(initial=0))
    top = lmax + rmax if frame.vanish is None else min(lmax + rmax, frame.vanish - 1)
    index, mask, depth = frame.gathers(max(lmax, rmax, top))
    scale = max(1.0, float(np.abs(lval).max(initial=0.0)), float(np.abs(rval).max(initial=0.0)))
    acc = np.zeros((2 * top + 1, lval.shape[-1]), dtype=np.complex128)
    for m, beta in zip(ldeg.tolist(), lval):
        d = m + rdeg
        keep = np.abs(d) <= top
        if degree is not None:
            keep &= d == degree
        if not keep.any():
            continue
        n, gamma, d = rdeg[keep], rval[keep], d[keep]
        if m >= 0:
            # rows of index / mask: the power on beta, on gamma, and the mask
            low = (n >= 0) | (-n <= m)
            on_beta = np.where(low, 0, -n - m)
            on_gamma = np.where(n >= 0, m, np.where(low, m + n, 0))
            under = np.where(low, m, -n)
        else:
            back = depth + np.minimum(-m, n)
            on_beta = under = np.where(n <= 0, -n, back)
            on_gamma = np.where(n <= 0, 0, back)
        rows = np.arange(len(n))[:, None]
        terms = beta[index[on_beta]] * gamma[rows, index[on_gamma]]
        acc[d + top] += terms * (mask[under] * mask[np.abs(d)])
    peak = np.abs(acc).max(axis=1)
    kept = np.flatnonzero(peak > COEFF_DROP * scale * scale)
    return kept - top, acc[kept]


# the zoo's graded models and a Haar-conjugated shift, the shifts up to
# n = 24, and a cycle, on which no degree is truncated
KERNEL_MODELS = CARRYING_MODELS + [
    pk.graded_model_for(_shift(n)) for n in (2, 5, 12, 16, 24)
] + [_cyclic_unitary()]


@st.composite
def _factors(draw, model, items=None):
    """(degrees, atom values): a set of degrees within a bandwidth of 0 to
    3, gaps allowed, in any order, with random values under P_|d|; with
    ``items``, a (items, degrees, atoms) stack over that degree set, each
    item at its own magnitude."""
    band = draw(st.integers(0, 3))
    degrees = np.array(
        draw(st.lists(st.integers(-band, band), min_size=1, max_size=2 * band + 1, unique=True))
    )
    _, mask, _ = model._gathers.gathers(band)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead = () if items is None else (items,)
    x = rng.standard_normal(lead + (len(degrees), 2, model.algebra.dimension))
    powers = draw(st.lists(st.integers(-3, 3), min_size=items or 1, max_size=items or 1))
    scale = (10.0 ** np.array(powers, dtype=float)).reshape(lead + (1, 1))
    return degrees, (x[..., 0, :] + 1j * x[..., 1, :]) * scale * mask[np.abs(degrees)]


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    which=st.integers(0, len(KERNEL_MODELS) - 1),
    budget=st.sampled_from([1, 40, 300, graded._BLOCK]),
    items=st.sampled_from([None, 1, 3, 10]),
)
def test_product_kernel_matches_the_loop_over_left_degrees(data, which, budget, items):
    # smaller element budgets split these products into many blocks, as
    # the squarings of larger models are split; a stack is one product
    # per item over the degrees some item keeps
    model = KERNEL_MODELS[which]
    frame = model._gathers
    left, right = data.draw(_factors(model, items)), data.draw(_factors(model, items))
    pairs = list(zip(left[1].reshape(-1, *left[1].shape[-2:]),
                     right[1].reshape(-1, *right[1].shape[-2:])))
    top = int(np.abs(left[0]).max() + np.abs(right[0]).max())
    if frame.vanish is not None:
        top = min(top, frame.vanish - 1)
    kept = sorted(set().union(*(
        ref_atom_product(frame, (left[0], lv), (right[0], rv))[0].tolist() for lv, rv in pairs
    )))
    dropped = sorted(set(range(-top, top + 1)) - set(kept))
    unreachable = [-top - 2, -top - 1, top + 1, top + 2]
    pools = {"all": [None], "kept": kept, "dropped": dropped, "unreachable": unreachable}
    pool = data.draw(st.sampled_from([name for name, degrees in pools.items() if degrees]))
    degree = data.draw(st.sampled_from(pools[pool]))
    with mock.patch.object(graded, "_BLOCK", budget):
        got = graded._product(frame, left, right, degree)
    wants = [ref_atom_product(frame, (left[0], lv), (right[0], rv), degree) for lv, rv in pairs]
    union = sorted(set().union(*(w[0].tolist() for w in wants)))
    assert got[0].tolist() == union
    size = model.algebra.dimension
    assert got[1].shape == left[1].shape[:-2] + (len(union), size)
    for values, (lv, rv), (degrees, want) in zip(
        got[1].reshape(len(pairs), len(union), size), pairs, wants
    ):
        scale = max(1.0, np.abs(lv).max(), np.abs(rv).max())
        rows = np.searchsorted(union, degrees)
        assert np.abs(values[rows] - want).max(initial=0.0) <= 1e-14 * scale * scale
        # a degree this item drops reads exact zeros
        assert not values[np.setdiff1d(np.arange(len(union)), rows)].any()
    if pool != "all":
        assert got[0].tolist() == ([degree] if pool == "kept" else [])


class _Replay:
    """A generator stand-in that hands out the entries of ``x`` in order."""

    def __init__(self, x):
        self.flat, self.at = x.ravel(), 0

    def standard_normal(self, shape):
        count = int(np.prod(shape))
        out = self.flat[self.at : self.at + count].reshape(shape)
        self.at += count
        return out


@pytest.mark.parametrize("budget", [1, 40, graded._BLOCK])
def test_a_stack_holds_the_degrees_some_item_keeps(budget):
    # item 1 draws zeros at degree 1 and item 2 draws 1e-16 at degree -1:
    # as elements they drop those degrees, in the stack their rows there
    # are zero.  Item 2's degrees -2 and 2 are 1e-9, so its square drops
    # degrees -4 and 4, which the other squares keep.  The stack's
    # products and dense forms are those of the three elements.
    model = pk.graded_model_for(_shift(6))
    frame = model._gathers
    x = np.random.default_rng(3).standard_normal((3, 5, 2, model.algebra.dimension))
    x[1, 3] = 0.0
    x[2, 1] *= 1e-16
    x[2, [0, 4]] *= 1e-9
    degrees, values = graded._draws(model, _Replay(x), 2, 3)
    replay = _Replay(x)
    elements = [pk.random_element(model, replay, bandwidth=2) for _ in range(3)]
    assert degrees.tolist() == list(range(-2, 3))
    assert [list(g.coefficients) for g in elements] == [
        [-2, -1, 0, 1, 2], [-2, -1, 0, 2], [-2, 0, 1, 2]
    ]
    assert not values[1, 3].any() and not values[2, 1].any()
    with mock.patch.object(graded, "_BLOCK", budget):
        dense = graded._realize_values(model, degrees, values)
        products = [
            graded._product(frame, (degrees, values), (degrees, values[order]))
            for order in ([2, 1, 0], [0, 1, 2])
        ]
    assert 4 in products[1][0]
    for i, g in enumerate(elements):
        assert np.array_equal(values[i, np.searchsorted(degrees, g._atoms[0])], g._atoms[1])
        assert np.array_equal(dense[i], pk.realize(g))
        for (union, got), other in zip(products, (elements[2 - i], g)):
            kept, want = graded._product(frame, g._atoms, other._atoms)
            rows = np.searchsorted(union, kept)
            assert np.array_equal(got[i, rows], want)
            assert not got[i, np.setdiff1d(np.arange(len(union)), rows)].any()


def test_norm_estimate_forms_its_terms_in_blocks():
    # the kernel without blocks traces 42 MB on this estimate; the blocks
    # keep it near the size of its inputs
    model = pk.graded_model_for(_shift(64))
    g = pk.random_element(model, np.random.default_rng(15), bandwidth=3)
    pk.norm_estimate(g, kmax=64)
    tracemalloc.start()
    try:
        pk.norm_estimate(g, kmax=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


def test_a_stack_of_products_counts_its_items_in_its_blocks():
    # ten products at n = 64 traced 2.7 MB when a block held one item's
    # atoms per slot; counting the items keeps the peak near 0.8 MB
    model = pk.graded_model_for(_shift(64))
    degrees, values = graded._draws(model, np.random.default_rng(16), 3, 20)
    pairs = values.reshape(10, 2, *values.shape[1:])
    left, right = (degrees, pairs[:, 0]), (degrees, pairs[:, 1])
    graded._product(model._gathers, left, right)
    tracemalloc.start()
    try:
        graded._product(model._gathers, left, right)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 19, peak
