"""The graded calculus against the per-pair products it caches and prunes.

The reference implementations below are the graded product and norm
estimate as they were before the model cached u*^k and P_k: every range
projection and every conjugation is recomputed per call, every term is
formed and then truncated, every coefficient norm is its own SVD, and
the last squaring of the estimate forms every degree.  The package must
give the same bits.
"""

import numpy as np
import pytest

import polarkit as pk
import polarkit.graded as graded
from polarkit.graded import COEFF_DROP
from polarkit.linalg import dagger, rough_norm

from conftest import zoo_specs


def ref_norm(m) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


def ref_range_projection(model, k):
    uk = model.power(k)
    return uk @ dagger(uk)


def ref_delta_k(model, m, k):
    uk = model.power(k)
    return uk @ m @ dagger(uk)


def ref_delta_star_k(model, m, k):
    uk = model.power(k)
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


def ref_graded_mul(g1, g2):
    model = g1.model
    factors = [*g1.coefficients.values(), *g2.coefficients.values()]
    scale = max([1.0] + [ref_norm(c) for c in factors])
    acc = {}
    for m, beta in g1.coefficients.items():
        for n, gamma in g2.coefficients.items():
            d, raw = ref_term_product(model, m, beta, n, gamma)
            if abs(d) >= model.dim:
                continue
            if d != 0:
                p = ref_range_projection(model, abs(d))
                raw = p @ raw @ p
            acc[d] = acc[d] + raw if d in acc else raw
    out = {d: c for d, c in acc.items() if ref_norm(c) > COEFF_DROP * scale * scale}
    return pk.GradedElement(model, out)


def ref_prescaled(g):
    """g / t with the estimate's power-iteration prescale t."""
    t = rough_norm(pk.realize(g))
    if t <= 0.0:
        t = max(ref_norm(c) for c in g.coefficients.values())
    return t, g.scaled(1.0 / t)


def ref_norm_estimates(g, kmax):
    t, h = ref_prescaled(g)
    c = ref_graded_mul(h, pk.graded_adjoint(h))
    power = ref_graded_mul(c, c)
    out = []
    k = 1
    while True:
        out.append((k, float(t * ref_norm(power.coefficient(0)) ** (1.0 / (4 * k)))))
        if 2 * k > kmax:
            break
        power = ref_graded_mul(power, power)
        k *= 2
    return tuple(out)


def _shift(n):
    return pk.build(pk.weighted_shift(np.sqrt(np.arange(1, n))))


MODELS = {
    **{f"shift{n}": (lambda n=n: _shift(n)) for n in (12, 16, 24)},
    **{
        f"zoo{i}_{spec['kind']}": (lambda spec=spec: pk.build(pk.model_spec_from_json(spec)))
        for i, spec in enumerate(zoo_specs()[:5])
    },
    "q_oscillator8": lambda: pk.build(pk.q_oscillator(8, 0.5, 1.0)),
}


@pytest.fixture(scope="module", params=list(MODELS))
def model(request):
    return pk.graded_model_for(MODELS[request.param]())


def _same(g, ref):
    assert list(g.coefficients) == list(ref.coefficients)
    for d, c in ref.coefficients.items():
        assert g.coefficients[d].tobytes() == c.tobytes(), f"degree {d}"


def test_graded_mul_matches_per_pair_reference(model):
    rng = np.random.default_rng(11)
    for b1, b2 in ((1, 1), (1, 3), (3, 2), (2, 3), (3, 3)):
        g1 = pk.random_element(model, rng, bandwidth=b1)
        g2 = pk.random_element(model, rng, bandwidth=b2)
        _same(pk.graded_mul(g1, g2), ref_graded_mul(g1, g2))
        # a square shares one coefficient stack for its scale
        _same(pk.graded_mul(g1, g1), ref_graded_mul(g1, g1))
        _same(pk.graded_mul(g1, pk.graded_adjoint(g1)), ref_graded_mul(g1, pk.graded_adjoint(g1)))


@pytest.mark.parametrize("band", (1, 3))
def test_norm_estimate_matches_per_pair_reference(model, band):
    g = pk.random_element(model, np.random.default_rng([12, band]), bandwidth=band)
    est = pk.norm_estimate(g, kmax=64)
    assert est.estimates == ref_norm_estimates(g, 64)
    assert est.prescale == ref_prescaled(g)[0]
    for kmax in (1, 3):
        assert pk.norm_estimate(g, kmax=kmax).estimates == ref_norm_estimates(g, kmax)


def test_last_square_forms_only_degree_zero(monkeypatch):
    model = pk.graded_model_for(_shift(12))
    g = pk.random_element(model, np.random.default_rng(3), bandwidth=3)
    assert g.bandwidth == 3

    def pairs(g1, g2, keep):
        return sum(keep(m + n) for m in g1.coefficients for n in g2.coefficients)

    def kept(d):
        return abs(d) < model.dim

    # the factors the estimate multiplies, from the reference
    _, h = ref_prescaled(g)
    hs = pk.graded_adjoint(h)
    c = ref_graded_mul(h, hs)
    expected = pairs(h, hs, kept)
    power, k = c, 1
    while 2 * k <= 64:
        expected += pairs(power, power, kept)
        power = ref_graded_mul(power, power)
        k *= 2
    last = pairs(power, power, lambda d: d == 0)
    expected += last

    calls = []

    def counting(model, m, beta, n, gamma, _orig=graded._term_product):
        calls.append(m + n)
        return _orig(model, m, beta, n, gamma)

    monkeypatch.setattr(graded, "_term_product", counting)
    pk.norm_estimate(g, kmax=64)
    assert len(calls) == expected
    assert calls[-last:] == [0] * last
    assert all(abs(d) < model.dim for d in calls)


class _CountingMatmul(np.ndarray):
    """An array that counts the matrix products it takes part in."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingMatmul.calls += 1
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


def test_repeated_range_projection_makes_no_product():
    model = pk.graded_model_for(_shift(12))
    first = model.range_projection(3)
    model._pow = {k: v.view(_CountingMatmul) for k, v in model._pow.items()}
    _CountingMatmul.calls = 0
    again = model.range_projection(3)
    assert _CountingMatmul.calls == 0
    assert np.array_equal(again, first)
    assert np.array_equal(first, ref_range_projection(model, 3))
    # the cache cannot be changed through a returned matrix
    with pytest.raises(ValueError):
        again[0, 0] = 1.0


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
    with pytest.raises(ValueError, match="expected a square matrix"):
        model.element({0: np.eye(4), 1: np.ones((4, 3)), 2: h})


def test_element_drops_coefficients_at_or_below_the_drop_threshold():
    model = pk.graded_model_for(pk.build(pk.weighted_shift((1.0, np.sqrt(2.0), np.sqrt(3.0)))))
    h = _e(2, 3) + _e(3, 2)
    e1 = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
    e2 = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
    # neither the non-member nor the leaking coefficient is checked once dropped
    g = model.element({0: COEFF_DROP * h, 2: COEFF_DROP * e1, 1: e2, -1: 0.5 * COEFF_DROP * h})
    assert g.degrees == (1,)
    assert np.array_equal(g.coefficients[1], e2)
    g = model.element({0: 2 * COEFF_DROP * np.eye(4)})
    assert g.degrees == (0,)
