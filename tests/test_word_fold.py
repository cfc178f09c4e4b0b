"""The factor fold of polarkit.words against the eager oracle.

``word_oracle`` rewrites the coefficient tuple at every letter; the
package only records factors and expands p once.  Exact results must be
equal.  Float results are held to the exact oracle run on the rational
values of the doubles: the float oracle itself drifts by its per-letter
compositions (up to about 1e-9 relative on length-24 words at q = 2,
h = 2/5), so it cannot referee a 1e-13 bound.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarkit as pk
import polarkit.words as words_mod
from polarkit.words import GEN, GEN_STAR

import word_oracle as oracle

Q_VALUES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(3, 7))
H_VALUES = (Fraction(0), Fraction(1), Fraction(2, 5))

letters = st.sampled_from([GEN, GEN_STAR])
words = st.lists(letters, min_size=0, max_size=24).map(tuple)
half_words = st.lists(letters, min_size=0, max_size=12).map(tuple)
relations = st.tuples(st.sampled_from(Q_VALUES), st.sampled_from(H_VALUES))
coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# Normal forms not reachable from a word when q != 0: l and m both
# positive, and a generic polynomial in front.
forms = st.builds(
    pk.NormalForm,
    st.integers(0, 4),
    st.integers(0, 4),
    st.lists(coeffs, min_size=1, max_size=4).map(tuple),
)


def _exact(qh):
    return pk.PhiMap.affine_exact(*qh)


def _float(qh):
    return pk.PhiMap.affine(float(qh[0]), float(qh[1]))


def _rational(phi):
    """The exact relation with the same values as a float one."""
    return pk.PhiMap.affine(Fraction(phi.q), Fraction(phi.h))


def _triple(nf):
    return nf.l, nf.m, nf.p


def _assert_float_close(got, want_float, want_exact):
    assert (got.l, got.m) == (want_float.l, want_float.m) == (want_exact.l, want_exact.m)
    assert len(got.p) == len(want_exact.p)
    scale = max(1, max(abs(c) for c in want_exact.p))
    gap = max(abs(Fraction(c) - w) for c, w in zip(got.p, want_exact.p))
    assert gap <= Fraction(1e-13) * scale


@settings(max_examples=300, deadline=None)
@given(w=words, qh=relations)
def test_normal_order_equals_oracle_exactly(w, qh):
    phi = _exact(qh)
    assert _triple(pk.normal_order(w, phi)) == _triple(oracle.normal_order(w, phi))


@settings(max_examples=200, deadline=None)
@given(w1=half_words, w2=half_words, qh=relations)
def test_nf_mul_of_words_equals_oracle_exactly(w1, w2, qh):
    phi = _exact(qh)
    n1, n2 = oracle.normal_order(w1, phi), oracle.normal_order(w2, phi)
    assert _triple(pk.nf_mul(n1, n2, phi)) == _triple(oracle.nf_mul(n1, n2, phi))


@settings(max_examples=200, deadline=None)
@given(n1=forms, n2=forms, qh=relations)
def test_nf_mul_of_generic_forms_equals_oracle_exactly(n1, n2, qh):
    phi = _exact(qh)
    assert _triple(pk.nf_mul(n1, n2, phi)) == _triple(oracle.nf_mul(n1, n2, phi))


@settings(max_examples=300, deadline=None)
@given(w=words, qh=relations)
def test_float_normal_order_near_oracle(w, qh):
    phi = _float(qh)
    got = pk.normal_order(w, phi)
    _assert_float_close(got, oracle.normal_order(w, phi), oracle.normal_order(w, _rational(phi)))


@settings(max_examples=200, deadline=None)
@given(w1=half_words, w2=half_words, qh=relations)
def test_float_nf_mul_near_oracle(w1, w2, qh):
    phi = _float(qh)
    n1, n2 = oracle.normal_order(w1, phi), oracle.normal_order(w2, phi)
    # the exact reference multiplies the very same (rounded) inputs
    e1, e2 = (pk.NormalForm(n.l, n.m, tuple(map(Fraction, n.p))) for n in (n1, n2))
    _assert_float_close(
        pk.nf_mul(n1, n2, phi), oracle.nf_mul(n1, n2, phi), oracle.nf_mul(e1, e2, _rational(phi))
    )


@pytest.fixture()
def compositions(monkeypatch):
    """Count calls of the generic polynomial composition."""
    calls = []
    compose = words_mod.poly_compose_affine

    def counted(p, q, h):
        calls.append(len(p))
        return compose(p, q, h)

    monkeypatch.setattr(words_mod, "poly_compose_affine", counted)
    return calls


def test_normal_order_composes_no_polynomial(compositions):
    phi = pk.PhiMap.affine_exact("1/2", "1")
    w = pk.parse_word(" ".join(["a* a a a* a* a"] * 4))
    assert len(w) == 24
    nf = pk.normal_order(w, phi)
    assert compositions == []
    assert _triple(nf) == _triple(oracle.normal_order(w, phi))


def test_nf_mul_composes_each_input_once(compositions):
    phi = pk.PhiMap.affine_exact("1/2", "1")
    n1 = oracle.normal_order(pk.parse_word("a a* a a a* a* a* a a a* a"), phi)
    n2 = oracle.normal_order(pk.parse_word("a* a a a* a* a* a a* a a a"), phi)
    assert len(n1.p) > 1 and len(n2.p) > 1
    prod = pk.nf_mul(n1, n2, phi)
    assert len(compositions) <= 2
    assert _triple(prod) == _triple(oracle.nf_mul(n1, n2, phi))


@pytest.mark.parametrize("q, h", [("abc", 1), (1, "1/0"), (float("inf"), 1), (1, float("nan")), (1j, 1)])
def test_affine_rejects_bad_coefficients(q, h):
    for make in (pk.PhiMap.affine, pk.PhiMap.affine_exact):
        with pytest.raises(pk.ParseError):
            make(q, h)


def test_affine_keeps_numeric_types():
    phi = pk.PhiMap.affine(0.5, 1)
    assert type(phi.q) is float and type(phi.h) is int
    exact = pk.PhiMap.affine(Fraction(1, 3), 1)
    assert exact.q == Fraction(1, 3)
    assert pk.PhiMap.affine("1/4", "2").q == 0.25
    assert pk.PhiMap.affine_exact(0.1, "2/3") == pk.PhiMap.affine(Fraction(1, 10), Fraction(2, 3))
