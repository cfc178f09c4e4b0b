from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarkit as pk
from polarkit.words import GEN, GEN_STAR

PHI_HALF = pk.PhiMap.affine_exact("1/2", "1")
PHI_FLOAT = pk.PhiMap.affine(0.5, 1.0)

words = st.lists(st.sampled_from([GEN, GEN_STAR]), min_size=0, max_size=7).map(tuple)


def test_parse_word_round_trip():
    assert pk.parse_word("a a* a") == (GEN, GEN_STAR, GEN)
    assert pk.parse_word("") == ()


def test_parse_word_rejects_unknown_letters():
    with pytest.raises(pk.ParseError):
        pk.parse_word("a b")


def test_deg_counts_signed_letters():
    assert pk.deg(pk.parse_word("a a a*")) == 1
    assert pk.deg(()) == 0


def test_normal_order_star_a():
    nf = pk.normal_order(pk.parse_word("a* a"), PHI_HALF)
    assert (nf.l, nf.m) == (0, 0)
    assert nf.p == (0, 1)


def test_normal_order_a_star():
    # a a* = phi(a*a) = q x + h evaluated at x = a*a
    nf = pk.normal_order(pk.parse_word("a a*"), PHI_HALF)
    assert (nf.l, nf.m) == (0, 0)
    assert nf.p == (1, Fraction(1, 2))


def test_normal_order_a_a_star():
    nf = pk.normal_order(pk.parse_word("a a a*"), PHI_HALF)
    assert (nf.l, nf.m) == (0, 1)
    assert nf.p == (Fraction(3, 2), Fraction(1, 4))
    assert nf.degree == 1


def test_normal_order_empty_word_is_unit():
    nf = pk.normal_order((), PHI_HALF)
    assert nf == pk.NF_ONE or (nf.l, nf.m, nf.p) == (0, 0, (1,))


def test_normal_form_word_length_never_grows():
    for text in ("a a* a a a*", "a* a* a a", "a a a a*", "a* a a*"):
        w = pk.parse_word(text)
        nf = pk.normal_order(w, PHI_HALF)
        assert nf.word_length <= len(w)


def test_exact_arithmetic_stays_rational():
    nf = pk.normal_order(pk.parse_word("a a a* a*"), PHI_HALF)
    assert all(isinstance(c, (int, Fraction)) for c in nf.p)


def test_evaluate_against_q_model():
    spec = pk.q_oscillator(32, 0.5, 1.0)
    a = pk.build(spec)
    phi = pk.phi_for(spec)
    for text in ("a a*", "a a a*", "a* a a a*", "a* a* a a"):
        w = pk.parse_word(text)
        nf = pk.normal_order(w, phi)
        lhs = pk.evaluate(w, a)
        rhs = pk.evaluate(nf, a)
        p_int = pk.interior_projection(32, len(w))
        assert pk.operator_norm((lhs - rhs) @ p_int) <= 1e-8


def test_evaluate_accepts_model_spec():
    spec = pk.q_oscillator(8, 0.5, 1.0)
    w = pk.parse_word("a a*")
    assert np.allclose(pk.evaluate(w, spec), pk.evaluate(w, pk.build(spec)))


def test_evaluate_requires_room():
    with pytest.raises(pk.DimensionTooSmall):
        pk.evaluate(pk.parse_word("a a a a"), pk.build(pk.q_oscillator(4, 0.5, 1.0)))


def test_interior_projection_shape():
    p = pk.interior_projection(6, 2)
    assert np.allclose(np.diag(p), [1, 1, 1, 1, 0, 0])


def test_nf_mul_matches_concatenation():
    w1 = pk.parse_word("a a*")
    w2 = pk.parse_word("a* a a")
    n1 = pk.normal_order(w1, PHI_HALF)
    n2 = pk.normal_order(w2, PHI_HALF)
    prod = pk.nf_mul(n1, n2, PHI_HALF)
    direct = pk.normal_order(w1 + w2, PHI_HALF)
    assert (prod.l, prod.m, prod.p) == (direct.l, direct.m, direct.p)


@settings(max_examples=120, deadline=None)
@given(w=words)
def test_degree_matches_word_degree(w):
    nf = pk.normal_order(w, PHI_HALF)
    if nf.p == (0,):
        return  # annihilated words carry no degree information
    assert nf.degree == pk.deg(w)


@settings(max_examples=80, deadline=None)
@given(w1=words, w2=words)
def test_nf_mul_degree_additive(w1, w2):
    n1 = pk.normal_order(w1, PHI_HALF)
    n2 = pk.normal_order(w2, PHI_HALF)
    prod = pk.nf_mul(n1, n2, PHI_HALF)
    if prod.p == (0,):
        return
    assert prod.degree == n1.degree + n2.degree


@settings(max_examples=60, deadline=None)
@given(w=words)
def test_normal_order_agrees_with_matrices(w):
    spec = pk.q_oscillator(16, 0.5, 1.0)
    a = pk.build(spec)
    if len(w) + 1 > 16:
        return
    nf = pk.normal_order(w, PHI_FLOAT)
    p_int = pk.interior_projection(16, len(w))
    gap = pk.operator_norm((pk.evaluate(w, a) - pk.evaluate(nf, a)) @ p_int)
    assert gap <= 1e-8
