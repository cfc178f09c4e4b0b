from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polarkit as pk
from polarkit.models import q_lambda
from polarkit.words import GEN, GEN_STAR, shift_values

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


def ref_interior_projection(dim, length):
    p = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(max(dim - length, 0)):
        p[i, i] = 1.0
    return p


def test_interior_projection_matches_the_loop():
    for dim in range(7):
        for length in range(9):
            got = pk.interior_projection(dim, length)
            assert got.dtype == np.complex128
            assert np.array_equal(got, ref_interior_projection(dim, length)), (dim, length)


@pytest.mark.parametrize(
    "dim, length, message",
    ((4, 1.5, "length must be an integer, got 1.5"), (-1, 2, "dim must be at least 0, got -1"),
     (4, -2, "length must be at least 0, got -2"), (True, 0, "dim must be an integer, got True")),
    ids=("float_length", "negative_dim", "negative_length", "bool_dim"),
)
def test_interior_projection_reads_counts(dim, length, message):
    # (4, 1.5) was a TypeError, (-1, 2) a ValueError and (4, -2) an IndexError
    with pytest.raises(pk.InvalidSpec) as err:
        pk.interior_projection(dim, length)
    assert str(err.value) == message


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


# -- one letter check ----------------------------------------------------------


@pytest.mark.parametrize(
    "read", (pk.deg, lambda w: pk.evaluate(w, pk.build(pk.q_oscillator(6, 0.5, 1.0))),
             lambda w: shift_values([w], np.ones(5))),
    ids=("deg", "evaluate", "shift_values"),
)
@pytest.mark.parametrize("word", (("a", "b"), ("a", "zz"), ("x",), ["a*", None]), ids=str)
def test_every_word_reader_refuses_an_unknown_letter(read, word):
    # evaluate read ("a", "b") as a a*, and deg(("a", "zz")) was 0
    with pytest.raises(pk.ParseError, match="^unknown letter "):
        read(word)


def test_shift_values_takes_words_or_forms_not_both():
    with pytest.raises(pk.InvalidSpec):
        shift_values([("a",), pk.NF_ONE], np.ones(3))


# -- the door of NormalForm ------------------------------------------------------


@pytest.mark.parametrize(
    "l, m, p, message",
    ((-1, 0, (1,), "l must be at least 0, got -1"), (1.5, 0, (1,), "l must be an integer, got 1.5"),
     (0, True, (1,), "m must be an integer, got True"), (0, -2, (1,), "m must be at least 0, got -2"),
     (0, 0, (), "p must have at least one coefficient")),
    ids=("negative_l", "float_l", "bool_m", "negative_m", "empty_p"),
)
def test_normal_form_reads_counts_and_a_polynomial(l, m, p, message):
    # NormalForm(-1, 0, (1,)) evaluated as the identity, (1.5, 0, (1,)) was a
    # TypeError in evaluate and (0, 0, ()) an IndexError there
    with pytest.raises(pk.InvalidSpec) as err:
        pk.NormalForm(l, m, p)
    assert str(err.value) == message


def test_normal_form_keeps_its_counts_as_ints():
    nf = pk.NormalForm(np.int64(2), np.int8(1), [0, 1, 0])
    assert (nf.l, nf.m, nf.p) == (2, 1, (0, 1)) and type(nf.l) is type(nf.m) is int


# -- words on the shift ----------------------------------------------------------


@pytest.mark.parametrize("q, h", ((0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 100.0), (2.0, 0.4)))
@pytest.mark.parametrize("n", (2, 3, 16, 40))
def test_a_q_oscillator_is_the_weighted_shift_of_its_levels(q, h, n):
    # shift_values' premise: a = diag(w, 1) with w_j = sqrt(lambda_{j+1}), exactly
    lam = q_lambda(n, q, h)
    assert np.array_equal(pk.build(pk.q_oscillator(n, q, h)), np.diag(np.sqrt(lam[1:]), 1))


@st.composite
def shift_items(draw):
    """A q_oscillator model whose levels are distinct, and either words of up to
    n - 1 letters or normal forms, from normal_order or from nf_mul of the
    forms of two halves of such a word."""
    q = draw(st.sampled_from((0.5, 1.0, 2.0)))
    n = draw(st.integers(2, 40 if q == 0.5 else 64))  # q = 1/2 levels collide from n = 41
    spec = pk.q_oscillator(n, q, 1.0)
    letters = st.lists(st.sampled_from([GEN, GEN_STAR]), max_size=n - 1).map(tuple)
    words = draw(st.lists(letters, min_size=1, max_size=6))
    phi = pk.phi_for(spec)
    kind = draw(st.sampled_from(("word", "normal_order", "nf_mul")))
    if kind == "word":
        return spec, words
    if kind == "normal_order":
        return spec, [pk.normal_order(w, phi) for w in words]
    cuts = [draw(st.integers(0, len(w))) for w in words]
    return spec, [pk.nf_mul(pk.normal_order(w[:c], phi), pk.normal_order(w[c:], phi), phi)
                  for w, c in zip(words, cuts)]


@settings(max_examples=150, deadline=None)
@given(case=shift_items())
def test_shift_values_are_the_dense_entries_bit_for_bit(case):
    spec, items = case
    a = pk.build(spec)
    n = spec.dim
    values = shift_values(items, np.diagonal(a, 1))
    assert values.shape == (len(items), n)
    for item, v in zip(items, values):
        form = isinstance(item, pk.NormalForm)
        assume(not form or item.word_length < n)
        with np.errstate(all="ignore"):
            dense = pk.evaluate(item, a)
        assume(np.isfinite(dense).all())  # past 2^1024 a dense product reads inf * 0
        d = item.degree if form else pk.deg(item)
        rows = np.arange(n)
        on = (0 <= rows + d) & (rows + d < n)
        assert np.array_equal(v[on], dense[rows[on], rows[on] + d])
        assert not v[~on].any()
        dense[rows[on], rows[on] + d] = 0
        assert not dense.any()
