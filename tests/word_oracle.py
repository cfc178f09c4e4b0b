"""Eager normal ordering: the reference way to rewrite words.

Right-multiplies a^{*l} p(a*a) a^m by one letter at a time and rewrites
the coefficient tuple at every step: a Horner composition for each
letter that moves p through a or a*, and an O(m) loop for the iterate
ell^m.  The package tracks p as a product of factors and expands it
once (``polarkit.words``); this literal fold stays as the independent
oracle the tests compare it against.  Its cancellation rule is the
package's: an a meeting a pending a* cancels only when q != 0.
"""

from fractions import Fraction

from polarkit.errors import ParseError
from polarkit.words import GEN, GEN_STAR, NormalForm, parse_word, poly_compose_affine, poly_mul


def _ell_power(phi, m: int):
    """Coefficients (qm, hm) of the m-fold iterate x -> qm x + hm."""
    qm, hm = 1, 0
    for _ in range(m):
        qm = phi.q * qm
        hm = phi.q * hm + phi.h
    return qm, hm


def _times_a(l: int, m: int, p: tuple, phi):
    """Right-multiply a^{*l} p a^m by the letter a."""
    m += 1
    if l > 0 and m > 0 and phi.q != 0:
        # a* p(x) a = x * p((x - h) / q) since p(x) a = a p(inverse(x)).
        l -= 1
        m -= 1
        if isinstance(phi.q, (int, Fraction)):
            inv_q = Fraction(1) / phi.q
        else:
            inv_q = 1.0 / phi.q
        p = poly_mul((0, 1), poly_compose_affine(p, inv_q, -phi.h * inv_q))
    return l, m, p


def _times_astar(l: int, m: int, p: tuple, phi):
    """Right-multiply a^{*l} p a^m by the letter a*."""
    if m > 0:
        # a^m a* = ell^m(x) a^{m-1} pushed back through p.
        qm, hm = _ell_power(phi, m)
        p = poly_mul(p, (hm, qm))
        m -= 1
    else:
        # p(x) a* = a* p(q x + h).
        l += 1
        p = poly_compose_affine(p, phi.q, phi.h)
    return l, m, p


def _times_poly(l: int, m: int, p: tuple, s: tuple, phi):
    """Right-multiply a^{*l} p a^m by s(x): s commutes through a^m."""
    qm, hm = _ell_power(phi, m)
    return l, m, poly_mul(p, poly_compose_affine(s, qm, hm))


def normal_order(word, phi) -> NormalForm:
    if isinstance(word, str):
        word = parse_word(word)
    l, m, p = 0, 0, (1,)
    for letter in word:
        if letter == GEN:
            l, m, p = _times_a(l, m, p, phi)
        elif letter == GEN_STAR:
            l, m, p = _times_astar(l, m, p, phi)
        else:
            raise ParseError(f"unknown letter {letter!r}")
    return NormalForm(l, m, p)


def nf_mul(n1: NormalForm, n2: NormalForm, phi) -> NormalForm:
    l, m, p = n1.l, n1.m, n1.p
    for _ in range(n2.l):
        l, m, p = _times_astar(l, m, p, phi)
    l, m, p = _times_poly(l, m, p, n2.p, phi)
    for _ in range(n2.m):
        l, m, p = _times_a(l, m, p, phi)
    return NormalForm(l, m, p)
