"""Free *-word calculus for the algebra generated by 1 and a.

Words over the letters a and a* carry an integer degree (letter count,
signed).  When the defining relation is the affine one

    a a* = ell(a*a),   ell(x) = q x + h,

every word collapses to a normal form a^{*l} p(a*a) a^m with p a
polynomial.  The degree m - l of the normal form equals the degree of
the original word, and products of normal forms stay in normal form
with degrees adding exactly.

Right-multiplying a^{*l} p a^m by one letter does one of two things to
p: it composes p with ell or its inverse (p(x) a* = a* p(ell(x)), and
a* p(x) a = x p(ell^{-1}(x)) when a pending a* cancels), or it multiplies
p by one more linear factor ell^j(x) (a^m a* = ell^m(a*a) a^{m-1}).  So
p is always a product of iterates ell^j(x) and of the input polynomials
composed with such iterates.  The fold behind ``normal_order`` and
``nf_mul`` records only those factors, with one shared index offset for
the compositions, and expands p once at the end: one product of linear
factors, read from a per-PhiMap table of iterates, and one composition
per input polynomial.  An a cancels a pending a* only when q != 0; for
q = 0 the inverse does not exist, mixed forms are left as is, and
ell^j is the constant h for every j >= 1.

Everything symbolic here is representation independent.  ``evaluate``
maps a word or normal form into a concrete matrix model; for truncated
models the relation fails at the top basis vector, so symbolic and
numeric agree only on the interior columns (see interior_projection).

The rewriting keeps whatever scalar type it is fed.  Passing Fraction
values for q and h (and integer polynomial inputs) makes every identity
exact; floats give the usual double-precision arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DimensionTooSmall, ParseError
from .linalg import as_matrix, dagger

GEN = "a"
GEN_STAR = "a*"


def parse_word(text: str) -> tuple:
    """Split a whitespace-separated string over {"a", "a*"} into a word."""
    letters = []
    for token in text.split():
        if token not in (GEN, GEN_STAR):
            raise ParseError(f"unknown letter {token!r}; expected 'a' or 'a*'")
        letters.append(token)
    return tuple(letters)


def deg(word) -> int:
    """Signed letter count: each a contributes +1, each a* contributes -1.

    Defined on the free semigroup of words, not on operators; two words
    representing the same matrix may have different degrees.
    """
    if isinstance(word, str):
        word = parse_word(word)
    return sum(1 if w == GEN else -1 for w in word)


def _coefficient(name: str, value, exact: bool):
    """q or h of the affine relation, checked finite.

    Exact coefficients become Fractions; otherwise a number keeps its
    type and a string is read as a float (``"1/3"`` included).
    """
    try:
        if exact:
            return Fraction(str(value))
        c = float(Fraction(value)) if isinstance(value, str) else value
        if isinstance(c, (int, Fraction)) or math.isfinite(c):
            return c
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ParseError(f"relation coefficient {name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class PhiMap:
    """The conjugation action of a on polynomials in x = a*a under the
    affine relation a a* = q a*a + h: pushing a polynomial p leftward
    through a substitutes x -> q x + h.  A model without such a relation
    has no PhiMap (``phi_for`` raises :class:`UnsupportedPhi`).
    """

    q: object = 0
    h: object = 0
    # Iterates of ell(x) = q x + h, filled on demand by _ell: index j of
    # the first list holds ell^j, of the second ell^{-j}.
    _powers: tuple = field(
        init=False, repr=False, compare=False, default_factory=lambda: ([(1, 0)], [(1, 0)])
    )

    @classmethod
    def affine(cls, q, h) -> "PhiMap":
        return cls(q=_coefficient("q", q, False), h=_coefficient("h", h, False))

    @classmethod
    def affine_exact(cls, q, h) -> "PhiMap":
        """Affine map with q, h coerced to Fraction for exact rewriting."""
        return cls(q=_coefficient("q", q, True), h=_coefficient("h", h, True))

    def _ell(self, j: int) -> tuple:
        """Coefficients (q_j, h_j) of the iterate ell^j(x) = q_j x + h_j.

        A negative j iterates the inverse (x - h) / q, so needs q != 0.
        """
        q, h = self.q, self.h
        table = self._powers[0]
        if j < 0:
            j, table = -j, self._powers[1]
            q = Fraction(1) / q if isinstance(q, (int, Fraction)) else 1.0 / q
            h = -h * q
        while len(table) <= j:
            qj, hj = table[-1]
            table.append((q * qj, q * hj + h))
        return table[j]


def _trim(p: tuple) -> tuple:
    """Drop exactly-zero trailing coefficients (keep at least one)."""
    end = len(p)
    while end > 1 and p[end - 1] == 0:
        end -= 1
    return tuple(p[:end])


def poly_add(p: tuple, r: tuple) -> tuple:
    n = max(len(p), len(r))
    return _trim(tuple(
        (p[i] if i < len(p) else 0) + (r[i] if i < len(r) else 0)
        for i in range(n)
    ))


def poly_mul(p: tuple, r: tuple) -> tuple:
    out = [0] * (len(p) + len(r) - 1)
    for i, ci in enumerate(p):
        if ci == 0:
            continue
        for j, cj in enumerate(r):
            out[i + j] = out[i + j] + ci * cj
    return _trim(tuple(out))


def poly_compose_affine(p: tuple, q, h) -> tuple:
    """p(q x + h) by Horner's scheme in polynomial arithmetic."""
    acc = (p[-1],)
    for c in reversed(p[:-1]):
        acc = poly_add(poly_mul(acc, (h, q)), (c,))
    return _trim(acc)


@dataclass(frozen=True)
class NormalForm:
    """The canonical shape a^{*l} p(a*a) a^m of a word.

    ``p`` is a coefficient tuple in ascending powers of x = a*a.  The
    degree m - l matches the degree of every word that normalizes to
    this form; that identity is exact by construction.
    """

    l: int
    m: int
    p: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", _trim(tuple(self.p)))

    @property
    def degree(self) -> int:
        return self.m - self.l

    @property
    def word_length(self) -> int:
        """Letter count of the longest monomial this form expands to."""
        return self.l + self.m + 2 * (len(self.p) - 1)


NF_ONE = NormalForm(0, 0, (1,))


def _mul_linear(p: list, h, q) -> None:
    """p <- p * (h + q x), in place."""
    if q == 0:
        p[:] = [h * c for c in p]
    elif h == 0:
        p[:] = [0] + (p if q == 1 else [q * c for c in p])
    else:
        p.append(q * p[-1])
        for i in range(len(p) - 2, 0, -1):
            p[i] = h * p[i] + q * p[i - 1]
        p[0] = h * p[0]


class _Fold:
    """a^{*l} p(a*a) a^m with p kept as factors, expanded once by form().

    p is the product of ell^{k+s}(x) over the keys k of ``factors``, each
    with its multiplicity, times r(ell^{k+s}(x)) for each (r, k) in
    ``pieces``.  Moving p through a* composes it with ell, which is s += 1;
    moving it back through a composes with the inverse, s -= 1.  No step
    touches a coefficient.
    """

    __slots__ = ("phi", "l", "m", "s", "factors", "pieces")

    def __init__(self, phi: PhiMap, l: int = 0, m: int = 0, p: tuple = (1,)):
        self.phi = phi
        self.l, self.m, self.s = l, m, 0
        self.factors: dict[int, int] = {}
        self.pieces = [] if p == (1,) else [(p, 0)]

    def _factor(self, j: int) -> None:
        """Multiply p by ell^j(x)."""
        k = j - self.s
        self.factors[k] = self.factors.get(k, 0) + 1

    def times_a(self) -> None:
        if self.l > 0 and self.phi.q != 0:
            # a* p(x) a = x p(ell^{-1}(x)): the pending a* and the a cancel.
            self.l -= 1
            self.s -= 1
            self._factor(0)
        else:
            self.m += 1

    def times_astar(self) -> None:
        if self.m > 0:
            # a^m a* = ell^m(x) a^{m-1}, the factor pushed back through p.
            self._factor(self.m)
            self.m -= 1
        else:
            # p(x) a* = a* p(ell(x)).
            self.l += 1
            self.s += 1

    def times_poly(self, r: tuple) -> None:
        # r(x) commutes leftward through a^m as r(ell^m(x)).
        self.pieces.append((r, self.m - self.s))

    def form(self) -> NormalForm:
        ell, s = self.phi._ell, self.s
        p = [1]
        for k, mult in self.factors.items():
            q, h = ell(k + s)
            for _ in range(mult):
                _mul_linear(p, h, q)
        for r, k in self.pieces:
            if k + s != 0 and len(r) > 1:
                r = poly_compose_affine(r, *ell(k + s))
            p = list(poly_mul(p, r))
        return NormalForm(self.l, self.m, tuple(p))


def normal_order(word, phi: PhiMap) -> NormalForm:
    """Rewrite a word to a^{*l} p(a*a) a^m under the affine relation.

    The fold keeps l and m minimal whenever q != 0 (adjacent a* ... a
    pairs are cancelled eagerly through the inverse substitution); for
    q = 0 the inverse does not exist and mixed forms are left as is.
    """
    if isinstance(word, str):
        word = parse_word(word)
    fold = _Fold(phi)
    for letter in word:
        if letter == GEN:
            fold.times_a()
        elif letter == GEN_STAR:
            fold.times_astar()
        else:
            raise ParseError(f"unknown letter {letter!r}")
    return fold.form()


def nf_mul(n1: NormalForm, n2: NormalForm, phi: PhiMap) -> NormalForm:
    """Product of normal forms, again in normal form.

    Folds the second factor into the first letter by letter, so the
    degree identity degree(n1) + degree(n2) = degree(product) is exact
    whatever the coefficient type.  Each input polynomial is composed
    once, when the product is expanded.
    """
    fold = _Fold(phi, n1.l, n1.m, n1.p)
    for _ in range(n2.l):
        fold.times_astar()
    fold.times_poly(n2.p)
    for _ in range(n2.m):
        fold.times_a()
    return fold.form()


def _as_model_matrix(model) -> np.ndarray:
    if hasattr(model, "kind"):
        from .models import build

        return build(model)
    return as_matrix(model)


def _poly_at_matrix(p: tuple, x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    acc = complex(p[-1]) * eye
    for c in reversed(p[:-1]):
        acc = acc @ x + complex(c) * eye
    return acc


def evaluate(item, model) -> np.ndarray:
    """Realize a word or normal form in a concrete model.

    ``model`` may be a ModelSpec or a square matrix standing for a.  The
    model dimension must exceed the word length, otherwise the truncation
    boundary contaminates every column (DimensionTooSmall).
    """
    a = _as_model_matrix(model)
    n = a.shape[0]
    if isinstance(item, str):
        item = parse_word(item)
    if isinstance(item, NormalForm):
        length = item.word_length
        if n < length + 1:
            raise DimensionTooSmall(f"dim {n} < word length {length} + 1")
        x = dagger(a) @ a
        out = _poly_at_matrix(item.p, x)
        for _ in range(item.l):
            out = dagger(a) @ out
        for _ in range(item.m):
            out = out @ a
        return out
    length = len(item)
    if n < length + 1:
        raise DimensionTooSmall(f"dim {n} < word length {length} + 1")
    out = np.eye(n, dtype=np.complex128)
    for letter in item:
        out = out @ (a if letter == GEN else dagger(a))
    return out


def interior_projection(dim: int, length: int) -> np.ndarray:
    """Projection onto the columns where a truncated model is faithful.

    A word of length L applied to e_j with j <= dim - 1 - L never sees
    the defective top basis vector, so symbolic and numeric evaluation
    agree on the range of this projection.
    """
    p = np.zeros((dim, dim), dtype=np.complex128)
    keep = max(dim - length, 0)
    for i in range(keep):
        p[i, i] = 1.0
    return p
