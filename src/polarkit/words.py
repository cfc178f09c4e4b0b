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

Everything symbolic here is representation independent, and two
functions realize it.  ``evaluate`` maps a word or normal form into any
matrix model by dense products.  ``shift_values`` takes the weighted
shift a = diag(w, 1), which is what ``models.build`` makes of a
q_oscillator: there an item of degree d maps e_c to a multiple of
e_{c-d}, one generalized diagonal, and a stack of items is walked
letter by letter in O(n) per letter, each value equal to evaluate's
entry bit for bit.  For truncated models the relation fails at the top
basis vector, so symbolic and numeric agree only on the interior
columns (see interior_projection).  deg, evaluate and shift_values read
only the letters "a" and "a*" (ParseError otherwise), as normal_order does.

The rewriting keeps whatever scalar type it is fed.  Passing Fraction
values for q and h (and integer polynomial inputs) makes every identity
exact; floats give the usual double-precision arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DimensionTooSmall, InvalidSpec, ParseError
from .linalg import _count, as_matrix, dagger

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


def _letters(word) -> tuple:
    """word as a tuple of letters, a string parsed; a ParseError on a
    letter other than "a" and "a*"."""
    if isinstance(word, str):
        return parse_word(word)
    word = tuple(word)
    for letter in word:
        if letter not in (GEN, GEN_STAR):
            raise ParseError(f"unknown letter {letter!r}")
    return word


def deg(word) -> int:
    """Signed letter count: each a contributes +1, each a* contributes -1.

    Defined on the free semigroup of words, not on operators; two words
    representing the same matrix may have different degrees.
    """
    return sum(1 if w == GEN else -1 for w in _letters(word))


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

    ``p`` is a non-empty coefficient tuple in ascending powers of x = a*a,
    and l and m are counts from 0 (:class:`InvalidSpec` otherwise).  The
    degree m - l matches the degree of every word that normalizes to
    this form; that identity is exact by construction.
    """

    l: int
    m: int
    p: tuple

    def __post_init__(self):
        object.__setattr__(self, "l", _count(self.l, "l", 0))
        object.__setattr__(self, "m", _count(self.m, "m", 0))
        p = tuple(self.p)
        if not p:
            raise InvalidSpec("p must have at least one coefficient")
        object.__setattr__(self, "p", _trim(p))

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
    item = _letters(item)
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
    agree on the range of this projection.  Both arguments are counts
    from 0 (:class:`InvalidSpec` otherwise).
    """
    dim, length = _count(dim, "dim", 0), _count(length, "length", 0)
    return np.diag((np.arange(dim) < dim - length).astype(np.complex128))


def shift_values(items, w) -> np.ndarray:
    """The values of a stack of words, or of normal forms, on the weighted
    shift a = diag(w, 1): row i holds item i's values v, and its matrix M
    has M[r, r + d] = v[r], d its degree, and no other nonzero entry.

    Each letter position (of a word), Horner step in x = a*a (whose
    diagonal is conj(w) w after x_0 = 0) and a* (left) or a (right) factor
    (of a form) is one product over the whole (items, n) array, in
    ``evaluate``'s order, with shorter items padded by exact unit factors
    and shorter polynomials by leading zero coefficients: each value
    equals ``evaluate``'s dense entry bit for bit, in O(n) per letter.  A
    letter other than "a" and "a*" is a ParseError; a stack that mixes
    words and forms, an InvalidSpec.
    """
    w = np.asarray(w)
    n = len(w) + 1
    forms = [isinstance(item, NormalForm) for item in items]
    # Step t multiplies values[i, r] by the factor that right-multiplying by a
    # (code 0) or a* (code 1) puts on the entry in column cols[i, t] + r, or
    # by an exact 1 (code 2), which pads a shorter item.
    if not all(forms):
        if any(forms):
            raise InvalidSpec("shift_values takes words or normal forms, not both")
        words = [_letters(word) for word in items]
        codes = np.full((len(words), max(map(len, words), default=0)), 2)
        for i, word in enumerate(words):
            codes[i, :len(word)] = [0 if letter == GEN else 1 for letter in word]
        steps = np.array([1, -1, 0])[codes]
        # row r of the product so far holds its entry in column r + (prefix degree)
        cols = np.cumsum(steps, axis=1) - steps
        values = np.ones((len(words), n), dtype=np.complex128)
    else:
        top = max((len(nf.p) for nf in items), default=1)
        coeffs = np.zeros((len(items), top), dtype=np.complex128)
        for i, nf in enumerate(items):
            coeffs[i, top - len(nf.p):] = [complex(c) for c in reversed(nf.p)]
        l, m = np.array([[nf.l, nf.m] for nf in items], dtype=int).reshape(-1, 2).T
        x = np.concatenate([[0], w.conj() * w])  # the diagonal of a*a
        # row r of a*^l p(x) a^m reads x at k = r - l; a k < 0 meets a factor 0 first
        xk = x[np.maximum(np.arange(n) - l[:, None], 0)]
        values = np.repeat(coeffs[:, :1], n, axis=1)
        for c in coeffs.T[1:]:
            values = values * xk + c[:, None]
        j = np.arange(max(l.max(initial=0), m.max(initial=0)))
        # a* @ P puts conj(w_{k+j}) on the core entry k = r - l, P @ a puts w_{k+j}
        codes = np.concatenate([np.where(j < l[:, None], 1, 2), np.where(j < m[:, None], 0, 2)], 1)
        cols = np.concatenate([j + 1 - l[:, None], j - l[:, None]], 1)
    pad = cols.shape[1] + 1  # past either end of the matrix, every factor is 0
    table = np.zeros((3, n + 2 * pad), dtype=np.result_type(w, np.complex128))
    table[0, pad:pad + n - 1] = w  # a: e_{k+1} -> w_k e_k
    table[1, pad + 1:pad + n] = w.conj()  # a*: e_{k-1} -> conj(w_{k-1}) e_k
    table[2] = 1
    for code, col in zip(codes.T, cols.T):
        values *= table[code[:, None], col[:, None] + pad + np.arange(n)]
    return values
