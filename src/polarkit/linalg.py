"""Numeric core: dense complex matrices, spectral helpers, polar decomposition.

Matrices are plain ``numpy.ndarray`` objects of dtype complex128, shape
(n, n).  Nothing here mutates its arguments; every function returns fresh
arrays.  The rank decisions (what counts as "zero") are always made relative
to the largest singular value, with the cutoff factor exposed as ``tol``.

``operator_norm``, the one residual primitive, takes a (..., n, n) stack
and returns its largest norm in one batched SVD; a check that names the
first matrix over its own threshold reads the norms of ``_operator_norms``.
The block helpers at the end read matrices by blocks of consecutive
ranges (the atoms of ``tower._AtomFrame``) with Frobenius norms and
gathers, and take no SVD.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, NotHermitian

DEFAULT_TOL = 1e-9


def _tolerance(tol, name: str = "tol") -> float:
    """tol if it is a real number in (0, inf), else an InvalidSpec naming
    ``name``: the one tol check."""
    if not (isinstance(tol, numbers.Real) and 0.0 < tol < np.inf):
        raise InvalidSpec(f"{name} must be positive and finite, got {tol!r}")
    return tol


def _count(value, name: str, least: int) -> int:
    """value as an int (by ``operator.index``) if it is at least ``least``,
    else an InvalidSpec naming ``name``: the one check of a count."""
    try:
        count = operator.index(value)
    except TypeError:
        raise InvalidSpec(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise InvalidSpec(f"{name} must be at least {least}, got {count}")
    return count


def as_matrix(m) -> np.ndarray:
    """m as a square complex128 matrix (no copy when possible): the one shape
    check on a matrix from outside, an :class:`InvalidSpec` on anything else."""
    try:
        a = np.asarray(m, dtype=np.complex128)
        if a.ndim == 2 and a.shape[0] == a.shape[1]:
            return a
    except (TypeError, ValueError, OverflowError):
        pass
    try:
        shape = np.shape(np.asarray(m, dtype=object))
    except ValueError:  # arrays of unequal shapes, which numpy cannot hold as objects
        shape = "unknown"
    raise InvalidSpec(f"expected a square complex matrix, got {type(m).__name__} of shape {shape}")


def _finite(m: np.ndarray, name: str) -> np.ndarray:
    """m, when every entry is finite; else an :class:`InvalidSpec` naming
    ``name`` and its first NaN or infinite entry."""
    finite = np.isfinite(m)
    if not finite.all():
        at = tuple(np.argwhere(~finite)[0].tolist())
        raise InvalidSpec(f"{name} has a non-finite entry {m[at]} at {at}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix, for a (..., n, n) stack)."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def _operator_norms(m) -> np.ndarray:
    """Largest singular value of each matrix of a (..., n, n) stack."""
    a = np.asarray(m, dtype=np.complex128)
    if a.size == 0:
        return np.zeros(a.shape[:-2] if a.ndim > 2 else 0)
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def operator_norm(m) -> float:
    """Largest singular value; for a (..., n, n) stack, the largest over
    the stack.

    This is the reference norm for every certificate in the package: slower
    than a Frobenius bound but it is the quantity the inequalities are
    actually about.  The largest norm in a stack is the operator norm of
    the direct sum of its matrices, so a residual that is a maximum over
    many defect matrices is one call on their stack.  An empty stack gives
    0.0.  The tests check that a stack gives the per-matrix maximum bit for
    bit.
    """
    return float(_operator_norms(m).max(initial=0.0))


def hermitian_eig(m, tol: float = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and ``v`` unitary,
    columns being eigenvectors.  Raises :class:`NotHermitian` when the
    Hermiticity defect exceeds ``tol * (1 + ||m||)``.  The input is
    symmetrized before calling LAPACK so the defect cannot leak into the
    eigenvectors.
    """
    _tolerance(tol)
    a = as_matrix(m)
    _check_hermitian(*_operator_norms([a - dagger(a), a]), tol)
    w, v = np.linalg.eigh((a + dagger(a)) / 2.0)
    return w, v


def _check_hermitian(defect: float, norm: float, tol: float) -> None:
    """The Hermiticity test of :func:`hermitian_eig`, on ||m - m*|| and ||m||
    already taken."""
    scale = 1.0 + norm
    if defect > tol * scale:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {tol:.1e} * {scale:.3e}")


@dataclass(frozen=True)
class PolarDecomposition:
    """Result of ``polar_decompose``: a = u @ pos with u a partial isometry.

    ``pos`` is the positive factor (a*a)^(1/2); ``u`` is isometric on the
    closure of the range of ``pos`` and zero on its kernel.  ``rank`` is the
    number of singular values kept, ``cutoff`` the threshold they were
    compared against, ``residual`` the operator norm of a - u @ pos.
    ``sigma``, ascending, and the columns of ``v`` are the eigenpairs of
    pos, read off the SVD both factors come from, so ||a|| = sigma[-1].
    """

    u: np.ndarray
    pos: np.ndarray
    rank: int
    cutoff: float
    residual: float
    sigma: np.ndarray
    v: np.ndarray


def polar_decompose(a, tol: float = DEFAULT_TOL) -> PolarDecomposition:
    """Polar decomposition a = U |a| with the partial-isometry convention.

    Computed via SVD: a = W diag(s) V*.  Singular values at or below
    ``tol * max(s)`` are treated as exactly zero, so U annihilates the
    corresponding right singular vectors instead of acting unitarily there.
    ``|a| = V diag(s) V*`` keeps the small singular values (the positive
    factor does not need a rank decision).  A matrix with a NaN or
    infinite entry is an :class:`InvalidSpec` naming that entry.
    """
    _tolerance(tol)
    m = _finite(as_matrix(a), "the matrix")
    w, s, vh = np.linalg.svd(m)
    smax = float(s[0]) if s.size else 0.0
    cutoff = tol * smax
    keep = s > cutoff
    rank = int(np.count_nonzero(keep))
    u = (w[:, keep]) @ vh[keep, :]
    pos = dagger(vh) @ (s[:, None] * vh)
    pos = (pos + dagger(pos)) / 2.0
    residual = operator_norm(m - u @ pos)
    v = np.ascontiguousarray(dagger(vh[::-1]))
    return PolarDecomposition(u, pos, rank, cutoff, residual, sigma=s[::-1], v=v)


def _norm_f(m: np.ndarray) -> np.ndarray:
    """||m||_F of each matrix of a (..., r, c) stack."""
    return np.sqrt((m.real * m.real + m.imag * m.imag).sum(axis=(-2, -1)))


def _split_norm_bound(m: np.ndarray) -> float:
    """A bound on ||m|| in O(n^2), between ||m* m||_F^(1/2) and ||m||_F:
    for Q the span of m's four heaviest rows, Y = m Q and B = m - Y Q*,
    m m* = Y Y* + B B*, so ||m* m||_F^2 <= ||Y* Y||_F^2 + 2 ||Y* B||_F^2 +
    ||B||_F^4.  Taken of m / ||m||_F, so that nothing underflows."""
    scale = float(_norm_f(m))
    unit = m / (scale or 1.0)
    q = np.linalg.qr(dagger(unit[np.argsort(np.linalg.norm(unit, axis=1))[-4:]]))[0]
    y = unit @ q
    b = unit - y @ dagger(q)
    fourth = _norm_f(dagger(y) @ y) ** 2 + 2.0 * _norm_f(dagger(y) @ b) ** 2 + _norm_f(b) ** 4
    return scale * float(fourth) ** 0.25


def _block_norms(m: np.ndarray, rows, cols) -> np.ndarray:
    """S[y, s] = ||m[y, s]||_F^2, the squared Frobenius norm of m's block in
    the row range y and the column range s, ranges given as ``(starts,
    sizes)``."""
    power = m.real * m.real + m.imag * m.imag
    return np.add.reduceat(np.add.reduceat(power, rows[0], axis=0), cols[0], axis=1)


def _runs(starts: np.ndarray, counts: np.ndarray, width: int) -> np.ndarray:
    """Row i is starts[i], starts[i] + 1, .. for counts[i] entries, then -1
    up to ``width``."""
    j = np.arange(width)
    return np.where(j < counts[:, None], starts[:, None] + j, -1)


def _gather_blocks(m: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The blocks m[rows[i]][:, cols[i]] as one (blocks, rows, columns)
    array, zero where an index is -1."""
    block = m[rows[:, :, None], cols[:, None, :]]
    return np.where((rows >= 0)[:, :, None] & (cols >= 0)[:, None, :], block, 0.0)


def _gram_defects(gram: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """||g - diag(d)||_F for each matrix g of a (..., r, r) stack and row d
    of ``diag``."""
    idx = np.arange(gram.shape[-1])
    defect = gram.copy()
    defect[..., idx, idx] -= diag
    return _norm_f(defect)


def _bordered(m: np.ndarray) -> np.ndarray:
    """m with a zero row and column appended, which index -1 reads."""
    out = np.zeros((len(m) + 1, len(m) + 1), dtype=np.complex128)
    out[:-1, :-1] = m
    return out


def _push(blocks: np.ndarray, rows, cols, m: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """B_k m_k for each matrix m_k of a :func:`_bordered` stack, B_k the
    block partial permutation with blocks[k, i] in the row range
    idx[rows[k, i]] and the column range idx[cols[k, i]] (or rows[i],
    cols[i]), -1 in idx reading the zero border: rows of m_k gathered,
    multiplied and placed."""
    k = np.arange(len(m))[:, None, None]
    out = np.zeros_like(m)
    out[k, idx[rows]] = blocks @ m[k, idx[cols]]
    return out
