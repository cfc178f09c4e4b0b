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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, NotHermitian

DEFAULT_TOL = 1e-9


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square complex128 matrix (no copy when possible)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


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
    a = as_matrix(m)
    defect, norm = _operator_norms([a - dagger(a), a])
    scale = 1.0 + norm
    if defect > tol * scale:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {tol:.1e} * {scale:.3e}")
    w, v = np.linalg.eigh((a + dagger(a)) / 2.0)
    return w, v


def eig_groups(w: np.ndarray, gap_tol: float) -> list[np.ndarray]:
    """Partition ascending eigenvalues into clusters separated by > gap_tol.

    Returns index arrays.  Transitive grouping: a chain of sub-tolerance
    gaps ends up in one cluster, which is the behaviour we want when
    deciding whether an operator can tell two eigenvalues apart.
    """
    groups: list[np.ndarray] = []
    if w.size == 0:
        return groups
    start = 0
    for i in range(1, w.size):
        if w[i] - w[i - 1] > gap_tol:
            groups.append(np.arange(start, i))
            start = i
    groups.append(np.arange(start, w.size))
    return groups


@dataclass(frozen=True)
class PolarDecomposition:
    """Result of ``polar_decompose``: a = u @ pos with u a partial isometry.

    ``pos`` is the positive factor (a*a)^(1/2); ``u`` is isometric on the
    closure of the range of ``pos`` and zero on its kernel.  ``rank`` is the
    number of singular values kept, ``cutoff`` the threshold they were
    compared against, ``residual`` the operator norm of a - u @ pos.
    """

    u: np.ndarray
    pos: np.ndarray
    rank: int
    cutoff: float
    residual: float


def polar_decompose(a, tol: float = DEFAULT_TOL) -> PolarDecomposition:
    """Polar decomposition a = U |a| with the partial-isometry convention.

    Computed via SVD: a = W diag(s) V*.  Singular values at or below
    ``tol * max(s)`` are treated as exactly zero, so U annihilates the
    corresponding right singular vectors instead of acting unitarily there.
    ``|a| = V diag(s) V*`` keeps the small singular values (the positive
    factor does not need a rank decision).  A matrix with a NaN or
    infinite entry is an :class:`InvalidSpec` naming that entry.
    """
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
    return PolarDecomposition(u=u, pos=pos, rank=rank, cutoff=cutoff, residual=residual)


def rough_norm(m, iters: int = 50) -> float:
    """Power-iteration estimate of the operator norm.

    Deterministic: the start vector is a fixed pseudorandom draw (PCG64,
    seed 0) so repeated runs agree to the bit.  Used where a cheap scale
    guess is wanted without consulting the SVD oracle; accuracy of a few
    percent is enough for its callers.
    """
    a = as_matrix(m)
    n = a.shape[0]
    if n == 0:
        return 0.0
    rng = np.random.Generator(np.random.PCG64(0))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    ah = dagger(a)
    est = 0.0
    for _ in range(iters):
        w = ah @ (a @ v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        est = nw
        v = w / nw
    return float(np.sqrt(est))


def _norm_f(m: np.ndarray) -> np.ndarray:
    """||m||_F of each matrix of a (..., r, c) stack."""
    return np.sqrt((m.real * m.real + m.imag * m.imag).sum(axis=(-2, -1)))


def _norm_bounds(m: np.ndarray) -> np.ndarray:
    """Bounds on ||m|| for each matrix of a (..., r, c) stack from one
    product, ||m* m||_F^(1/2): the 4th root of the sum of the 4th powers of
    m's singular values, at most ||m||_F.  Taken of m / ||m||_F, so that
    nothing underflows."""
    scale = _norm_f(m)
    unit = m / np.where(scale > 0.0, scale, 1.0)[..., None, None]
    return scale * np.sqrt(_norm_f(dagger(unit) @ unit))


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
