"""Span closure: the reference way to build a matrix algebra.

``generate`` is the literal Krylov-style construction of the smallest
*-closed span containing some matrices, and ``linear_span`` their plain
orthonormal span.  The package builds every algebra from atoms or graded
atoms instead; these stay as the independent oracle the tests compare
against.  They are badly conditioned when a generator has crowded
eigenvalues, which is why no runtime path uses them.  ``project``,
``contains`` and ``algebras_equal`` are the membership tests the tests
read algebras by.

``basis_of`` is the one way the tests read an orthonormal basis off an
algebra: a span's rows, or the rows P_x / sqrt(rank P_x) of an algebra
stored by its atoms, which the package never keeps.  ``residual`` is the
projection defect of a span and the block-constant defect of an atom
algebra.

``joint_eigenbasis`` and ``nonunital_seed`` are the dense eigenspace
oracles of the ten-property report: the atoms of a commuting Hermitian
family, and the algebra |a| generates without the identity.
``ref_is_commutative`` is the per-pair commutator of a basis.

``hypotheses`` reads the tower's hypothesis report for a seed alone, on
the atoms of its double closure, as ``build_tower`` reads it.
"""

import numpy as np

from polarkit.algebra import (
    DROP_THRESHOLD,
    MatrixAlgebra,
    SpectralAlgebra,
    _atom_residual,
    _eigenspaces,
    _projection_basis,
    _refine,
)
from polarkit.linalg import DEFAULT_TOL, _operator_norms, as_matrix, dagger, operator_norm
from polarkit.tower import _double_closure, _hypotheses


class DimensionOverflow(Exception):
    """Span closure exceeded its dimension cap.

    Usually a sign that the tolerance is too small for the conditioning of
    the generators, so round-off keeps producing "new" directions.
    """


class _SpanBuilder:
    """Incremental orthonormal span with modified Gram-Schmidt absorption."""

    def __init__(self, n: int, maxdim: int):
        self.n = n
        self.maxdim = maxdim
        self.rows: list[np.ndarray] = []

    def _matrix(self) -> np.ndarray:
        return np.array(self.rows) if self.rows else np.zeros((0, self.n * self.n), dtype=np.complex128)

    def absorb(self, stack: np.ndarray) -> list[np.ndarray]:
        """Add the directions of ``stack`` (m, n, n) not already in the span.

        Returns the new orthonormal directions, reshaped to matrices.
        Projection runs twice against the existing span (classical
        re-orthogonalization), then candidates are folded in one at a time
        so later candidates see the directions added by earlier ones.
        """
        if stack.size == 0:
            return []
        cands = stack.reshape(stack.shape[0], -1).astype(np.complex128)
        orig = np.linalg.norm(cands, axis=1)
        base = self._matrix()
        for _ in range(2):
            if base.shape[0]:
                cands = cands - (cands @ base.conj().T) @ base
        added: list[np.ndarray] = []
        for i in range(cands.shape[0]):
            v = cands[i]
            for _ in range(2):
                for row in added:
                    v = v - np.vdot(row, v) * row
            nv = float(np.linalg.norm(v))
            if nv > DROP_THRESHOLD * max(1.0, float(orig[i])):
                if len(self.rows) + len(added) + 1 > self.maxdim:
                    raise DimensionOverflow(
                        f"span closure exceeded maxdim={self.maxdim}; "
                        "tol is probably too small for the conditioning of the generators"
                    )
                added.append(v / nv)
        self.rows.extend(added)
        return [row.reshape(self.n, self.n) for row in added]


def generate(generators, unital: bool = True, maxdim: int | None = None) -> MatrixAlgebra:
    """Smallest *-closed span containing the generators (and 1 if unital).

    Span closure: repeatedly absorb products of new directions with the
    current basis (both orders) and adjoints of new directions, until
    nothing new appears.  Terminates because the dimension is bounded by
    n^2; raises :class:`DimensionOverflow` past ``maxdim`` (default n^2),
    which can only happen through round-off.
    """
    mats = [as_matrix(g) for g in generators]
    if not mats:
        raise ValueError("generate needs at least one generator")
    n = mats[0].shape[0]
    for g in mats:
        if g.shape[0] != n:
            raise ValueError("generators must share one ambient dimension")
    if maxdim is None:
        maxdim = n * n
    if maxdim < n * n:
        raise ValueError(f"maxdim={maxdim} is below the ambient bound {n * n}")

    builder = _SpanBuilder(n, maxdim)
    seed = ([np.eye(n, dtype=np.complex128)] if unital else []) + mats
    frontier = builder.absorb(np.array(seed))
    while frontier:
        fresh: list[np.ndarray] = []
        for x in frontier:
            basis3 = np.array([row.reshape(n, n) for row in builder.rows])
            fresh += builder.absorb(x[None, :, :] @ basis3)
            fresh += builder.absorb(basis3 @ x[None, :, :])
            fresh += builder.absorb(dagger(x)[None, :, :])
        frontier = fresh
    basis = np.array([row.reshape(n, n) for row in builder.rows])
    return MatrixAlgebra(dim=n, basis=basis)


def linear_span(mats) -> MatrixAlgebra:
    """Orthonormal span of a matrix list with no product closure, for
    layer subspaces like the image of an algebra under a linear map."""
    ms = [as_matrix(m) for m in mats]
    if not ms:
        raise ValueError("linear_span needs at least one matrix")
    n = ms[0].shape[0]
    builder = _SpanBuilder(n, n * n)
    builder.absorb(np.array(ms))
    basis = np.array([row.reshape(n, n) for row in builder.rows])
    return MatrixAlgebra(dim=n, basis=basis)


def basis_of(alg) -> np.ndarray:
    """The (k, n, n) orthonormal basis of alg: a span's rows, or the atom
    projections P_x / sqrt(rank P_x) of an algebra stored by its atoms."""
    if isinstance(alg, SpectralAlgebra):
        return _projection_basis(alg.v, alg.blocks)
    return alg.basis


def residual(alg, m) -> float:
    """Operator norm of m minus its part in alg; for a (k, n, n) stack, the
    largest over the stack.  A span projects the whole stack in one
    product; an atom algebra reads the block-constant defect in v."""
    ms = np.asarray(m, dtype=np.complex128)
    if isinstance(alg, SpectralAlgebra):
        return _atom_residual(alg.v, alg.labels, ms)
    ms = ms.reshape(-1, alg.dim * alg.dim)
    if alg.dimension:
        flat = alg.basis.reshape(alg.dimension, -1)
        ms = ms - (ms @ flat.conj().T) @ flat
    return operator_norm(ms.reshape(-1, alg.dim, alg.dim))


def project(alg, m) -> np.ndarray:
    """Trace-orthogonal projection of m onto the span of alg's basis."""
    flat = basis_of(alg).reshape(alg.dimension, alg.dim * alg.dim)
    return ((flat.conj() @ as_matrix(m).ravel()) @ flat).reshape(alg.dim, alg.dim)


def contains(alg, m, tol: float = 1e-9) -> tuple[bool, float]:
    """(member, residual): alg's residual of m, against tol * (1 + ||m||)."""
    mat = as_matrix(m)
    res = residual(alg, mat)
    return res <= tol * (1.0 + float(np.linalg.norm(mat, 2))), res


def algebras_equal(a, b, tol: float = 1e-9) -> tuple[bool, float]:
    """Mutual containment of spans; residual is the worst projection defect."""
    worst = max(residual(b, basis_of(a)), residual(a, basis_of(b)))
    return worst <= tol, worst


def joint_eigenbasis(mats, tol: float = DEFAULT_TOL):
    """Simultaneous eigenbasis ``(v, blocks)`` of a commuting Hermitian
    family: every member is (approximately) scalar on each block of
    columns of the unitary v.  Member j splits the blocks at
    ``tol * (1 + ||m_j||)``; ValueError names the first pair that does not
    commute within ``tol * (1 + ||m_i||) * (1 + ||m_j||)``."""
    ms = np.array([as_matrix(m) for m in mats])
    norms = _operator_norms(ms)
    v = np.eye(ms.shape[-1], dtype=np.complex128)
    blocks = [np.arange(ms.shape[-1])]
    for j, h in enumerate(ms):
        comm = _operator_norms(ms[:j] @ h - h @ ms[:j])
        bad = np.flatnonzero(comm > tol * ((1.0 + norms[:j]) * (1.0 + norms[j])))
        if bad.size:
            raise ValueError(f"family members {bad[0]} and {j} do not commute")
        blocks = _refine(v, blocks, h, tol * (1.0 + norms[j]))
    return v, blocks


def nonunital_seed(pos, tol: float = DEFAULT_TOL) -> MatrixAlgebra:
    """The algebra generated by |a| without adjoining the identity: the
    eigenprojections of |a| away from its kernel, as the rows
    P_i / sqrt(rank P_i)."""
    w, v, groups, scale = _eigenspaces(pos, tol)
    kept = [idx for idx in groups if abs(float(np.mean(w[idx]))) > tol * scale]
    return MatrixAlgebra(dim=v.shape[0], basis=_projection_basis(v, kept))


def ref_is_commutative(alg) -> float:
    """Largest commutator norm over pairs of alg's basis, one SVD each."""
    b = basis_of(alg)
    worst = 0.0
    for i in range(alg.dimension):
        for j in range(i + 1, alg.dimension):
            worst = max(worst, float(np.linalg.svd(b[i] @ b[j] - b[j] @ b[i], compute_uv=False)[0]))
    return worst


def hypotheses(a0, pair, kmax=None, tol=DEFAULT_TOL):
    """The tower's ``HypothesesReport`` for the seed a0: both hypothesis
    sets up to kmax (default the ambient dimension), read on the atoms of
    its double closure."""
    frame, _, defect = _double_closure(a0, pair, tol)
    return _hypotheses(frame, a0, pair.ambient_dim if kmax is None else kmax, tol, defect)
