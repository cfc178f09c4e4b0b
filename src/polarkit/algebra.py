"""Finite-dimensional *-algebras of matrices as explicit linear spans.

At desk scale a C*-algebra of n x n matrices is just a linear subspace of
M_n closed under products and adjoints, so norm closure never enters.  An
algebra is stored as an orthonormal basis under the trace inner product
<X, Y> = tr(X* Y); generation is span closure, membership is projection
defect, commutants come from the null space of a stacked commutator map.

Two routines exist because Krylov-style generation is badly conditioned
when a generator has crowded eigenvalues: ``generate`` is the literal span
closure, ``spectral_algebra`` builds C*(1, h) for Hermitian h directly from
eigenprojections and should be preferred for that case.  ``is_function_of``
is the membership test for algebras of the form C*(1, h); it needs no basis
at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CommutantViolation, DimensionOverflow, NotHermitian, NotSubalgebra
from .linalg import (
    DEFAULT_TOL,
    as_matrix,
    dagger,
    eig_groups,
    hermitian_eig,
    operator_norm,
)

# Residual below which a candidate direction is considered already in the
# span.  Absolute, because candidates are products of Frobenius-normalized
# basis elements and therefore have norm at most 1.
DROP_THRESHOLD = 1e-10


@dataclass(frozen=True)
class MatrixAlgebra:
    """A *-closed linear span of n x n matrices.

    ``basis`` has shape (k, n, n) with rows orthonormal under the trace
    inner product.  ``unital`` records whether the identity was requested as
    a generator (the identity may of course lie in the span regardless).
    """

    dim: int
    basis: np.ndarray
    unital: bool = True

    def __post_init__(self):
        self.basis.setflags(write=False)

    @property
    def dimension(self) -> int:
        return int(self.basis.shape[0])

    def _flat(self) -> np.ndarray:
        return self.basis.reshape(self.dimension, -1)

    def project(self, m) -> np.ndarray:
        """Trace-orthogonal projection of m onto the span."""
        v = as_matrix(m).ravel()
        if self.dimension == 0:
            return np.zeros((self.dim, self.dim), dtype=np.complex128)
        flat = self._flat()
        coeffs = flat.conj() @ v
        return (coeffs @ flat).reshape(self.dim, self.dim)

    def residual(self, m) -> float:
        """Operator norm of m minus its projection onto the span."""
        return operator_norm(as_matrix(m) - self.project(m))


def contains(algebra: MatrixAlgebra, m, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Membership test: (member, residual).

    ``residual`` is the operator norm of the projection defect and the
    boolean is ``residual <= tol * (1 + ||m||)``.
    """
    mat = as_matrix(m)
    res = algebra.residual(mat)
    return res <= tol * (1.0 + operator_norm(mat)), res


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


def generate(
    generators,
    unital: bool = True,
    tol: float = DEFAULT_TOL,
    maxdim: int | None = None,
) -> MatrixAlgebra:
    """Smallest *-closed span containing the generators (and 1 if unital).

    Span closure: repeatedly absorb products of new directions with the
    current basis (both orders) and adjoints of new directions, until
    nothing new appears.  Terminates because the dimension is bounded by
    n^2; raises :class:`DimensionOverflow` past ``maxdim`` (default n^2),
    which can only happen through round-off.

    Note: this is Krylov-style and will stall below the true dimension when
    a generator has eigenvalue clusters tighter than the drop threshold
    relative to its spread.  For C*(1, h) with h Hermitian, prefer
    :func:`spectral_algebra` or the basis-free :func:`is_function_of`.
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
    return MatrixAlgebra(dim=n, basis=basis, unital=unital)


def linear_span(mats, unital: bool = False) -> MatrixAlgebra:
    """Orthonormal span of a matrix list with no product closure.

    Needed for layer subspaces like the image of an algebra under a linear
    map, which are spans but not algebras; projection and residual work the
    same way.
    """
    ms = [as_matrix(m) for m in mats]
    if not ms:
        raise ValueError("linear_span needs at least one matrix")
    n = ms[0].shape[0]
    builder = _SpanBuilder(n, n * n)
    builder.absorb(np.array(ms))
    basis = np.array([row.reshape(n, n) for row in builder.rows])
    return MatrixAlgebra(dim=n, basis=basis, unital=unital)


def spectral_algebra(h, tol: float = DEFAULT_TOL) -> MatrixAlgebra:
    """C*(1, h) for Hermitian h, built from eigenprojections.

    Equivalent to ``generate([h], unital=True)`` in exact arithmetic but
    conditioned by the eigenvalue gaps instead of a Vandermonde system:
    eigenvalues closer than ``tol * (1 + ||h||)`` are merged into one
    projection.
    """
    w, v = hermitian_eig(h, tol=tol)
    scale = 1.0 + (abs(float(w[-1])) if w.size else 0.0)
    groups = eig_groups(w, tol * scale)
    rows = []
    for idx in groups:
        block = v[:, idx]
        rows.append((block @ dagger(block)) / np.sqrt(len(idx)))
    return MatrixAlgebra(dim=v.shape[0], basis=np.array(rows), unital=True)


def _gen_list(a) -> list[np.ndarray]:
    if isinstance(a, MatrixAlgebra):
        return list(a.basis)
    return [as_matrix(g) for g in a]


def commutant(a, tol: float = DEFAULT_TOL) -> MatrixAlgebra:
    """Commutant {X : XG = GX for every G} of an algebra or matrix list.

    Computed as the null space of the stacked linear map X -> [X, G]: with
    row-major vec, vec(XG - GX) = (kron(I, G^T) - kron(G, I)) vec(X).  The
    null directions are the right singular vectors with singular value at
    most ``tol * (1 + s_max)``; because no squaring happens, the noise floor
    sits at machine precision, far below any honest tolerance.  The input
    list is closed under adjoints first so the result is a *-algebra.
    """
    mats = _gen_list(a)
    if not mats:
        raise ValueError("commutant needs at least one matrix")
    n = mats[0].shape[0]
    eye = np.eye(n)
    blocks = []
    seen = mats + [dagger(g) for g in mats]
    for g in seen:
        blocks.append(np.kron(eye, g.T) - np.kron(g, eye))
    # the stack is always tall (2 * generators * n^2 rows vs n^2 columns),
    # so the thin SVD already carries every right singular vector
    stacked = np.vstack(blocks)
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    smax = float(s[0]) if s.size else 0.0
    cut = tol * (1.0 + smax)
    null = [vh[i] for i in range(vh.shape[0]) if i >= s.size or s[i] <= cut]
    basis = np.array([row.reshape(n, n) for row in null])
    return MatrixAlgebra(dim=n, basis=basis, unital=True)


def bicommutant(a, tol: float = DEFAULT_TOL) -> MatrixAlgebra:
    """Double commutant; at finite dimension this is the generated von
    Neumann algebra, and it is far better conditioned than span closure."""
    return commutant(commutant(a, tol=tol), tol=tol)


def is_commutative(algebra: MatrixAlgebra, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Largest commutator norm over basis pairs; boolean is <= tol."""
    worst = 0.0
    b = algebra.basis
    for i in range(algebra.dimension):
        for j in range(i + 1, algebra.dimension):
            worst = max(worst, operator_norm(b[i] @ b[j] - b[j] @ b[i]))
    return worst <= tol, worst


def is_ideal_in(j: MatrixAlgebra, a: MatrixAlgebra, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Check that span j absorbs multiplication by a on both sides.

    Raises :class:`NotSubalgebra` when some basis element of j is not a
    member of a.
    """
    if j.dim != a.dim:
        raise ValueError("ambient dimensions differ")
    for i, m in enumerate(j.basis):
        member, res = contains(a, m, tol)
        if not member:
            raise NotSubalgebra(f"basis element {i} of the candidate ideal is outside the algebra (residual {res:.3e})")
    worst = 0.0
    for x in j.basis:
        for y in a.basis:
            worst = max(worst, j.residual(x @ y), j.residual(y @ x))
    return worst <= tol, worst


@dataclass(frozen=True)
class FunctionCertificate:
    """Outcome of a "is b a function of a" test.

    ``table`` maps representative eigenvalues of a to the (approximately
    constant) value b takes on the corresponding eigenspace; it is the
    finite-dimensional stand-in for the function itself.
    ``worst_eigenvalue`` is the representative eigenvalue of a whose
    eigenspace rows carry the largest defect when b is not a function of
    a, and None when it is.
    """

    exists: bool
    residual: float
    table: tuple[tuple[float, complex], ...] = field(default=())
    worst_eigenvalue: float | None = None


def _block_constant_defect(b_rot: np.ndarray, blocks: list[np.ndarray]):
    """Defect matrix of b (already rotated) from being scalar on each
    block, with the block values."""
    model = np.zeros_like(b_rot)
    values = []
    for idx in blocks:
        sub = b_rot[np.ix_(idx, idx)]
        val = complex(np.trace(sub)) / len(idx)
        model[np.ix_(idx, idx)] = val * np.eye(len(idx))
        values.append(val)
    return b_rot - model, values


def is_function_of(b, a, tol: float = DEFAULT_TOL) -> FunctionCertificate:
    """Decide whether b = f(a) for some function f on the spectrum of a.

    ``a`` must be Hermitian within tol; ``b`` Hermitian or normal within
    tol (:class:`NotHermitian` otherwise).  Eigenvalues of a are grouped at
    ``tol * (1 + ||a||)``; b qualifies when, in the eigenbasis of a, it is
    block diagonal and scalar on every group.  The residual is the operator
    norm of the defect from that shape, and membership requires
    ``residual <= tol * (1 + ||b||)``.

    This is exactly membership in C*(1, a), but conditioned by b itself
    rather than by a Vandermonde system in the eigenvalues of a.
    """
    bm = as_matrix(b)
    comm = operator_norm(bm @ dagger(bm) - dagger(bm) @ bm)
    scale_b = 1.0 + operator_norm(bm)
    if comm > tol * scale_b * scale_b:
        raise NotHermitian(f"b is neither Hermitian nor normal (self-commutator {comm:.3e})")
    w, v = hermitian_eig(a, tol=tol)
    scale_a = 1.0 + (abs(float(w[-1])) if w.size else 0.0)
    groups = eig_groups(w, tol * scale_a)
    b_rot = dagger(v) @ bm @ v
    resid, values = _block_constant_defect(b_rot, groups)
    defect = operator_norm(resid)
    exists = defect <= tol * scale_b
    table = tuple(
        (float(np.mean(w[idx])), complex(val)) for idx, val in zip(groups, values)
    )
    worst = None
    if not exists:
        rows = [float(np.linalg.norm(resid[idx, :])) for idx in groups]
        worst = float(np.mean(w[groups[int(np.argmax(rows))]]))
    return FunctionCertificate(
        exists=exists, residual=defect, table=table, worst_eigenvalue=worst
    )


def joint_eigenbasis(mats, tol: float = DEFAULT_TOL):
    """Simultaneous eigenbasis of a commuting Hermitian family.

    Returns ``(v, blocks)``: a unitary and index groups such that every
    input is (approximately) scalar on each block in that basis.  Raises
    :class:`CommutantViolation` when two inputs fail to commute within
    tol and :class:`NotHermitian` for non-Hermitian input.
    """
    ms = [as_matrix(m) for m in mats]
    if not ms:
        raise ValueError("need at least one matrix")
    n = ms[0].shape[0]
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            c = operator_norm(ms[i] @ ms[j] - ms[j] @ ms[i])
            scale = (1.0 + operator_norm(ms[i])) * (1.0 + operator_norm(ms[j]))
            if c > tol * scale:
                raise CommutantViolation(f"family members {i} and {j} do not commute (norm {c:.3e})")
    v = np.eye(n, dtype=np.complex128)
    blocks = [np.arange(n)]
    for h in ms:
        scale_h = 1.0 + operator_norm(h)
        refined: list[np.ndarray] = []
        for idx in blocks:
            sub = dagger(v[:, idx]) @ h @ v[:, idx]
            w, u = np.linalg.eigh((sub + dagger(sub)) / 2.0)
            v[:, idx] = v[:, idx] @ u
            for g in eig_groups(w, tol * scale_h):
                refined.append(idx[g])
        blocks = refined
    return v, blocks


def is_function_of_family(b, mats, tol: float = DEFAULT_TOL) -> FunctionCertificate:
    """Membership of b in the C*-algebra generated by 1 and a commuting
    Hermitian family, via the joint eigenblock characterization."""
    bm = as_matrix(b)
    v, blocks = joint_eigenbasis(mats, tol=tol)
    b_rot = dagger(v) @ bm @ v
    defect = operator_norm(_block_constant_defect(b_rot, blocks)[0])
    scale_b = 1.0 + operator_norm(bm)
    return FunctionCertificate(exists=defect <= tol * scale_b, residual=defect)


def algebras_equal(a: MatrixAlgebra, b: MatrixAlgebra, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Mutual containment of spans; residual is the worst projection defect."""
    worst = 0.0
    for m in a.basis:
        worst = max(worst, b.residual(m))
    for m in b.basis:
        worst = max(worst, a.residual(m))
    return worst <= tol, worst
