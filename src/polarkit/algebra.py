"""Finite-dimensional *-algebras of matrices: commutative algebras stored
by their atoms, and the explicit linear spans the commutant returns.

At desk scale a C*-algebra of n x n matrices is just a linear subspace of
M_n closed under products and adjoints, so norm closure never enters.  A
commutative *-algebra with 1 is C(X) for the finite set X of its minimal
projections ("atoms"), so :class:`SpectralAlgebra` is only a unitary v
and one atom label per column of v, and its dimension is |X|.  Its
members are the matrices that are scalar on every atom in that basis, so
membership is a block-constant defect and needs no basis at all.  Every
algebra the package builds is one: ``spectral_algebra`` builds C*(1, h)
for Hermitian h from eigenprojections; ``_refine`` is the one step that
splits atoms by a Hermitian matrix, and the towers of ``tower.py`` build
every level with it.  ``is_function_of`` is the membership test for
algebras of the form C*(1, h).  Eigenvalues of h are grouped by one rule,
``_eigenspaces``.

:class:`MatrixAlgebra` is an orthonormal basis under the trace inner
product <X, Y> = tr(X* Y); only ``commutant`` and ``bicommutant`` (a
Kronecker null space, O(n^5) memory) return one, and no other module
names it.  A finite-dimensional *-algebra with 1 is its own bicommutant,
so no check of the package needs them; they stay public as the reference
oracle of that theorem, which the benchmark's sweep runs on C*(1, |a|).
An atom algebra enters the commutant as its projection rows
P_x / sqrt(rank P_x), formed for that call only.  The tower and the
graded model refuse a span algebra.

Every residual is an operator norm; one over many matrices is one
``operator_norm`` call on their stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NotHermitian
from .linalg import (
    DEFAULT_TOL,
    _finite,
    _operator_norms,
    as_matrix,
    dagger,
    eig_groups,
    hermitian_eig,
    operator_norm,
)

# Size below which a direction of a spanning set counts as already in its
# span: a singular value of the set, relative to the largest one when that
# exceeds 1.
DROP_THRESHOLD = 1e-10


@dataclass(frozen=True)
class MatrixAlgebra:
    """A *-closed linear span of n x n matrices.

    ``basis`` has shape (k, n, n) with rows orthonormal under the trace
    inner product.
    """

    dim: int
    basis: np.ndarray

    def __post_init__(self):
        self.basis.setflags(write=False)

    @property
    def dimension(self) -> int:
        return int(self.basis.shape[0])


@dataclass(frozen=True)
class SpectralAlgebra:
    """A commutative *-algebra with 1, stored by its atoms.

    ``v`` is unitary and ``labels[i]`` names the atom of column i; each
    atom is a consecutive range of columns, so ``labels`` runs 0, 0, .., 1,
    .. upward.  The algebra is every matrix that is scalar on each atom in
    the basis v, so its dimension is the number of atoms.
    """

    dim: int
    v: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.v.setflags(write=False)
        self.labels.setflags(write=False)

    @cached_property
    def _ranges(self) -> tuple[np.ndarray, np.ndarray]:
        return _atom_ranges(self.labels)

    @cached_property
    def _vh(self) -> np.ndarray:
        return np.ascontiguousarray(dagger(self.v))

    @property
    def dimension(self) -> int:
        return len(self._ranges[0])

    @property
    def blocks(self) -> list[np.ndarray]:
        """The column ranges of v, one per atom: none for the 0 x 0 algebra."""
        return np.split(np.arange(self.dim), self._ranges[0][1:]) if self.dim else []


def _eigenspaces(h, tol: float):
    """The one eigenvalue-grouping rule: ``(w, v, groups, scale)``, with
    eigenvalues of Hermitian h grouped at ``tol * scale``, scale 1 + |w_max|."""
    w, v = hermitian_eig(h, tol=tol)
    scale = 1.0 + (abs(float(w[-1])) if w.size else 0.0)
    return w, v, eig_groups(w, tol * scale), scale


def _projection_basis(v: np.ndarray, groups) -> np.ndarray:
    """The projections P_i onto column groups of unitary v, as the
    orthonormal rows P_i / sqrt(rank P_i)."""
    n = v.shape[0]
    rows = [v[:, idx] @ dagger(v[:, idx]) / np.sqrt(len(idx)) for idx in groups]
    return np.array(rows) if rows else np.zeros((0, n, n), dtype=np.complex128)


def _labels(groups) -> np.ndarray:
    """One atom label per column, for consecutive column groups."""
    return np.repeat(np.arange(len(groups)), [len(idx) for idx in groups])


def _atom_ranges(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First column and column count of each atom."""
    edges = np.ones(labels.size + 1, dtype=bool)
    np.not_equal(labels[1:], labels[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _atom_algebra(v: np.ndarray, groups) -> SpectralAlgebra:
    """The commutative algebra whose atoms are the consecutive column
    groups of unitary v."""
    return SpectralAlgebra(dim=v.shape[0], v=v, labels=_labels(groups))


def spectral_algebra(h, tol: float = DEFAULT_TOL) -> SpectralAlgebra:
    """C*(1, h) for Hermitian h, built from eigenprojections.

    Conditioned by the eigenvalue gaps instead of a Vandermonde system:
    eigenvalues closer than ``tol * (1 + ||h||)`` are merged into one
    atom.  An h with a NaN or infinite entry is an :class:`InvalidSpec`.
    """
    _, v, groups, _ = _eigenspaces(_finite(as_matrix(h), "h"), tol)
    return _atom_algebra(v, groups)


def commutant(a, tol: float = DEFAULT_TOL) -> MatrixAlgebra:
    """Commutant {X : XG = GX for every G} of an algebra or matrix list.

    Computed as the null space of the stacked linear map X -> [X, G]: with
    row-major vec, vec(XG - GX) = (kron(I, G^T) - kron(G, I)) vec(X).  The
    null directions are the right singular vectors with singular value at
    most ``tol * (1 + s_max)``; because no squaring happens, the noise floor
    sits at machine precision, far below any honest tolerance.  The input
    list is closed under adjoints first so the result is a *-algebra.  An
    algebra stored by its atoms enters as the rows P_x / sqrt(rank P_x).
    A matrix with a NaN or infinite entry is an :class:`InvalidSpec`.
    """
    if isinstance(a, SpectralAlgebra):
        mats = list(_projection_basis(a.v, a.blocks))
    elif isinstance(a, MatrixAlgebra):
        mats = list(a.basis)
    else:
        mats = [as_matrix(g) for g in a]
    if not mats:
        raise ValueError("commutant needs at least one matrix")
    mats = [_finite(g, f"matrix {i}") for i, g in enumerate(mats)]
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
    return MatrixAlgebra(dim=n, basis=basis)


def bicommutant(a, tol: float = DEFAULT_TOL) -> MatrixAlgebra:
    """Double commutant; at finite dimension this is the generated von
    Neumann algebra, so for an algebra with 1 it equals the algebra (the
    tests check this against :func:`spectral_algebra`)."""
    return commutant(commutant(a, tol=tol), tol=tol)


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


def _atom_means(rot: np.ndarray, ranges) -> np.ndarray:
    """Mean of each atom's diagonal entries, per matrix of a rotated
    (..., n, n) stack.  Atoms are consecutive column ranges, so this is
    one ``np.add.reduceat``, which sums each matrix on its own."""
    starts, sizes = ranges
    return np.add.reduceat(np.diagonal(rot, axis1=-2, axis2=-1), starts, axis=-1) / sizes


def _block_constant_defect(rot: np.ndarray, labels: np.ndarray, ranges):
    """Defect of each matrix of a rotated (..., n, n) stack from being
    scalar on every atom, with the atom values (..., atoms): each diagonal
    entry loses the mean of its atom's diagonal.  ``ranges`` are the
    atoms' (:func:`_atom_ranges` of ``labels``)."""
    means = _atom_means(rot, ranges)
    defect = np.array(rot, dtype=np.complex128)
    cols = np.arange(labels.size)
    defect[..., cols, cols] -= means[..., labels]
    return defect, means


def _atom_residual(v: np.ndarray, labels: np.ndarray, stack: np.ndarray) -> float:
    """Largest block-constant defect of a (..., n, n) stack in the atoms
    (v, labels)."""
    rot = dagger(v) @ stack @ v
    return operator_norm(_block_constant_defect(rot, labels, _atom_ranges(labels))[0])


def is_function_of(b, a, tol: float = DEFAULT_TOL) -> FunctionCertificate:
    """Decide whether b = f(a) for some function f on the spectrum of a.

    ``a`` must be Hermitian within tol; ``b`` Hermitian or normal within
    tol (:class:`NotHermitian` otherwise).  Eigenvalues of a are grouped at
    ``tol * (1 + ||a||)``; b qualifies when, in the eigenbasis of a, it is
    block diagonal and scalar on every group.  The residual is the operator
    norm of the defect from that shape, and membership requires
    ``residual <= tol * (1 + ||b||)``.

    This is exactly membership in C*(1, a), but conditioned by b itself
    rather than by a Vandermonde system in the eigenvalues of a.  A b or
    a with a NaN or infinite entry is an :class:`InvalidSpec`.
    """
    bm = _finite(as_matrix(b), "b")
    scale_b = _normal_scale(bm, tol)
    w, v, groups, _ = _eigenspaces(_finite(as_matrix(a), "a"), tol)
    labels = _labels(groups)
    starts, sizes = ranges = _atom_ranges(labels)
    resid, values = _block_constant_defect(dagger(v) @ bm @ v, labels, ranges)
    defect = operator_norm(resid)
    exists = defect <= tol * scale_b
    means = np.add.reduceat(w, starts) / sizes
    table = tuple((float(mean), complex(val)) for mean, val in zip(means, values))
    worst = None
    if not exists:
        rows = [float(np.linalg.norm(resid[idx, :])) for idx in groups]
        worst = float(means[int(np.argmax(rows))])
    return FunctionCertificate(
        exists=exists, residual=defect, table=table, worst_eigenvalue=worst
    )


def _normal_scale(bm: np.ndarray, tol: float) -> float:
    """1 + ||b||, once b passes the normality test of :func:`is_function_of`;
    its self-commutator and ||b|| are one stack."""
    comm, norm = _operator_norms([bm @ dagger(bm) - dagger(bm) @ bm, bm])
    scale_b = 1.0 + float(norm)
    if comm > tol * scale_b * scale_b:
        raise NotHermitian(f"b is neither Hermitian nor normal (self-commutator {comm:.3e})")
    return scale_b


def _value_classes(values: np.ndarray, tol: float) -> np.ndarray:
    """The atoms of the algebra that vectors over X generate: the classes
    of atoms on which every row takes one value, within
    ``tol * (1 + max |row|)``."""
    rows = np.concatenate((values.real, values.imag))
    cls = np.zeros(rows.shape[1], dtype=int)
    for row in rows:
        if cls.max() == cls.size - 1:
            break
        order = np.lexsort((row, cls))
        gap = tol * (1.0 + np.abs(row).max())
        ordered, cls_ordered = row[order], cls[order]
        split = (cls_ordered[1:] != cls_ordered[:-1]) | (ordered[1:] - ordered[:-1] > gap)
        cls[order] = np.cumsum(np.concatenate(([0], split)))
    return cls


def _refine(v: np.ndarray, blocks, h: np.ndarray, gap: float) -> list[np.ndarray]:
    """Split each block of columns of v by the eigenvalues of Hermitian h
    compressed to it, grouped at ``gap``; v is rotated within each block
    in place.  Refinement only splits, so every block stays a consecutive
    column range.  This is the one step behind every set of atoms built
    from a family, each tower level among them."""
    refined: list[np.ndarray] = []
    for idx in blocks:
        if idx.size == 1:
            refined.append(idx)
            continue
        sub = dagger(v[:, idx]) @ h @ v[:, idx]
        w, u = np.linalg.eigh((sub + dagger(sub)) / 2.0)
        v[:, idx] = v[:, idx] @ u
        for g in eig_groups(w, gap):
            refined.append(idx[g])
    return refined
