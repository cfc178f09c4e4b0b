"""Conjugation maps delta(b) = U b U*, delta_*(b) = U* b U and the
commutative extension towers they generate from a seed algebra.

Given a commutative unital seed A_0 and a partial isometry U, the forward
tower adjoins delta images, the star tower adjoins delta_* images:

    T_n(forward) = alg{A_0, delta(A_0), ..., delta^n(A_0)}
    T_n(star)    = alg{A_0, delta_*(A_0), ..., delta_*^n(A_0)}

Dimensions are nondecreasing and bounded, so each sequence stabilizes; the
limits are written a_inf and inf_a.  Every level is commutative, so it is
built by its atoms (minimal projections): T_n splits the atoms of T_{n-1}
by the images delta^n(A_0), with no span closure.  Applying the star
construction to a_inf (or the forward one to inf_a) gives the double
closures, which agree and form the smallest commutative algebra
containing A_0 on which both conjugations act as endomorphisms, provided
the hypotheses below hold.

Two hypothesis sets appear in the theory and the source statements do not
single one out, so both are checked and reported:

  weak set   delta_*^k(1) are projections, delta_*^k(1) in A_0',
             delta^k(A_0) in A_0', delta_*(1) commutes with delta^k(A_0)
  strong set delta(A_0) inside A_0, delta_*^k(1) projections,
             delta_*(1) in A_0'

The weak set is what the double-closure construction needs; the strong set
additionally makes the layer products and the top-layer ideal statement
valid at the seed level (they always hold at the a_inf level).  For a seed
stored by its atoms the hypotheses are read in its atom basis, where "X
commutes with A_0" is the off-block part of X (its entries between
different atoms), one batched SVD per layer of delta images.

The tower theorems are checked on the atoms X of the double closure, which
is C(X): delta and delta_* act on X as a partial injection and its
inverse, two 0/1 matrices whose column x holds the atom values of
delta(P_x) and delta_*(P_x), each tied to U by one batched defect.  Every
element a check reads is rotated into the atom basis and written as a
vector over X plus its tie, a bound on its distance from that atom
function (``_AtomFrame``).  Layer products, the top-layer ideal, the
sum-form levels, delta lowering and delta_* raising a level, the
endomorphism products and minimality are then vector algebra on X:
weighted least squares under the trace inner product, whose weights are
the atom ranks, class means for coarser levels, and a value partition for
generated algebras.  Each check reports its coordinate residual plus a
bound from the ties, and no check runs a span closure.

``orbit_structure`` reads the blocks of B = C*(1, |a|, U) off delta's
orbits on X.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    DROP_THRESHOLD,
    MatrixAlgebra,
    SpectralAlgebra,
    _atom_algebra,
    _atom_means,
    _atom_ranges,
    _block_constant_defect,
    _labels,
    _refine,
    is_commutative,
)
from .errors import HypothesisViolated, ModelNotGraded
from .isometry import _isometry_scale, partial_isometry_report
from .linalg import DEFAULT_TOL, _operator_norms, as_matrix, dagger, operator_norm

# Seed of the fixed weights that mix a refinement step's images into one
# Hermitian matrix: generic real weights in [1, 2), so that two atoms the
# images tell apart almost never get equal mixed values, and the same
# weights on every run.
MIX_SEED = 20020


@dataclass(frozen=True)
class EndoPair:
    """A validated partial isometry together with the two conjugations."""

    u: np.ndarray
    ambient_dim: int

    def __post_init__(self):
        self.u.setflags(write=False)

    def delta(self, m) -> np.ndarray:
        return self.u @ as_matrix(m) @ dagger(self.u)

    def delta_star(self, m) -> np.ndarray:
        return dagger(self.u) @ as_matrix(m) @ self.u

    def swapped(self) -> "EndoPair":
        """Roles of delta and delta_* exchanged (U replaced by U*)."""
        return EndoPair(u=dagger(self.u), ambient_dim=self.ambient_dim)


def endo_pair(u, tol: float = DEFAULT_TOL) -> EndoPair:
    """Wrap u after checking it really is a partial isometry."""
    um = as_matrix(u)
    rep = partial_isometry_report(um, tol=tol)
    if not rep.passed:
        raise HypothesisViolated(
            f"u is not a partial isometry (worst condition residual {rep.worst:.3e})"
        )
    return EndoPair(u=um, ambient_dim=um.shape[0])


def _apply_stack(pair: EndoPair, stack: np.ndarray, direction: str) -> np.ndarray:
    u = pair.u if direction == "forward" else dagger(pair.u)
    return (u[None, :, :] @ stack) @ dagger(u)[None, :, :]


@dataclass(frozen=True)
class HypothesesReport:
    """Residuals for both hypothesis sets; failures are reported, not thrown."""

    kmax: int
    weak_holds: bool
    strong_holds: bool
    weak_residual: float
    strong_residual: float
    details: dict[str, float] = field(default_factory=dict)


def _commutativity_defect(algs) -> float:
    """Largest commutator residual over the algebras.  Two atoms P_x, P_y
    of an algebra stored by its atoms multiply to V_x G V_y*, with G the
    unitarity defect v* v - 1 of its basis, so its basis commutes within
    2 ||G|| (1 + ||G||); any other algebra is checked pair by pair."""
    unique = list({id(alg): alg for alg in algs}.values())
    spectral = [alg for alg in unique if isinstance(alg, SpectralAlgebra)]
    worst = max(
        (is_commutative(alg)[1] for alg in unique if not isinstance(alg, SpectralAlgebra)),
        default=0.0,
    )
    if spectral:
        eye = np.eye(spectral[0].dim)
        g = operator_norm(np.array([alg._vh @ alg.v - eye for alg in spectral]))
        worst = max(worst, 2.0 * g * (1.0 + g))
    return worst


def hypotheses_check(
    a0: MatrixAlgebra, pair: EndoPair, kmax: int | None = None, tol: float = DEFAULT_TOL
) -> HypothesesReport:
    """Evaluate both hypothesis sets for the tower construction on A_0.

    ``kmax`` defaults to the ambient dimension (high powers of a truncated
    shift vanish, so nothing new appears beyond it).  Residuals are
    compared against ``tol * (1 + ||u||^2)^2``.  Raises
    :class:`HypothesisViolated` when A_0 is not commutative.

    For a seed stored by its atoms everything runs in its atom basis,
    where "X commutes with A_0" is the off-block part of X (the entries
    between different atoms), one batched SVD per layer of delta images;
    any other seed is checked against its basis pair by pair.
    """
    comm_res = _commutativity_defect([a0])
    if comm_res > tol:
        raise HypothesisViolated(f"seed algebra is not commutative (residual {comm_res:.3e})")
    if kmax is None:
        kmax = pair.ambient_dim
    scale = _isometry_scale(pair.u)
    eye = np.eye(pair.ambient_dim, dtype=np.complex128)

    if isinstance(a0, SpectralAlgebra):
        v, vh, layer = a0.v, a0._vh, a0._vh @ a0.basis @ a0.v
        outside = a0.labels[:, None] != a0.labels[None, :]

        def commutator(stack):
            return np.where(outside, stack, 0.0)

        def seed_residual(stack):
            return operator_norm(_block_constant_defect(stack, a0.labels)[0])

    else:
        v = vh = eye
        layer = a0.basis.astype(np.complex128)

        def commutator(stack):
            return np.concatenate([x @ a0.basis - a0.basis @ x for x in stack])

        seed_residual = a0.residual
    w = vh @ pair.u @ v

    ds1 = [eye]
    for _ in range(kmax):
        ds1.append(dagger(w) @ ds1[-1] @ w)
    ds1 = np.array(ds1)
    proj_res = max(operator_norm(ds1 @ ds1 - ds1), operator_norm(ds1 - dagger(ds1)))
    ds1_in_comm = operator_norm(commutator(ds1))
    ds1_vs_a0 = operator_norm(commutator(ds1[1:2]))

    q = ds1[1]
    fwd_in_comm = ds1_vs_fwd = strong_image = 0.0
    for k in range(kmax + 1):
        if k:
            layer = w @ layer @ dagger(w)
        comm = commutator(layer)
        norms = _operator_norms(np.concatenate((comm, q @ layer - layer @ q)))
        fwd_in_comm = max(fwd_in_comm, float(norms[: len(comm)].max()))
        ds1_vs_fwd = max(ds1_vs_fwd, float(norms[len(comm) :].max()))
        if k == 1:
            strong_image = seed_residual(layer)

    details = {
        "delta_star_powers_of_1_projections": proj_res,
        "delta_star_powers_of_1_commute_with_seed": ds1_in_comm,
        "delta_powers_of_seed_commute_with_seed": fwd_in_comm,
        "delta_star_of_1_commutes_with_delta_powers": ds1_vs_fwd,
        "delta_of_seed_inside_seed": strong_image,
        "delta_star_of_1_commutes_with_seed": ds1_vs_a0,
    }
    weak_residual = max(proj_res, ds1_in_comm, fwd_in_comm, ds1_vs_fwd)
    strong_residual = max(proj_res, strong_image, ds1_vs_a0)
    return HypothesesReport(
        kmax=kmax,
        weak_holds=weak_residual <= tol * scale,
        strong_holds=strong_residual <= tol * scale,
        weak_residual=weak_residual,
        strong_residual=strong_residual,
        details=details,
    )


@dataclass(frozen=True)
class TowerReport:
    """Everything build_tower produces.

    ``an_list`` and ``na_list`` are the forward and star sequences up to
    confirmed stabilization; ``n_a_inf_list`` is the star sequence started
    from a_inf (its limit is the double closure inf_a_inf);
    ``a_inf_of_inf_a`` is the forward limit of inf_a, which should equal
    inf_a_inf.  ``stabilization`` maps sequence names to the first index at
    which the sequence has reached its limit.
    """

    a0: MatrixAlgebra
    an_list: list[MatrixAlgebra]
    na_list: list[MatrixAlgebra]
    n_a_inf_list: list[MatrixAlgebra]
    a_inf: MatrixAlgebra
    inf_a: MatrixAlgebra
    inf_a_inf: MatrixAlgebra
    a_inf_of_inf_a: MatrixAlgebra
    stabilization: dict[str, int]
    hypotheses: HypothesesReport
    checks: dict[str, tuple[bool, float]]


def _mix_weights(count: int) -> np.ndarray:
    return np.random.default_rng(MIX_SEED).uniform(1.0, 2.0, count)


def _image_defects(v: np.ndarray, blocks, images: np.ndarray) -> np.ndarray:
    """Block-constant defects of each image in the atoms (v, blocks)."""
    return _block_constant_defect(dagger(v) @ images @ v, _labels(blocks))[0]


def _refine_atoms(v: np.ndarray, blocks, images: np.ndarray, tol: float) -> list[np.ndarray]:
    """Split the atoms (v, blocks) until every image is scalar on each.

    One fixed real combination h of the images' Hermitian parts splits
    the blocks at ``tol * (1 + ||h||)``.  One batched SVD then checks that
    every image is block-scalar within ``tol * (1 + ||image||)``; when h
    merged values that some image tells apart, the blocks are split by
    each Hermitian part in turn.  v is rotated in place.  Raises
    :class:`HypothesisViolated` when an image is still not block-scalar:
    it does not commute with the atoms, so the algebra it generates with
    them is not commutative.
    """
    parts = np.concatenate(((images + dagger(images)) / 2.0, (images - dagger(images)) / 2.0j))
    h = np.tensordot(_mix_weights(len(parts)), parts, axes=1)
    blocks = _refine(v, blocks, h, tol * (1.0 + operator_norm(h)))
    k = len(images)
    norms = _operator_norms(np.concatenate((images, _image_defects(v, blocks, images))))
    bound = tol * (1.0 + norms[:k])
    if np.all(norms[k:] <= bound):
        return blocks
    for x, norm_x in zip(parts, _operator_norms(parts)):
        blocks = _refine(v, blocks, x, tol * (1.0 + norm_x))
    excess = _operator_norms(_image_defects(v, blocks, images)) - bound
    if np.any(excess > 0):
        raise HypothesisViolated(
            "a delta image is not scalar on the atoms of the level below "
            f"(defect exceeds its bound by {excess.max():.3e}); the tower is not commutative"
        )
    return blocks


def _tower_sequence(
    seed: MatrixAlgebra, pair: EndoPair, direction: str, tol: float
) -> tuple[list[MatrixAlgebra], int]:
    """Iterate T_n = alg{T_{n-1}, d^n(seed)} until it repeats twice.

    T_n splits the atoms of T_{n-1} by the images d^n(seed); a seed
    without atoms gets them from the Hermitian parts of its basis.
    Refinement only splits atoms, so T_n equals T_{n-1} exactly when the
    atom count is unchanged.  Stabilization needs two such steps in a
    row; the returned index is the first n whose algebra already equals
    the limit.
    """
    dim = pair.ambient_dim
    if isinstance(seed, SpectralAlgebra):
        v, blocks, level = seed.v.copy(), seed.blocks, seed
    else:
        v = np.eye(dim, dtype=np.complex128)
        blocks = _refine_atoms(v, [np.arange(dim)], seed.basis, tol)
        level = _atom_algebra(v.copy(), blocks)
    algs = [seed]
    images = seed.basis.astype(np.complex128)
    equal_run = 0
    while equal_run < 2:
        images = _apply_stack(pair, images, direction)
        count = len(blocks)
        blocks = _refine_atoms(v, blocks, images, tol)
        if len(blocks) == count:
            equal_run += 1
        else:
            equal_run = 0
            level = _atom_algebra(v.copy(), blocks)
        algs.append(level)
    stab = len(algs) - 3  # last two entries only confirmed the one before them
    return algs, stab


def build_tower(
    a0: MatrixAlgebra, pair: EndoPair, tol: float = DEFAULT_TOL, swap_roles: bool = False
) -> TowerReport:
    """Construct both towers, their limits, and the double closures.

    Requires the weak hypothesis set (raises :class:`HypothesisViolated`
    otherwise); whether the strong set also holds is recorded in the
    report.  ``swap_roles`` runs the whole construction with U replaced by
    U*, which is the asymmetry variant of the theory.
    """
    if swap_roles:
        pair = pair.swapped()
    hyp = hypotheses_check(a0, pair, kmax=pair.ambient_dim, tol=tol)
    if not hyp.weak_holds:
        raise HypothesisViolated(
            "seed algebra fails the weak hypothesis set "
            f"(worst residual {hyp.weak_residual:.3e}); no commutative extension "
            "on which both conjugations are endomorphisms exists"
        )
    an_list, stab_an = _tower_sequence(a0, pair, "forward", tol)
    na_list, stab_na = _tower_sequence(a0, pair, "star", tol)
    a_inf = an_list[-1]
    inf_a = na_list[-1]
    n_a_inf_list, stab_dbl = _tower_sequence(a_inf, pair, "star", tol)
    inf_a_inf = n_a_inf_list[-1]
    fwd_of_star, stab_dbl2 = _tower_sequence(inf_a, pair, "forward", tol)
    a_inf_of_inf_a = fwd_of_star[-1]

    eye = np.eye(pair.ambient_dim, dtype=np.complex128)
    checks: dict[str, tuple[bool, float]] = {}
    scale = _isometry_scale(pair.u)
    for name, m in (
        ("final_projection_member", pair.delta(eye)),
        ("initial_projection_member", pair.delta_star(eye)),
    ):
        res = inf_a_inf.residual(m)
        checks[name] = (res <= tol * scale, res)
    for name, seq in (("monotone_forward", an_list), ("monotone_star", na_list)):
        worst = max((hi.residual(lo.basis) for lo, hi in zip(seq, seq[1:])), default=0.0)
        checks[name] = (worst <= tol * scale, worst)

    return TowerReport(
        a0=a0,
        an_list=an_list,
        na_list=na_list,
        n_a_inf_list=n_a_inf_list,
        a_inf=a_inf,
        inf_a=inf_a,
        inf_a_inf=inf_a_inf,
        a_inf_of_inf_a=a_inf_of_inf_a,
        stabilization={
            "forward": stab_an,
            "star": stab_na,
            "star_from_forward_limit": stab_dbl,
            "forward_from_star_limit": stab_dbl2,
        },
        hypotheses=hyp,
        checks=checks,
    )


@dataclass(frozen=True)
class TheoremReport:
    """Named residual checks for the tower theorems; all report-only."""

    checks: dict[str, tuple[bool, float]]
    seed_layers_checked: bool

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.checks.values())

    @property
    def worst(self) -> float:
        return max((res for _, res in self.checks.values()), default=0.0)


def _atom_images(w: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w P_x, w P_x w*) for the atoms P_x of the column labels, in the
    basis whose columns they label."""
    onehot = labels[None, :] == np.arange(labels[-1] + 1)[:, None]
    cols = w[None, :, :] * onehot[:, None, :]
    return cols, cols @ dagger(w)


class _AtomFrame:
    """The atoms X of a commutative algebra, with U in their basis.

    An element read in this frame is rotated into the basis v and written
    as a vector over X, its atom values (the mean of its diagonal over
    each atom), plus its tie: a bound on its distance from the atom
    function with those values.  The tie is the norm of the element's
    off-block part (the entries between different atoms, one batched SVD
    per stack) plus the largest Frobenius norm of its defect inside an
    atom, which is zero on atoms of rank 1.  Vector algebra on X is taken
    under the trace inner product, whose weights are the atom ranks, and
    the operator norm of an atom function is its largest value.
    """

    def __init__(self, alg: SpectralAlgebra, pair: EndoPair):
        self.alg = alg
        self.labels = alg.labels
        self.ranges = _atom_ranges(alg.labels)
        self.ranks = self.ranges[1].astype(float)
        self.inside = alg.labels[:, None] == alg.labels[None, :]
        self.inside_off_diagonal = self.inside & ~np.eye(alg.dim, dtype=bool)
        w = alg._vh @ pair.u @ alg.v
        self.u = {"forward": w, "star": dagger(w)}
        nu = operator_norm(pair.u)
        self.nu2 = nu * nu
        # the scale of isometry._isometry_scale, from the norm just taken
        self.scale = (1.0 + self.nu2) * (1.0 + self.nu2)
        self._maps: dict[str, tuple] = {}
        self._classes: dict[int, tuple[np.ndarray, float]] = {}

    @property
    def size(self) -> int:
        return self.ranks.size

    def rotate(self, stack: np.ndarray) -> np.ndarray:
        return self.alg._vh @ stack @ self.alg.v

    def coords(self, rot: np.ndarray):
        """``(values, ties, off)`` of a rotated (k, n, n) stack: atom values
        (k, atoms), ties and off-block norms (k,)."""
        values = _atom_means(rot, self.ranges)
        off = _operator_norms(np.where(self.inside, 0.0, rot))
        diag = np.diagonal(rot, axis1=-2, axis2=-1) - values[..., self.labels]
        within = np.where(self.inside_off_diagonal, np.abs(rot) ** 2, 0.0).sum(axis=-1)
        within += np.abs(diag) ** 2
        blocks = np.add.reduceat(within, self.ranges[0], axis=-1)
        return values, off + np.sqrt(blocks.max(axis=-1)), off

    def layers(self, rot: np.ndarray, direction: str, depth: int) -> list:
        """Coordinates of d^k(stack) for k = 0..depth, one stack at a time."""
        out = [self.coords(rot)]
        w = self.u[direction]
        for _ in range(depth):
            rot = w @ rot @ dagger(w)
            out.append(self.coords(rot))
        return out

    def atom_map(self, direction: str):
        """``(t, ties, intertwining)`` for d = delta or delta_*: column x of
        the (atoms, atoms) matrix t holds the atom values of d(P_x), ties[x]
        bounds ||d(P_x) - sum_y t[y, x] P_y||, and intertwining is the
        largest ||U b - delta(b) U|| (or ||U* b - delta_*(b) U*||) over the
        basis b = P_x / sqrt(rank P_x)."""
        if direction not in self._maps:
            w = self.u[direction]
            cols, images = _atom_images(w, self.labels)
            values, ties, _ = self.coords(images)
            inter = operator_norm((cols - images @ w) / np.sqrt(self.ranks)[:, None, None])
            self._maps[direction] = (values.T, ties, inter)
        return self._maps[direction]

    def injection(self, direction: str):
        """``(pre, hit, defect)``: d = delta or delta_* maps atom pre[y] to
        atom y where hit[y], and no atom to y elsewhere; defect is how far
        d's atom map is from that 0/1 map (entries off 0 and 1, ties,
        intertwining, atoms hit twice)."""
        t, ties, intertwining = self.atom_map(direction)
        ones = t.real > 0.5
        defect = max(
            float(np.abs(t - ones).max(initial=0.0)),
            float((ones.sum(axis=1) - 1).max(initial=0)),
            float(ties.max(initial=0.0)),
            intertwining,
        )
        return ones.argmax(axis=1), ones.any(axis=1), defect

    def powers(self, depth: int):
        """``(images, stack, ties)`` for the powers W^k, k = 1..depth, of U in
        this frame, W = V*UV, in rows k - 1: images[k - 1] is delta^k as an
        atom map, -1 where delta^k(P_x) = 0, so W^k is one block per atom x,
        in the block row of images[k - 1][x]; stack[k - 1] = W^k and
        ties[k - 1] is its norm off that block pattern, one batched SVD."""
        pre, hit, _ = self.injection("forward")
        step = np.full(self.size + 1, -1)  # step[-1] keeps -1 (no atom) at -1
        step[pre[hit]] = np.flatnonzero(hit)
        w = self.u["forward"]
        images, stack = [step[:-1]], [w]
        for _ in range(depth - 1):
            images.append(step[images[-1]])
            stack.append(stack[-1] @ w)
        images, stack = np.array(images), np.array(stack)
        off = self.labels[:, None] != images[:, self.labels][:, None, :]
        return images, stack, _operator_norms(np.where(off, stack, 0.0))

    def classes(self, level: SpectralAlgebra) -> tuple[np.ndarray, float]:
        """The class of each atom of X under the atoms of ``level`` (the one
        covering most of it), and the largest tie of level's atoms: how far
        they are from the unions of atoms of X they stand for."""
        key = id(level)
        if key not in self._classes:
            if level is self.alg:
                self._classes[key] = (np.arange(self.size), 0.0)
            else:
                values, ties, _ = self.coords(_atom_images(self.alg._vh @ level.v, level.labels)[1])
                _, cls = np.unique(values.real.argmax(axis=0), return_inverse=True)
                self._classes[key] = (cls, float(ties.max()))
        return self._classes[key]

    def class_basis(self, cls: np.ndarray) -> np.ndarray:
        """Class indicators, orthonormal under the trace inner product."""
        onehot = (cls[None, :] == np.arange(cls.max() + 1)[:, None]).astype(float)
        return onehot / np.sqrt(onehot @ self.ranks)[:, None]

    def class_residual(self, values: np.ndarray, cls: np.ndarray) -> float:
        """Largest atom value of the rows minus their rank-weighted class
        means: their defect from the coarser algebra of class functions."""
        return self.span_residual(values, self.class_basis(cls))

    def span_basis(self, values: np.ndarray, ties: np.ndarray):
        """Rows orthonormal under the trace inner product that span the
        rows of ``values``, with their ties."""
        root = np.sqrt(self.ranks)
        left, s, vh = np.linalg.svd(values * root, full_matrices=False)
        keep = s > DROP_THRESHOLD * max(1.0, float(s[0]))
        coef = dagger(left[:, keep]) / s[keep][:, None]
        return vh[keep] / root, np.abs(coef) @ ties

    def span_residual(self, values: np.ndarray, basis: np.ndarray) -> float:
        """Largest atom value of the rows minus their trace-orthogonal
        projection on the span of the orthonormal rows of ``basis``."""
        proj = ((values * self.ranks) @ dagger(basis)) @ basis
        return float(np.abs(values - proj).max(initial=0.0))


@dataclass(frozen=True)
class OrbitBlock:
    """One orbit of delta on the atoms of the double closure, and the block
    of B = C*(1, |a|, U) it carries.

    delta acts on the atoms as a partial injection, so an orbit is a chain
    x -> delta(x) -> ... that ends where delta(P_x) = 0, or a cycle.  A
    chain of length L gives M_L(C); a cycle of length c gives
    M_c(C) (x) C^s, where s (``spectrum``; 1 on a chain) is the number of
    distinct eigenvalues of the holonomy U^c on one of its atoms.
    ``multiplicity`` is the common rank of the orbit's atoms.
    """

    cycle: bool
    length: int
    multiplicity: int
    spectrum: int

    @property
    def dimension(self) -> int:
        return self.length * self.length * self.spectrum

    @property
    def bandwidth(self) -> int:
        """The least b such that the graded elements of degree |d| <= b
        span the block: L - 1 on a chain.  On a cycle U is unitary, so the
        degrees -b..b give 2b + 1 consecutive powers of U, which reach
        every residue mod c at least s times once 2b + 1 >= c s, that is
        b = ceil((c s - 1) / 2) = floor(c s / 2)."""
        return self.length * self.spectrum // 2 if self.cycle else self.length - 1


@dataclass(frozen=True)
class Structure:
    """B as the direct sum of one block per orbit of delta, chains first;
    ``residual`` is the distance of U from that block form plus the
    unitarity defect of the holonomies."""

    blocks: tuple[OrbitBlock, ...]
    residual: float

    @property
    def dimension(self) -> int:
        return sum(b.dimension for b in self.blocks)

    @property
    def bandwidth(self) -> int:
        return max((b.bandwidth for b in self.blocks), default=0)


def orbit_structure(frame: _AtomFrame, tol: float = DEFAULT_TOL) -> Structure:
    """The blocks of B from one walk of delta's atom map on the atoms of
    ``frame``, those of the double closure.

    In the atom basis U is one r x r block per atom x, in the block row of
    delta(x); a cycle's holonomy is the product of its blocks around the
    cycle.  The residual adds the defect of delta's atom map from a 0/1
    partial injection, the norm of U off that block form and the
    holonomies' unitarity defect; over ``tol * (1 + ||U||^2)^2`` it is a
    :class:`ModelNotGraded`."""
    _, hit, defect = frame.injection("forward")
    images, stack, ties = frame.powers(1)
    starts, sizes = frame.ranges
    image = images[0]
    orbits, seen = [], set()
    # chains from their heads, the atoms nothing maps to; the rest lie on cycles
    for x in [*np.flatnonzero(~hit), *range(frame.size)]:
        orbit = []
        while x >= 0 and x not in seen:
            seen.add(x)
            orbit.append(x)
            x = image[x]
        if orbit:
            orbits.append(orbit)
    w = stack[0]
    residual = max(defect, float(ties[0]))
    limit = tol * frame.scale
    if residual <= limit:
        blocks, unitarity = [], 0.0
        for orbit in orbits:
            holonomy = np.eye(sizes[orbit[0]], dtype=np.complex128)
            cycle = image[orbit[-1]] == orbit[0]
            if cycle:
                atom = [slice(starts[x], starts[x] + sizes[x]) for x in orbit]
                for src, dst in zip(atom, atom[1:] + atom[:1]):
                    holonomy = w[dst, src] @ holonomy
                gram = dagger(holonomy) @ holonomy - np.eye(len(holonomy))
                unitarity = max(unitarity, operator_norm(gram))
            spectrum = _value_classes(np.linalg.eigvals(holonomy)[None, :], tol).max() + 1
            blocks.append(OrbitBlock(bool(cycle), len(orbit), len(holonomy), int(spectrum)))
        residual += unitarity
    if not residual <= limit:
        raise ModelNotGraded(
            f"U is not a block partial permutation of the atoms (residual {residual:.3e})"
        )
    return Structure(blocks=tuple(blocks), residual=float(residual))


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
        split = (np.diff(cls[order]) != 0) | (np.diff(row[order]) > gap)
        cls[order] = np.cumsum(np.concatenate(([0], split)))
    return cls


def _layers_commutator(layers: list) -> float:
    """Bound on the commutators of elements in different layers.

    For elements f + E, g + F with f, g atom functions, [f, g] = 0 and f
    commutes with the part of F inside the atoms, so the commutator is
    [f, F_off] + [E_off, g] + [E, F], and ||[f, O]|| <= spread(f) ||O||.
    """
    values, ties, off = (np.concatenate(part) for part in zip(*layers))
    spread = np.hypot(np.ptp(values.real, axis=1), np.ptp(values.imag, axis=1))
    ends = np.cumsum([len(e) for _, e, _ in layers])
    worst = 0.0
    for start, end in zip(np.concatenate(([0], ends[:-2])), ends[:-1]):
        now, later = slice(start, end), slice(end, None)
        bound = (
            np.multiply.outer(spread[now], off[later])
            + np.multiply.outer(off[now], spread[later])
            + 2.0 * np.multiply.outer(ties[now], ties[later])
        )
        worst = max(worst, float(bound.max()))
    return worst


def _norm_bound(values: np.ndarray, ties: np.ndarray) -> float:
    return float(np.abs(values).max(initial=0.0) + ties.max(initial=0.0))


def _layer_product_defect(frame: _AtomFrame, layers: list) -> float:
    """Worst residual of layer_k . layer_l against span(layer_k), l <= k,
    plus the ties of the factors and of the span."""
    worst = 0.0
    for k, (values, ties, _) in enumerate(layers):
        basis, basis_ties = frame.span_basis(values, ties)
        for low, low_ties, _ in layers[: k + 1]:
            prods = (values[:, None, :] * low[None, :, :]).reshape(-1, frame.size)
            tie = (
                _norm_bound(values, ties) * low_ties.max()
                + _norm_bound(low, low_ties) * ties.max()
                + basis_ties.max(initial=0.0)
            )
            worst = max(worst, frame.span_residual(prods, basis) + tie)
    return worst


def _ideal_defect(frame: _AtomFrame, top: tuple, cls: np.ndarray) -> float:
    """Residual of span(top) absorbing the class functions: products of
    its orthonormal basis with the class indicators against span(top),
    plus the ties of that basis."""
    basis, basis_ties = frame.span_basis(top[0], top[1])
    level = frame.class_basis(cls)
    prods = (basis[:, None, :] * level[None, :, :]).reshape(-1, frame.size)
    return frame.span_residual(prods, basis) + 2.0 * basis_ties.max(initial=0.0)


def verify_tower_theorems(
    t: TowerReport, pair: EndoPair, tol: float = DEFAULT_TOL
) -> TheoremReport:
    """Check the tower theorems on a built tower, one residual per claim.

    Layer products and the top-layer ideal are always checked at the a_inf
    level; when the strong hypothesis set holds they are additionally
    checked at the seed level, where the theory makes the same claims.

    Every claim is checked on the atoms X of the double closure (see
    :class:`_AtomFrame`): delta and delta_* are the matrices of their
    action on X, and each residual is a coordinate residual plus a bound
    from the ties of the elements it reads.
    """
    return _tower_theorems(t, pair, _AtomFrame(t.inf_a_inf, pair), tol)[0]


def _tower_theorems(
    t: TowerReport, pair: EndoPair, frame: _AtomFrame, tol: float
) -> tuple[TheoremReport, list]:
    """:func:`verify_tower_theorems` on the atoms of ``frame``, with the
    coordinates of the star layers of a_inf it reads, so that the sum-form
    checks on the same frame need not recompute them."""
    checks: dict[str, tuple[bool, float]] = {}

    def record(name: str, residual: float):
        residual = float(residual)
        checks[name] = (residual <= tol * frame.scale, residual)

    big = t.inf_a_inf
    maps = {d: frame.atom_map(d) for d in ("forward", "star")}

    every_algebra = (
        t.an_list + t.na_list + t.n_a_inf_list + [t.a_inf_of_inf_a, t.inf_a_inf]
    )
    record("commutative", _commutativity_defect(every_algebra))

    depth_seed = max(len(t.na_list), len(t.an_list))
    seed = frame.rotate(t.a0.basis)
    seed_layers = {d: frame.layers(seed, d, depth_seed) for d in ("star", "forward")}
    for direction in ("star", "forward"):
        record(f"{direction}_layers_commute", _layers_commutator(seed_layers[direction]))

    inf_star = frame.layers(frame.rotate(t.a_inf.basis), "star", len(t.n_a_inf_list))
    record("layer_products", _layer_product_defect(frame, inf_star))
    inf_values, inf_ties, _ = (np.concatenate(part) for part in zip(*inf_star))
    level = _value_classes(inf_values, tol)
    record("top_layer_ideal", _ideal_defect(frame, inf_star[-1], level) + inf_ties.max())

    seed_layers_checked = t.hypotheses.strong_holds
    if seed_layers_checked:
        record("layer_products_seed", _layer_product_defect(frame, seed_layers["star"]))
        top = seed_layers["star"][len(t.na_list) - 1]
        cls, eps = frame.classes(t.na_list[-1])
        member = frame.class_residual(top[0], cls) + top[1].max()
        record("top_layer_ideal_seed", max(member, _ideal_defect(frame, top, cls)) + eps)

    def move(values, ties, direction):
        """Atom values and ties of d(element), through d's atom map."""
        tmat, tmat_ties, _ = maps[direction]
        return values @ tmat.T, np.abs(values) @ tmat_ties + frame.nu2 * ties

    def mapped_defect(src, direction, dst) -> float:
        """Residual of d(src's basis) in the level dst."""
        cls, eps = frame.classes(src)
        values, ties = move(frame.class_basis(cls), eps, direction)
        dst_cls, dst_eps = frame.classes(dst)
        return frame.class_residual(values, dst_cls) + ties.max() + dst_eps

    seq = t.n_a_inf_list
    record(
        "delta_lowers_level",
        max((mapped_defect(hi, "forward", lo) for lo, hi in zip(seq, seq[1:])), default=0.0),
    )
    record(
        "delta_star_raises_level",
        max(mapped_defect(lo, "star", hi) for lo, hi in zip(seq, seq[1:] + [big])),
    )

    root = np.sqrt(frame.ranks)
    for name, direction in (("endomorphism_delta", "forward"), ("endomorphism_delta_star", "star")):
        # d(b_x) for the basis b_x = P_x / sqrt(r_x): values T[:, x] / sqrt(r_x)
        tmat, tmat_ties, _ = maps[direction]
        ties = tmat_ties / root
        mags = np.abs(tmat) / root
        # d(b_x b_y) = 0 against d(b_x) d(b_y) for x != y, and
        # d(b_x^2) = d(P_x) / r_x against d(b_x)^2
        cross = np.sort(mags, axis=1)[:, -2:].prod(axis=1).max() if frame.size > 1 else 0.0
        square = (np.abs(tmat - tmat * tmat) / frame.ranks).max()
        nu = mags.max(axis=0) + ties
        e = ties.max()
        tie = 2.0 * nu.max() * e + e * e + (tmat_ties / frame.ranks).max()
        record(name, max(e, max(cross, square) + tie))
    record("intertwining", max(maps["forward"][2], maps["star"][2]))

    own = frame.class_basis(np.arange(frame.size))
    cls, eps = frame.classes(t.a_inf_of_inf_a)
    record("double_closure_equality", frame.class_residual(own, cls) + eps)

    gens = [seed_layers["forward"][0][:2]]
    img = gens[0]
    for _ in range(len(t.an_list)):
        img = move(*img, "forward")
        gens.append(img)
        back = img
        for _ in range(len(t.n_a_inf_list)):
            back = move(*back, "star")
            gens.append(back)
    back = gens[0]
    for _ in range(len(t.na_list)):
        back = move(*back, "star")
        gens.append(back)
    minimal = _value_classes(np.concatenate([g for g, _ in gens]), tol)
    record("minimality", frame.class_residual(own, minimal) + max(e.max() for _, e in gens))

    return TheoremReport(checks=checks, seed_layers_checked=seed_layers_checked), inf_star
