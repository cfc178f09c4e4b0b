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
valid at the seed level (they always hold at the a_inf level).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    MatrixAlgebra,
    SpectralAlgebra,
    _atom_algebra,
    _block_constant_defect,
    _labels,
    _refine,
    algebras_equal,
    generate,
    is_commutative,
    is_ideal_in,
    linear_span,
)
from .errors import HypothesisViolated
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

    def apply(self, m, direction: str) -> np.ndarray:
        if direction == "forward":
            return self.delta(m)
        if direction == "star":
            return self.delta_star(m)
        raise ValueError(f"unknown direction {direction!r}")

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


def delta_apply(pair: EndoPair, m, direction: str = "forward") -> np.ndarray:
    """delta(m) = U m U* for 'forward', delta_*(m) = U* m U for 'star'."""
    return pair.apply(m, direction)


def _apply_stack(pair: EndoPair, stack: np.ndarray, direction: str) -> np.ndarray:
    u = pair.u if direction == "forward" else dagger(pair.u)
    return (u[None, :, :] @ stack) @ dagger(u)[None, :, :]


def _layer_stacks(pair: EndoPair, basis: np.ndarray, direction: str, kmax: int) -> list[np.ndarray]:
    """[basis, d(basis), d^2(basis), ...] up to k = kmax inclusive."""
    out = [basis.astype(np.complex128)]
    for _ in range(kmax):
        out.append(_apply_stack(pair, out[-1], direction))
    return out


@dataclass(frozen=True)
class HypothesesReport:
    """Residuals for both hypothesis sets; failures are reported, not thrown."""

    kmax: int
    weak_holds: bool
    strong_holds: bool
    weak_residual: float
    strong_residual: float
    details: dict[str, float] = field(default_factory=dict)


def _max_commutator(stack_a, stack_b) -> float:
    return max((operator_norm(x @ stack_b - stack_b @ x) for x in stack_a), default=0.0)


def hypotheses_check(
    a0: MatrixAlgebra, pair: EndoPair, kmax: int | None = None, tol: float = DEFAULT_TOL
) -> HypothesesReport:
    """Evaluate both hypothesis sets for the tower construction on A_0.

    ``kmax`` defaults to the ambient dimension (high powers of a truncated
    shift vanish, so nothing new appears beyond it).  Residuals are
    compared against ``tol * (1 + ||u||^2)^2``.
    """
    commutative, comm_res = is_commutative(a0, tol=tol)
    if not commutative:
        raise ValueError(f"seed algebra is not commutative (residual {comm_res:.3e})")
    if kmax is None:
        kmax = pair.ambient_dim
    scale = _isometry_scale(pair.u)

    ds1 = [np.eye(pair.ambient_dim, dtype=np.complex128)]
    for _ in range(kmax):
        ds1.append(pair.delta_star(ds1[-1]))
    ds1 = np.array(ds1)
    proj_res = max(operator_norm(ds1 @ ds1 - ds1), operator_norm(ds1 - dagger(ds1)))
    ds1_in_comm = _max_commutator(ds1, a0.basis)

    fwd_layers = _layer_stacks(pair, a0.basis, "forward", kmax)
    fwd_in_comm = max(_max_commutator(layer, a0.basis) for layer in fwd_layers)
    ds1_vs_fwd = max(_max_commutator(ds1[1:2], layer) for layer in fwd_layers)

    strong_image = a0.residual(fwd_layers[1])
    ds1_vs_a0 = _max_commutator(ds1[1:2], a0.basis)

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


def _layer_product_defect(layers: list[np.ndarray]) -> float:
    """Worst residual of layer_k . layer_l against span(layer_k), l <= k."""
    spans = [linear_span(list(st)) for st in layers]
    return max(
        (
            spans[k].residual(np.concatenate((x @ layers[l], layers[l] @ x)))
            for k in range(len(layers))
            for l in range(k + 1)
            for x in layers[k]
        ),
        default=0.0,
    )


def verify_tower_theorems(
    t: TowerReport, pair: EndoPair, tol: float = DEFAULT_TOL
) -> TheoremReport:
    """Check the tower theorems on a built tower, one residual per claim.

    Layer products and the top-layer ideal are always checked at the a_inf
    level; when the strong hypothesis set holds they are additionally
    checked at the seed level, where the theory makes the same claims.
    """
    scale = _isometry_scale(pair.u)
    checks: dict[str, tuple[bool, float]] = {}

    def record(name: str, residual: float):
        checks[name] = (residual <= tol * scale, residual)

    every_algebra = (
        t.an_list + t.na_list + t.n_a_inf_list + [t.a_inf_of_inf_a, t.inf_a_inf]
    )
    record("commutative", max(is_commutative(alg, tol=tol)[1] for alg in every_algebra))

    depth_seed = max(len(t.na_list), len(t.an_list))
    star_layers = _layer_stacks(pair, t.a0.basis, "star", depth_seed)
    fwd_layers = _layer_stacks(pair, t.a0.basis, "forward", depth_seed)
    for direction, layers in (("star", star_layers), ("forward", fwd_layers)):
        worst = max(
            (
                _max_commutator(layers[i], layers[j])
                for i in range(len(layers))
                for j in range(i + 1, len(layers))
            ),
            default=0.0,
        )
        record(f"{direction}_layers_commute", worst)

    depth_inf = len(t.n_a_inf_list)
    inf_star_layers = _layer_stacks(pair, t.a_inf.basis, "star", depth_inf)
    record("layer_products", _layer_product_defect(inf_star_layers))
    top = linear_span(list(inf_star_layers[-1]))
    level = generate(
        list(t.a_inf.basis) + [m for st in inf_star_layers for m in st],
        unital=True,
        tol=tol,
    )
    _, ideal_res = is_ideal_in(top, level, tol=tol)
    record("top_layer_ideal", ideal_res)

    seed_layers_checked = t.hypotheses.strong_holds
    if seed_layers_checked:
        record("layer_products_seed", _layer_product_defect(star_layers))
        top_seed = linear_span(list(star_layers[len(t.na_list) - 1]))
        _, ideal_seed = is_ideal_in(top_seed, t.na_list[-1], tol=tol)
        record("top_layer_ideal_seed", ideal_seed)

    seq = t.n_a_inf_list
    record(
        "delta_lowers_level",
        max(
            (lo.residual(_apply_stack(pair, hi.basis, "forward")) for lo, hi in zip(seq, seq[1:])),
            default=0.0,
        ),
    )
    record(
        "delta_star_raises_level",
        max(
            hi.residual(_apply_stack(pair, lo.basis, "star"))
            for lo, hi in zip(seq, seq[1:] + [t.inf_a_inf])
        ),
    )

    big = t.inf_a_inf
    images = {d: _apply_stack(pair, big.basis, d) for d in ("forward", "star")}
    for name, direction in (("endomorphism_delta", "forward"), ("endomorphism_delta_star", "star")):
        img = images[direction]
        products = max(
            operator_norm(_apply_stack(pair, x @ big.basis, direction) - img[i] @ img)
            for i, x in enumerate(big.basis)
        )
        record(name, max(big.residual(img), products))
    record(
        "intertwining",
        max(
            operator_norm(pair.u @ big.basis - images["forward"] @ pair.u),
            operator_norm(dagger(pair.u) @ big.basis - images["star"] @ dagger(pair.u)),
        ),
    )

    _, eq_res = algebras_equal(t.inf_a_inf, t.a_inf_of_inf_a, tol=tol)
    record("double_closure_equality", eq_res)

    gens = list(t.a0.basis)
    img = t.a0.basis.astype(np.complex128)
    for _ in range(len(t.an_list)):
        img = _apply_stack(pair, img, "forward")
        gens += list(img)
        back = img
        for _ in range(len(t.n_a_inf_list)):
            back = _apply_stack(pair, back, "star")
            gens += list(back)
    back = t.a0.basis.astype(np.complex128)
    for _ in range(len(t.na_list)):
        back = _apply_stack(pair, back, "star")
        gens += list(back)
    minimal = generate(gens, unital=True, tol=tol)
    _, min_res = algebras_equal(minimal, t.inf_a_inf, tol=tol)
    record("minimality", min_res)

    return TheoremReport(checks=checks, seed_layers_checked=seed_layers_checked)
