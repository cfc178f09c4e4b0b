"""The defining relation aa* in C*(1, a*a) and what follows from it.

``verify_I1`` certifies the relation itself (two equivalent membership
routes).  ``theorem22_report`` then verifies the ten structural
properties of the partial isometry U from the polar decomposition of a
passing operator: bicommutant membership of the power projections, the
commuting projection lattice, the reduction identities, and the
morphism/intertwining behaviour of b -> U b U* on the algebra generated
by |a| alone (no identity adjoined; the unital and non-unital algebras
are deliberately kept distinct).

``coefficient_algebra`` assembles the commutative algebra every graded
coefficient lives in, by running the endomorphism tower over the seed
C*(1, |a|), and checks the structure statements that come with it.
``build_calB`` produces the full algebra generated by {1, |a|, U}
together with a graded decomposition of a spanning set.

Membership tests here go through eigenspace characterizations
(functions of a matrix, or of a commuting family) rather than through
span bases of matrix powers: powers of a matrix with crowded eigenvalues
span the same algebra but make the membership test numerically useless,
while the eigenspace route is exact up to rounding.

The functions here are views on one :class:`Analysis` per operator and
accept one in place of the matrix (its own tol then governs), so callers
that need several views of an operator share every derivation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    MatrixAlgebra,
    algebras_equal,
    bicommutant,
    contains,
    is_function_of,
    is_function_of_family,
    generate,
    linear_span,
    spectral_algebra,
)
from .errors import ModelNotGraded, PolarkitError, RelationViolated
from .graded import GradedElement, GradedModel, realize, regrade
from .isometry import ConditionCheck, morphism_check, projection_chain_defect
from .linalg import (
    DEFAULT_TOL,
    as_matrix,
    dagger,
    eig_groups,
    hermitian_eig,
    operator_norm,
    polar_decompose,
)
from .tower import TheoremReport, TowerReport, build_tower, endo_pair, verify_tower_theorems


@dataclass(frozen=True)
class RelationCertificate:
    """Outcome of the defining-relation test.

    ``membership_residual`` is the defect of aa* from being a function
    of a*a; ``conjugate_residual`` is the defect of U|a|U* from being a
    function of |a| (the equivalent formulation through the polar
    parts).  ``gamma_table`` samples the function aa* = gamma(a*a) on
    the spectrum when it exists.  ``offending_eigenvalue`` names the
    eigenvalue of a*a whose eigenspace breaks the function property
    when the relation fails.
    """

    holds: bool
    membership_residual: float
    conjugate_holds: bool
    conjugate_residual: float
    gamma_table: tuple[tuple[float, float], ...]
    offending_eigenvalue: float | None = None


def _once(derive):
    """A field of :class:`Analysis`: derived on first read, then cached
    together with the PolarkitError the derivation may raise."""

    def get(self):
        if derive not in self._memo:
            try:
                self._memo[derive] = derive(self)
            except PolarkitError as exc:
                self._memo[derive] = exc
        if isinstance(self._memo[derive], PolarkitError):
            raise self._memo[derive]
        return self._memo[derive]

    return property(get)


class Analysis:
    """One operator and everything derived from it, each piece once.

    Each field is derived on first read from the ones before it: ``pd``
    (the polar parts), ``certificate`` (the defining-relation test),
    ``seed`` (C*(1, |a|)), ``pair`` (U validated as a partial isometry),
    ``tower`` (both towers over the seed) and ``model`` (U over the
    tower's double closure).  A failed derivation is not repeated either:
    its PolarkitError is raised again on every later read.
    """

    def __init__(self, a, tol: float = DEFAULT_TOL):
        self.matrix = as_matrix(a)
        self.tol = tol
        self._memo: dict = {}

    pd = _once(lambda an: polar_decompose(an.matrix, tol=an.tol))
    certificate = _once(lambda an: verify_I1(an))
    seed = _once(lambda an: spectral_algebra(an.pd.pos, tol=an.tol))
    pair = _once(lambda an: endo_pair(an.pd.u, tol=an.tol))
    tower = _once(lambda an: build_tower(an.seed, an.pair, tol=an.tol))
    model = _once(lambda an: GradedModel(an.pair, an.tower.inf_a_inf, tol=an.tol))


def _analysis(a, tol: float) -> Analysis:
    return a if isinstance(a, Analysis) else Analysis(a, tol)


def verify_I1(a, tol: float = DEFAULT_TOL) -> RelationCertificate:
    """Does aa* lie in the algebra generated by 1 and a*a?

    Both formulations are evaluated: aa* as a function of a*a, and
    U|a|U* as a function of |a| with U, |a| the polar parts.  They are
    equivalent statements, so the two booleans are expected to agree;
    both residuals are reported.
    """
    an = _analysis(a, tol)
    am = an.matrix
    cert = is_function_of(am @ dagger(am), dagger(am) @ am, tol=an.tol)
    pd = an.pd
    mid = pd.u @ pd.pos @ dagger(pd.u)
    cert2 = is_function_of(mid, pd.pos, tol=an.tol)
    table = tuple((float(ev), float(val.real)) for ev, val in cert.table)
    return RelationCertificate(
        holds=cert.exists,
        membership_residual=cert.residual,
        conjugate_holds=cert2.exists,
        conjugate_residual=cert2.residual,
        gamma_table=table,
        offending_eigenvalue=cert.worst_eigenvalue,
    )


def _require_relation(an: Analysis) -> RelationCertificate:
    cert = an.certificate
    if not cert.holds:
        extra = (
            f"; eigenspace of a*a at {cert.offending_eigenvalue:.6g} carries "
            "inconsistent aa* values"
            if cert.offending_eigenvalue is not None
            else ""
        )
        raise RelationViolated(
            f"aa* is not a function of a*a (residual {cert.membership_residual:.3e}){extra}"
        )
    return cert


def _spectral_projections(h, tol: float):
    """Eigenprojections of a Hermitian matrix, grouped, with mean values."""
    w, v = hermitian_eig(h, tol=tol)
    scale = 1.0 + (abs(float(w[-1])) if w.size else 0.0)
    out = []
    for idx in eig_groups(w, tol * scale):
        cols = v[:, idx]
        out.append((float(np.mean(w[idx])), cols @ dagger(cols)))
    return out, scale


def nonunital_seed(pos, tol: float = DEFAULT_TOL) -> MatrixAlgebra:
    """The algebra generated by |a| without adjoining the identity.

    Spanned by the eigenprojections of |a| away from its kernel: any
    polynomial with zero constant term takes arbitrary values on the
    nonzero spectrum but is forced to vanish on the kernel.
    """
    pieces, scale = _spectral_projections(pos, tol)
    projs = [p for mu, p in pieces if abs(mu) > tol * scale]
    n = as_matrix(pos).shape[0]
    if not projs:
        return MatrixAlgebra(
            dim=n, basis=np.zeros((0, n, n), dtype=np.complex128), unital=False
        )
    return linear_span(projs, unital=False)


@dataclass(frozen=True)
class Theorem22Report:
    """The ten structural checks for the polar partial isometry."""

    checks: tuple[ConditionCheck, ...]
    kmax: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def by_name(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def theorem22_report(a, tol: float = DEFAULT_TOL, kmax: int | None = None) -> Theorem22Report:
    """Verify the ten properties of U from the polar decomposition.

    Requires the defining relation (RelationViolated otherwise).  Power
    ranges run to ``kmax`` (default: the matrix dimension, by which
    point the projection chain has stabilized or died).
    """
    an = _analysis(a, tol)
    tol = an.tol
    _require_relation(an)
    n = an.matrix.shape[0]
    if kmax is None:
        kmax = n
    pd = an.pd
    u = pd.u
    us = dagger(u)
    upow = {0: np.eye(n, dtype=np.complex128)}
    for k in range(1, kmax + 1):
        upow[k] = upow[k - 1] @ u
    p_of = {k: upow[k] @ dagger(upow[k]) for k in range(kmax + 1)}
    q_of = {k: dagger(upow[k]) @ upow[k] for k in range(kmax + 1)}

    thr = tol * (1.0 + operator_norm(an.matrix)) ** 2
    seed_unital = an.seed
    seed_plain = nonunital_seed(pd.pos, tol=tol)
    bicom = bicommutant(seed_unital, tol=tol)

    checks = []

    def add(name: str, residual: float):
        checks.append(ConditionCheck(name=name, residual=float(residual), passed=residual <= thr))

    add("initial_projection_in_bicommutant", bicom.residual(q_of[1]))

    add(
        "range_projections_in_bicommutant",
        max(bicom.residual(p_of[k]) for k in range(1, kmax + 1)),
    )

    add(
        "projection_families_commute",
        max(
            operator_norm(q_of[l] @ p_of[k] - p_of[k] @ q_of[l])
            for k in range(1, kmax + 1)
            for l in range(1, kmax + 1)
        ),
    )

    add(
        "power_reduction",
        max(
            operator_norm(us @ upow[k] @ dagger(upow[l]) - upow[k - 1] @ dagger(upow[l]))
            for l in range(1, kmax + 1)
            for k in range(1, l + 1)
        ),
    )

    add(
        "range_projections_idempotent",
        max(operator_norm(p_of[k] @ p_of[k] - p_of[k]) for k in range(1, kmax + 1)),
    )

    nest = max(projection_chain_defect(q_of, kmax), projection_chain_defect(p_of, kmax))
    add("ordered_products_nest", nest)

    morph = morphism_check(u, seed_plain, tol=tol)
    range_res = max(
        (seed_unital.residual(u @ b @ us) for b in seed_plain.basis), default=0.0
    )
    add(
        "delta_morphism_on_seed",
        max(morph.multiplicative_residual, morph.intertwine_residual, range_res),
    )

    image_res = 0.0
    absorb = 0.0
    for k in range(1, kmax + 1):
        family = [pd.pos] + [p_of[j] for j in range(1, k)]
        for b in seed_plain.basis:
            img = upow[k] @ b @ dagger(upow[k])
            image_res = max(image_res, is_function_of_family(img, family, tol=tol).residual)
            absorb = max(absorb, operator_norm(p_of[k] @ img - img))
            absorb = max(absorb, operator_norm(img @ p_of[k] - img))
    add("delta_powers_in_extended_algebra", image_res)
    add("range_projection_absorbs_image", absorb)

    round_trip = 0.0
    for b in seed_plain.basis:
        round_trip = max(round_trip, operator_norm(us @ (u @ b @ us) @ u - b))
        round_trip = max(round_trip, operator_norm(q_of[1] @ b - b))
        round_trip = max(round_trip, operator_norm(b @ q_of[1] - b))
    add("delta_star_delta_identity", round_trip)

    return Theorem22Report(checks=tuple(checks), kmax=kmax)


@dataclass(frozen=True)
class CoefficientAlgebraReport:
    """Tower run over the seed C*(1, |a|), plus structure checks.

    ``structure`` holds the sum-form statements: each level of the star
    tower over the forward limit is already a plain linear span of the
    layer images (products add nothing), and likewise for the forward
    tower over the star limit at its stabilization level.
    """

    certificate: RelationCertificate
    tower: TowerReport
    theorems: TheoremReport
    structure: dict[str, tuple[bool, float]]

    @property
    def algebra(self) -> MatrixAlgebra:
        return self.tower.inf_a_inf

    @property
    def passed(self) -> bool:
        return (
            all(ok for ok, _ in self.tower.checks.values())
            and self.theorems.passed
            and all(ok for ok, _ in self.structure.values())
        )


def _sum_form_residual(
    base: MatrixAlgebra, pair, direction: str, levels: list, tol: float
) -> float:
    """Defect of tower levels from the plain span of layer images.

    ``levels[n]`` is the algebra expected to equal the span of the
    layers d^0(base) .. d^n(base); None entries only extend the layer
    accumulation without a comparison.
    """
    worst = 0.0
    layer = base.basis
    acc = [layer]
    for n, alg in enumerate(levels):
        if n > 0:
            layer = np.stack([pair.apply(m, direction) for m in layer])
            acc.append(layer)
        if alg is None:
            continue
        span = linear_span(list(np.concatenate(acc, axis=0)), unital=True)
        _, res = algebras_equal(span, alg, tol=tol)
        worst = max(worst, res)
    return worst


def coefficient_algebra(a, tol: float = DEFAULT_TOL) -> CoefficientAlgebraReport:
    """Build and certify the commutative coefficient algebra of a.

    Seeds the tower with C*(1, |a|) and the polar partial isometry,
    verifies the tower theorems, and adds the sum-form structure checks
    (every tower level is a linear span of layer images, so sums of the
    form alpha_0 + delta_*(alpha_1) + ... exhaust each level).
    """
    an = _analysis(a, tol)
    tol = an.tol
    cert = _require_relation(an)
    tower, pair = an.tower, an.pair
    theorems = verify_tower_theorems(tower, pair, tol=tol)

    scale = 1.0 + operator_norm(an.matrix)
    star_levels = _sum_form_residual(tower.a_inf, pair, "star", tower.n_a_inf_list, tol)
    fwd_stab = tower.stabilization.get("forward_from_star_limit", 0)
    fwd_levels = _sum_form_residual(
        tower.inf_a,
        pair,
        "forward",
        [None] * fwd_stab + [tower.a_inf_of_inf_a],
        tol,
    )
    structure = {
        "sum_form_star_levels": (star_levels <= tol * scale, star_levels),
        "sum_form_forward_limit": (fwd_levels <= tol * scale, fwd_levels),
    }
    return CoefficientAlgebraReport(
        certificate=cert, tower=tower, theorems=theorems, structure=structure
    )


def graded_model_for(a, tol: float = DEFAULT_TOL) -> GradedModel:
    """Graded model of a without requiring the defining relation.

    Builds the double-closure tower over C*(1, |a|) and wraps the polar
    partial isometry with that limit algebra.  The graded calculus only
    needs U and a commutative invariant coefficient algebra, so this
    also covers negative-control models (unit-weight shifts, Jordan
    blocks) on which :func:`verify_I1` fails.
    """
    return _analysis(a, tol).model


def build_calB(a, tol: float = DEFAULT_TOL) -> tuple[MatrixAlgebra, list[GradedElement]]:
    """The algebra generated by {1, |a|, U} with a graded spanning set.

    Returns the algebra and one graded element per basis matrix, with
    coefficients in the coefficient algebra and canonical supports; each
    round trip realize(element) reproduces its basis matrix.  Band
    extraction needs U to be a standard-basis shift; models whose U is
    not banded are handled only in the commutative case (everything in
    degree zero), and ModelNotGraded is raised otherwise.
    """
    an = _analysis(a, tol)
    tol = an.tol
    _require_relation(an)
    pieces, _ = _spectral_projections(an.pd.pos, tol)
    gens = [p for _, p in pieces] + [an.pd.u]
    algebra_b = generate(gens, unital=True, tol=tol)
    model = an.model

    graded_basis = []
    for m in algebra_b.basis:
        if model.is_shift_banded:
            g = regrade(model, m)
        else:
            member, res = contains(model.algebra, m, tol=tol)
            if not member:
                raise ModelNotGraded(
                    "U is not a standard-basis shift and the element leaves "
                    f"the coefficient algebra (residual {res:.3e})"
                )
            g = model.element({0: m})
        back = operator_norm(realize(g) - m)
        if back > tol * (1.0 + operator_norm(m)):
            raise ModelNotGraded(f"graded round trip failed (residual {back:.3e})")
        graded_basis.append(g)
    return algebra_b, graded_basis
