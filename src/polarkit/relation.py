"""The defining relation aa* in C*(1, a*a) and what follows from it.

``verify_I1`` certifies the relation itself (two equivalent membership
routes).  ``theorem22_report`` then verifies the ten structural
properties of the partial isometry U from the polar decomposition of a
passing operator: bicommutant membership of the power projections, the
commuting projection lattice, the reduction identities, and the
morphism/intertwining behaviour of b -> U b U* on the algebra generated
by |a| alone (no identity adjoined; the unital and non-unital algebras
are deliberately kept distinct).  Bicommutant membership is tested
against the seed C*(1, |a|) itself: at finite dimension a *-algebra with
1 is its own bicommutant (von Neumann's double commutant theorem), so
no commutant is ever built.

``coefficient_algebra`` assembles the commutative algebra every graded
coefficient lives in, by running the endomorphism tower over the seed
C*(1, |a|), and checks the structure statements that come with it.  The
``structure`` view reads the algebra B generated by {1, |a|, U} as a
Wedderburn sum over the orbits of delta on the atoms of that algebra
(``tower.OrbitBlock``), so dim B = sum L^2 over chains + sum c^2 s over
cycles, and no matrix of B is formed.

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
    _atom_residual,
    _eigenspaces,
    _joint_eigenbases,
    _labels,
    _projection_basis,
    is_function_of,
    spectral_algebra,
)
from .errors import PolarkitError, RelationViolated
from .graded import GradedModel
from .isometry import (
    ConditionCheck,
    _lattice_residuals,
    _power_table,
    morphism_check,
    projection_chain_defect,
)
from .linalg import DEFAULT_TOL, as_matrix, dagger, operator_norm, polar_decompose
from .tower import (
    TheoremReport,
    TowerReport,
    _AtomFrame,
    _tower_theorems,
    build_tower,
    endo_pair,
    orbit_structure,
)

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


_FAILURES = (PolarkitError, np.linalg.LinAlgError)


def _once(derive):
    """A field of :class:`Analysis`: derived on first read, then cached
    together with the PolarkitError or LinAlgError the derivation may
    raise."""

    def get(self):
        if derive not in self._memo:
            try:
                self._memo[derive] = derive(self)
            except _FAILURES as exc:
                self._memo[derive] = exc
        if isinstance(self._memo[derive], _FAILURES):
            raise self._memo[derive]
        return self._memo[derive]

    return property(get)


class Analysis:
    """One operator and everything derived from it, each piece once.

    Each field is derived on first read from the ones before it: ``pd``
    (the polar parts), ``certificate`` (the defining-relation test),
    ``seed`` (C*(1, |a|)), ``pair`` (U validated as a partial isometry),
    ``tower`` (both towers over the seed), ``model`` (U over the tower's
    double closure) and ``structure`` (the blocks of B, given the
    relation).  A failed derivation is not repeated either: its
    PolarkitError or LinAlgError is raised again on every later read.
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
    structure = _once(lambda an: _structure(an))


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


def _structure(an: Analysis):
    _require_relation(an)
    return orbit_structure(an.tower.inf_a_inf, an.pair, an.tol)


def nonunital_seed(pos, tol: float = DEFAULT_TOL) -> MatrixAlgebra:
    """The algebra generated by |a| without adjoining the identity.

    Spanned by the eigenprojections of |a| away from its kernel: any
    polynomial with zero constant term takes arbitrary values on the
    nonzero spectrum but is forced to vanish on the kernel.  Its basis is
    the seed's own rows P_i / sqrt(rank P_i) for those eigenprojections.
    """
    w, v, groups, scale = _eigenspaces(pos, tol)
    kept = [idx for idx in groups if abs(float(np.mean(w[idx]))) > tol * scale]
    return MatrixAlgebra(dim=v.shape[0], basis=_projection_basis(v, kept), unital=False)


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
    point the projection chain has stabilized or died), at least 1.
    """
    if kmax is not None and kmax < 1:
        raise ValueError("kmax must be at least 1")
    an = _analysis(a, tol)
    tol = an.tol
    _require_relation(an)
    n = an.matrix.shape[0]
    if kmax is None:
        kmax = n
    pd = an.pd
    u = pd.u
    us = dagger(u)
    powers, p, q = _power_table(u, kmax)

    scale = 1.0 + operator_norm(an.matrix)
    thr = tol * (scale * scale)
    seed_unital = an.seed
    seed_plain = nonunital_seed(pd.pos, tol=tol)

    checks = []

    def add(name: str, residual: float):
        checks.append(ConditionCheck(name=name, residual=float(residual), passed=residual <= thr))

    # C*(1, |a|) is its own bicommutant
    add("initial_projection_in_bicommutant", seed_unital.residual(q[1]))
    add("range_projections_in_bicommutant", seed_unital.residual(p[1:]))
    commutant, reduction = _lattice_residuals(u, powers, p, q)
    add("projection_families_commute", commutant)
    add("power_reduction", reduction)
    add("range_projections_idempotent", operator_norm(p[1:] @ p[1:] - p[1:]))
    add(
        "ordered_products_nest",
        max(projection_chain_defect(q, kmax), projection_chain_defect(p, kmax)),
    )

    plain = seed_plain.basis
    morph = morphism_check(u, seed_plain, tol=tol)
    range_res = seed_unital.residual(u @ plain @ us)
    add(
        "delta_morphism_on_seed",
        max(morph.multiplicative_residual, morph.intertwine_residual, range_res),
    )

    # the images of all seed elements share one joint eigenbasis of
    # [|a|, P_1..P_{k-1}] per k, the one for k - 1 split by P_{k-1}; an
    # empty non-unital seed needs none
    image_res = 0.0
    absorb = 0.0
    bases = _joint_eigenbases([pd.pos, *p[1:kmax]], tol=tol)
    for k, (v, blocks) in zip(range(1, kmax + 1 if seed_plain.dimension else 1), bases):
        imgs = powers[k] @ plain @ dagger(powers[k])
        image_res = max(image_res, _atom_residual(v, _labels(blocks), imgs))
        absorb = max(
            absorb, operator_norm(p[k] @ imgs - imgs), operator_norm(imgs @ p[k] - imgs)
        )
    add("delta_powers_in_extended_algebra", image_res)
    add("range_projection_absorbs_image", absorb)

    round_trip = max(
        operator_norm(us @ (u @ plain @ us) @ u - plain),
        operator_norm(q[1] @ plain - plain),
        operator_norm(plain @ q[1] - plain),
    )
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


def _sum_form_residual(frame: _AtomFrame, layers: list, levels: list) -> float:
    """Defect of tower levels from the plain span of layer images.

    ``layers`` are the coordinates on the atoms of ``frame`` of the
    layers d^0(base), d^1(base), ..., and ``levels[n]`` is the algebra
    expected to equal the span of the first n + 1 of them; None entries
    are skipped.  Each comparison adds the ties of the span and of the
    level.
    """
    worst = 0.0
    for n, alg in enumerate(levels):
        if alg is None:
            continue
        values = np.concatenate([v for v, _, _ in layers[: n + 1]])
        ties = np.concatenate([e for _, e, _ in layers[: n + 1]])
        span, span_ties = frame.span_basis(values, ties)
        cls, eps = frame.classes(alg)
        res = max(
            frame.class_residual(span, cls), frame.span_residual(frame.class_basis(cls), span)
        )
        worst = max(worst, float(res + span_ties.max(initial=0.0) + eps))
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
    frame = _AtomFrame(tower.inf_a_inf, pair)
    theorems, inf_star = _tower_theorems(tower, pair, frame, tol)

    scale = 1.0 + operator_norm(an.matrix)
    star_levels = _sum_form_residual(frame, inf_star, tower.n_a_inf_list)
    fwd_stab = tower.stabilization.get("forward_from_star_limit", 0)
    fwd_layers = frame.layers(frame.rotate(tower.inf_a.basis), "forward", fwd_stab)
    fwd_levels = _sum_form_residual(
        frame, fwd_layers, [None] * fwd_stab + [tower.a_inf_of_inf_a]
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
