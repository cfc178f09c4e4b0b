"""Partial isometry checks.

A matrix u is a partial isometry when it is isometric on the orthogonal
complement of its kernel.  Five equivalent characterizations are checked
side by side, each with its raw residual, so a near miss shows where the
failure lives:

  spec_initial        spectrum of u*u inside {0, 1}
  spec_final          spectrum of uu* inside {0, 1}
  idempotent_initial  (u*u)^2 = u*u
  idempotent_final    (uu*)^2 = uu*
  triple_product      u u* u = u and u* u u* = u*

The residuals are not normalized against each other (u = 2 produces 3, 3,
12, 12, 6), only the pass thresholds share a scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CommutantViolation, HypothesisViolated
from .linalg import DEFAULT_TOL, as_matrix, dagger, hermitian_eig, operator_norm


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class PartialIsometryReport:
    conditions: tuple[ConditionCheck, ...]
    passed: bool
    worst: float

    @property
    def consistent(self) -> bool:
        """The five conditions are equivalent, so their booleans must agree;
        a False here flags a tolerance straddle, not a counterexample."""
        flags = [c.passed for c in self.conditions]
        return all(flags) or not any(flags)


def _spectral_distance_from_01(h, tol: float) -> float:
    w, _ = hermitian_eig(h, tol=tol)
    return float(np.minimum(np.abs(w), np.abs(w - 1.0)).max())


def partial_isometry_report(u, tol: float = DEFAULT_TOL) -> PartialIsometryReport:
    """Evaluate all five characterizations on u.

    Each condition passes when its residual is at most
    ``tol * (1 + ||u||^2)^2`` (one shared scale, quartic because the
    idempotency checks are degree four in u).
    """
    um = as_matrix(u)
    q = dagger(um) @ um
    p = um @ dagger(um)
    nu = operator_norm(um)
    scale = (1.0 + nu * nu) ** 2
    residuals = (
        ("spec_initial", _spectral_distance_from_01(q, tol)),
        ("spec_final", _spectral_distance_from_01(p, tol)),
        ("idempotent_initial", operator_norm(q @ q - q)),
        ("idempotent_final", operator_norm(p @ p - p)),
        (
            "triple_product",
            max(
                operator_norm(um @ dagger(um) @ um - um),
                operator_norm(dagger(um) @ um @ dagger(um) - dagger(um)),
            ),
        ),
    )
    checks = tuple(
        ConditionCheck(name=name, residual=res, passed=res <= tol * scale)
        for name, res in residuals
    )
    worst = max(c.residual for c in checks)
    return PartialIsometryReport(
        conditions=checks, passed=all(c.passed for c in checks), worst=worst
    )


def is_partial_isometry(u, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Convenience wrapper: (all five conditions pass, worst residual)."""
    rep = partial_isometry_report(u, tol=tol)
    return rep.passed, rep.worst


def initial_projection(u) -> np.ndarray:
    """u*u, the projection onto the initial (co-kernel) space."""
    um = as_matrix(u)
    return dagger(um) @ um


def final_projection(u) -> np.ndarray:
    """uu*, the projection onto the range."""
    um = as_matrix(u)
    return um @ dagger(um)


def power_projections(u, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacks (p, q) with p[k] = u^k u*^k and q[k] = u*^k u^k, k = 0..kmax.

    For a shift-like partial isometry these are the projections onto the
    range and support of the k-step shift; p[0] = q[0] = 1.
    """
    um = as_matrix(u)
    n = um.shape[0]
    p = np.empty((kmax + 1, n, n), dtype=np.complex128)
    q = np.empty((kmax + 1, n, n), dtype=np.complex128)
    uk = np.eye(n, dtype=np.complex128)
    for k in range(kmax + 1):
        p[k] = uk @ dagger(uk)
        q[k] = dagger(uk) @ uk
        if k < kmax:
            uk = uk @ um
    return p, q


def projection_chain_defect(x, kmax: int) -> float:
    """Worst defect of x[1..kmax] from a decreasing chain of projections:
    x_k x_l = x_l x_k = x_k for l <= k (l = k is idempotency)."""
    worst = 0.0
    for k in range(1, kmax + 1):
        for l in range(1, k + 1):
            worst = max(worst, operator_norm(x[k] @ x[l] - x[k]))
            worst = max(worst, operator_norm(x[l] @ x[k] - x[k]))
    return worst


def power_partial_isometry_residuals(
    u, kmax: int, tol: float = DEFAULT_TOL
) -> tuple[bool, list[tuple[int, float]]]:
    """Check that u, u^2, ..., u^kmax are all partial isometries.

    Not automatic: a generic partial isometry has non-isometric powers.
    Returns (all passed, [(k, worst residual of the five conditions)]).
    """
    um = as_matrix(u)
    out = []
    ok = True
    uk = np.eye(um.shape[0], dtype=np.complex128)
    for k in range(1, kmax + 1):
        uk = uk @ um
        rep = partial_isometry_report(uk, tol=tol)
        out.append((k, rep.worst))
        ok = ok and rep.passed
    return ok, out


@dataclass(frozen=True)
class PowerIsometryReport:
    """Joint check of two equivalent statements about the powers of v:
    (powers) every v^k is a partial isometry, and (family) the initial
    projections v*^k v^k form a commuting decreasing projection family.
    ``equivalent`` records that the two booleans agree, which the theory
    guarantees; a False means a tolerance straddle."""

    kmax: int
    powers_ok: bool
    family_ok: bool
    worst_power: float
    worst_family: float
    per_power: tuple[tuple[int, float], ...]

    @property
    def equivalent(self) -> bool:
        return self.powers_ok == self.family_ok


def power_isometry_check(v, kmax: int, tol: float = DEFAULT_TOL) -> PowerIsometryReport:
    """Check powers-are-partial-isometries against the projection-family
    characterization, for k = 1..kmax."""
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    vm = as_matrix(v)
    scale = (1.0 + operator_norm(vm) ** 2) ** 2
    ok_powers, per_power = power_partial_isometry_residuals(vm, kmax, tol=tol)
    worst_power = max(res for _, res in per_power)

    _, q = power_projections(vm, kmax)
    worst_family = max(
        projection_chain_defect(q, kmax),
        max(operator_norm(q[k] - dagger(q[k])) for k in range(1, kmax + 1)),
    )
    return PowerIsometryReport(
        kmax=kmax,
        powers_ok=ok_powers,
        family_ok=worst_family <= tol * scale,
        worst_power=worst_power,
        worst_family=worst_family,
        per_power=tuple(per_power),
    )


@dataclass(frozen=True)
class CommutingProjectionReport:
    kmax: int
    commutant_residual: float
    reduction_residual: float
    family_residual: float
    passed: bool


def commuting_projection_properties(
    v, kmax: int, tol: float = DEFAULT_TOL
) -> CommutingProjectionReport:
    """Consequences of [v*v, v^k v*^k] = 0 for a partial isometry v.

    Requires that hypothesis up to kmax (raises
    :class:`HypothesisViolated` naming the first offending k); then checks
    that each v*^l v^l commutes with the whole final-projection family,
    the reduction identity v* v^k v*^l = v^(k-1) v*^l for 1 <= k <= l,
    and that {v^k v*^k} is a commuting decreasing projection family.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    vm = as_matrix(v)
    rep = partial_isometry_report(vm, tol=tol)
    if not rep.passed:
        raise HypothesisViolated(
            f"v is not a partial isometry (worst residual {rep.worst:.3e})"
        )
    scale = (1.0 + operator_norm(vm) ** 2) ** 2
    p, q = power_projections(vm, kmax)
    for k in range(1, kmax + 1):
        c = operator_norm(q[1] @ p[k] - p[k] @ q[1])
        if c > tol * scale:
            raise HypothesisViolated(
                f"[v*v, v^{k} v*^{k}] has norm {c:.3e}, beyond tolerance"
            )

    commutant_residual = 0.0
    for l in range(1, kmax + 1):
        for k in range(1, kmax + 1):
            commutant_residual = max(
                commutant_residual, operator_norm(q[l] @ p[k] - p[k] @ q[l])
            )

    powers = [np.eye(vm.shape[0], dtype=np.complex128)]
    for _ in range(kmax):
        powers.append(powers[-1] @ vm)
    reduction_residual = 0.0
    for k in range(1, kmax + 1):
        for l in range(k, kmax + 1):
            lhs = dagger(vm) @ powers[k] @ dagger(powers[l])
            rhs = powers[k - 1] @ dagger(powers[l])
            reduction_residual = max(reduction_residual, operator_norm(lhs - rhs))

    family_residual = projection_chain_defect(p, kmax)

    worst = max(commutant_residual, reduction_residual, family_residual)
    return CommutingProjectionReport(
        kmax=kmax,
        commutant_residual=commutant_residual,
        reduction_residual=reduction_residual,
        family_residual=family_residual,
        passed=worst <= tol * scale,
    )


@dataclass(frozen=True)
class MorphismReport:
    multiplicative_residual: float
    intertwine_residual: float
    passed: bool
    equivalence_flags: tuple[bool, bool, bool, bool] | None
    equivalence_consistent: bool | None


def morphism_check(v, algebra, tol: float = DEFAULT_TOL) -> MorphismReport:
    """Check that b -> v b v* restricts to a morphism on the algebra.

    Requires v*v in the commutant of the algebra (raises
    :class:`CommutantViolation` naming the first offending basis element).
    Verifies multiplicativity on basis pairs and the intertwining
    relations v a = (v a v*) v and a v* = v* (v a v*).

    When the algebra contains the identity and vv* also lies in the
    commutant, the four statements "v*v is a projection", "vv* is a
    projection", "v(.)v* is multiplicative", "v*(.)v is multiplicative"
    are equivalent; their booleans and agreement flag are then reported.
    """
    vm = as_matrix(v)
    vs = dagger(vm)
    q = vs @ vm
    p = vm @ vs
    scale = (1.0 + operator_norm(vm) ** 2) ** 2
    basis = algebra.basis
    for i, m in enumerate(basis):
        c = operator_norm(q @ m - m @ q)
        if c > tol * scale:
            raise CommutantViolation(
                f"v*v does not commute with basis element {i} (norm {c:.3e})"
            )

    def _mult_defect(w):
        ws = dagger(w)
        worst = 0.0
        for x in basis:
            for y in basis:
                worst = max(
                    worst,
                    operator_norm(w @ (x @ y) @ ws - (w @ x @ ws) @ (w @ y @ ws)),
                )
        return worst

    mult = _mult_defect(vm)
    inter = 0.0
    for x in basis:
        dx = vm @ x @ vs
        inter = max(inter, operator_norm(vm @ x - dx @ vm))
        inter = max(inter, operator_norm(x @ vs - vs @ dx))

    flags = None
    consistent = None
    eye = np.eye(vm.shape[0], dtype=np.complex128)
    has_unit = algebra.residual(eye) <= tol * (1.0 + 1.0)
    p_commutes = all(
        operator_norm(p @ m - m @ p) <= tol * scale for m in basis
    )
    if has_unit and p_commutes:
        proj_q = operator_norm(q @ q - q) <= tol * scale
        proj_p = operator_norm(p @ p - p) <= tol * scale
        morph_fwd = mult <= tol * scale
        morph_bwd = _mult_defect(vs) <= tol * scale
        flags = (proj_q, proj_p, morph_fwd, morph_bwd)
        consistent = all(flags) or not any(flags)

    worst = max(mult, inter)
    return MorphismReport(
        multiplicative_residual=mult,
        intertwine_residual=inter,
        passed=worst <= tol * scale,
        equivalence_flags=flags,
        equivalence_consistent=consistent,
    )


def nilpotent_index(u, tol: float = DEFAULT_TOL) -> int | None:
    """Smallest k with u^k = 0 (within tol), or None.

    A nilpotent matrix on an n-dimensional space dies by k = n, so the
    search stops there.
    """
    um = as_matrix(u)
    n = um.shape[0]
    nu = max(1.0, operator_norm(um))
    m = np.eye(n, dtype=np.complex128)
    for k in range(1, n + 1):
        m = m @ um
        if operator_norm(m) <= tol * nu**k:
            return k
    return None
