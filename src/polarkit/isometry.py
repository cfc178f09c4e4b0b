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

from .errors import HypothesisViolated
from .linalg import DEFAULT_TOL, _operator_norms, as_matrix, dagger, hermitian_eig, operator_norm


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


def _isometry_scale(u) -> float:
    """(1 + ||u||^2)^2, the scale of every threshold on a partial isometry
    u: quartic because the idempotency checks are degree four in u.
    Squared by multiplication, which rounds the same under every libm."""
    nu = operator_norm(u)
    s = 1.0 + nu * nu
    return s * s


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
    scale = _isometry_scale(um)
    residuals = (
        ("spec_initial", _spectral_distance_from_01(q, tol)),
        ("spec_final", _spectral_distance_from_01(p, tol)),
        ("idempotent_initial", operator_norm(q @ q - q)),
        ("idempotent_final", operator_norm(p @ p - p)),
        (
            "triple_product",
            operator_norm(
                [um @ dagger(um) @ um - um, dagger(um) @ um @ dagger(um) - dagger(um)]
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


def _power_table(u, kmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacks (powers, p, q) with powers[k] = u^k, p[k] = u^k u*^k and
    q[k] = u*^k u^k, k = 0..kmax."""
    um = as_matrix(u)
    powers = np.empty((kmax + 1, *um.shape), dtype=np.complex128)
    powers[0] = np.eye(um.shape[0], dtype=np.complex128)
    for k in range(1, kmax + 1):
        powers[k] = powers[k - 1] @ um
    return powers, powers @ dagger(powers), dagger(powers) @ powers


def power_projections(u, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacks (p, q) with p[k] = u^k u*^k and q[k] = u*^k u^k, k = 0..kmax.

    For a shift-like partial isometry these are the projections onto the
    range and support of the k-step shift; p[0] = q[0] = 1.
    """
    return _power_table(u, kmax)[1:]


def projection_chain_defect(x, kmax: int) -> float:
    """Worst defect of x[1..kmax] from a decreasing chain of projections:
    x_k x_l = x_l x_k = x_k for l <= k (l = k is idempotency)."""
    return max(
        (
            max(
                operator_norm(x[k] @ x[1 : k + 1] - x[k]),
                operator_norm(x[1 : k + 1] @ x[k] - x[k]),
            )
            for k in range(1, kmax + 1)
        ),
        default=0.0,
    )


def _lattice_residuals(u, powers: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """(commutant, reduction) residuals of the power table of u from
    :func:`_power_table`: the largest ||[q_l, p_k]|| over 1 <= k, l <= kmax,
    and the largest defect of u* u^k u*^l = u^(k-1) u*^l over
    1 <= k <= l <= kmax."""
    kmax = len(powers) - 1
    commutant = max(
        (operator_norm(q[l] @ p[1:] - p[1:] @ q[l]) for l in range(1, kmax + 1)), default=0.0
    )
    lifted = dagger(u) @ powers[1:]
    reduction = max(
        (
            operator_norm(lifted[:l] @ dagger(powers[l]) - powers[:l] @ dagger(powers[l]))
            for l in range(1, kmax + 1)
        ),
        default=0.0,
    )
    return commutant, reduction


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
    scale = _isometry_scale(vm)
    ok_powers, per_power = power_partial_isometry_residuals(vm, kmax, tol=tol)
    worst_power = max(res for _, res in per_power)

    _, q = power_projections(vm, kmax)
    worst_family = max(projection_chain_defect(q, kmax), operator_norm(q[1:] - dagger(q[1:])))
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
    scale = _isometry_scale(vm)
    powers, p, q = _power_table(vm, kmax)
    hypothesis = _operator_norms(q[1] @ p[1:] - p[1:] @ q[1])
    bad = np.flatnonzero(hypothesis > tol * scale)
    if bad.size:
        k = int(bad[0]) + 1
        raise HypothesisViolated(
            f"[v*v, v^{k} v*^{k}] has norm {hypothesis[bad[0]]:.3e}, beyond tolerance"
        )

    commutant_residual, reduction_residual = _lattice_residuals(vm, powers, p, q)
    family_residual = projection_chain_defect(p, kmax)

    worst = max(commutant_residual, reduction_residual, family_residual)
    return CommutingProjectionReport(
        kmax=kmax,
        commutant_residual=commutant_residual,
        reduction_residual=reduction_residual,
        family_residual=family_residual,
        passed=worst <= tol * scale,
    )
