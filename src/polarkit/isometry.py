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
12, 12, 6), only the pass thresholds share a scale.  The same conditions
on every power of u, and the projection lattice of those powers, are read
on atoms in ``tower`` (``power_isometry_check``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
