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

from .errors import NotHermitian
from .linalg import DEFAULT_TOL, _finite, _operator_norms, as_matrix, dagger

CONDITIONS = (
    "spec_initial", "spec_final", "idempotent_initial", "idempotent_final", "triple_product"
)


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class PartialIsometryReport:
    """The five conditions, and ||u||, the scale of their thresholds."""

    conditions: tuple[ConditionCheck, ...]
    passed: bool
    worst: float
    norm: float

    @property
    def consistent(self) -> bool:
        """The five conditions are equivalent, so their booleans must agree;
        a False here flags a tolerance straddle, not a counterexample."""
        flags = [c.passed for c in self.conditions]
        return all(flags) or not any(flags)


def partial_isometry_report(u, tol: float = DEFAULT_TOL) -> PartialIsometryReport:
    """Evaluate all five characterizations on u.

    Each condition passes when its residual is at most
    ``tol * (1 + ||u||^2)^2`` (one shared scale, quartic because the
    idempotency checks are degree four in u, squared by multiplication,
    which rounds the same under every libm).  Every norm the conditions
    read is one stack, and both spectra are one stacked eigendecomposition
    of the symmetrized u*u and uu*, after the Hermiticity test that
    :func:`linalg.hermitian_eig` makes (:class:`NotHermitian`).  A u with
    a NaN or infinite entry is an :class:`InvalidSpec` naming that entry.
    """
    um = _finite(as_matrix(u), "u")
    uh = dagger(um)
    q, p = uh @ um, um @ uh
    norms = _operator_norms(
        [um, q - dagger(q), q, p - dagger(p), p, q @ q - q, p @ p - p,
         um @ uh @ um - um, uh @ um @ uh - uh]
    )
    for defect, norm in (norms[1:3], norms[3:5]):
        if defect > tol * (1.0 + norm):
            scale = 1.0 + norm
            raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {tol:.1e} * {scale:.3e}")
    pair = np.array([q, p])
    w = np.linalg.eigh((pair + dagger(pair)) / 2.0)[0]
    spectra = np.minimum(np.abs(w), np.abs(w - 1.0)).max(axis=1)
    s = 1.0 + norms[0] * norms[0]
    residuals = (*spectra, norms[5], norms[6], max(norms[7], norms[8]))
    checks = tuple(
        ConditionCheck(name=name, residual=float(res), passed=bool(res <= tol * (s * s)))
        for name, res in zip(CONDITIONS, residuals)
    )
    worst = max(c.residual for c in checks)
    return PartialIsometryReport(
        conditions=checks, passed=all(c.passed for c in checks), worst=worst, norm=float(norms[0])
    )
