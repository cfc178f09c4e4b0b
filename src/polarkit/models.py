"""Concrete matrix models for operators with aa* a function of a*a.

The zoo covers the cases the rest of the package is exercised on:

* weighted_shift: a e_n = w_n e_{n+1}, zero on the top vector.  With
  strictly distinct positive weights the defining relation holds exactly
  in finite dimension.
* q_oscillator: the deformed oscillator a a* = q a*a + h, built so that
  a*a = diag(lambda_0, ..., lambda_{N-1}) with lambda_n = q lambda_{n-1} + h
  and lambda_0 = 0.  The truncation breaks the relation only at the top
  diagonal entry of a a*; the interior is exact.
* normal: a diagonal (hence normal) operator, the commuting base case.
* jordan_block: the unit-weight shift, a deliberate negative control
  whose a*a has a repeated eigenvalue carrying two different aa* values.
* custom: any explicit square matrix.

Shift models raise the index.  The q_oscillator lowers it instead (it
is the adjoint of the raising shift with weights sqrt(lambda_{n+1})):
that orientation is what makes a a* - q a*a - h vanish away from the
top index, with the single defective entry sitting at the top where
interior restrictions can excise it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec, UnsupportedPhi
from .linalg import LEVEL_COLLISION, _count, as_matrix, dagger
from .words import PhiMap

KINDS = ("weighted_shift", "q_oscillator", "normal", "jordan_block", "custom")


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Declarative description of one zoo model."""

    kind: str
    dim: int
    weights: tuple = field(default=())
    q: float = 0.0
    h: float = 0.0
    diag: tuple = field(default=())
    matrix: object = None


def _malformed(read, *args):
    """read(*args), a TypeError, ValueError or OverflowError raised as an InvalidSpec."""
    try:
        return read(*args)
    except InvalidSpec:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"model spec is malformed: {exc}") from exc


def weighted_shift(weights) -> ModelSpec:
    w = _malformed(lambda: tuple(float(x) for x in weights))
    return ModelSpec(kind="weighted_shift", dim=len(w) + 1, weights=w)


def q_oscillator(dim: int, q: float, h: float) -> ModelSpec:
    return ModelSpec(kind="q_oscillator", dim=_count(dim, "dim", 0), q=_malformed(float, q),
                     h=_malformed(float, h))


def normal(diag) -> ModelSpec:
    d = _malformed(lambda: tuple(complex(z) for z in diag))
    return ModelSpec(kind="normal", dim=len(d), diag=d)


def jordan_block(dim: int) -> ModelSpec:
    return ModelSpec(kind="jordan_block", dim=_count(dim, "dim", 0))


def custom(matrix) -> ModelSpec:
    m = as_matrix(matrix)
    return ModelSpec(kind="custom", dim=m.shape[0], matrix=m)


def q_lambda(dim: int, q: float, h: float) -> np.ndarray:
    """The sequence lambda_0 = 0, lambda_n = q lambda_{n-1} + h."""
    lam = np.zeros(dim)
    for n in range(1, dim):
        lam[n] = q * lam[n - 1] + h
    return lam


def _raising_shift(weights) -> np.ndarray:
    n = len(weights) + 1
    a = np.zeros((n, n), dtype=np.complex128)
    for i, w in enumerate(weights):
        a[i + 1, i] = w
    return a


def build(spec: ModelSpec) -> np.ndarray:
    """Materialize the model's matrix a; InvalidSpec for an inconsistent spec
    (a q_oscillator level value lambda_n that overflows, repeats or is
    negative, a non-square custom matrix), a non-finite entry or a non-numeric field."""
    return _malformed(_materialize, spec)


def _materialize(spec: ModelSpec) -> np.ndarray:
    m = as_matrix(spec.matrix) if spec.kind == "custom" else None
    for name in ("weights", "q", "h", "diag") + (("matrix",) if m is not None else ()):
        if not np.isfinite(np.asarray(getattr(spec, name), dtype=np.complex128)).all():
            raise InvalidSpec(f"model field {name!r} has a non-finite entry")
    if spec.kind == "weighted_shift" or spec.kind == "jordan_block":
        weights = spec.weights if spec.kind == "weighted_shift" else (1.0,) * (spec.dim - 1)
        if len(weights) == 0:
            raise InvalidSpec("shift needs at least one weight")
        if any(w <= 0 for w in weights):
            raise InvalidSpec("shift weights must be positive")
        return _raising_shift(weights)
    if spec.kind == "q_oscillator":
        if spec.dim < 2:
            raise InvalidSpec("q_oscillator needs dim >= 2")
        if spec.h <= 0:
            raise InvalidSpec("q_oscillator needs h > 0")
        with np.errstate(over="ignore", invalid="ignore"):
            lam = q_lambda(spec.dim, spec.q, spec.h)
        if not np.isfinite(lam).all():
            n = int(np.flatnonzero(~np.isfinite(lam))[0])
            raise InvalidSpec(
                f"q_oscillator level value lambda_{n} = {lam[n]:.6g} is not finite "
                f"(q={spec.q}, h={spec.h})"
            )
        diffs = np.abs(lam[:, None] - lam[None, :])
        np.fill_diagonal(diffs, np.inf)
        if diffs.min() <= LEVEL_COLLISION:
            i, j = np.unravel_index(int(diffs.argmin()), diffs.shape)
            raise InvalidSpec(
                f"q_oscillator level values collide: lambda_{i} == lambda_{j} "
                f"= {lam[i]:.6g} (q={spec.q}, h={spec.h})"
            )
        negative = np.flatnonzero(lam < 0)
        if negative.size:
            n = int(negative[0])
            raise InvalidSpec(
                f"q_oscillator level value lambda_{n} = {lam[n]:.6g} is negative "
                f"(q={spec.q}, h={spec.h}), but a*a = diag(lambda) is positive"
            )
        return dagger(_raising_shift(np.sqrt(lam[1:])))
    if spec.kind == "normal":
        if spec.dim == 0:
            raise InvalidSpec("normal model needs at least one diagonal entry")
        return np.diag(np.asarray(spec.diag, dtype=np.complex128))
    if spec.kind == "custom":
        if m.shape[0] != spec.dim:
            raise InvalidSpec(f"custom matrix is {m.shape[0]}x{m.shape[0]}, spec says dim {spec.dim}")
        return m
    raise InvalidSpec(f"unknown model kind {spec.kind!r}")


def phi_for(spec: ModelSpec) -> PhiMap:
    """The substitution map of the model's defining relation."""
    if spec.kind == "q_oscillator":
        return PhiMap.affine(spec.q, spec.h)
    raise UnsupportedPhi(f"model kind {spec.kind!r} has no affine relation")

