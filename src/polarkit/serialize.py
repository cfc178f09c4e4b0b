"""JSON schemas for matrices, normal forms, and model specs.

A complex matrix travels as {"dim": N, "entries": [[re, im], ...]} with
N*N entries in row-major order.  Doubles go through Python's shortest
round-trip repr, so read(write(m)) reproduces every bit and identical
inputs always produce identical bytes.  An exact (Fraction) coefficient
of a normal form travels as its string, "52/27", and reads back exact.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction

import numpy as np

from .errors import ParseError
from .linalg import _count, as_matrix
from .models import ModelSpec
from .words import NormalForm


def matrix_to_json(m) -> dict:
    mm = as_matrix(m)
    n = mm.shape[0]
    entries = [[float(z.real), float(z.imag)] for z in mm.ravel()]
    return {"dim": n, "entries": entries}


def matrix_from_json(obj) -> np.ndarray:
    m = _matrix_entries(obj)
    bad = np.flatnonzero(~np.isfinite(m))
    if bad.size:
        raise ParseError(f"entries[{bad[0]}] is not finite: {m.flat[bad[0]]}")
    return m


def _matrix_entries(obj) -> np.ndarray:
    """The matrix of a JSON matrix object, checked for shape and entry
    types only: its entries may be non-finite."""
    if not isinstance(obj, dict):
        raise ParseError(f"matrix object must be a dict, got {type(obj).__name__}")
    try:
        n = _integer(obj["dim"], "matrix field 'dim'")
        entries = obj["entries"]
    except KeyError as exc:
        raise ParseError(f"matrix object is missing field {exc.args[0]!r}") from exc
    if n <= 0:
        raise ParseError(f"matrix field 'dim' must be positive, got {n}")
    if not isinstance(entries, list):
        raise ParseError("matrix field 'entries' must be a list of [re, im] pairs")
    if len(entries) != n * n:
        raise ParseError(
            f"matrix field 'entries' has {len(entries)} items, expected dim^2 = {n * n}"
        )
    flat = np.empty(n * n, dtype=np.complex128)
    for i, pair in enumerate(entries):
        try:
            re, im = pair if isinstance(pair, (list, tuple)) else ()
            flat[i] = complex(float(re), float(im))
        except (TypeError, ValueError):
            raise ParseError(f"entries[{i}] must be a [re, im] pair of numbers, got {pair!r}") from None
    return flat.reshape(n, n)


def _integer(value, what: str) -> int:
    """value, when it is a JSON integer: a bool, a float or a string is a
    ParseError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc


def read_matrix(path: str) -> np.ndarray:
    return matrix_from_json(load_json(path))


def write_matrix(path: str, m) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(m), fh)
        fh.write("\n")


def _coeff_to_json(c):
    if isinstance(c, Fraction):
        return str(c)
    z = complex(c)
    if z.imag == 0.0:
        return float(z.real)
    return [float(z.real), float(z.imag)]


def normal_form_to_json(nf: NormalForm) -> dict:
    return {
        "l": int(nf.l),
        "m": int(nf.m),
        "p": [_coeff_to_json(c) for c in nf.p],
        "deg": int(nf.degree),
    }


def _coeff_from_json(c):
    if isinstance(c, str):
        try:
            return Fraction(c)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"exact coefficient {c!r} is not a fraction") from exc
    if isinstance(c, (list, tuple)):
        if len(c) != 2:
            raise ParseError("complex coefficient must be a [re, im] pair")
        z = complex(float(c[0]), float(c[1]))
    else:
        z = float(c)
    if not cmath.isfinite(z):
        raise ParseError(f"coefficient {c!r} is not finite")
    return z


def normal_form_from_json(obj) -> NormalForm:
    """The normal form of a JSON object; ParseError for anything else:
    l or m not a non-negative integer, p not a non-empty list, or a
    coefficient that is not a finite number, a finite [re, im] pair or a
    fraction string."""
    try:
        l, m, raw = _count(obj["l"], "l", 0), _count(obj["m"], "m", 0), obj["p"]
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ParseError(f"normal form field 'p' must be a non-empty list, got {raw!r}")
        coeffs = tuple(_coeff_from_json(c) for c in raw)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"normal form object is malformed: {exc}") from exc
    return NormalForm(l, m, coeffs)


def model_spec_to_json(spec: ModelSpec) -> dict:
    out = {"kind": spec.kind, "dim": int(spec.dim)}
    if spec.kind == "weighted_shift":
        out["weights"] = [float(w) for w in spec.weights]
    elif spec.kind == "q_oscillator":
        out["q"] = float(spec.q)
        out["h"] = float(spec.h)
    elif spec.kind == "normal":
        out["diag"] = [[float(z.real), float(z.imag)] for z in spec.diag]
    elif spec.kind == "custom":
        out["matrix"] = matrix_to_json(spec.matrix)
    return out


def model_spec_from_json(obj) -> ModelSpec:
    if not isinstance(obj, dict):
        raise ParseError("model spec must be a dict")
    kind = obj.get("kind")
    try:
        if kind == "weighted_shift":
            return ModelSpec(
                kind=kind,
                dim=len(obj["weights"]) + 1,
                weights=tuple(float(w) for w in obj["weights"]),
            )
        if kind == "q_oscillator":
            dim = _integer(obj["dim"], "model field 'dim'")
            return ModelSpec(kind=kind, dim=dim, q=float(obj["q"]), h=float(obj["h"]))
        if kind == "normal":
            diag = tuple(complex(float(p[0]), float(p[1])) for p in obj["diag"])
            return ModelSpec(kind=kind, dim=len(diag), diag=diag)
        if kind == "jordan_block":
            return ModelSpec(kind=kind, dim=_integer(obj["dim"], "model field 'dim'"))
        if kind == "custom":
            # a non-finite entry fails models.build, as in the other kinds
            m = _matrix_entries(obj["matrix"])
            return ModelSpec(kind=kind, dim=m.shape[0], matrix=m)
    except KeyError as exc:
        raise ParseError(f"model spec of kind {kind!r} is missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"model spec of kind {kind!r} is malformed: {exc}") from exc
    raise ParseError(f"unknown model kind {kind!r}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
