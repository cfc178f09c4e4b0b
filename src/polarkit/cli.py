"""Command-line front end.

Subcommands: polar-decompose, verify-relation, verify-theorems, tower,
norm-estimate, normal-order, algebra-info, run-suite.  Every command
prints a text summary by default (--report json switches stdout to the
canonical JSON form) and can additionally write the JSON to --out.

Exit status: 0 when every reported check passed, 1 when a mathematical
check failed, 2 for configuration or parse problems.  The default
tolerance is 1e-9, overridable by the POLARKIT_TOL environment variable
and per call by --tol; either must be positive and finite, and
norm-estimate's --kmax at least 1.  A flag a subcommand does not read is
not registered on it, so giving one exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
from fractions import Fraction

import numpy as np

from .errors import (
    ConfigError,
    DimensionTooSmall,
    InvalidSpec,
    ParseError,
    PolarkitError,
    UnsupportedPhi,
)
from .graded import _u_plus_u_star, norm_estimate
from .linalg import DEFAULT_TOL, _count, _tolerance
from .models import build
from .relation import (
    Analysis,
    Structure,
    coefficient_algebra,
    graded_model_for,
    theorem22_report,
    verify_I1,
)
from .report import config_from_json, report_to_text, run_suite
from .serialize import (
    dumps_canonical,
    load_json,
    matrix_from_json,
    matrix_to_json,
    model_spec_from_json,
    normal_form_to_json,
    read_matrix,
)
from .words import NormalForm, PhiMap, deg, normal_order, parse_word

# a LinAlgError is numpy failing to factor the input: bad input too
CONFIG_ERRORS = (ConfigError, ParseError, InvalidSpec, UnsupportedPhi, DimensionTooSmall,
                 np.linalg.LinAlgError)


def _resolve_tol(args) -> float:
    if args.tol is not None:
        return args.tol
    raw = os.environ.get("POLARKIT_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ConfigError(f"POLARKIT_TOL is not a number: {raw!r}") from exc
    return _tolerance(tol, "POLARKIT_TOL")


def _add_common(p: argparse.ArgumentParser, with_input: bool = True) -> None:
    p.add_argument("--tol", type=float, default=None, help="tolerance (default 1e-9)")
    p.add_argument(
        "--report", choices=("json", "text"), default="text", help="stdout format"
    )
    p.add_argument("--out", default=None, help="also write the JSON report here")
    if with_input:
        p.add_argument("--in", dest="infile", default=None, help="matrix JSON file")
        p.add_argument(
            "--model",
            default=None,
            help="model spec: a JSON file path, or an inline JSON object",
        )


def _load_model_obj(text: str):
    if text.lstrip().startswith("{"):
        import json

        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"inline model spec is not valid JSON: {exc.msg}") from exc
    return load_json(text)


def _load_analysis(args) -> Analysis:
    """The operator of --model or --in, at the resolved tolerance; an
    InvalidSpec when a*a overflows."""
    tol = _resolve_tol(args)
    if getattr(args, "model", None):
        a = build(model_spec_from_json(_load_model_obj(args.model)))
    elif getattr(args, "infile", None):
        a = read_matrix(args.infile)
    else:
        raise ConfigError("need --in MATRIX.json or --model SPEC")
    return Analysis(a, tol)


def _emit(args, payload: dict, text: str) -> None:
    if args.report == "json":
        sys.stdout.write(dumps_canonical(payload))
    else:
        sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(payload))


def _check_list(checks) -> tuple[list[dict], list[str]]:
    """JSON rows and [PASS]/[FAIL] text lines for (name, passed, residual)
    triples."""
    checks = list(checks)
    rows = [{"name": name, "residual": res, "pass": ok} for name, ok, res in checks]
    lines = [
        f"[{'PASS' if ok else 'FAIL'}] {name} (residual {res:.3e})"
        for name, ok, res in checks
    ]
    return rows, lines


def _cmd_polar_decompose(args) -> int:
    an = _load_analysis(args)
    tol, pd, rep = an.tol, an.pd, an.isometry
    ok = pd.residual <= tol * (1.0 + an.norm) and rep.passed and rep.consistent
    rows, check_lines = _check_list((c.name, c.passed, c.residual) for c in rep.conditions)
    payload = {
        "u": matrix_to_json(pd.u),
        "pos": matrix_to_json(pd.pos),
        "rank": pd.rank,
        "residual": pd.residual,
        "conditions": rows,
        "pass": bool(ok),
    }
    lines = [f"factorization residual {pd.residual:.3e} (rank {pd.rank})", *check_lines]
    lines.append("polar decomposition verified" if ok else "POLAR CHECK FAILED")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0 if ok else 1


def _cmd_verify_relation(args) -> int:
    cert = verify_I1(_load_analysis(args))
    payload = {
        "holds": cert.holds,
        "membership_residual": cert.membership_residual,
        "conjugate_holds": cert.conjugate_holds,
        "conjugate_residual": cert.conjugate_residual,
        "gamma_table": [[ev, val] for ev, val in cert.gamma_table],
        "offending_eigenvalue": cert.offending_eigenvalue,
    }
    lines = [
        f"aa* in C*(1, a*a): {'yes' if cert.holds else 'NO'}"
        f" (residual {cert.membership_residual:.3e})",
        f"U|a|U* in C*(1, |a|): {'yes' if cert.conjugate_holds else 'NO'}"
        f" (residual {cert.conjugate_residual:.3e})",
    ]
    if cert.holds:
        pairs = ", ".join(f"{ev:.6g} -> {val:.6g}" for ev, val in cert.gamma_table)
        lines.append(f"spectral map: {pairs}")
    elif cert.offending_eigenvalue is not None:
        lines.append(
            f"eigenspace of a*a at {cert.offending_eigenvalue:.6g} carries "
            "inconsistent aa* values"
        )
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0 if cert.holds else 1


def _cmd_verify_theorems(args) -> int:
    an = _load_analysis(args)
    cert = an.certificate
    if not cert.holds:
        payload = {
            "pass": False,
            "error": "defining relation fails",
            "membership_residual": cert.membership_residual,
        }
        _emit(
            args,
            payload,
            f"defining relation fails (residual {cert.membership_residual:.3e})\n",
        )
        return 1
    rep = theorem22_report(an)
    rows, lines = _check_list((c.name, c.passed, c.residual) for c in rep.checks)
    payload = {"kmax": rep.kmax, "checks": rows, "pass": rep.passed}
    lines.append("all structure checks passed" if rep.passed else "SOME CHECKS FAILED")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0 if rep.passed else 1


def _orbits(st: Structure) -> tuple[dict, str]:
    """JSON entry and text line for the orbits of delta on the atoms of
    the coefficient algebra (counts only)."""
    chains = sorted((b.length for b in st.blocks if not b.cycle), reverse=True)
    entry = {
        "atoms": sum(b.length for b in st.blocks),
        "orbits": len(st.blocks),
        "cycles": len(st.blocks) - len(chains),
        "chain_lengths": chains,
    }
    line = (
        "atom orbits under delta: "
        + ", ".join(f"{k} {entry[k]}" for k in ("atoms", "orbits", "cycles"))
        + f", chains {len(chains)}"
        + (f" (lengths {', '.join(map(str, chains))})" if chains else "")
    )
    return entry, line


def _cmd_tower(args) -> int:
    an = _load_analysis(args)
    rep = coefficient_algebra(an)
    t = rep.tower
    orbits, orbit_line = _orbits(an.structure)
    families = (
        ("tower", t.checks), ("theorem", rep.theorems.checks), ("structure", rep.structure)
    )
    rows, check_lines = _check_list(
        (f"{prefix}.{k}", ok, res)
        for prefix, family in families
        for k, (ok, res) in sorted(family.items())
    )
    payload = {
        "seed_dimension": t.a0.dimension,
        "forward_limit_dimension": t.a_inf.dimension,
        "star_limit_dimension": t.inf_a.dimension,
        "double_closure_dimension": t.inf_a_inf.dimension,
        "stabilization": dict(sorted(t.stabilization.items())),
        "atom_orbits": orbits,
        "weak_hypotheses": t.hypotheses.weak_holds,
        "strong_hypotheses": t.hypotheses.strong_holds,
        "checks": rows,
        "pass": rep.passed,
    }
    lines = [
        f"seed algebra dimension {t.a0.dimension}",
        f"forward limit dimension {t.a_inf.dimension}"
        f" (stabilizes at {t.stabilization.get('forward')})",
        f"star limit dimension {t.inf_a.dimension}"
        f" (stabilizes at {t.stabilization.get('star')})",
        f"double closure dimension {t.inf_a_inf.dimension}",
        orbit_line,
        f"hypotheses: weak={'yes' if t.hypotheses.weak_holds else 'no'}"
        f" strong={'yes' if t.hypotheses.strong_holds else 'no'}",
        *check_lines,
    ]
    lines.append("tower verified" if rep.passed else "SOME CHECKS FAILED")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0 if rep.passed else 1


def _element_coefficients(obj) -> dict:
    """The degree -> matrix map of an element file: every key a decimal
    integer, every degree given once."""
    if not isinstance(obj, dict) or not isinstance(obj.get("coefficients"), dict):
        raise ParseError("element file must be {'coefficients': {degree: matrix}}")
    coeffs = {}
    for key, m in obj["coefficients"].items():
        if re.fullmatch(r"[+-]?[0-9]+", key) is None:
            raise ParseError(f"element degree {key!r} is not an integer")
        d = int(key)
        if d in coeffs:
            raise ParseError(f"element degree {d} is given twice")
        coeffs[d] = matrix_from_json(m)
    return coeffs


def _cmd_norm_estimate(args) -> int:
    _count(args.kmax, "--kmax", 1)
    an = _load_analysis(args)
    tol, model = an.tol, graded_model_for(an)
    if args.element:
        g = model.element(_element_coefficients(load_json(args.element)), enforce_support=True)
    else:
        g = _u_plus_u_star(model)
    est = norm_estimate(g, kmax=args.kmax)
    dense = est.dense_norm
    gap = abs(est.final - dense) / max(dense, 1e-300)
    env_ok, _ = est.envelope(tol)
    payload = {
        "bandwidth": est.bandwidth,
        "estimates": [
            {"k": k, "s_k": s_k, "upper": est.upper_bound(k, s_k)}
            for k, s_k in est.estimates
        ],
        "final": est.final,
        "dense_norm": dense,
        "relative_gap": gap,
        "pass": bool(env_ok),
    }
    lines = [f"bandwidth {est.bandwidth}"]
    for k, s_k in est.estimates:
        lines.append(
            f"  k={k:<4d} s_k={s_k:.12g}  upper={est.upper_bound(k, s_k):.12g}"
        )
    lines.append(f"final estimate {est.final:.12g}")
    lines.append(f"dense norm     {dense:.12g}  (relative gap {gap:.3e})")
    lines.append("envelope holds" if env_ok else "ENVELOPE VIOLATED")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0 if env_ok else 1


def _cmd_normal_order(args) -> int:
    if args.exact:
        phi = PhiMap.affine_exact(args.q, args.h)
    else:
        phi = PhiMap.affine(args.q, args.h)
    word = parse_word(args.word)
    nf = normal_order(word, phi)
    if args.exact:
        # p may hold plain ints (an untouched unit, the zeros of a shift by x)
        nf = NormalForm(nf.l, nf.m, tuple(Fraction(c) for c in nf.p))
    payload = normal_form_to_json(nf)
    text = (
        f"l={nf.l} m={nf.m} p=[{', '.join(str(c) for c in payload['p'])}]\n"
        f"deg {deg(word)} (normal form degree {nf.degree})\n"
    )
    _emit(args, payload, text)
    return 0


def _cmd_algebra_info(args) -> int:
    an = _load_analysis(args)
    st = an.structure
    tower = an.tower
    orbits, orbit_line = _orbits(st)
    payload = {
        "dim": int(an.matrix.shape[0]),
        "seed_dimension": tower.a0.dimension,
        "coefficient_dimension": tower.inf_a_inf.dimension,
        "full_algebra_dimension": st.dimension,
        "graded_bandwidth": st.bandwidth,
        "stabilization": dict(sorted(tower.stabilization.items())),
        "atom_orbits": orbits,
    }
    text = (
        f"ambient dimension {payload['dim']}\n"
        f"seed algebra C*(1,|a|) dimension {payload['seed_dimension']}\n"
        f"coefficient algebra dimension {payload['coefficient_dimension']}\n"
        f"{orbit_line}\n"
        f"full algebra C*(1,|a|,U) dimension {payload['full_algebra_dimension']}\n"
        f"graded bandwidth {payload['graded_bandwidth']}\n"
    )
    _emit(args, payload, text)
    return 0


def _cmd_run_suite(args) -> int:
    obj = load_json(args.config)
    config = config_from_json(obj)
    if args.tol is not None or os.environ.get("POLARKIT_TOL"):
        config = dataclasses.replace(config, tol=_resolve_tol(args))
    report = run_suite(config)
    args.out = args.out or config.output
    _emit(args, report, report_to_text(report))
    return 0 if report["all_pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarkit",
        description="verification toolkit for operators with aa* a function of a*a",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polar-decompose", help="factor a = U|a| and check U")
    _add_common(p)
    p.set_defaults(func=_cmd_polar_decompose)

    p = sub.add_parser("verify-relation", help="test aa* in C*(1, a*a)")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_relation)

    p = sub.add_parser("verify-theorems", help="ten structural checks for U")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_theorems)

    p = sub.add_parser("tower", help="build and certify the coefficient algebra")
    _add_common(p)
    p.set_defaults(func=_cmd_tower)

    p = sub.add_parser("norm-estimate", help="coefficient-only norm estimate")
    _add_common(p)
    p.add_argument("--kmax", type=int, default=64, help="exponent bound, at least 1")
    p.add_argument(
        "--element",
        default=None,
        help="JSON file {'coefficients': {degree: matrix}}; default is U + U*",
    )
    p.set_defaults(func=_cmd_norm_estimate)

    p = sub.add_parser("normal-order", help="rewrite a word over {a, a*}")
    _add_common(p, with_input=False)
    p.add_argument("word", help="space-separated word, e.g. 'a a a*'")
    p.add_argument("--q", required=True, help="relation coefficient q")
    p.add_argument("--h", required=True, help="relation coefficient h")
    p.add_argument(
        "--exact", action="store_true", help="exact rational arithmetic for q, h"
    )
    p.set_defaults(func=_cmd_normal_order)

    p = sub.add_parser(
        "algebra-info", help="dimensions of the generated algebras, B read from delta's orbits"
    )
    _add_common(p)
    p.set_defaults(func=_cmd_algebra_info)

    p = sub.add_parser("run-suite", help="run verification suites from a config")
    _add_common(p, with_input=False)
    p.add_argument("--config", required=True, help="suite config JSON file")
    p.set_defaults(func=_cmd_run_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.tol is not None:
            _tolerance(args.tol, "--tol")
        return args.func(args)
    except CONFIG_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except PolarkitError as exc:
        sys.stderr.write(f"check failed: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
