"""Batch verification suites over zoo models, with deterministic reports.

A report is a plain dict shaped for JSON: per model, per suite, a list
of named checks {name, anchor, pass, residual}.  The anchor is a stable
identifier of the verification that produced the check, so consumers
can key on it across versions.  Identical configs (same models, suites,
tol, kmax, seed) produce byte-identical JSON: ordering is fixed by
(model index, canonical suite order, check emission order), random
draws are keyed by (seed, model index, suite), and no timing data goes
into the JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidSpec, ParseError, PolarkitError, ZeroElement
from .graded import (
    _nilpotent,
    _ring_defect,
    _sum_norms,
    _u_plus_u_star,
    check_property_star,
    graded_adjoint,
    graded_mul,
    norm_estimate,
    random_element,
    realize,
)
from .linalg import (DEFAULT_TOL, LIMITS, NORM_GAP, _count, _operator_norms, _tolerance,
                     operator_norm)
from .models import ModelSpec, build, phi_for
from .relation import Analysis, coefficient_algebra, theorem22_report
from .serialize import dumps_canonical, model_spec_from_json, model_spec_to_json
from .tower import _commuting_projections, _power_isometry
from .words import GEN, GEN_STAR, evaluate, interior_projection, nf_mul, normal_order

SUITE_ORDER = ("polar", "isometry", "tower", "theorem22", "graded", "norm_formula", "words")


@dataclass(frozen=True)
class SuiteConfig:
    models: tuple[ModelSpec, ...]
    suites: tuple[str, ...]
    tol: float = DEFAULT_TOL
    kmax: int = 64
    seed: int = 0
    output: str | None = None

    def __post_init__(self):
        if not self.suites:
            raise ConfigError("config needs at least one suite")
        bad = [s for s in self.suites if s not in SUITE_ORDER]
        if bad:
            raise ConfigError(f"unknown suite names {bad}; valid: {list(SUITE_ORDER)}")
        if not self.models:
            raise ConfigError("config needs at least one model")
        try:
            _tolerance(self.tol), _count(self.kmax, "kmax", 1), _count(self.seed, "seed", 0)
        except InvalidSpec as exc:
            raise ConfigError(str(exc)) from exc
        for i, spec in enumerate(self.models):  # a spec built by hand is read here first
            try:
                model_spec_to_json(spec)
            except (PolarkitError, TypeError, ValueError, AttributeError) as exc:
                raise ConfigError(f"model {i} is malformed: {exc}") from exc


def config_from_json(obj) -> SuiteConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    try:
        models = tuple(model_spec_from_json(m) for m in obj["models"])
        suites = tuple(obj["suites"])
        tol = float(obj.get("tol", DEFAULT_TOL))  # the report writes it as a float
    except KeyError as exc:
        raise ConfigError(f"config is missing field {exc.args[0]!r}") from exc
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config field is malformed: {exc}") from exc
    return SuiteConfig(  # kmax and seed pass SuiteConfig's doors as they are
        models=models, suites=suites, tol=tol, kmax=obj.get("kmax", 64), seed=obj.get("seed", 0),
        output=obj.get("output"),
    )


def _check(name: str, anchor: str, passed: bool, residual: float) -> dict:
    return {
        "name": name,
        "anchor": anchor,
        "pass": bool(passed),
        "residual": float(residual),
    }


def _precondition_failure(exc: Exception, anchor: str) -> list[dict]:
    return [
        {
            "name": "precondition",
            "anchor": anchor,
            "pass": False,
            "residual": -1.0,
            "error": f"{type(exc).__name__}: {exc}",
        }
    ]


def _relation_failure(an: Analysis) -> list[dict] | None:
    """The failed gate check when the defining relation fails, else None."""
    cert = an.certificate
    if cert.holds:
        return None
    return [
        _check("defining_relation", "relation.membership", False, cert.membership_residual)
    ]


def _nilpotent_model(an: Analysis):
    """(model, None) when the graded suites apply, else (None, checks).

    The norm formula reads degree 0 alone only when u is nilpotent
    (finite shift truncations, see ``graded._nilpotent``); the suites do
    not apply to unitary-type models and report no checks for them.
    """
    try:
        model = an.model
    except PolarkitError as exc:
        return None, _precondition_failure(exc, "graded.model")
    if not _nilpotent(model):
        return None, []
    return model, None


def _polar_checks(an: Analysis) -> list[dict]:
    """The polar suite, and the verdict of ``polarkit polar-decompose``:
    a = U|a| and |a| >= 0, each at the operator rule at ||a||, and U's
    five partial-isometry conditions."""
    pd, rep = an.pd, an.isometry
    limit = LIMITS["operator"](an.tol, an.norm)
    w = np.linalg.eigvalsh((pd.pos + pd.pos.conj().T) / 2.0)
    neg = max(0.0, -float(w[0])) if w.size else 0.0
    return [
        _check("factor_residual", "polar.residual", pd.residual <= limit, pd.residual),
        _check("isometry_conditions", "isometry.five_conditions", rep.passed, rep.worst),
        _check("conditions_consistent", "isometry.consistency", rep.consistent, rep.worst),
        _check("positive_part", "polar.positive_factor", neg <= limit, neg),
    ]


def _suite_isometry(spec: ModelSpec, an: Analysis, config: SuiteConfig, rng) -> list[dict]:
    n = an.matrix.shape[0]
    rep = _power_isometry(an.unit_closure, n, config.tol)
    worst = max(rep.worst_power, rep.worst_family)
    checks = [_check("powers_vs_projections", "isometry.power_equivalence", rep.equivalent, worst)]
    try:
        crep = _commuting_projections(an.unit_closure, n, config.tol)
    except PolarkitError as exc:
        return checks + _precondition_failure(exc, "isometry.projection_family")
    worst = max(crep.commutant_residual, crep.reduction_residual, crep.family_residual)
    name, anchor = "commuting_projection_family", "isometry.projection_family"
    return checks + [_check(name, anchor, crep.passed, worst)]


def _suite_tower(spec: ModelSpec, an: Analysis, config: SuiteConfig, rng) -> list[dict]:
    failed = _relation_failure(an)
    if failed:
        return failed
    try:
        rep = coefficient_algebra(an)
    except PolarkitError as exc:
        return _precondition_failure(exc, "tower.hypotheses")
    families = (
        ("tower", rep.tower.checks),
        ("tower.theorem", rep.theorems.checks),
        ("tower.structure", rep.structure),
    )
    return [
        _check(name, f"{anchor}.{name}", ok, res)
        for anchor, family in families
        for name, (ok, res) in sorted(family.items())
    ]


def _suite_theorem22(spec: ModelSpec, an: Analysis, config: SuiteConfig, rng) -> list[dict]:
    failed = _relation_failure(an)
    if failed:
        return failed
    rep = theorem22_report(an)
    return [
        _check(c.name, f"relation.structure.{c.name}", c.passed, c.residual)
        for c in rep.checks
    ]


def _suite_graded(spec: ModelSpec, an: Analysis, config: SuiteConfig, rng) -> list[dict]:
    tol = config.tol
    model, skipped = _nilpotent_model(an)
    if model is None:
        return skipped
    bandwidth = min(3, model.dim - 1)
    worst = _ring_defect(model, rng, 10, bandwidth)
    checks = [_check("ring_consistency", "graded.product", worst <= LIMITS["relative"](tol), worst)]
    star = check_property_star(model, samples=10, tol=tol, bandwidth=bandwidth, rng=rng)
    checks.append(
        _check(
            "coefficient_bounds",
            "graded.norm_filtration",
            star.passed,
            max(0.0, -min(star.worst_margin_center, star.worst_margin_any)),
        )
    )
    trials = []
    for _ in range(5):
        x = rng.standard_normal((int(rng.integers(1, 6)), 2, model.dim, model.dim))
        trials.append(x[:, 0] + 1j * x[:, 1])
    worst_margin = 0.0
    ok = True
    for rep in _sum_norms(trials, tol):
        ok = ok and rep.passed
        worst_margin = min(worst_margin, min(rep.margins.values()))
    checks.append(
        _check("sum_inequalities", "graded.sum_bounds", ok, max(0.0, -worst_margin))
    )
    return checks


def _suite_norm_formula(spec: ModelSpec, an: Analysis, config: SuiteConfig, rng) -> list[dict]:
    tol = config.tol
    model, skipped = _nilpotent_model(an)
    if model is None:
        return skipped
    try:
        est = norm_estimate(_u_plus_u_star(model), kmax=config.kmax)
    except ZeroElement:
        return [_check("estimate_degenerate_zero", "norm.limit_formula", True, 0.0)]
    dense = est.dense_norm
    gap = abs(est.final - dense) / dense  # dense > 0, or norm_estimate raised ZeroElement
    checks = [_check("estimate_vs_dense", "norm.limit_formula", gap <= NORM_GAP, gap)]
    checks.append(_check("envelope", "norm.envelope", *est.envelope(tol)))
    b = random_element(model, rng, bandwidth=min(2, model.dim - 1))
    bb = graded_mul(b, graded_adjoint(b))
    nb = operator_norm(realize(b))
    center = bb.coefficient_norm(0)
    n_band = b.bandwidth
    lo = center - nb * nb
    hi = nb * nb - (2 * n_band + 1) * center
    overshoot = max(lo, hi)
    checks.append(
        _check(
            "sandwich",
            "norm.center_sandwich",
            overshoot <= LIMITS["square"](tol, nb),
            max(0.0, overshoot),
        )
    )
    return checks


def _random_word(rng, max_len: int = 6) -> tuple:
    length = int(rng.integers(1, max_len + 1))
    return tuple(GEN if rng.integers(2) else GEN_STAR for _ in range(length))


def _suite_words(spec: ModelSpec, an: Analysis, config: SuiteConfig, rng) -> list[dict]:
    if spec.kind != "q_oscillator":
        return []
    a = an.matrix
    phi = phi_for(spec)
    n = spec.dim
    defects, limits = [], []
    for _ in range(40):
        w = _random_word(rng)
        if len(w) + 1 > n:
            continue
        nf = normal_order(w, phi)
        lhs = evaluate(w, a)
        rhs = evaluate(nf, a)
        defects.append((lhs - rhs) @ interior_projection(n, len(w)))
        limits.append(LIMITS["word"](config.tol, an.norm, len(w)))
    norms = _operator_norms(defects)
    worst, ok = float(norms.max(initial=0.0)), bool((norms <= np.array(limits)).all())
    checks = [_check("interior_agreement", "words.normal_order", ok, worst)]
    exact = True
    for _ in range(20):
        n1 = normal_order(_random_word(rng), phi)
        n2 = normal_order(_random_word(rng), phi)
        prod = nf_mul(n1, n2, phi)
        exact = exact and (prod.degree == n1.degree + n2.degree)
    checks.append(_check("degree_additivity", "words.degree", exact, 0.0 if exact else 1.0))
    return checks


_RUNNERS = {
    "polar": lambda spec, an, config, rng: _polar_checks(an),
    "isometry": _suite_isometry,
    "tower": _suite_tower,
    "theorem22": _suite_theorem22,
    "graded": _suite_graded,
    "norm_formula": _suite_norm_formula,
    "words": _suite_words,
}


def run_suite(config: SuiteConfig) -> dict:
    """Execute the configured suites over every model.

    Returns the report dict; precondition failures (a model violating
    the defining relation, say, an a*a that overflows, or a numpy
    ``LinAlgError``) are recorded as failed checks rather than raised, so
    one bad model never hides the others.  Every suite
    of a model reads one shared :class:`Analysis`, so the polar parts,
    the relation gate, the tower and the closure of C*(1) that the
    isometry suite reads are derived once per model.
    """
    suites = [s for s in SUITE_ORDER if s in config.suites]
    models_out = []
    all_pass = True
    for mi, spec in enumerate(config.models):
        suites_out = []
        models_out.append({"index": mi, "model": model_spec_to_json(spec), "suites": suites_out})
        try:
            an = Analysis(build(spec), config.tol)
        except PolarkitError as exc:
            suites_out.extend(
                {"name": s, "checks": _precondition_failure(exc, "models.build")}
                for s in suites
            )
            all_pass = False
            continue
        for si, sname in enumerate(suites):
            rng = np.random.default_rng([config.seed, mi, si])
            try:
                checks = _RUNNERS[sname](spec, an, config, rng)
            except (PolarkitError, np.linalg.LinAlgError) as exc:
                checks = _precondition_failure(exc, f"{sname}.run")
            all_pass = all_pass and all(c["pass"] for c in checks)
            suites_out.append({"name": sname, "checks": checks})
    return {
        "tol": config.tol,
        "kmax": config.kmax,
        "seed": config.seed,
        "suites": list(suites),
        "models": models_out,
        "all_pass": all_pass,
    }


def report_to_json(report: dict) -> str:
    return dumps_canonical(report)


def report_to_text(report: dict) -> str:
    """Human-readable one-line-per-check rendering."""
    lines = []
    for model in report["models"]:
        label = model["model"].get("kind", "?")
        dim = model["model"].get("dim", "?")
        for suite in model["suites"]:
            for check in suite["checks"]:
                status = "PASS" if check["pass"] else "FAIL"
                extra = f"  [{check['error']}]" if "error" in check else ""
                lines.append(
                    f"[{status}] model {model['index']} ({label}, dim {dim})"
                    f" :: {suite['name']} :: {check['name']}"
                    f" (residual {check['residual']:.3e}){extra}"
                )
    lines.append("all checks passed" if report["all_pass"] else "SOME CHECKS FAILED")
    return "\n".join(lines) + "\n"
