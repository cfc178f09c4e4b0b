"""The benchmark's workloads: zoo, ladder and calculus.

Each workload is driven in a closed loop from one process.  ``setup``
does the program-side set-up (timed, and repeated for ``setup_s``),
``prepare`` computes the benchmark's own references apart from the
program, and ``run_pass`` issues one pass of operations, timing every
call into polarkit through the recorder and checking every output.
``sweep`` replays, once per traced run, the layer calls a workload's
passes do not make themselves, so every workload reports every layer.
"""

from __future__ import annotations

import json
from statistics import median

import numpy as np

import checks

# The canonical zoo of scripts/run_zoo.py: five models satisfying the
# relation, then the two negative controls.
ZOO = [
    {"kind": "weighted_shift", "weights": [1.0, 1.4142135623730951, 1.7320508075688772]},
    {"kind": "q_oscillator", "dim": 4, "q": 1.0, "h": 1.0},
    {"kind": "q_oscillator", "dim": 8, "q": 0.5, "h": 1.0},
    {"kind": "q_oscillator", "dim": 16, "q": 0.5, "h": 1.0},
    {"kind": "normal", "diag": [[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]]},
]
NEGATIVE = [
    {"kind": "weighted_shift", "weights": [1.0, 1.0, 1.0]},
    {"kind": "jordan_block", "dim": 3},
]

KMAX = 64
# Above this dimension the sweep leaves out theorem22_report and
# bicommutant, whose Kronecker commutant costs O(n^5) memory and time,
# and coefficient_algebra, the next costliest call.
KRONECKER_MAX = 16


def polar_reference(a) -> np.ndarray:
    """The partial isometry of a = U|a| from numpy's SVD, kernel mapped to 0."""
    w, s, vh = np.linalg.svd(np.asarray(a, dtype=np.complex128))
    keep = s > checks.TOL * (s[0] if s.size else 0.0)
    return w[:, keep] @ vh[keep, :]


def _is_nilpotent(a) -> bool:
    u = polar_reference(a)
    return checks.opnorm(np.linalg.matrix_power(u, u.shape[0])) <= checks.TOL


def _random_word(rng, length: int) -> tuple:
    return tuple("a" if rng.integers(2) else "a*" for _ in range(length))


# -- checked operations: one call or group of calls into polarkit and the
# check of its output, shared by the workloads' passes and the sweep ------


def checked_gate(pk, rec, a, holds: bool) -> bool:
    """verify_I1 gives the independent oracle's verdict by both routes."""
    cert = rec.call("relation.verify_I1", pk.verify_I1, a)
    return cert.holds == holds and cert.conjugate_holds == holds


def checked_theorem22(pk, rec, a) -> bool:
    rep = rec.call("relation.theorem22_report", pk.theorem22_report, a)
    return len(rep.checks) == 10 and all(c.passed for c in rep.checks)


def checked_coefficient_algebra(pk, rec, a, distinct: int) -> bool:
    """The report passes and its algebra is C*(1, |a|), whose dimension is
    the number of distinct eigenvalues of |a|."""
    rep = rec.call("relation.coefficient_algebra", pk.coefficient_algebra, a)
    return rep.passed and rep.algebra.dimension == distinct


def checked_product(pk, rec, model, rng, b1: int, b2: int, upow) -> bool:
    """Two random elements and their graded product against numpy."""
    g1 = rec.call("graded.random_element", pk.random_element, model, rng, bandwidth=b1)
    g2 = rec.call("graded.random_element", pk.random_element, model, rng, bandwidth=b2)
    gp = rec.call("graded.graded_mul", pk.graded_mul, g1, g2)
    dp = rec.call("graded.realize", pk.realize, gp)
    d1 = checks.dense(g1.coefficients, upow)
    d2 = checks.dense(g2.coefficients, upow)
    dprod = checks.dense(gp.coefficients, upow)
    return checks.product_ok(d1, d2, dprod) and checks.close(dp, dprod)


def bandwidth(g) -> int:
    return max(abs(d) for d in g.coefficients)


def checked_estimate(pk, rec, g, upow) -> bool:
    """norm_estimate against the norm of g's dense form from numpy."""
    est = rec.call("graded.norm_estimate", pk.norm_estimate, g, kmax=KMAX)
    norm_b = checks.opnorm(checks.dense(g.coefficients, upow))
    return checks.norm_estimate_ok(est.estimates, est.final, bandwidth(g), norm_b, KMAX)


def checked_word(pk, rec, w, phi, interior) -> bool:
    """A float normal form; ``interior(word, nf)`` checks it numerically."""
    nf = rec.call("words.normal_order", pk.normal_order, w, phi)
    return nf.degree == checks.word_degree(w) and interior(w, nf)


def checked_exact_pair(pk, rec, w1, w2, phi, interior) -> bool:
    """normal_order(w1 + w2) = nf_mul of the factors' forms, exactly."""
    n1 = rec.call("words.normal_order.exact", pk.normal_order, w1, phi)
    n2 = rec.call("words.normal_order.exact", pk.normal_order, w2, phi)
    n12 = rec.call("words.normal_order.exact", pk.normal_order, w1 + w2, phi)
    prod = rec.call("words.nf_mul.exact", pk.nf_mul, n1, n2, phi)
    return checks.exact_pair_ok(w1, w2, n1, n2, n12, prod) and interior(w1 + w2, n12)


class Workload:
    name = ""
    # Layer calls the passes or set-up already make; the sweep skips them.
    covered: frozenset = frozenset()

    def __init__(self, pk, seed: int):
        self.pk = pk
        self.seed = seed

    def setup(self, rec) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, rec, tally) -> None:
        raise NotImplementedError

    def sweep_models(self) -> list:
        """(spec, matrix) pairs the sweep replays the layers on."""
        raise NotImplementedError

    def rates(self) -> dict[str, float]:
        """Per-phase operations per second, for workloads with phases."""
        return {}


class Zoo(Workload):
    """run_suite with all seven suites over the canonical zoo."""

    name = "zoo"
    covered = frozenset({"report.run_suite", "serialize.report_to_json"})

    def setup(self, rec):
        pk = self.pk
        self.config = pk.config_from_json(
            {"models": ZOO + NEGATIVE, "suites": list(checks.SUITES), "seed": self.seed,
             "kmax": KMAX}
        )
        self.models = [(spec, rec.call("models.build", pk.build, spec))
                       for spec in self.config.models]

    def prepare(self):
        self.holds = [checks.relation_holds(a) for _, a in self.models]
        if self.holds != [True] * len(ZOO) + [False] * len(NEGATIVE):
            raise RuntimeError(f"zoo relation oracle disagrees with the zoo: {self.holds}")
        self.labels = [label for label, _ in checks.zoo_verdicts({}, self.holds)]
        self.first_json = None

    def run_pass(self, rec, tally):
        pk = self.pk
        try:
            with rec.op("op:zoo pass"):
                report = rec.call("report.run_suite", pk.run_suite, self.config)
                text = rec.call("serialize.report_to_json", pk.report_to_json, report)
        except Exception as exc:  # the pass's 49 operations all fail
            for label in self.labels:
                tally.record(label, False, f"run_suite raised {exc!r}")
            return
        differ = set()
        if self.first_json is None:
            self.first_json = text
        elif text != self.first_json:
            differ = _json_differences(self.first_json, text, self.labels)
        for label, ok in checks.zoo_verdicts(report, self.holds):
            if label in differ:
                tally.record(label, False, "JSON differs from the first pass")
            else:
                tally.record(label, ok)

    def sweep_models(self):
        return self.models


def _json_differences(first: str, second: str, labels: list[str]) -> set[str]:
    """Labels of the (model, suite) entries that differ between two reports;
    every label when only the report's header differs."""
    a, b = json.loads(first), json.loads(second)
    out = set()
    for mi, (ma, mb) in enumerate(zip(a["models"], b["models"])):
        sb = {s["name"]: s for s in mb["suites"]}
        for s in ma["suites"]:
            if sb.get(s["name"]) != s:
                out.add(f"model {mi} {s['name']}")
    return out or set(labels)


RUNGS = (4, 6, 8, 10, 12)
FAMILIES = ("osc", "shift")


class Ladder(Workload):
    """verify_I1, theorem22_report and coefficient_algebra on a dimension
    ladder over two families, plus the gate's negative path."""

    name = "ladder"
    covered = frozenset(
        {"relation.verify_I1", "relation.theorem22_report", "relation.coefficient_algebra"}
    )

    def setup(self, rec):
        pk = self.pk
        rng = np.random.default_rng([self.seed, 1])
        self.rungs = []
        for n in RUNGS:
            specs = {
                "osc": pk.q_oscillator(n, 1.0, 1.0),
                "shift": pk.weighted_shift(np.sqrt(np.arange(1, n))),
                "jordan": pk.jordan_block(n),
            }
            mats = {}
            for fam, spec in specs.items():
                a = rec.call("models.build", pk.build, spec)
                # a seeded diagonal unitary D: the input is D a D*, which
                # keeps the spectrum and the band pattern
                phase = np.exp(2j * np.pi * rng.random(n))
                mats[fam] = (spec, phase[:, None] * a * phase.conj()[None, :])
            self.rungs.append((n, mats))

    def prepare(self):
        for n, mats in self.rungs:
            for fam in FAMILIES:
                a = mats[fam][1]
                if checks.abs_eigenvalue_count(a) != n or not checks.relation_holds(a):
                    raise RuntimeError(f"ladder input {fam} at n={n} lost its assumptions")
            if checks.relation_holds(mats["jordan"][1]):
                raise RuntimeError(f"jordan_block({n}) satisfies the relation")

    def run_pass(self, rec, tally):
        pk = self.pk
        for n, mats in self.rungs:
            for fam in FAMILIES:
                a = mats[fam][1]
                tags = {"rung": n, "family": fam}
                tally.attempt(rec, f"n={n} {fam} verify_I1",
                              lambda a=a: checked_gate(pk, rec, a, True), **tags)
                tally.attempt(rec, f"n={n} {fam} theorem22_report",
                              lambda a=a: checked_theorem22(pk, rec, a), **tags)
                tally.attempt(rec, f"n={n} {fam} coefficient_algebra",
                              lambda a=a, n=n: checked_coefficient_algebra(pk, rec, a, n), **tags)
            tally.attempt(rec, f"n={n} jordan verify_I1",
                          lambda a=mats["jordan"][1]: checked_gate(pk, rec, a, False),
                          rung=n, family="jordan")

    def sweep_models(self):
        return [mats[fam] for _, mats in self.rungs for fam in ("osc", "shift", "jordan")]


# Sizes keep the four phases at comparable shares of a pass (about
# 50 / 20 / 10 / 20 % at the parent commit), so a gain in any one of them
# moves pass_s.
DIMS = (12, 16, 24)
EST_BANDS = (1, 3)
PRODUCT_BANDS = (1, 2, 3)
PRODUCTS_PER_DIM = 50
WORD_LENGTHS = tuple(range(8, 25))
FLOAT_WORDS_PER_LENGTH = 120
EXACT_PAIRS_PER_LENGTH = 15
WORD_DIM = 32
WORD_Q, WORD_H = 0.5, 1.0
PHASES = ("estimate", "product", "word", "exact_word")


class Calculus(Workload):
    """Coefficient-level layers: norm estimates, graded products, float
    and exact normal ordering, over graded models of distinct-weight shifts."""

    name = "calculus"
    covered = frozenset(
        {"relation.graded_model_for", "graded.norm_estimate", "graded.graded_mul",
         "graded.realize", "graded.random_element", "words.normal_order",
         "words.normal_order.exact", "words.nf_mul.exact"}
    )

    def setup(self, rec):
        pk = self.pk
        self.models = []
        for n in DIMS:
            spec = pk.weighted_shift(np.sqrt(np.arange(1, n)))
            a = rec.call("models.build", pk.build, spec)
            model = rec.call("relation.graded_model_for", pk.graded_model_for, a)
            self.models.append((n, spec, a, model))
        self.estimates = [
            (n, model, pk.random_element(model, np.random.default_rng([self.seed, 2, n, b]),
                                         bandwidth=b))
            for n, _, _, model in self.models
            for b in EST_BANDS
        ]
        self.phi = pk.PhiMap.affine(WORD_Q, WORD_H)
        self.phi_exact = pk.PhiMap.affine_exact(WORD_Q, WORD_H)
        self.word_matrix = pk.build(pk.q_oscillator(WORD_DIM, WORD_Q, WORD_H))
        rng = np.random.default_rng([self.seed, 4])
        self.words = [_random_word(rng, length)
                      for length in WORD_LENGTHS for _ in range(FLOAT_WORDS_PER_LENGTH)]
        self.pairs = [(_random_word(rng, length // 2), _random_word(rng, length - length // 2))
                      for length in WORD_LENGTHS for _ in range(EXACT_PAIRS_PER_LENGTH)]

    def prepare(self):
        self.upow = {}
        for n, _, a, model in self.models:
            u = polar_reference(a)
            if not checks.close(model.pair.u, u) or model.algebra.dimension != n:
                raise RuntimeError(f"graded model at n={n} disagrees with the polar reference")
            self.upow[n] = checks.matrix_powers(u, n)
        self.phase_s = {p: [] for p in PHASES}
        self.phase_ops = {p: 0 for p in PHASES}
        self.verified = {}

    def run_pass(self, rec, tally):
        pk = self.pk
        seed = self.seed
        start = {}

        def phase(name):
            start[name] = rec.busy

        def done(name, ops):
            self.phase_s[name].append(rec.busy - start[name])
            self.phase_ops[name] = ops

        phase("estimate")
        for i, (n, _, g) in enumerate(self.estimates):
            tally.attempt(rec, f"estimate {i} n={n} band={bandwidth(g)}",
                          lambda g=g, n=n: checked_estimate(pk, rec, g, self.upow[n]),
                          phase="estimate")
        done("estimate", len(self.estimates))

        phase("product")
        for n, _, _, model in self.models:
            for i in range(PRODUCTS_PER_DIM):

                def product(model=model, n=n, i=i):
                    rng = np.random.default_rng([seed, 3, n, i])
                    b1, b2 = PRODUCT_BANDS[i % 3], PRODUCT_BANDS[(i // 3) % 3]
                    return checked_product(pk, rec, model, rng, b1, b2, self.upow[n])

                tally.attempt(rec, f"product n={n} {i}", product, phase="product")
        done("product", len(self.models) * PRODUCTS_PER_DIM)

        phase("word")
        for i, w in enumerate(self.words):
            tally.attempt(rec, f"word {i} len={len(w)}",
                          lambda w=w: checked_word(pk, rec, w, self.phi, self._interior_ok),
                          phase="word")
        done("word", len(self.words))

        phase("exact_word")
        for i, (w1, w2) in enumerate(self.pairs):
            tally.attempt(rec, f"exact pair {i} len={len(w1) + len(w2)}",
                          lambda w1=w1, w2=w2: checked_exact_pair(
                              pk, rec, w1, w2, self.phi_exact, self._interior_ok),
                          phase="exact_word")
        done("exact_word", len(self.pairs))

    def _interior_ok(self, word, nf) -> bool:
        """Numeric interior check of a normal form; a form equal to one
        already verified for this word passes without re-evaluation."""
        form = (nf.l, nf.m, tuple(nf.p))
        if self.verified.get(word) == form:
            return True
        ok = checks.word_interior_ok(word, nf.l, nf.m, nf.p, self.word_matrix)
        if ok:
            self.verified[word] = form
        return ok

    def rates(self) -> dict[str, float]:
        """Checked operations per second of program time, per phase (median pass)."""
        names = {"estimate": "norm_estimates_per_s", "product": "graded_products_per_s",
                 "word": "words_per_s", "exact_word": "exact_words_per_s"}
        out = {}
        for p, metric in names.items():
            times = self.phase_s[p]
            out[metric] = self.phase_ops[p] / median(times) if times else 0.0
        return out

    def sweep_models(self):
        return [(spec, a) for _, spec, a, _ in self.models]


WORKLOADS = {w.name: w for w in (Zoo, Ladder, Calculus)}


# Layers whose allocation peak is a per-layer metric.
PEAK_LAYERS = frozenset(
    {"relation.theorem22_report", "relation.coefficient_algebra", "algebra.bicommutant"}
)


def sweep(pk, rec, tally, workload: Workload, seed: int, only=None) -> None:
    """Replay every layer call the workload does not make itself, once per
    sweep model, each as a checked operation; with ``only``, just those
    layers (and the polar and seed-algebra calls they start from)."""

    def want(layer: str) -> bool:
        return layer not in workload.covered and (only is None or layer in only)

    models = workload.sweep_models()
    for mi, (spec, a) in enumerate(models):
        _sweep_model(pk, rec, tally, want, mi, spec, np.asarray(a), seed)
    if want("report.run_suite"):
        spec, a = models[0]
        holds = checks.relation_holds(a)

        def suite():
            config = pk.SuiteConfig(models=(pk.custom(a),), suites=checks.SUITES, seed=seed,
                                    kmax=KMAX)
            report = rec.call("report.run_suite", pk.run_suite, config)
            rec.call("serialize.report_to_json", pk.report_to_json, report)
            return all(ok for _, ok in checks.zoo_verdicts(report, [holds]))

        tally.attempt(rec, "sweep run_suite", suite, model=0)


def _sweep_model(pk, rec, tally, want, mi, spec, a, seed):
    n = a.shape[0]
    holds = checks.relation_holds(a)
    distinct = checks.abs_eigenvalue_count(a)
    norm_a = checks.opnorm(a)
    state = {}
    tags = {"model": mi}

    def step(label, fn):
        tally.attempt(rec, f"sweep model {mi} {label}", fn, **tags)

    def polar():
        pd = rec.call("linalg.polar_decompose", pk.polar_decompose, a)
        state["pd"] = pd
        w = np.linalg.eigvalsh((pd.pos + pd.pos.conj().T) / 2.0)
        return checks.close(pd.u @ pd.pos, a) and w[0] >= -checks.TOL * (1.0 + norm_a)

    step("polar_decompose", polar)
    pd = state.get("pd")
    if pd is None:
        return
    if want("isometry.partial_isometry_report"):
        step("partial_isometry_report", lambda: rec.call(
            "isometry.partial_isometry_report", pk.partial_isometry_report, pd.u).passed)
    if want("isometry.power_isometry_check"):
        step("power_isometry_check", lambda: rec.call(
            "isometry.power_isometry_check", pk.power_isometry_check, pd.u, kmax=n).equivalent)
    if want("isometry.commuting_projection_properties"):
        step("commuting_projection_properties", lambda: rec.call(
            "isometry.commuting_projection_properties", pk.commuting_projection_properties,
            pd.u, kmax=n).passed)

    if want("relation.verify_I1"):
        step("verify_I1", lambda: checked_gate(pk, rec, a, holds))

    small = n <= KRONECKER_MAX
    if holds and small and want("relation.theorem22_report"):
        step("theorem22_report", lambda: checked_theorem22(pk, rec, a))
    if holds and small and want("relation.coefficient_algebra"):
        step("coefficient_algebra", lambda: checked_coefficient_algebra(pk, rec, a, distinct))

    def seed_algebra():
        state["seed"] = rec.call("algebra.spectral_algebra", pk.spectral_algebra, pd.pos)
        return state["seed"].dimension == distinct

    step("spectral_algebra", seed_algebra)
    alg0 = state.get("seed")
    if alg0 is None:
        return
    if small and want("algebra.bicommutant"):
        # double commutant theorem: C*(1, |a|)'' = C*(1, |a|)
        step("bicommutant", lambda: rec.call(
            "algebra.bicommutant", pk.bicommutant, alg0).dimension == distinct)

    def tower():
        pair = rec.call("tower.endo_pair", pk.endo_pair, pd.u)
        tw = rec.call("tower.build_tower", pk.build_tower, alg0, pair)
        theorems = rec.call("tower.verify_tower_theorems", pk.verify_tower_theorems, tw, pair)
        return tw.inf_a_inf.dimension >= distinct and (theorems.passed or not holds)

    if want("tower.build_tower"):
        step("tower", tower)

    if want("relation.graded_model_for"):

        def graded_model():
            state["model"] = rec.call("relation.graded_model_for", pk.graded_model_for, a)
            return state["model"].algebra.dimension >= distinct

        step("graded_model_for", graded_model)

    model = state.get("model")
    if model is not None and want("graded.graded_mul") and _is_nilpotent(a):
        upow = checks.matrix_powers(polar_reference(a), n)
        band = min(2, n - 1)
        rng = np.random.default_rng([seed, 5, mi])
        step("graded_mul", lambda: checked_product(pk, rec, model, rng, band, band, upow))

        def estimate():
            g = rec.call("graded.random_element", pk.random_element, model, rng, bandwidth=band)
            return checked_estimate(pk, rec, g, upow)

        step("norm_estimate", estimate)

    if spec.kind == "q_oscillator" and want("words.normal_order"):
        rng = np.random.default_rng([seed, 6, mi])
        max_len = max(1, min(6, n - 2))
        phi = pk.phi_for(spec)
        phi_exact = pk.PhiMap.affine_exact(spec.q, spec.h)

        def interior(w, nf):
            return checks.word_interior_ok(w, nf.l, nf.m, nf.p, a)

        for i in range(4):
            w = _random_word(rng, int(rng.integers(1, max_len + 1)))
            step(f"normal_order {i}", lambda w=w: checked_word(pk, rec, w, phi, interior))
        for i in range(2):
            # each half at most max_len // 2 letters, so the pair fits the interior
            w1 = _random_word(rng, int(rng.integers(1, max_len // 2 + 1)))
            w2 = _random_word(rng, int(rng.integers(1, max_len // 2 + 1)))
            step(f"exact pair {i}",
                 lambda w1=w1, w2=w2: checked_exact_pair(pk, rec, w1, w2, phi_exact, interior))
