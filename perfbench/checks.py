"""Correctness checks for the benchmark's operations.

Each check recomputes what it needs with plain numpy, apart from
polarkit, or tests a property the method must have.  None compares
against a stored copy of earlier output.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# The program's default tolerance; every scaled comparison below uses it.
TOL = 1e-9
# Relative gap the norm_formula suite allows between the estimate at
# kmax and the dense norm.
NORM_GAP = 0.05
# Normal form against the letter product of a word of length L: allowed
# error WORD_RTOL (1 + ||a||^L) + WORD_COND * terms, where terms is the
# size of the normal form's monomials, sum_k |c_k| ||a*a||^k ||a||^(l+m).
# Rewriting with 1/q = 2 gives coefficients up to 3e11 at L = 24, whose
# float evaluation cancels; the worst rounding seen is 2e-15 * terms.
WORD_RTOL = 1e-9
WORD_COND = 1e-12

SUITES = ("polar", "isometry", "tower", "theorem22", "graded", "norm_formula", "words")
RELATION_SUITES = ("tower", "theorem22")


def opnorm(m) -> float:
    """Largest singular value through numpy's SVD."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def distinct_count(values, tol: float = TOL) -> int:
    """Number of clusters of ascending values separated by > tol * scale."""
    w = np.sort(np.asarray(values, dtype=float))
    if w.size == 0:
        return 0
    gap = tol * (1.0 + float(np.max(np.abs(w))))
    return 1 + int(np.count_nonzero(np.diff(w) > gap))


def abs_eigenvalue_count(a) -> int:
    """Distinct eigenvalues of |a|, i.e. distinct singular values of a."""
    return distinct_count(np.linalg.svd(np.asarray(a), compute_uv=False))


def relation_holds(a, tol: float = TOL) -> bool:
    """Is aa* a function of a*a?  Block test in the eigenbasis of a*a."""
    a = np.asarray(a, dtype=np.complex128)
    x = a.conj().T @ a
    y = a @ a.conj().T
    w, v = np.linalg.eigh((x + x.conj().T) / 2.0)
    y_rot = v.conj().T @ y @ v
    gap = tol * (1.0 + float(np.max(np.abs(w), initial=0.0)))
    model = np.zeros_like(y_rot)
    start = 0
    for i in range(1, w.size + 1):
        if i == w.size or w[i] - w[i - 1] > gap:
            idx = np.arange(start, i)
            block = y_rot[np.ix_(idx, idx)]
            model[np.ix_(idx, idx)] = np.trace(block) / len(idx) * np.eye(len(idx))
            start = i
    return opnorm(y_rot - model) <= tol * (1.0 + opnorm(a)) ** 2


# -- zoo ---------------------------------------------------------------------


def zoo_pair_ok(suite: dict, holds: bool) -> bool:
    """Verdict of one (model, suite) pair in a run_suite report.

    A model satisfying the relation passes every check.  A negative
    control fails exactly its defining_relation checks, which are the
    only checks of the tower and theorem22 suites, and nothing else.
    """
    checks = suite["checks"]
    failing = [c for c in checks if not c["pass"]]
    if holds:
        return not failing
    if suite["name"] in RELATION_SUITES:
        return len(checks) == 1 and checks[0]["name"] == "defining_relation" and bool(failing)
    return not failing


def zoo_verdicts(report: dict, holds: list[bool]) -> list[tuple[str, bool]]:
    """One (label, ok) per expected (model, suite) pair of a zoo report."""
    models = report.get("models", [])
    out = []
    for mi, h in enumerate(holds):
        suites = models[mi]["suites"] if mi < len(models) else []
        by_name = {s["name"]: s for s in suites}
        for name in SUITES:
            label = f"model {mi} {name}"
            out.append((label, name in by_name and zoo_pair_ok(by_name[name], h)))
    expect_all = all(ok for _, ok in out) and all(holds)
    if report.get("all_pass") != expect_all:
        out = [(label, False) for label, _ in out]
    return out


# -- graded calculus ----------------------------------------------------------


def dense(coefficients: dict, upow: list) -> np.ndarray:
    """Sum u*^|d| beta_d + beta_0 + beta_d u^d from the coefficients."""
    n = upow[0].shape[0]
    out = np.zeros((n, n), dtype=np.complex128)
    for d, c in coefficients.items():
        if d == 0:
            out += c
        elif d > 0:
            out += c @ upow[d]
        else:
            out += upow[-d].conj().T @ c
    return out


def matrix_powers(u, count: int) -> list:
    """u^0 .. u^(count-1) with numpy."""
    return [np.linalg.matrix_power(np.asarray(u), k) for k in range(count)]


def norm_estimate_ok(estimates, final: float, band: int, norm_b: float, kmax: int) -> bool:
    """Every s_k brackets ||b||; the last one is within the suite's gap."""
    slack = TOL * (1.0 + norm_b)
    ks = [k for k, _ in estimates]
    expect_ks = [2**i for i in range(kmax.bit_length())]
    if ks != expect_ks or final != estimates[-1][1]:
        return False
    for k, s in estimates:
        if s > norm_b + slack:
            return False
        if norm_b > (4 * k * band + 1) ** (1.0 / (4 * k)) * s + slack:
            return False
    return abs(final - norm_b) <= NORM_GAP * norm_b


def product_ok(d1, d2, dprod) -> bool:
    """dense(g1 g2) = dense(g1) dense(g2) within tol times scale."""
    scale = (1.0 + opnorm(d1)) * (1.0 + opnorm(d2))
    return opnorm(dprod - d1 @ d2) <= TOL * scale


def close(x, y) -> bool:
    """Same matrix within tol times scale."""
    return opnorm(np.asarray(x) - np.asarray(y)) <= TOL * (1.0 + opnorm(y))


# -- words --------------------------------------------------------------------


def word_matrix(word, a) -> np.ndarray:
    """The letter product of a word over {"a", "a*"} in the matrix a."""
    a = np.asarray(a, dtype=np.complex128)
    ad = a.conj().T
    out = np.eye(a.shape[0], dtype=np.complex128)
    for letter in word:
        out = out @ (a if letter == "a" else ad)
    return out


def normal_form_matrix(l: int, m: int, p, a) -> np.ndarray:
    """a*^l p(a*a) a^m with numpy, p ascending coefficients."""
    a = np.asarray(a, dtype=np.complex128)
    ad = a.conj().T
    n = a.shape[0]
    x = ad @ a
    eye = np.eye(n, dtype=np.complex128)
    acc = complex(p[-1]) * eye
    for c in reversed(p[:-1]):
        acc = acc @ x + complex(c) * eye
    return np.linalg.matrix_power(ad, l) @ acc @ np.linalg.matrix_power(a, m)


def word_interior_ok(word, l: int, m: int, p, a) -> bool:
    """Normal form and letter product agree on the interior columns.

    A word of length L applied to e_j with j < dim - L never reaches the
    top index, where a truncated oscillator breaks the relation.
    """
    n = np.asarray(a).shape[0]
    length = len(word)
    if n <= length + 1:
        return False
    keep = n - length
    lhs = word_matrix(word, a)[:, :keep]
    rhs = normal_form_matrix(l, m, p, a)[:, :keep]
    norm_a = opnorm(a)
    terms = sum(abs(complex(c)) * norm_a ** (2 * k) for k, c in enumerate(p))
    terms *= norm_a ** (l + m)
    return opnorm(lhs - rhs) <= WORD_RTOL * (1.0 + norm_a**length) + WORD_COND * terms


def word_degree(word) -> int:
    return sum(1 if letter == "a" else -1 for letter in word)


def exact_pair_ok(w1, w2, n1, n2, n12, prod) -> bool:
    """normal_order(w1 + w2) equals nf_mul of the factors exactly, every
    coefficient is an exact Fraction, and degrees add."""
    same = (prod.l, prod.m, tuple(prod.p)) == (n12.l, n12.m, tuple(n12.p))
    exact = all(isinstance(c, (int, Fraction)) for c in tuple(prod.p) + tuple(n12.p))
    degrees = (
        n1.degree == word_degree(w1)
        and n2.degree == word_degree(w2)
        and prod.degree == n1.degree + n2.degree
    )
    return same and exact and degrees
