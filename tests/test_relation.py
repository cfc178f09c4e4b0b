import gc
import threading
import traceback
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarkit as pk
import polarkit.relation as relation
import polarkit.tower as tower
from polarkit.linalg import LIMITS, dagger
from polarkit.relation import Analysis, orbit_structure
from polarkit.tower import _AtomFrame

from conftest import REF_WEIGHTS, empty_slot, zoo_specs
from span_closure import (
    algebras_equal,
    basis_of,
    contains,
    generate,
    nonunital_seed,
    ref_is_commutative,
    residual,
)
from test_residuals import assert_theorem22_matches_per_pair_loops, ref_powers


def test_verify_I1_shift_table(shift4):
    cert = pk.verify_I1(shift4)
    assert cert.holds and cert.conjugate_holds
    table = {round(ev, 9): round(val.real, 9) for ev, val in cert.gamma_table}
    assert table == {0.0: 3.0, 1.0: 0.0, 2.0: 1.0, 3.0: 2.0}


def test_verify_I1_booleans_agree_on_zoo(unit_shift4, q_half_8):
    for a in (
        unit_shift4,
        q_half_8,
        pk.build(pk.normal((1.0, 2.0, 3.0j))),
        pk.build(pk.jordan_block(3)),
    ):
        cert = pk.verify_I1(a)
        assert cert.holds == cert.conjugate_holds


def test_verify_I1_jordan_names_offender():
    cert = pk.verify_I1(pk.build(pk.jordan_block(3)))
    assert not cert.holds
    assert cert.offending_eigenvalue == pytest.approx(1.0)


@pytest.mark.parametrize(
    "a, message",
    (
        ([[np.nan, 0.0], [0.0, 1.0]], "the matrix has a non-finite entry (nan+0j) at (0, 0)"),
        (np.diag([1e200, 1.0]), "a*a overflows double precision (largest entry 1.000e+200)"),
    ),
    ids=("nan", "overflow"),
)
@pytest.mark.parametrize(
    "view", (pk.verify_I1, pk.theorem22_report, pk.coefficient_algebra, pk.graded_model_for)
)
def test_a_non_finite_gram_is_an_invalid_spec(view, a, message):
    # the views raised "LinAlgError: SVD did not converge" on the NaN, and
    # all but graded_model_for warned of an overflow in matmul on 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pk.InvalidSpec) as err:
            view(a)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "view",
    (pk.verify_I1, pk.theorem22_report, pk.coefficient_algebra, pk.graded_model_for,
     pk.partial_isometry_report, pk.endo_pair),
)
def test_a_0_by_0_matrix_is_an_invalid_spec(view):
    # all but verify_I1 raised "ValueError: zero-size array to reduction
    # operation maximum", and verify_I1 certified the relation
    with pytest.raises(pk.InvalidSpec, match="is 0 x 0"):
        view(np.zeros((0, 0)))


@pytest.mark.parametrize(
    "a, got",
    (
        (np.zeros((2, 3)), "ndarray of shape (2, 3)"),
        (np.zeros((2, 2, 2)), "ndarray of shape (2, 2, 2)"),
        ("abc", "str of shape ()"),
    ),
    ids=("2x3", "2x2x2", "str"),
)
@pytest.mark.parametrize(
    "view",
    (pk.verify_I1, pk.theorem22_report, pk.coefficient_algebra, pk.graded_model_for, Analysis),
)
def test_a_malformed_matrix_is_an_invalid_spec(view, a, got):
    # each raised a bare ValueError: "expected a square matrix" on the
    # arrays, "complex() arg is a malformed string" on the string
    with pytest.raises(pk.InvalidSpec) as err:
        view(a)
    assert str(err.value) == f"expected a square complex matrix, got {got}"


@pytest.mark.parametrize("tol", (0.0, -1e-9, np.nan, np.inf), ids=("0", "negative", "nan", "inf"))
@pytest.mark.parametrize(
    "view",
    (pk.verify_I1, pk.theorem22_report, pk.coefficient_algebra, pk.graded_model_for, Analysis),
)
def test_a_tol_outside_0_to_inf_is_an_invalid_spec(view, tol):
    # at tol = inf every residual passed: verify_I1 certified the Jordan
    # block's relation, and theorem22_report passed on it
    with pytest.raises(pk.InvalidSpec) as err:
        view(pk.build(pk.jordan_block(4)), tol=tol)
    assert str(err.value) == f"tol must be positive and finite, got {tol!r}"


def test_the_gate_certifies_a_shift_whose_gram_squared_overflows():
    # a*a and aa* are finite, but the gate's normality guard formed
    # (aa*)(aa*)*, of degree 4 in a, and every view raised "LinAlgError:
    # SVD did not converge"; aa* is Hermitian by construction, and its
    # Hermitian defect is the guard now
    a = np.array([[0.0, 1e150], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = pk.verify_I1(a)
        assert pk.theorem22_report(a).passed and pk.coefficient_algebra(a).passed
    assert cert.holds and cert.conjugate_holds
    assert cert.membership_residual == cert.conjugate_residual == 0.0


def test_nonunital_seed_excludes_kernel(shift4):
    pos = pk.polar_decompose(shift4).pos
    seed = nonunital_seed(pos)
    # eigenvalues 1, sqrt2, sqrt3 contribute; the kernel eigenprojection does not
    assert seed.dimension == 3
    eye = np.eye(4, dtype=complex)
    ok, _ = contains(seed, eye)
    assert not ok


def test_theorem22_on_reference_shift(shift4):
    rep = pk.theorem22_report(shift4)
    assert rep.passed
    assert max(c.residual for c in rep.checks) <= 1e-9
    names = {c.name for c in rep.checks}
    assert {
        "initial_projection_in_bicommutant",
        "range_projections_in_bicommutant",
        "projection_families_commute",
        "power_reduction",
        "range_projections_idempotent",
        "ordered_products_nest",
        "delta_morphism_on_seed",
        "delta_powers_in_extended_algebra",
        "range_projection_absorbs_image",
        "delta_star_delta_identity",
    } <= names


def test_theorem22_rejects_relation_violator():
    with pytest.raises(pk.RelationViolated):
        pk.theorem22_report(pk.build(pk.jordan_block(3)))


def test_theorem22_q_models():
    for q, dim in ((1.0, 4), (0.5, 8)):
        a = pk.build(pk.q_oscillator(dim, q, 1.0))
        rep = pk.theorem22_report(a)
        assert rep.passed, rep.checks


def _haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    moduli=st.sampled_from([(1.0,), (0.5, 2.0), (0.0, 1.0, 3.0)]),
    conjugate=st.booleans(),
)
def test_seed_is_its_own_bicommutant(seed, n, moduli, conjugate):
    """Normal operators with repeated moduli (unitary ones when the only
    modulus is 1), optionally in a random unitary basis: C*(1, |a|) equals
    the Kronecker bicommutant, and the two bicommutant checks of
    theorem22_report, which read the seed, give the bicommutant's verdicts."""
    rng = np.random.default_rng(seed)
    diag = rng.choice(moduli, size=n) * np.exp(2j * np.pi * rng.random(n))
    a = np.diag(diag)
    if conjugate:
        w = _haar_unitary(rng, n)
        a = w @ a @ w.conj().T
    an = Analysis(a)
    bicom = pk.bicommutant(an.seed)
    assert algebras_equal(bicom, an.seed)[0]
    rep = pk.theorem22_report(an)
    _, p, q = ref_powers(an.pd.u, n)
    ranges = np.array([p[k] for k in range(1, n + 1)])
    scale = 1.0 + pk.operator_norm(a)
    thr = an.tol * (scale * scale)
    oracle = {
        "initial_projection_in_bicommutant": residual(bicom, q[1]) <= thr,
        "range_projections_in_bicommutant": residual(bicom, ranges) <= thr,
    }
    passed = {c.name: c.passed for c in rep.checks}
    assert {name: passed[name] for name in oracle} == oracle
    assert all(oracle.values())


def test_theorem22_builds_no_commutant(monkeypatch, q_half_8):
    import polarkit.algebra as algebra

    calls = []

    def counting(*args, _orig=algebra.commutant, **kwargs):
        calls.append(args)
        return _orig(*args, **kwargs)

    monkeypatch.setattr(algebra, "commutant", counting)
    unitary = pk.build(pk.normal([1.0, 1j, -1.0, 2.0]))  # |a| = diag(1, 1, 1, 2)
    for a in (q_half_8, unitary):
        assert pk.theorem22_report(a).passed
    assert calls == []


def test_coefficient_algebra_reference_shift(shift4):
    rep = pk.coefficient_algebra(shift4)
    assert rep.passed
    assert rep.algebra.dimension == 4  # the full diagonal algebra
    assert rep.tower.hypotheses.weak_holds
    for name, (ok, res) in rep.structure.items():
        assert ok, (name, res)


def test_coefficient_algebra_is_commutative_and_invariant(q_half_8):
    rep = pk.coefficient_algebra(q_half_8)
    alg = rep.algebra
    assert ref_is_commutative(alg) <= 1e-9
    pd = pk.polar_decompose(q_half_8)
    pair = pk.endo_pair(pd.u)
    worst = 0.0
    for b in basis_of(alg):
        for image in (pair.delta(b), pair.delta_star(b)):
            _, res = contains(alg, image)
            worst = max(worst, res)
    assert worst <= 1e-9


def test_q_half_oscillator_at_32_builds_its_graded_model():
    # the level gaps of |a| (about 9e-10) merge atoms of the seed; the delta
    # images split them again, and the tower needs no span closure to do it
    an = Analysis(pk.build(pk.q_oscillator(32, 0.5, 1.0)))
    assert an.seed.dimension < 32
    assert pk.graded_model_for(an).algebra.dimension == 32


def test_graded_model_for_skips_relation_gate(unit_shift4):
    # verify_I1 fails for the unit-weight shift, yet the graded model exists
    assert not pk.verify_I1(unit_shift4).holds
    model = pk.graded_model_for(unit_shift4)
    assert model.dim == 4
    assert model.algebra.dimension == 4


CALB_TOL = 1e-9


def _bicommutant_dimension(an):
    """dim B by von Neumann's double commutant theorem: B = {|a|, U}''."""
    return pk.bicommutant([an.pd.pos, an.pd.u]).dimension


def _window_bandwidth(an, dimension):
    """The least b whose span window {P_x U^d, U*^d P_x : d <= b}, over the
    atoms P_x of the coefficient algebra, reaches ``dimension``."""
    atoms, u = basis_of(an.model.algebra), an.pd.u
    n = u.shape[0]
    window, power = [atoms], np.eye(n)
    for b in range(n):
        if b:
            power = power @ u
            window += [atoms @ power, dagger(power) @ atoms]
        s = np.linalg.svd(np.concatenate(window).reshape(-1, n * n), compute_uv=False)
        if np.count_nonzero(s > 1e-8 * s[0]) == dimension:
            return b
    raise AssertionError(f"no span window reaches dimension {dimension}")


def _assert_oracles_agree(an):
    st_b = an.structure
    assert st_b.residual <= CALB_TOL
    assert st_b.dimension == _bicommutant_dimension(an)
    assert st_b.bandwidth == _window_bandwidth(an, st_b.dimension)
    return st_b


def test_build_calB_reference_shift(shift4):
    blocks = _assert_oracles_agree(Analysis(shift4)).blocks
    # {1, |a|, U} generates the full matrix algebra: one chain of 4 atoms
    assert [(b.cycle, b.length, b.multiplicity, b.dimension, b.bandwidth) for b in blocks] == [
        (False, 4, 1, 16, 3)
    ]


def _calB_operator(name):
    """Operator and its unconjugated copy for the cases of B; the
    Haar-conjugated ones take their unitary from rng seed 7."""
    plain = {
        "shift4": pk.weighted_shift((1.0, np.sqrt(2.0), np.sqrt(3.0))),
        "osc8": pk.q_oscillator(8, 0.5, 1.0),
        "zoo_normal": pk.model_spec_from_json(
            next(s for s in zoo_specs() if s["kind"] == "normal")
        ),
        "normal6": pk.normal((1.0, 1j, -1.0, 2.0, 2j, 0.5)),
    }[name.removesuffix("_conj")]
    a = pk.build(plain)
    if name.endswith("_conj"):
        w = _haar_unitary(np.random.default_rng(7), a.shape[0])
        return w @ a @ w.conj().T, pk.build(plain)
    return a, a


CALB_CASES = ("shift4", "osc8", "shift4_conj", "osc8_conj", "zoo_normal", "normal6")


@pytest.mark.parametrize("name", CALB_CASES)
def test_build_calB_from_graded_atoms(name):
    """B read from delta's orbits has the dimension of the bicommutant and
    of the span closure of {C*(1, |a|), U}, and the graded atoms of degree
    |d| <= bandwidth span it; a conjugated copy has the plain copy's
    blocks."""
    a, plain = _calB_operator(name)
    an = Analysis(a, CALB_TOL)
    st_b = _assert_oracles_agree(an)
    assert st_b.blocks == Analysis(plain, CALB_TOL).structure.blocks
    assert st_b.dimension == generate([*basis_of(an.seed), an.pd.u], unital=True).dimension


def test_build_calB_conjugated_sqrt_shift_matches_its_plain_copy():
    # the span closure of {C*(1, |a|), U} overflows (DimensionOverflow) on
    # this copy, so the bicommutant is its oracle
    plain = pk.build(pk.weighted_shift(np.sqrt(np.arange(1.0, 12.0))))
    rng = np.random.default_rng(7)
    w, _ = np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    st_b = _assert_oracles_agree(Analysis(w @ plain @ w.conj().T))
    assert st_b.blocks == Analysis(plain).structure.blocks
    assert (st_b.dimension, st_b.bandwidth) == (144, 11)


def _conjugated_oscillator(n):
    """Q q_oscillator(n, 1/2, 1) Q* for Q from the QR of a complex Gaussian
    of rng seed 7: the atoms of its double closure carry the eigenvector
    error of |a|, whose level gaps are about 2^-n."""
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q @ pk.build(pk.q_oscillator(n, 0.5, 1.0)) @ q.conj().T


@pytest.mark.parametrize("n", (16, 20))
def test_structure_of_a_conjugated_oscillator_matches_its_plain_copy(n):
    an = Analysis(_conjugated_oscillator(n), CALB_TOL)
    st_b = _assert_oracles_agree(an)
    assert st_b.blocks == Analysis(pk.build(pk.q_oscillator(n, 0.5, 1.0))).structure.blocks
    assert (st_b.dimension, st_b.bandwidth) == (n * n, n - 1)
    assert_theorem22_matches_per_pair_loops(an)


def _cycle(moduli, holonomy):
    """U |a| with |a| = diag(moduli) (x) 1_r and U the cyclic shift of
    len(moduli) blocks of rank r = len(holonomy), identity between
    consecutive blocks and diag(holonomy) from the last back to the first:
    one cycle of delta with holonomy diag(holonomy)."""
    c, r = len(moduli), len(holonomy)
    u = np.kron(np.roll(np.eye(c), 1, axis=0), np.eye(r)).astype(complex)
    u[:r, -r:] = np.diag(holonomy)
    return u @ np.diag(np.repeat(np.asarray(moduli, dtype=float), r))


FIXED_CASES = {
    "3-cycle": (np.roll(np.eye(3), 1, axis=0) @ np.diag([1.0, 2.0, 3.0]), 9, 1),
    "2-cycle rank 2": (_cycle((1.0, 2.0), (1.0, -1.0)), 8, 2),
    "3-cycle rank 2": (_cycle((1.0, 2.0, 3.0), (1.0, 1j)), 18, 3),
    "normal6": (pk.build(pk.normal((1.0, 1j, -1.0, 2.0, 2j, 0.5))), 6, 1),
    "normal6 2i to 2": (pk.build(pk.normal((1.0, 1j, -1.0, 2.0, 2.0, 0.5))), 5, 1),
}


@pytest.mark.parametrize("name", FIXED_CASES)
def test_structure_fixed_cases(name):
    a, dimension, bandwidth = FIXED_CASES[name]
    st_b = _assert_oracles_agree(Analysis(a))
    assert (st_b.dimension, st_b.bandwidth) == (dimension, bandwidth)


@pytest.mark.parametrize(
    "spec", zoo_specs(), ids=lambda spec: spec["kind"] + str(spec.get("dim", ""))
)
def test_structure_matches_the_oracles_on_the_zoo(spec):
    an = Analysis(pk.build(pk.model_spec_from_json(spec)))
    if not an.certificate.holds:
        with pytest.raises(pk.RelationViolated):
            an.structure
        return
    _assert_oracles_agree(an)


def test_structure_on_an_algebra_delta_does_not_preserve_is_not_graded():
    # delta(diag(1, 1, 0, 0)) = diag(0, 1, 1, 0) is not in C*(1, diag(1, 1, 2, 2)):
    # that atom maps to no atom, yet U is an isometry on it
    alg = pk.spectral_algebra(np.diag([1.0, 1.0, 2.0, 2.0]))
    message = r"^U is not a block partial permutation of the atoms \(residual 4\.000e\+00\)$"
    with pytest.raises(pk.ModelNotGraded, match=message):
        orbit_structure(_AtomFrame(alg, pk.endo_pair(np.eye(4, k=-1))))


@st.composite
def direct_sums(draw):
    """A direct sum, n <= 10, of at most one weighted shift (a chain; every
    chain ends in the kernel, and aa* must be one value there) tensored
    with 1_r, normal blocks (1-cycles) and cyclic shifts times a diagonal
    (longer cycles), each level of a*a used once so the relation holds."""
    levels = iter(np.sqrt(draw(st.permutations(range(1, 17)))))
    phases = st.sampled_from((1.0, 1j, -1.0, -1j))
    kinds = draw(
        st.lists(st.sampled_from(("chain", "normal", "cycle")), min_size=1, max_size=3).filter(
            lambda ks: ks.count("chain") <= 1
        )
    )
    blocks = []
    for kind in kinds:
        room = 10 - sum(len(b) for b in blocks)
        if kind == "normal":
            count = draw(st.integers(1, min(3, room)))
            blocks.append(next(levels) * np.diag([draw(phases) for _ in range(count)]))
        elif room >= 2:
            length = draw(st.integers(2, min(4 if kind == "chain" else 3, room)))
            r = draw(st.integers(1, min(2, room // length)))
            if kind == "chain":
                weights = [next(levels) for _ in range(length - 1)]
                blocks.append(np.kron(pk.build(pk.weighted_shift(weights)), np.eye(r)))
            else:
                holonomy = [draw(phases) for _ in range(r)]
                blocks.append(_cycle([next(levels) for _ in range(length)], holonomy))
        if sum(len(b) for b in blocks) == 10:
            break
    n = sum(len(b) for b in blocks)
    a = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        a[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    if draw(st.booleans()):
        w = _haar_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
        a = w @ a @ w.conj().T
    return a


@settings(max_examples=40, deadline=None)
@given(a=direct_sums())
def test_structure_of_direct_sums_matches_the_oracles(a):
    an = Analysis(a)
    assert an.certificate.holds
    _assert_oracles_agree(an)
    assert_theorem22_matches_per_pair_loops(an)


# -- what each view derives ---------------------------------------------------


def _count_derivations(monkeypatch) -> dict:
    """Counters of the towers built (TowerReports made), the double
    closures found and the derivations of the powers of U on a frame (calls
    of _AtomFrame.powers that fill its cache anew)."""
    counts = dict.fromkeys(("build_tower", "closures", "powers"), 0)
    made, found, powers = tower.TowerReport.__init__, tower._double_closure, _AtomFrame.powers

    def making(self, *args, **kwargs):
        counts["build_tower"] += 1
        made(self, *args, **kwargs)

    def finding(*args, **kwargs):
        counts["closures"] += 1
        return found(*args, **kwargs)

    def deriving(self, depth):
        before = self._powers
        out = powers(self, depth)
        counts["powers"] += self._powers is not before
        return out

    monkeypatch.setattr(tower.TowerReport, "__init__", making)
    for module in (tower, relation):
        monkeypatch.setattr(module, "_double_closure", finding, raising=False)
    monkeypatch.setattr(_AtomFrame, "powers", deriving)
    return counts


@pytest.mark.parametrize("family", ("shift", "osc"))
def test_views_build_the_tower_only_where_they_read_it(monkeypatch, family):
    # theorem22_report and graded_model_for built the whole tower to read
    # its frame, and theorem22_report read the first power before the
    # n-th, deriving the powers twice
    spec = pk.weighted_shift(np.sqrt(np.arange(1.0, 8))) if family == "shift" else pk.q_oscillator(
        8, 1.0, 1.0
    )
    a = pk.build(spec)
    counts = _count_derivations(monkeypatch)
    expected = {
        pk.theorem22_report: {"build_tower": 0, "closures": 1, "powers": 1},
        pk.graded_model_for: {"build_tower": 0, "closures": 1, "powers": 0},
    }
    for view, want in expected.items():
        empty_slot()
        counts.update(dict.fromkeys(counts, 0))
        view(a)
        assert counts == want, view.__name__
    empty_slot()
    counts.update(dict.fromkeys(counts, 0))
    pk.coefficient_algebra(a)
    assert (counts["build_tower"], counts["closures"]) == (1, 1)
    # the views called after it on the same bytes share its closure and tower
    counts.update(dict.fromkeys(counts, 0))
    for view in (pk.graded_model_for, pk.theorem22_report, pk.coefficient_algebra):
        view(pk.build(spec))
    assert counts == {"build_tower": 0, "closures": 0, "powers": 0}


def _uncertified():
    rng = np.random.default_rng(20260819)  # the conftest rng's first draw
    t = np.deg2rad(30.0)
    rotation = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return {
        "random": rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        "rotation": rotation @ np.diag([1.0, 2.0]),
    }


WEAK = (
    "seed algebra fails the weak hypothesis set (worst residual {}); no commutative "
    "extension on which both conjugations are endomorphisms exists"
)


@pytest.mark.parametrize(
    "name, relation_message, weak_residual",
    (
        ("random", "aa* is not a function of a*a (residual 6.170e+00); eigenspace of a*a "
         "at 6.396 carries inconsistent aa* values", "1.455e+00"),
        ("rotation", "aa* is not a function of a*a (residual 1.299e+00); eigenspace of "
         "a*a at 1 carries inconsistent aa* values", "9.330e-01"),
    ),
    ids=("random", "rotation"),
)
def test_uncertified_closure_raises_what_the_tower_raised(name, relation_message, weak_residual):
    # the same types and messages as when every view read the tower
    a = _uncertified()[name]
    an = Analysis(a)
    assert not an.closure.defect <= LIMITS["frame"](an.tol, an.closure.pair.norm)
    for view in (pk.theorem22_report, pk.coefficient_algebra):
        with pytest.raises(pk.RelationViolated) as err:
            view(a)
        assert str(err.value) == relation_message
    for read in (lambda: pk.graded_model_for(a), lambda: an.frame, lambda: an.tower):
        with pytest.raises(pk.HypothesisViolated) as err:
            read()
        assert str(err.value) == WEAK.format(weak_residual)


def test_analysis_keeps_a_private_copy_of_a():
    # Analysis kept the caller's array: written after the polar parts were
    # taken, ||U|a| - an.matrix|| read 1.0 and verify_I1 read the new matrix
    weights = (1.0, np.sqrt(2.0), np.sqrt(3.0), 2.0)
    a = pk.build(pk.weighted_shift(weights))
    an = Analysis(a)
    pd = an.pd
    a[...] = pk.build(pk.jordan_block(5))
    assert a.flags.writeable and not an.matrix.flags.writeable
    assert np.abs(pd.u @ pd.pos - an.matrix).max() < 1e-12
    assert pk.verify_I1(an) == pk.verify_I1(pk.build(pk.weighted_shift(weights)))


# -- the Analysis the views share on a bare matrix ----------------------------


def test_the_views_on_one_matrix_share_one_analysis():
    from test_batched_kernels import views  # which imports this module

    a = pk.build(pk.q_oscillator(8, 0.5, 1.0))
    model = pk.graded_model_for(a)
    an = relation._last.an
    shared = views(a, a)  # the four views on the bare matrix, after graded_model_for
    assert relation._last.an is an and pk.graded_model_for(a.copy()) is model
    assert shared == views(a)  # on an Analysis of its own


def test_an_array_edited_in_place_is_analysed_anew():
    a = pk.build(pk.weighted_shift(REF_WEIGHTS))
    assert pk.verify_I1(a).holds
    a[...] = pk.build(pk.weighted_shift((1.0, 1.0, 1.0)))
    assert not pk.verify_I1(a).holds


def test_another_tol_or_a_negative_zero_misses_the_slot():
    a = pk.build(pk.weighted_shift(REF_WEIGHTS))
    b = a.copy()
    b[0, 0] = -0.0
    assert np.array_equal(a, b) and a.tobytes() != b.tobytes()
    for other in (lambda: pk.graded_model_for(a, tol=1e-8), lambda: pk.graded_model_for(b)):
        model = pk.graded_model_for(a)
        assert pk.graded_model_for(a) is model
        assert other() is not model


def test_a_call_on_another_matrix_drops_the_last_analysis(monkeypatch):
    pk.coefficient_algebra(pk.build(pk.weighted_shift(REF_WEIGHTS)))
    kept = weakref.ref(relation._last.an)
    gone = []

    def building(m, name, _orig=relation._finite):  # the first step of Analysis()
        gone.append(kept() is None)
        return _orig(m, name)

    monkeypatch.setattr(relation, "_finite", building)
    pk.verify_I1(pk.build(pk.q_oscillator(4, 0.5, 1.0)))
    assert gone == [True]  # dropped before the next is built, with no cycle to collect


def test_a_failed_analysis_dies_with_the_slot_it_leaves(rng):
    # the failure was cached with its traceback, whose frames held the
    # Analysis: a cycle that kept it alive until the collector ran
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    gc.disable()
    try:
        with pytest.raises(pk.HypothesisViolated):
            pk.graded_model_for(a)
        kept = weakref.ref(relation._last.an)
        pk.verify_I1(pk.build(pk.weighted_shift(REF_WEIGHTS)))
        assert kept() is None
    finally:
        gc.enable()


def test_another_thread_keeps_a_slot_of_its_own():
    a = pk.build(pk.weighted_shift(REF_WEIGHTS))
    model = pk.graded_model_for(a)
    out = []
    worker = threading.Thread(target=lambda: out.append(pk.graded_model_for(a)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert out[0] is not model and pk.graded_model_for(a) is model


def test_views_after_the_gate_share_its_derivations(lapack_calls):
    # on a matrix each, the two views made 15 SVD and 2 eigvalsh calls; the
    # polar SVD, the gate, U's certificate and the closure are shared now,
    # and the seed's unitarity defect is taken once, with the closure
    a = pk.build(pk.weighted_shift(np.sqrt(np.arange(1.0, 12))))
    pk.verify_I1(a)
    lapack_calls.clear()
    pk.theorem22_report(a)
    pk.coefficient_algebra(a)
    assert lapack_calls.calls == {"svd": 6, "eigh": 0, "eigvalsh": 1}


def test_elements_of_two_calls_on_one_matrix_multiply(rng):
    # each call made a model of its own, and graded_mul raised ModelMismatch
    a = pk.build(pk.weighted_shift(np.sqrt(np.arange(1.0, 8))))
    g = pk.random_element(pk.graded_model_for(a), rng, bandwidth=2)
    h = pk.random_element(pk.graded_model_for(a.copy()), rng, bandwidth=1)
    product = pk.realize(pk.graded_mul(g, h))
    assert np.abs(product - pk.realize(g) @ pk.realize(h)).max() < 1e-12


@pytest.mark.parametrize("shared", (True, False), ids=("analysis", "matrix"))
def test_a_cached_failure_keeps_its_traceback_depth(rng, shared):
    # each read raised the stored error again, its traceback 10, 13, 16,
    # 19 and then 22 frames deep
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    source = Analysis(a) if shared else a
    depths = []
    for _ in range(5):
        with pytest.raises(pk.HypothesisViolated) as err:
            pk.graded_model_for(source)
        depths.append(len(traceback.extract_tb(err.value.__traceback__)))
    assert depths == depths[:1] * 5, depths
