import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarkit as pk
from polarkit.algebra import _projection_basis
from polarkit.relation import Analysis


from conftest import random_matrix, zoo_specs
from span_closure import (
    algebras_equal,
    basis_of,
    contains,
    generate,
    joint_eigenbasis,
    linear_span,
    project,
    ref_is_commutative,
    residual,
)


def diag(*entries):
    return np.diag(np.asarray(entries, dtype=complex))


def test_generate_projection_gives_two_dims():
    alg = generate([diag(1, 1, 0, 0)], unital=True)
    assert alg.dimension == 2
    ok, res = contains(alg, diag(1, 1, 0, 0))
    assert ok and res <= 1e-12


def test_generate_distinct_diagonal_gives_full_diagonal():
    alg = generate([diag(1, 2, 3)], unital=True)
    assert alg.dimension == 3
    for k in range(3):
        e = np.zeros((3, 3), dtype=complex)
        e[k, k] = 1.0
        ok, _ = contains(alg, e)
        assert ok


def test_generate_full_matrix_algebra(rng):
    a = random_matrix(rng, 3)
    b = random_matrix(rng, 3)
    alg = generate([a, b], unital=True)
    assert alg.dimension == 9


def test_contains_rejects_outsider():
    alg = generate([diag(1, 1, 0)], unital=True)
    off = np.zeros((3, 3), dtype=complex)
    off[0, 2] = 1.0
    ok, res = contains(alg, off)
    assert not ok and res > 0.1


def test_linear_span_is_not_closed_under_products():
    p = diag(1, 2, 0)
    span = linear_span([p, np.eye(3, dtype=complex)])
    assert span.dimension == 2
    ok, _ = contains(span, p @ p)
    assert not ok  # spans do not multiply; generate() does


def test_spectral_algebra_matches_generate(shift4):
    pos = pk.polar_decompose(shift4).pos
    alg = pk.spectral_algebra(pos)
    gen = generate([pos], unital=True)
    same, res = algebras_equal(alg, gen)
    assert same and res <= 1e-9
    assert alg.dimension == 4  # eigenvalues 1, sqrt2, sqrt3, 0 all distinct


def test_commutant_of_diagonal_is_diagonal():
    alg = generate([diag(1, 2, 3)], unital=True)
    com = pk.commutant(alg)
    assert com.dimension == 3
    assert ref_is_commutative(com) <= 1e-9


def test_commutant_of_full_algebra_is_scalars(rng):
    alg = generate([random_matrix(rng, 3), random_matrix(rng, 3)], unital=True)
    com = pk.commutant(alg)
    assert com.dimension == 1


def test_bicommutant_of_projection_algebra():
    alg = generate([diag(1, 1, 0)], unital=True)
    bc = pk.bicommutant(alg)
    # blocks C·I_2 + C·I_1 -> the bicommutant recovers exactly the algebra
    same, _ = algebras_equal(alg, bc)
    assert same


def test_is_function_of_table(shift4):
    aa = shift4 @ shift4.conj().T
    asa = shift4.conj().T @ shift4
    cert = pk.is_function_of(aa, asa)
    assert cert.exists
    table = dict((round(ev, 9), round(val.real, 9)) for ev, val in cert.table)
    assert table == {0.0: 3.0, 1.0: 0.0, 2.0: 1.0, 3.0: 2.0}


def test_is_function_of_fails_for_jordan():
    j = pk.build(pk.jordan_block(3))
    cert = pk.is_function_of(j @ j.conj().T, j.conj().T @ j)
    assert not cert.exists
    assert cert.residual > 0.1


def test_is_function_of_requires_normal_b(rng):
    h = diag(1, 2, 3)
    with pytest.raises(pk.NotHermitian):
        pk.is_function_of(random_matrix(rng, 3), h)


def test_joint_eigenbasis_diagonalizes_family():
    mats = [diag(1, 1, 2), diag(3, 4, 4)]
    v, blocks = joint_eigenbasis(mats)
    for m in mats:
        d = v.conj().T @ m @ v
        assert np.allclose(d, np.diag(np.diag(d)), atol=1e-10)
    # the pair separates all three indices
    assert sorted(len(b) for b in blocks) == [1, 1, 1]


def test_joint_eigenbasis_rejects_noncommuting(rng):
    a = random_matrix(rng, 3)
    h1 = a + a.conj().T
    h2 = diag(1, 2, 3)
    if np.allclose(h1 @ h2, h2 @ h1):
        pytest.skip("randomly commuting pair")
    with pytest.raises(ValueError, match="^family members 0 and 1 do not commute$"):
        joint_eigenbasis([h1, h2])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
def test_bicommutant_contains_algebra(seed, n):
    rng = np.random.default_rng(seed)
    alg = generate([random_matrix(rng, n)], unital=True)
    bc = pk.bicommutant(alg)
    worst = 0.0
    for b in basis_of(alg):
        _, res = contains(bc, b)
        worst = max(worst, res)
    assert worst <= 1e-9


def _conjugated_hermitian(rng, eigenvalues):
    q, _ = np.linalg.qr(random_matrix(rng, len(eigenvalues)))
    return q @ np.diag(np.asarray(eigenvalues, dtype=complex)) @ q.conj().T


def test_atom_algebra_agrees_with_its_span(rng):
    h = _conjugated_hermitian(rng, [1.0, 1.0, 2.0, 3.0, 3.0, 3.0])
    alg = pk.spectral_algebra(h)
    assert isinstance(alg, pk.SpectralAlgebra)
    assert [len(b) for b in alg.blocks] == [2, 1, 3]
    assert list(alg.labels) == [0, 0, 1, 2, 2, 2]
    span = pk.MatrixAlgebra(dim=6, basis=np.array(basis_of(alg)))
    stack = np.array([random_matrix(rng, 6) for _ in range(3)])
    assert abs(residual(alg, stack) - residual(span, stack)) <= 1e-12
    member = h @ h - 2.0 * h + np.eye(6)
    assert residual(alg, member) <= 1e-12
    assert residual(alg, np.array([member, h])) <= 1e-12


def test_span_residual_of_a_stack_is_the_largest_single_residual(rng):
    alg = generate([diag(1, 2, 2)], unital=True)
    stack = np.array([random_matrix(rng, 3) for _ in range(4)])
    singles = [np.linalg.svd(m - project(alg, m), compute_uv=False)[0] for m in stack]
    assert residual(alg, stack) == pytest.approx(max(singles), rel=1e-13)


def _ladder(n):
    """The two families of the benchmark's dimension ladder at n."""
    return {
        "osc": pk.build(pk.q_oscillator(n, 1.0, 1.0)),
        "shift": pk.build(pk.weighted_shift(np.sqrt(np.arange(1, n)))),
    }


def _atom_seeds():
    for n in (4, 6, 8, 10, 12):
        for fam, a in _ladder(n).items():
            yield f"{fam}-{n}", pk.spectral_algebra(pk.polar_decompose(a).pos)
    rng = np.random.default_rng(7)
    yield "repeated", pk.spectral_algebra(_conjugated_hermitian(rng, [1.0, 1.0, 2.0, 3.0, 3.0, 3.0]))


@pytest.mark.parametrize("alg", [pytest.param(alg, id=name) for name, alg in _atom_seeds()])
def test_commutant_of_atoms_is_the_commutant_of_their_projection_rows(alg):
    span = pk.MatrixAlgebra(dim=alg.dim, basis=_projection_basis(alg.v, alg.blocks))
    assert not isinstance(alg, pk.MatrixAlgebra) and not hasattr(alg, "basis")
    assert alg.dimension == span.dimension
    for op in (pk.commutant, pk.bicommutant):
        assert np.array_equal(op(alg).basis, op(span).basis), op.__name__


def test_the_zero_algebra_has_dimension_zero():
    alg = pk.spectral_algebra(np.zeros((0, 0)))
    assert alg.dim == 0 and alg.dimension == 0


def _reachable_algebras(*roots):
    """Every algebra reachable from the roots through the attributes of
    polarkit objects and the items of containers."""
    seen, stack, out = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (pk.SpectralAlgebra, pk.MatrixAlgebra)):
            out.append(obj)
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("polarkit") and hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return out


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("spec", zoo_specs() + [pk.model_spec_to_json(pk.q_oscillator(12, 1.0, 1.0))])
def test_no_algebra_holds_more_than_dim_squared_entries(spec):
    an = Analysis(pk.build(pk.model_spec_from_json(spec)))
    roots = [an.tower, an.frame, an.unit_closure]
    if an.certificate.holds:
        roots.append(an.model)
    algebras = _reachable_algebras(*roots)
    assert algebras and all(type(alg) is pk.SpectralAlgebra for alg in algebras)
    for alg in algebras:
        sizes = [arr.size for value in vars(alg).values() for arr in _arrays(value)]
        assert max(sizes) <= alg.dim * alg.dim, sizes


def _kept_mb(read) -> float:
    """Traced memory still held after ``read()``, in MB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        read()
        return (tracemalloc.get_traced_memory()[0] - before) / 2**20
    finally:
        tracemalloc.stop()


def test_algebras_at_n_128_keep_no_projection_basis():
    # the seed kept its (128, 128, 128) basis of 32 MB, and the tower and
    # the closure of C*(1) kept another for the double closure
    an = Analysis(_ladder(128)["shift"])
    an.spaces, an.pair
    assert _kept_mb(lambda: an.seed) < 1.0
    assert _kept_mb(lambda: (an.tower, an.unit_closure)) < 8.0
