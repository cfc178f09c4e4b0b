"""The defining relation aa* in C*(1, a*a) and what follows from it.

``verify_I1`` certifies the relation itself (two equivalent membership
routes).  ``theorem22_report`` then verifies the ten structural
properties of the partial isometry U from the polar decomposition of a
passing operator: bicommutant membership of the power projections, the
commuting projection lattice, the reduction identities, and the
morphism/intertwining behaviour of b -> U b U* on the algebra generated
by |a| alone (no identity adjoined; the unital and non-unital algebras
are deliberately kept distinct).  Bicommutant membership is tested
against the seed C*(1, |a|) itself: at finite dimension a *-algebra with
1 is its own bicommutant (von Neumann's double commutant theorem), so
no commutant is ever built.  The ten checks are read on the atoms of the
tower's double closure, where U is a block partial permutation plus a
measured tie per power, so they cost O(n) SVDs, not O(n^2).

``coefficient_algebra`` assembles the commutative algebra every graded
coefficient lives in, by running the endomorphism tower over the seed
C*(1, |a|), and checks the structure statements that come with it.  The
``structure`` view reads the algebra B generated by {1, |a|, U} as a
Wedderburn sum over the orbits of delta on the atoms of that algebra
(:class:`OrbitBlock`), so dim B = sum L^2 over chains + sum c^2 s over
cycles, and no matrix of B is formed.

Membership tests here go through eigenspaces (functions of a matrix, or
classes of atoms) rather than through span bases of matrix powers:
powers of a matrix with crowded eigenvalues span the same algebra but
make the membership test numerically useless, while the eigenspace route
is exact up to rounding.

The functions here are views on one :class:`Analysis` per operator and
accept one in place of the matrix (its own tol then governs), so callers
that need several views of an operator share every derivation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    SpectralAlgebra,
    _atom_algebra,
    _atom_means,
    _atom_residual,
    _eigenspaces,
    _labels,
    _normal_scale,
    _value_classes,
    is_function_of,
)
from .errors import InvalidSpec, ModelNotGraded, PolarkitError, RelationViolated
from .graded import GradedModel
from .isometry import ConditionCheck, partial_isometry_report
from .linalg import DEFAULT_TOL, _finite, as_matrix, dagger, operator_norm, polar_decompose
from .tower import (
    _BLOCK,
    EndoPair,
    TheoremReport,
    TowerReport,
    _AtomFrame,
    _checked_pair,
    _power_facts,
    _tower_theorems,
    _unit_closure,
    build_tower,
)

@dataclass(frozen=True)
class RelationCertificate:
    """Outcome of the defining-relation test.

    ``membership_residual`` is the defect of aa* from being a function
    of a*a; ``conjugate_residual`` is the defect of U|a|U* from being a
    function of |a| (the equivalent formulation through the polar
    parts).  ``gamma_table`` samples the function aa* = gamma(a*a) on
    the spectrum when it exists.  ``offending_eigenvalue`` names the
    eigenvalue of a*a whose eigenspace breaks the function property
    when the relation fails.
    """

    holds: bool
    membership_residual: float
    conjugate_holds: bool
    conjugate_residual: float
    gamma_table: tuple[tuple[float, float], ...]
    offending_eigenvalue: float | None = None


_FAILURES = (PolarkitError, np.linalg.LinAlgError)


def _once(derive):
    """A field of :class:`Analysis`: derived on first read, then cached
    together with the PolarkitError or LinAlgError the derivation may
    raise."""

    def get(self):
        if derive not in self._memo:
            try:
                self._memo[derive] = derive(self)
            except _FAILURES as exc:
                self._memo[derive] = exc
        if isinstance(self._memo[derive], _FAILURES):
            raise self._memo[derive]
        return self._memo[derive]

    return property(get)


class Analysis:
    """One operator and everything derived from it, each piece once.

    An a with a NaN or infinite entry, or whose a*a is not finite in
    double precision, is an :class:`InvalidSpec` at once.  Each field is
    derived on first read from the ones before it: ``norm`` (||a||), ``pd``
    (the polar parts), ``spaces`` (the eigenspaces of |a|), ``seed``
    (C*(1, |a|), their algebra), ``certificate`` (the defining-relation
    test), ``isometry`` (U's partial-isometry certificate, with ||U||),
    ``pair`` (U validated by it), ``tower`` (both towers over the seed),
    ``frame`` (the atoms of the tower's double closure, with U in their
    basis), ``model`` (U over that double closure), ``structure`` (the
    blocks of B, given the relation) and ``unit_closure`` (the atoms of
    C*(1)'s double closure under U and their certification defect, which
    the isometry reports read).  A failed derivation is not repeated
    either: its PolarkitError or LinAlgError is raised again on every
    later read.
    """

    def __init__(self, a, tol: float = DEFAULT_TOL):
        self.matrix = _finite(as_matrix(a), "the matrix")
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(dagger(self.matrix) @ self.matrix).all():
                raise InvalidSpec(
                    "a*a overflows double precision "
                    f"(largest entry {np.abs(self.matrix).max():.3e})"
                )
        self.tol = tol
        self._memo: dict = {}

    norm = _once(lambda an: operator_norm(an.matrix))
    pd = _once(lambda an: polar_decompose(an.matrix, tol=an.tol))
    spaces = _once(lambda an: _eigenspaces(an.pd.pos, an.tol))
    seed = _once(lambda an: _atom_algebra(an.spaces[1], an.spaces[2]))
    certificate = _once(lambda an: verify_I1(an))
    isometry = _once(lambda an: partial_isometry_report(an.pd.u, tol=an.tol))
    pair = _once(lambda an: _checked_pair(an.pd.u, an.isometry))
    tower = _once(lambda an: build_tower(an.seed, an.pair, tol=an.tol))
    frame = _once(lambda an: an.tower._frame)
    model = _once(lambda an: _graded_model(an))
    structure = _once(lambda an: _structure(an))
    unit_closure = _once(lambda an: _unit_closure(
        EndoPair(u=an.pd.u, ambient_dim=len(an.pd.u), norm=an.isometry.norm), an.tol))


def _graded_model(an: Analysis) -> GradedModel:
    """U over the double closure, read on the tower's frame."""
    model = GradedModel(an.pair, an.frame.alg, tol=an.tol)
    model._frame = an.frame
    return model


def _analysis(a, tol: float) -> Analysis:
    return a if isinstance(a, Analysis) else Analysis(a, tol)


def verify_I1(a, tol: float = DEFAULT_TOL) -> RelationCertificate:
    """Does aa* lie in the algebra generated by 1 and a*a?

    Both formulations are evaluated: aa* as a function of a*a, and
    U|a|U* as a function of |a| with U, |a| the polar parts.  They are
    equivalent statements, so the two booleans are expected to agree;
    both residuals are reported.  The second is the defect of U|a|U*
    from being scalar on the eigenspaces of |a|, the atoms of the seed
    C*(1, |a|), which are taken once for the gate and the seed.
    """
    an = _analysis(a, tol)
    am = an.matrix
    cert = is_function_of(am @ dagger(am), dagger(am) @ am, tol=an.tol)
    pd = an.pd
    mid = pd.u @ pd.pos @ dagger(pd.u)
    scale = _normal_scale(mid, an.tol)
    _, v, groups, _ = an.spaces
    conjugate = _atom_residual(v, _labels(groups), mid)
    table = tuple((float(ev), float(val.real)) for ev, val in cert.table)
    return RelationCertificate(
        holds=cert.exists,
        membership_residual=cert.residual,
        conjugate_holds=conjugate <= an.tol * scale,
        conjugate_residual=conjugate,
        gamma_table=table,
        offending_eigenvalue=cert.worst_eigenvalue,
    )


def _require_relation(an: Analysis) -> RelationCertificate:
    cert = an.certificate
    if not cert.holds:
        extra = (
            f"; eigenspace of a*a at {cert.offending_eigenvalue:.6g} carries "
            "inconsistent aa* values"
            if cert.offending_eigenvalue is not None
            else ""
        )
        raise RelationViolated(
            f"aa* is not a function of a*a (residual {cert.membership_residual:.3e}){extra}"
        )
    return cert


def _structure(an: Analysis):
    _require_relation(an)
    return orbit_structure(an.frame, an.tol)


@dataclass(frozen=True)
class OrbitBlock:
    """One orbit of delta on the atoms of the double closure, and the block
    of B = C*(1, |a|, U) it carries.

    delta acts on the atoms as a partial injection, so an orbit is a chain
    x -> delta(x) -> ... that ends where delta(P_x) = 0, or a cycle.  A
    chain of length L gives M_L(C); a cycle of length c gives
    M_c(C) (x) C^s, where s (``spectrum``; 1 on a chain) is the number of
    distinct eigenvalues of the holonomy U^c on one of its atoms.
    ``multiplicity`` is the common rank of the orbit's atoms.
    """

    cycle: bool
    length: int
    multiplicity: int
    spectrum: int

    @property
    def dimension(self) -> int:
        return self.length * self.length * self.spectrum

    @property
    def bandwidth(self) -> int:
        """The least b such that the graded elements of degree |d| <= b
        span the block: L - 1 on a chain.  On a cycle U is unitary, so the
        degrees -b..b give 2b + 1 consecutive powers of U, which reach
        every residue mod c at least s times once 2b + 1 >= c s, that is
        b = ceil((c s - 1) / 2) = floor(c s / 2)."""
        return self.length * self.spectrum // 2 if self.cycle else self.length - 1


@dataclass(frozen=True)
class Structure:
    """B as the direct sum of one block per orbit of delta, chains first;
    ``residual`` is the distance of U from that block form plus the
    unitarity defect of the holonomies."""

    blocks: tuple[OrbitBlock, ...]
    residual: float

    @property
    def dimension(self) -> int:
        return sum(b.dimension for b in self.blocks)

    @property
    def bandwidth(self) -> int:
        return max((b.bandwidth for b in self.blocks), default=0)


def orbit_structure(frame: _AtomFrame, tol: float = DEFAULT_TOL) -> Structure:
    """The blocks of B from one walk of delta's atom map on the atoms of
    ``frame``, those of the double closure.

    In the atom basis U is one r x r block per atom x, in the block row of
    delta(x); a cycle's holonomy is the product of its blocks around the
    cycle.  The residual adds the defect of delta's atom map from a 0/1
    partial injection, a bound on the norm of U off that block form and the
    holonomies' unitarity defect; over ``tol * (1 + ||U||^2)^2`` it is a
    :class:`ModelNotGraded`."""
    _, hit, defect = frame.injection("forward")
    images, ties, _, _ = frame.powers(1)
    starts, sizes = frame.ranges
    image = images[0]
    orbits, seen = [], set()
    # chains from their heads, the atoms nothing maps to; the rest lie on cycles
    for x in [*np.flatnonzero(~hit), *range(frame.size)]:
        orbit = []
        while x >= 0 and x not in seen:
            seen.add(x)
            orbit.append(x)
            x = image[x]
        if orbit:
            orbits.append(orbit)
    w = frame.u["forward"]
    residual = max(defect, float(ties[0]))
    limit = tol * frame.scale
    if residual <= limit:
        blocks, unitarity = [], 0.0
        for orbit in orbits:
            holonomy = np.eye(sizes[orbit[0]], dtype=np.complex128)
            cycle = image[orbit[-1]] == orbit[0]
            if cycle:
                atom = [slice(starts[x], starts[x] + sizes[x]) for x in orbit]
                for src, dst in zip(atom, atom[1:] + atom[:1]):
                    holonomy = w[dst, src] @ holonomy
                gram = dagger(holonomy) @ holonomy - np.eye(len(holonomy))
                unitarity = max(unitarity, operator_norm(gram))
            spectrum = _value_classes(np.linalg.eigvals(holonomy)[None, :], tol).max() + 1
            blocks.append(OrbitBlock(bool(cycle), len(orbit), len(holonomy), int(spectrum)))
        residual += unitarity
    if not residual <= limit:
        raise ModelNotGraded(
            f"U is not a block partial permutation of the atoms (residual {residual:.3e})"
        )
    return Structure(blocks=tuple(blocks), residual=float(residual))


@dataclass(frozen=True)
class Theorem22Report:
    """The ten structural checks for the polar partial isometry."""

    checks: tuple[ConditionCheck, ...]
    kmax: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _class_defect(frame: _AtomFrame, values, ties, cls, eps: float) -> float:
    """Bound on the distance of elements, atom values plus ties, from the
    algebra of the classes ``cls`` whose tie is ``eps``; 0 for none."""
    if not len(values):
        return 0.0
    return frame.class_residual(values, cls) + float(np.max(ties)) + eps


def theorem22_report(a, tol: float = DEFAULT_TOL) -> Theorem22Report:
    """Verify the ten properties of U from the polar decomposition.

    Requires the defining relation (RelationViolated otherwise), and raises
    the tower's HypothesisViolated or the block form's ModelNotGraded.
    Powers run to k = n, the dimension, by which point the projection chain
    has stabilized or died.  Each residual is passed at
    ``tol * (1 + ||a||)^2``.

    The checks are read on the atoms X of the double closure (the frame of
    :class:`tower._AtomFrame`), where U is W = D_k + R_k per power: D_k one
    block per atom x in the block row of delta^k(x), and R_k, of norm tau_k,
    the rest.  P_k = U^k U*^k and Q_k = U*^k U^k are atom vectors p_k, q_k
    plus ties; the seed C*(1, |a|) is a partition of X with tie eps, and
    the non-unital seed is spanned by the rows f_c = 1_c / sqrt(rank c) of
    the seed's classes on which |a| exceeds ``tol * (1 + max |a|)``.  With
    V = max(1, ||U||)^n >= ||W^k|| and D = V + max tau_k >= ||D_k||, each
    residual is a vector residual plus a bound from the ties:

    * the bicommutant checks: class residual of q_1 and of every p_k in
      the seed's partition, plus their ties and eps;
    * projections commuting, power reduction, idempotence and nesting:
      the power facts the isometry reports read too
      (:func:`tower._power_facts`);
    * the seed images: delta^k(f) is f gathered through delta^k times
      p_k plus a tie (``_AtomFrame.layers``).  These give the seed's images
      in the seed and in C*(1, |a|, P_1..P_(k-1)), whose partition the
      values of |a| and p_1..p_(k-1) generate (with the seed's tie eps),
      and their absorption by P_k;
    * the morphism and the round trip: delta(b b') - delta(b) delta(b') =
      U b (1 - Q_1) b' U* and U b - delta(b) U = U b (1 - Q_1), whose block
      part reads f (1 - q_1) on the atoms delta is defined on, and
      U*(U b U*)U - b = Q_1 (b Q_1 - b) + (Q_1 b - b), where b Q_1 - b is
      the adjoint of Q_1 b - b = (q_1 - 1) f plus ties.
    """
    an = _analysis(a, tol)
    tol = an.tol
    an.structure  # the relation, the tower and U's block form, or their typed error
    frame = an.frame
    n = an.matrix.shape[0]
    images, taus, (p, p_ties, _), (q, q_ties, _) = frame.powers(n)
    scale = 1.0 + an.norm
    thr = tol * (scale * scale)

    cls, eps = frame.classes(an.seed)
    pos = _atom_means(frame.alg._vh @ an.pd.pos @ frame.alg.v, frame.ranges).real
    means = np.bincount(cls, pos * frame.ranks) / np.bincount(cls, frame.ranks)
    f = frame.class_basis(cls)[np.abs(means) > tol * (1.0 + np.abs(pos).max())]
    f_max = f.max(axis=1, initial=0.0)

    big = max(1.0, np.sqrt(frame.nu2)) ** n
    tau = float(taus.max())
    dom = images[0] >= 0
    gap = np.abs(q[0] - 1.0)
    out = gap.max() + q_ties[0]  # bound on ||1 - Q_1||
    checks = []

    def add(name: str, residual: float):
        residual = float(residual)
        checks.append(ConditionCheck(name=name, residual=residual, passed=residual <= thr))

    add("initial_projection_in_bicommutant", _class_defect(frame, q[:1], q_ties[:1], cls, eps))
    add("range_projections_in_bicommutant", _class_defect(frame, p, p_ties, cls, eps))
    facts = _power_facts(frame, n)
    add("projection_families_commute", facts["commute"].max())
    add("power_reduction", facts["reduction"])
    add("range_projections_idempotent", facts["final_idempotent"])
    add("ordered_products_nest", max(facts["initial_chain"], facts["final_chain"]))

    # delta^k of the non-unital seed, k = 1..n: gathered rows masked by p_k
    layers = frame.layers(f, np.full(len(f), eps), "forward", n)[1:]
    imgs, img_ties = (np.array([layer[i] for layer in layers]) for i in (0, 1))

    f_top = f.max(initial=0.0)
    inter = np.abs(f * (1.0 - q[0]))[:, dom].max(initial=0.0) * (big + tau)
    inter += f_top * ((big + tau) * q_ties[0] + tau * out) + big * eps * out
    mult = inter * (f_top + eps) * big
    add(
        "delta_morphism_on_seed",
        max(mult, inter, _class_defect(frame, imgs[0], img_ties[0], cls, eps)),
    )

    # C*(1, |a|, P_1..P_(k-1)) for k = 1..n: the partition |a| and
    # p_1..p_(k-1) generate, with the tie max(eps, ties of P_1..P_(k-1));
    # the images delta^k of a run of k on one partition are projected in
    # blocks of at most _BLOCK entries
    generators = np.maximum(eps, np.maximum.accumulate(np.concatenate(([0.0], p_ties[:-1]))))
    bounds = [img_ties.max(axis=1, initial=0.0), generators]
    extended, level, first = 0.0, _value_classes(pos[None, :], tol), 0
    for k in range(1, n + 1 if len(f) else 1):
        after = level
        if k < n and level.max() < frame.size - 1:  # p_k can split a class
            after = _value_classes(np.vstack([level, p[k - 1]]), tol)
        if k == n or not np.array_equal(after, level):
            basis, step = frame.class_basis(level), max(1, _BLOCK // imgs[0].size)
            for lo in range(first, k, step):
                run = slice(lo, min(k, lo + step))
                res = frame.span_residuals(imgs[run], basis) + bounds[0][run] + bounds[1][run]
                extended = max(extended, float(res.max()))
            level, first = after, k
    add("delta_powers_in_extended_algebra", extended)
    absorb = (
        np.abs((p[:, None, :] - 1.0) * imgs).max(axis=-1, initial=0.0)
        + p_ties[:, None] * np.abs(imgs).max(axis=-1, initial=0.0)
        + (np.abs(p - 1.0).max(axis=1) + p_ties)[:, None] * img_ties
    )
    add("range_projection_absorbs_image", absorb.max(initial=0.0))

    one_side = np.abs((q[0] - 1.0) * f).max(axis=1, initial=0.0) + f_max * q_ties[0] + out * eps
    round_trip = (np.abs(q[0]).max() + q_ties[0] + 1.0) * one_side.max(initial=0.0)
    add("delta_star_delta_identity", round_trip)

    return Theorem22Report(checks=tuple(checks), kmax=n)


@dataclass(frozen=True)
class CoefficientAlgebraReport:
    """Tower run over the seed C*(1, |a|), plus structure checks.

    ``structure`` holds the sum-form statements: each level of the star
    tower over the forward limit is already a plain linear span of the
    layer images (products add nothing), and likewise for the forward
    tower over the star limit at its stabilization level.
    """

    certificate: RelationCertificate
    tower: TowerReport
    theorems: TheoremReport
    structure: dict[str, tuple[bool, float]]

    @property
    def algebra(self) -> SpectralAlgebra:
        return self.tower.inf_a_inf

    @property
    def passed(self) -> bool:
        return (
            all(ok for ok, _ in self.tower.checks.values())
            and self.theorems.passed
            and all(ok for ok, _ in self.structure.values())
        )


def _sum_form_residual(frame: _AtomFrame, layers: list, levels: list) -> float:
    """Defect of tower levels from the plain span of layer images.

    ``layers`` are the coordinates on the atoms of ``frame`` of the
    layers d^0(base), d^1(base), ..., and ``levels[n]`` is the algebra
    expected to equal the span of the first n + 1 of them; None entries
    are skipped.  Each comparison adds the ties of the span and of the
    level.  The layers are joined once, and level n reads the rows of its
    first n + 1.
    """
    values = np.concatenate([v for v, _, _ in layers[: len(levels)]])
    ties = np.concatenate([e for _, e, _ in layers[: len(levels)]])
    ends = np.cumsum([len(e) for _, e, _ in layers[: len(levels)]])
    worst = 0.0
    for n, alg in enumerate(levels):
        if alg is None:
            continue
        span, span_ties = frame.span_basis(values[: ends[n]], ties[: ends[n]])
        cls, eps = frame.classes(alg)
        res = max(
            frame.class_residual(span, cls), frame.span_residuals(frame.class_basis(cls), span)
        )
        worst = max(worst, float(res + span_ties.max(initial=0.0) + eps))
    return worst


def coefficient_algebra(a, tol: float = DEFAULT_TOL) -> CoefficientAlgebraReport:
    """Build and certify the commutative coefficient algebra of a.

    Seeds the tower with C*(1, |a|) and the polar partial isometry,
    verifies the tower theorems, and adds the sum-form structure checks
    (every tower level is a linear span of layer images, so sums of the
    form alpha_0 + delta_*(alpha_1) + ... exhaust each level).
    """
    an = _analysis(a, tol)
    tol = an.tol
    cert = _require_relation(an)
    tower, frame = an.tower, an.frame
    theorems, inf_star = _tower_theorems(tower, an.pair, frame, tol)

    scale = 1.0 + an.norm
    star_levels = _sum_form_residual(frame, inf_star, tower.n_a_inf_list)
    fwd_stab = tower.stabilization.get("forward_from_star_limit", 0)
    fwd_layers = frame.layers(*frame.basis_coords(tower.inf_a), "forward", fwd_stab)
    fwd_levels = _sum_form_residual(
        frame, fwd_layers, [None] * fwd_stab + [tower.a_inf_of_inf_a]
    )
    structure = {
        "sum_form_star_levels": (star_levels <= tol * scale, star_levels),
        "sum_form_forward_limit": (fwd_levels <= tol * scale, fwd_levels),
    }
    return CoefficientAlgebraReport(
        certificate=cert, tower=tower, theorems=theorems, structure=structure
    )


def graded_model_for(a, tol: float = DEFAULT_TOL) -> GradedModel:
    """Graded model of a without requiring the defining relation.

    Builds the double-closure tower over C*(1, |a|) and wraps the polar
    partial isometry with that limit algebra.  The graded calculus only
    needs U and a commutative invariant coefficient algebra, so this
    also covers negative-control models (unit-weight shifts, Jordan
    blocks) on which :func:`verify_I1` fails.
    """
    return _analysis(a, tol).model
