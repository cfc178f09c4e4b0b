"""Conjugation maps delta(b) = U b U*, delta_*(b) = U* b U and the
commutative extension towers they generate from a seed algebra.

Given a commutative unital seed A_0, stored by its atoms (a seed stored
any other way is a :class:`ModelMismatch`), and a partial isometry U, the
forward tower adjoins delta images, the star tower adjoins delta_* images:

    T_n(forward) = alg{A_0, delta(A_0), ..., delta^n(A_0)}
    T_n(star)    = alg{A_0, delta_*(A_0), ..., delta_*^n(A_0)}

Dimensions are nondecreasing and bounded, so each sequence stabilizes; the
limits are written a_inf and inf_a.  Applying the star construction to
a_inf (or the forward one to inf_a) gives the double closures, which agree
and form the smallest commutative algebra containing A_0 on which both
conjugations act as endomorphisms, provided the hypotheses below hold.

Two hypothesis sets appear in the theory and the source statements do not
single one out, so both are checked and reported:

  weak set   delta_*^k(1) are projections, delta_*^k(1) in A_0',
             delta^k(A_0) in A_0', delta_*(1) commutes with delta^k(A_0)
  strong set delta(A_0) inside A_0, delta_*^k(1) projections,
             delta_*(1) in A_0'

The weak set is what the double-closure construction needs; the strong set
additionally makes the layer products and the top-layer ideal statement
valid at the seed level (they always hold at the a_inf level).

Everything is read on the atoms X of the double closure, which is C(X).
X is found first, by splitting the seed's atoms with images of a
mixed h = sum_x c_x P_x.  Round j splits by those under U^(2^j) and
U*^(2^j), the powers taken by squaring, so a chain of n atoms is cut in
about log2 n rounds; then rounds of U h U* and U* h U run until none splits.  Every
image lies in the double closure, so none splits it too finely, and the
stopping rule, and so X, is that of the single-step rounds.  X is then
certified: delta and delta_* must act on X as a partial injection and its
inverse, two 0/1 matrices tied to U by block norms of W = V*UV and one
Gram W*W.  Only a certified X is read (:func:`_certified`); the tower is
built on it, and the views that need only X do not build the tower.  An
element read on X is a vector over X plus its tie, a bound on its
distance from that atom function (``_AtomFrame``); the powers of U are
products of W's blocks along delta's orbits plus an exact first order and
a bounded rest, so no tie takes an SVD or a power of U.  The four
sequences are partitions of X joined with gathers of the seed's classes;
the hypotheses and the tower theorems read the layers d^k(f), one gather
through the powers of delta into one array that each check indexes in
place, by class residuals under the trace inner product (whose weights are
the atom ranks; a layer of a_inf is a partition of its support, so its
products with other layers are class residuals too) and commutator bounds
from the ties.  No check runs a span closure.
``relation.orbit_structure`` reads the blocks of B = C*(1, |a|, U) off
delta's orbits on X, and the isometry reports read the powers of U on the
atoms of C*(1)'s double closure (``_power_facts``), a partition of X when
X is certified (:func:`_unit_classes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (
    SpectralAlgebra,
    _atom_algebra,
    _labels,
    _refine,
    _value_classes,
)
from .errors import HypothesisViolated, ModelMismatch
from .isometry import partial_isometry_report
from .linalg import (
    DEFAULT_TOL,
    DROP_THRESHOLD,
    LIMITS,
    _block_norms,
    _bordered,
    _count,
    _finite,
    _gather_blocks,
    _gram_defects,
    _norm_f,
    _push,
    _runs,
    _split_norm_bound,
    _tolerance,
    as_matrix,
    dagger,
    operator_norm,
)

# Seed of the fixed weights that mix the atoms of a refinement round into
# one Hermitian matrix: generic real weights in [1, 2), so that two atoms
# the images tell apart almost never get equal mixed values (the first
# 2048 lie at least 2e-7 apart), and the same weights on every run.
MIX_SEED = 20020

# Elements per block of the kernels that would otherwise form one array
# per pair of rows (the graded product, the chain bounds): 128 KB of
# complex values, so their temporaries stay small at any size.
_BLOCK = 1 << 13


@dataclass(frozen=True)
class EndoPair:
    """A partial isometry u with ||u||, which every frame on u reads, and
    the two conjugations."""

    u: np.ndarray
    ambient_dim: int
    norm: float

    def __post_init__(self):
        self.u.setflags(write=False)

    def delta(self, m) -> np.ndarray:
        return self.u @ as_matrix(m) @ dagger(self.u)

    def delta_star(self, m) -> np.ndarray:
        return dagger(self.u) @ as_matrix(m) @ self.u


def endo_pair(u, tol: float = DEFAULT_TOL) -> EndoPair:
    """Wrap u after checking it really is a partial isometry; a copy of
    u, since an EndoPair freezes its array."""
    um = np.array(as_matrix(u))
    return _checked_pair(um, partial_isometry_report(um, tol=tol))


def _checked_pair(um: np.ndarray, rep) -> EndoPair:
    """u with ||u|| from its certificate ``rep``, a
    :class:`PartialIsometryReport`, which it must pass."""
    if not rep.passed:
        raise HypothesisViolated(
            f"u is not a partial isometry (worst condition residual {rep.worst:.3e})"
        )
    return EndoPair(u=um, ambient_dim=um.shape[0], norm=rep.norm)


@dataclass(frozen=True)
class HypothesesReport:
    """Residuals for both hypothesis sets; failures are reported, not thrown."""

    kmax: int
    weak_holds: bool
    strong_holds: bool
    weak_residual: float
    strong_residual: float
    details: dict[str, float] = field(default_factory=dict)


def _commutativity_defect(algs) -> float:
    """Largest commutator residual over the algebras, each stored by its
    atoms.  Two atoms P_x, P_y multiply to V_x G V_y*, with G the
    unitarity defect v* v - 1 of the basis, so the basis commutes within
    2 ||G|| (1 + ||G||), ||G|| taken once per algebra."""
    g = max(alg._unitarity for alg in algs)
    return 2.0 * g * (1.0 + g)


_MIX = np.empty(0)


def _mix_weights(count: int) -> np.ndarray:
    """default_rng(MIX_SEED).uniform(1, 2, count), read off one cached
    table: a shorter draw is a prefix of a longer one, so the table is
    drawn again, at least twice as long, only when a round asks for more.
    It is built on first use, which is when ``numpy.random`` loads."""
    global _MIX
    if len(_MIX) < count:
        _MIX = np.random.default_rng(MIX_SEED).uniform(1.0, 2.0, max(count, 2 * len(_MIX)))
        _MIX.flags.writeable = False
    return _MIX[:count]


def _double_closure(a0: SpectralAlgebra, pair: EndoPair, tol: float) -> "_AtomFrame":
    """The frame on X, which carries X's certification defect
    (:attr:`_AtomFrame.defect`); the seed's class of each atom of X is
    ``frame.classes(a0)``.

    X starts from the seed's atoms, and each round splits them by two
    images of h = sum_x c_x P_x, with fixed weights c.  Round j = 0, 1, ..
    takes U^(2^j) h U*^(2^j) and U*^(2^j) h U^(2^j), the powers by
    squaring, grouped at the gap rule at 2 max(1, ||U||)^(2^(j+1)), while
    2^j < n, that bound is finite (it bounds the images' norms) and some
    atom has rank > 1.  Then rounds of U h U* and U* h U, grouped at the
    gap rule at 2 ||U||^2, run until none splits.  A seed not stored
    by its atoms is a :class:`ModelMismatch`.
    """
    _tolerance(tol)
    if not isinstance(a0, SpectralAlgebra):
        raise ModelMismatch("the seed algebra is not stored by its atoms")
    comm_res = _commutativity_defect([a0])
    if comm_res > LIMITS["relative"](tol):
        raise HypothesisViolated(f"seed algebra is not commutative (residual {comm_res:.3e})")
    v, blocks, nu = a0.v.copy(), a0.blocks, pair.norm

    def mixed():
        return (v * _mix_weights(len(blocks))[_labels(blocks)]) @ dagger(v)

    root = max(1.0, nu)
    reach, power, big = 1, pair.u, root * root  # U^reach, max(1, ||U||)^(2 reach)
    # 2 big bounds the norm of both images
    while reach < pair.ambient_dim and np.isfinite(2.0 * big) and any(
        idx.size > 1 for idx in blocks
    ):
        if reach > 1:
            power = power @ power
        h = mixed()
        for image in (power @ h @ dagger(power), dagger(power) @ h @ power):
            blocks = _refine(v, blocks, image, LIMITS["gap"](tol, 2.0 * big))
        reach, big = 2 * reach, big * big
    count = 0
    while len(blocks) > count and any(idx.size > 1 for idx in blocks):
        count, h = len(blocks), mixed()
        for image in (pair.delta(h), pair.delta_star(h)):
            blocks = _refine(v, blocks, image, LIMITS["gap"](tol, 2.0 * nu * nu))
    return _AtomFrame(a0 if len(blocks) == len(a0.blocks) else _atom_algebra(v, blocks), pair)


def _weak_violation(residual: float) -> HypothesisViolated:
    """The error of a seed that fails the weak hypothesis set, worst
    residual ``residual``."""
    return HypothesisViolated(
        "seed algebra fails the weak hypothesis set "
        f"(worst residual {residual:.3e}); no commutative extension "
        "on which both conjugations are endomorphisms exists"
    )


def _certified(frame: "_AtomFrame", tol: float) -> "_AtomFrame":
    """``frame``, a :func:`_double_closure`, once its defect is within the
    frame rule; beyond it every weak hypothesis reads the defect
    (:func:`_hypotheses`), so it fails them."""
    if not frame.defect <= LIMITS["frame"](tol, frame.pair.norm):
        raise _weak_violation(frame.defect)
    return frame


def _sequence(frame: "_AtomFrame", base: np.ndarray, direction: str):
    """``(levels, stab)``: T_n = alg{T_(n-1), d^n(base)} as partitions of
    X, until a level repeats twice.  d^n maps a class to the images of its
    atoms under delta^n or to their preimages, and the rest of X is the
    class of 1 - d^n(1), joined with T_(n-1) as pairs of classes
    (:func:`_numbered`).  A level equals the one below exactly when its
    class count does; stab is the first n whose level is the limit.
    """
    levels, equal_run = [base], 0
    while equal_run < 2:
        index, mask, depth = frame.gathers(len(levels))
        row = len(levels) + (depth if direction == "star" else 0)
        gathered = np.where(mask[row] > 0, base[index[row]], -1)  # -1 for 1 - d^n(1)
        level = _numbered(levels[-1] * (len(base) + 1) + gathered + 1)
        equal_run = equal_run + 1 if level.max() == levels[-1].max() else 0
        levels.append(levels[-1] if equal_run else level)
    return levels, len(levels) - 3


def _numbered(keys: np.ndarray) -> np.ndarray:
    """The partition of X into atoms with equal ``keys``, classes numbered
    by first appearance, so that one partition has one numbering."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _class_algebra(frame: "_AtomFrame", cls: np.ndarray) -> SpectralAlgebra:
    """The algebra of the class functions of ``cls``, on X's own columns."""
    cols = cls[frame.labels]
    groups = np.split(np.arange(cols.size), np.cumsum(np.bincount(cols))[:-1])
    return _atom_algebra(frame.alg.v[:, np.argsort(cols, kind="stable")], groups)


def _hypotheses(frame: "_AtomFrame", a0: SpectralAlgebra, kmax: int, tol: float):
    """Both hypothesis sets read on X (see the module docstring); every
    residual is the certification defect of X when that fails.  The seed's
    basis is already orthonormal, its class indicators, so delta(A_0) in
    A_0 is its first layer as a member of A_0 (:meth:`_AtomFrame.member`)."""
    limit, defect = LIMITS["frame"](tol, frame.pair.norm), frame.defect
    names = (
        "delta_star_powers_of_1_projections",
        "delta_star_powers_of_1_commute_with_seed",
        "delta_powers_of_seed_commute_with_seed",
        "delta_star_of_1_commutes_with_delta_powers",
        "delta_of_seed_inside_seed",
        "delta_star_of_1_commutes_with_seed",
    )
    residuals = [defect] * len(names)
    if defect <= limit:
        values, ties = frame.basis_coords(a0)
        q, q_ties, q_off = frame.powers(kmax)[3]
        idempotent, hermitian = _projection_defects(q, q_ties)
        fwd, fwd_ties = frame.layers(values, ties, "forward", kmax)
        seed, rows = _rows(fwd[:1], fwd_ties[:1]), _rows(fwd, fwd_ties)
        q_rows = [_spread(q), q_ties, q_off]
        q1 = [r[:1] for r in q_rows]  # Q_0 = 1 is exact, and commutes
        residuals = [
            np.maximum(idempotent, hermitian).max(initial=0.0),
            _commutator_max(q_rows, seed),
            _commutator_max(seed, rows),
            _commutator_max(q1, rows),
            frame.member(fwd[1], 2.0 * fwd_ties[1], a0) if kmax else 0.0,
            _commutator_max(q1, seed),
        ]
    residuals = [float(res) for res in residuals]
    weak, strong = max(residuals[:4]), max(residuals[:1] + residuals[4:])
    return HypothesesReport(
        kmax=kmax, weak_holds=weak <= limit, strong_holds=strong <= limit, weak_residual=weak,
        strong_residual=strong, details=dict(zip(names, residuals)),
    )


@dataclass(frozen=True)
class TowerReport:
    """Everything build_tower produces.

    ``an_list`` and ``na_list`` are the forward and star sequences up to
    confirmed stabilization; ``n_a_inf_list`` is the star sequence started
    from a_inf (its limit is the double closure inf_a_inf);
    ``a_inf_of_inf_a`` is the forward limit of inf_a, which should equal
    inf_a_inf.  ``stabilization`` maps sequence names to the first index at
    which the sequence has reached its limit; every level is read on the
    atoms of the double closure, ``_frame``.
    """

    a0: SpectralAlgebra
    an_list: list[SpectralAlgebra]
    na_list: list[SpectralAlgebra]
    n_a_inf_list: list[SpectralAlgebra]
    a_inf: SpectralAlgebra
    inf_a: SpectralAlgebra
    inf_a_inf: SpectralAlgebra
    a_inf_of_inf_a: SpectralAlgebra
    stabilization: dict[str, int]
    hypotheses: HypothesesReport
    checks: dict[str, tuple[bool, float]]
    _frame: "_AtomFrame" = field(default=None, repr=False, compare=False)


def build_tower(a0: SpectralAlgebra, pair: EndoPair, tol: float = DEFAULT_TOL) -> TowerReport:
    """Construct both towers, their limits, and the double closures.

    The seed must be stored by its atoms (:class:`ModelMismatch`
    otherwise) and satisfy the weak hypothesis set (raises
    :class:`HypothesisViolated` otherwise); whether the strong set also
    holds is recorded in the report.  Each level is a partition of X (:func:`_sequence`), one
    algebra per partition, read in the next by a class residual on X.
    """
    return _build_tower(a0, pair, tol, _double_closure(a0, pair, tol))


def _build_tower(a0: SpectralAlgebra, pair: EndoPair, tol: float, frame: _AtomFrame) -> TowerReport:
    """:func:`build_tower` on ``frame``, the seed's :func:`_double_closure`."""
    hyp = _hypotheses(frame, a0, pair.ambient_dim, tol)
    if not hyp.weak_holds:
        raise _weak_violation(hyp.weak_residual)
    seed = frame.classes(a0)[0]  # cached by the hypotheses
    algebras = {tuple(range(frame.size)): frame.alg}
    algebras.setdefault(tuple(seed), a0)

    def tower(base, direction):
        parts, stab = _sequence(frame, base, direction)
        for cls in parts:
            if tuple(cls) not in algebras:
                level = algebras[tuple(cls)] = _class_algebra(frame, cls)
                frame._classes[id(level)] = (cls, 0.0, level)  # X's own columns, exactly
        return [algebras[tuple(cls)] for cls in parts], stab, parts[-1]

    an_list, stab_an, fwd = tower(seed, "forward")
    na_list, stab_na, star = tower(seed, "star")
    an_list[0] = na_list[0] = a0
    n_a_inf_list, stab_dbl, _ = tower(fwd, "star")
    fwd_of_star, stab_dbl2, _ = tower(star, "forward")
    _, _, (p, p_ties, _), (q, q_ties, _) = frame.powers(1)
    worst = {
        "final_projection_member": frame.member(p, p_ties, n_a_inf_list[-1]),
        "initial_projection_member": frame.member(q, q_ties, n_a_inf_list[-1]),
    }
    for name, seq in (("monotone_forward", an_list), ("monotone_star", na_list)):
        pairs = [(lo, hi) for lo, hi in zip(seq, seq[1:]) if lo is not hi]
        worst[name] = max((frame.member(*frame.basis_coords(lo), hi) for lo, hi in pairs),
                          default=0.0)
    limit = LIMITS["frame"](tol, frame.pair.norm)
    checks = {name: (res <= limit, res) for name, res in worst.items()}

    stabs = (stab_an, stab_na, stab_dbl, stab_dbl2)
    names = ("forward", "star", "star_from_forward_limit", "forward_from_star_limit")
    return TowerReport(
        a0=a0, an_list=an_list, na_list=na_list, n_a_inf_list=n_a_inf_list,
        a_inf=an_list[-1], inf_a=na_list[-1], inf_a_inf=n_a_inf_list[-1],
        a_inf_of_inf_a=fwd_of_star[-1], stabilization=dict(zip(names, stabs)),
        hypotheses=hyp, checks=checks, _frame=frame,
    )


@dataclass(frozen=True)
class TheoremReport:
    """Named residual checks for the tower theorems; all report-only."""

    checks: dict[str, tuple[bool, float]]
    seed_layers_checked: bool

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.checks.values())


def _gram_facts(blocks, images, sizes) -> tuple:
    """``(fro, q_in, p, p_in)`` for a run of powers k of
    :meth:`_AtomFrame.powers`, given D^k's blocks and delta^k: the blocks'
    squared Frobenius norms, q_k's Gram defects, and p_k with its Gram
    defects (D^k D^k* in the rows of delta^k(x), atom -1 last: an injection
    wherever p is read)."""
    fro = (blocks.real * blocks.real + blocks.imag * blocks.imag).sum(axis=(-2, -1))
    eye = np.arange(blocks.shape[-1]) < sizes[:, None]
    at = (np.arange(len(blocks))[:, None], images)
    p = np.zeros((len(blocks), len(sizes) + 1))
    gram = np.zeros((len(blocks), len(sizes) + 1, *blocks.shape[-2:]), dtype=np.complex128)
    p[at], gram[at] = fro, blocks @ dagger(blocks)
    p = p[:, :-1] / sizes
    q_in = _gram_defects(dagger(blocks) @ blocks, (fro / sizes)[..., None] * eye).max(axis=1)
    return fro, q_in, p, _gram_defects(gram[:, :-1], p[..., None] * eye).max(axis=1)


def _first_facts(first, block, image, idx) -> tuple:
    """``(l_k, ||F_k||_F, ||L_k D^k* + D^k L_k*||_F)`` of :meth:`_AtomFrame.powers`
    for L_k (:func:`linalg._bordered`), D^k's blocks and delta^k: F_k = X + X*
    for X = D^k* L_k, and Y + Y* for Y = D^k L_k*, the adjoint of L_k D^k*."""
    own, first, block, image = np.arange(len(block)), first[None], block[None], image[None]
    pairs = (_push(dagger(block), own, image, first, idx), _push(block, image, own, dagger(first), idx))
    return (_split_norm_bound(first[0]), *(float(_norm_f(x + dagger(x))[0]) for x in pairs))


class _AtomFrame:
    """The atoms X of a commutative algebra, with U in their basis.

    An element read in this frame is rotated into the basis v and written
    as a vector over X, its atom values, plus its tie: a bound on its
    distance from that atom function, from block norms with no SVD
    (:meth:`atom_images`, :meth:`powers`).  Vector algebra on X is under
    the trace inner product, whose weights are the atom ranks, and the
    operator norm of an atom function is its largest value.
    """

    def __init__(self, alg: SpectralAlgebra, pair: EndoPair):
        self.alg = alg
        self.labels = alg.labels
        self.ranges = alg._ranges
        self.ranks = self.ranges[1].astype(float)
        w = alg._vh @ pair.u @ alg.v
        self.u = {"forward": w, "star": dagger(w)}
        self.nu2 = pair.norm * pair.norm
        self.pair = pair
        self._maps: dict[str, tuple] = {}
        self._classes: dict[int, tuple] = {}
        self._bases: dict[bytes, np.ndarray] = {}
        self._facts: dict[int, dict] = {}
        self._images = np.empty((0, self.size), dtype=int)
        self._powers = self._tables = None
        # each atom's columns padded with -1 to the largest rank, then atom
        # -1's; -1 reads the zero border of the arrays of linalg._bordered
        width = int(self.ranges[1].max(initial=0))
        self.idx = np.concatenate((_runs(*self.ranges, width), np.full((1, width), -1)))

    @property
    def size(self) -> int:
        return self.ranks.size

    def layers(self, values: np.ndarray, ties: np.ndarray, direction: str, depth: int):
        """``(values, ties)`` of d^k(f), k = 0..depth, for the rows f of
        ``values`` with ties ``ties``: gathers through the powers of delta,
        a complex (depth + 1, rows, atoms) array and a (depth + 1, rows)
        one, whose layer 0 is f itself.

        With W^k = D_k + R_k as in :meth:`powers`, D_k f = g D_k and
        D_k* f = g' D_k* for g, g' the gathers of f through delta^k and
        delta_*^k (:meth:`gathers`), 0 off their ranges.  So delta^k(f) = W^k f W^k* is
        g P_k + (R_k f - g R_k) W^k*, and R_k f - g R_k = R_k (f - c) -
        (g - c) R_k for any c; likewise delta_*^k(f) with g' and Q_k.
        The tie adds max |f| tie(P_k) + 2 r V tau_k + V^2 tie(f), r the radius
        of a disc holding f's values and 0, V = max(1, ||U||)^depth >= ||W^k||,
        and bounds the off-block norms too.  Every layer is one gather, from
        the identity row of :meth:`gathers` on, so its readers index or
        reshape the pair in place."""
        _, taus, *projections = self.powers(depth)
        proj, proj_ties, _ = projections[direction == "star"]
        index, mask, top = self.gathers(depth)
        big = max(1.0, np.sqrt(self.nu2)) ** depth
        size = np.abs(values).max(axis=1, initial=0.0)
        span = [v.max(axis=1, initial=0.0) - v.min(axis=1, initial=0.0)
                for v in (values.real, values.imag)]
        rows = np.arange(depth + 1) + (top if direction == "star" else 0)
        gathered = values.astype(np.complex128)[np.arange(len(values))[:, None], index[rows, None]]
        gathered[1:] *= (mask[rows[1:]] * proj)[:, None, :]
        tie = np.empty((depth + 1, len(values)))
        tie[0] = ties
        tie[1:] = size * proj_ties[:, None] + (big * taus)[:, None] * np.hypot(*span)
        tie[1:] += big * big * ties
        return gathered, tie

    def atom_images(self, m: np.ndarray, ranges) -> tuple[np.ndarray, np.ndarray]:
        """``(t, ties)`` for the images m P_s m* of the atoms s of m's columns,
        given by their ``ranges``, with m's rows in the basis v: atom values
        t[x, s] = S[x, s] / rank x on X, S[x, s] the squared Frobenius norm
        of m's block in the rows of x and the columns of s, and ties[s].

        An atom x with t[x, s] > 1/2 is owned by s, and m P_s = B + R splits
        into the rows of the atoms s owns and the rest: with T the values on
        B's rows, m P_s m* - sum_x t[x, s] P_x is (B B* - T) + (B R* + R B*)
        + (R R* - the sum over the other atoms).  The middle part has its
        terms in disjoint blocks, so norm ||B R*|| <= b r, b = ||B||_F and
        r = ||R||_F from S (operator norms on rank 1); the last is at most
        r^2, as a difference of two positive matrices of norm at most r^2;
        c = ||B B* - T||_F is from the owned rows' Gram, 0 on rank 1.  The
        tie is c + b r + r^2 off the atoms plus max(c, r^2) inside one, as
        the dense tie (off-atom norm plus largest Frobenius defect inside an
        atom) was, and never below it.  O(n^2), with no SVD."""
        starts, sizes = ranges
        norms = _block_norms(m, self.ranges, ranges)
        t = norms / self.ranks[:, None]
        best = t.argmax(axis=1)
        owner = np.where(t[np.arange(self.size), best] > 0.5, best, -1)
        owned = owner[:, None] == np.arange(len(starts))
        b2, r2 = np.where(owned, norms, 0.0).sum(axis=0), np.where(owned, 0.0, norms).sum(axis=0)
        rows = owner[self.labels]  # the column atom owning each row of m
        order = np.argsort(rows, kind="stable")
        counts = np.bincount(rows[rows >= 0], minlength=len(starts))
        at = _runs(np.searchsorted(rows[order], np.arange(len(starts))), counts, counts.max())
        picked = np.where(at >= 0, order[at], -1)
        block = _gather_blocks(m, picked, _runs(starts, sizes, sizes.max()))
        diag = np.where(at >= 0, t[self.labels[picked], np.arange(len(starts))[:, None]], 0.0)
        c = _gram_defects(block @ dagger(block), diag)
        return t, c + np.sqrt(b2 * r2) + r2 + np.maximum(c, r2)

    def atom_map(self, direction: str):
        """``(t, ties, intertwining)`` for d = delta or delta_*: column x of t
        holds the atom values of d(P_x), ties[x] bounds ||d(P_x) -
        sum_y t[y, x] P_y|| (:meth:`atom_images` of w = W, or W*), and
        intertwining is the largest ||U b - delta(b) U|| (or ||U* b -
        delta_*(b) U*||) over b = P_x / sqrt(rank P_x).  In the frame
        U P_x - delta(P_x) U is w_x g_x, w_x = w P_x and g_x the rows of x
        of 1 - w* w; its Frobenius norm squared is tr(w_x* w_x g_x g_x*),
        from two rank x Grams and one Gram w* w for all atoms, exact on
        rank 1."""
        if direction not in self._maps:
            w = self.u[direction]
            t, ties = self.atom_images(w, self.ranges)
            gram, rows = _bordered(dagger(w) @ w), self.idx[:-1]
            gap = (np.eye(len(gram)) - gram)[rows]  # padding meets zero Gram entries
            sq = gram[rows[:, :, None], rows[:, None, :]] * (gap @ dagger(gap)).transpose(0, 2, 1)
            inter = np.sqrt(np.maximum(sq.sum(axis=(-2, -1)).real, 0.0) / self.ranks)
            self._maps[direction] = (t, ties, float(inter.max(initial=0.0)))
        return self._maps[direction]

    def injection(self, direction: str):
        """``(pre, hit, defect)``: d = delta or delta_* maps atom pre[y] to
        atom y where hit[y], and no atom to y elsewhere; defect is how far
        d's atom map is from that 0/1 map (entries off 0 and 1, ties,
        intertwining, atoms hit twice)."""
        t, ties, intertwining = self.atom_map(direction)
        ones = t.real > 0.5
        defect = max(
            float(np.abs(t - ones).max(initial=0.0)),
            float((ones.sum(axis=1) - 1).max(initial=0)),
            float(ties.max(initial=0.0)),
            intertwining,
        )
        return ones.argmax(axis=1), ones.any(axis=1), defect

    @cached_property
    def defect(self) -> float:
        """The certification defect: how far delta and delta_* act on X
        as a partial injection and its inverse (:meth:`injection`)."""
        return max(self.injection(d)[2] for d in ("forward", "star"))

    def images(self, depth: int) -> np.ndarray:
        """delta^k as an atom map, k = 1..depth, in rows k - 1: the atom
        delta^k(P_x) is, -1 where delta^k(P_x) = 0."""
        if len(self._images) < depth:
            pre, hit, _ = self.injection("forward")
            step = np.full(self.size + 1, -1)  # step[-1] keeps -1 (no atom) at -1
            step[pre[hit]] = np.flatnonzero(hit)
            rows = list(self._images) or [step[:-1]]
            while len(rows) < depth:
                rows.append(step[rows[-1]])
            self._images = np.array(rows)
        return self._images[:depth]

    def powers(self, depth: int):
        """``(images, ties, p, q)`` for the powers W^k, k = 1..depth, of U in
        this frame, W = V*UV, in rows k - 1: images[k - 1] is delta^k as an
        atom map (:meth:`images`), ties[k - 1] = tau_k >= ||W^k - D^k|| for
        D^k the products of D, W's blocks in (delta(x), x), along delta's
        orbits, and p, q the coordinates ``(values, ties, off)`` of
        P_k = W^k W^k* and Q_k = W^k* W^k = delta_*^k(1).

        No power of W is formed.  With R = W - D, W^k = D^k + L_k + M_k for
        L_1 = R, L_k = D L_(k-1) + R D^(k-1) (row and column gathers,
        formed only when R != 0) and M_k = W M_(k-1) + R L_(k-1), M_1 = 0: L_k, the
        first order, is exact and stays bounded where R only turns the
        basis (L_k = D^k A - A D^k), and ||M_k|| <= m_k = ||W|| m_(k-1) +
        l_1 l_(k-1), l_k >= ||L_k|| (:func:`linalg._split_norm_bound`), so
        tau_k = l_k + m_k.  On a certified frame, the only kind whose p and
        q are read, delta is a partial injection and Q_k = D^k* D^k + F_k +
        G_k: D^k* D^k is block diagonal, F_k = D^k* L_k + L_k* D^k is formed
        and 0 inside the atoms, and ||G_k|| <= g_k = l_k^2 + 2 (d_k + l_k)
        m_k + m_k^2, d_k the largest Frobenius norm of a block of D^k.  So
        q_k[x] is x's Gram block's squared Frobenius norm over rank x, the
        tie its largest Frobenius defect from q_k[x] 1 plus ||F_k||_F + g_k,
        and off ||F_k||_F + 2 g_k; P_k likewise from D^k D^k*.  The blocks
        of a run of powers are one array of at most ``_BLOCK`` entries, or
        one power; cached at the largest depth asked for."""
        if self._powers is None or len(self._powers[0]) < depth:
            depth = max(depth, 1)
            images, idx = self.images(depth), self.idx
            w, sizes, image, at = self.u["forward"], self.ranges[1], images[0], idx[:-1]
            step = _gather_blocks(w, idx[image], at)
            step = np.concatenate((step, np.zeros_like(step[:1])))  # image -1 reads no block
            rest = _bordered(w)
            rest[idx[image][:, :, None], at[:, None, :]] = 0.0
            moved, cols = rest.any(), rest[:, idx].transpose(1, 0, 2)  # else W^k = D^k
            block, first, parts, facts = step[:-1], rest, [], []
            chunk = max(1, _BLOCK // step.size)
            for lo in range(0, depth, chunk):  # D^k for a run of powers, L_k one at a time
                blocks = np.empty((min(chunk, depth - lo), *block.shape), dtype=np.complex128)
                for j, k in enumerate(range(lo, lo + len(blocks))):
                    if k and moved:  # L_k = D L_(k-1) + R D^(k-1)
                        first, prev = np.zeros_like(rest), first
                        first[idx[image]] = step[:-1] @ prev[at]
                        first[:, at] += (cols[images[k - 1]] @ block).transpose(1, 0, 2)
                    if k:
                        block = step[images[k - 1]] @ block
                    blocks[j] = block
                    facts += [_first_facts(first, block, images[k], idx)] if moved else []
                parts.append(_gram_facts(blocks, images[lo : lo + len(blocks)], sizes))
            fro, q_in, p, p_in = (np.concatenate(part) for part in zip(*parts))
            l, fq, fp = np.array(facts).T if moved else np.zeros((3, depth))
            d, m, ls = np.sqrt(fro.max(axis=1)), [0.0], l.tolist()
            for k in range(1, depth):
                m.append(self.pair.norm * m[-1] + ls[0] * ls[k - 1])
            m = np.array(m)
            g = l * l + 2.0 * (d + l) * m + m * m
            self._powers = (images, l + m, (p, p_in + fp + g, fp + 2.0 * g),
                            (fro / sizes, q_in + fq + g, fq + 2.0 * g))
        images, ties, p, q = self._powers
        return images[:depth], ties[:depth], *(tuple(x[:depth] for x in pq) for pq in (p, q))

    def gathers(self, degree: int) -> tuple[np.ndarray, np.ndarray, int]:
        """``(index, mask, depth)``: row k of ``index`` gathers delta^k
        (delta^k(alpha) = alpha[index[k]] * mask[k]) and row depth + k
        delta_*^k, k < depth, with mask P_k = delta^k(1), Q_k = delta_*^k(1);
        depth starts at the dimension and grows past ``degree``."""
        if self._tables is None or self._tables[2] <= degree:
            depth = max(degree + 1, self.alg.dim)
            images = self.images(depth - 1)
            on = images >= 0
            power, atom = np.nonzero(on)
            index = np.zeros((2 * depth, self.size), dtype=int)
            mask = np.zeros((2 * depth, self.size))
            index[0] = index[depth] = np.arange(self.size)
            mask[0] = mask[depth] = 1.0
            index[power + 1, images[power, atom]] = atom
            mask[power + 1, images[power, atom]] = 1.0
            index[depth + 1 :], mask[depth + 1 :] = np.where(on, images, 0), on
            self._tables = (index, mask, depth)
        return self._tables

    @cached_property
    def vanish(self) -> int | None:
        """The least k with P_k = 0, None when no power of U vanishes; a
        chain of atoms is at most |X| long, so it is at most |X|."""
        gone = np.flatnonzero((self.images(self.size) < 0).all(axis=1))
        return int(gone[0]) + 1 if gone.size else None

    def classes(self, level: SpectralAlgebra) -> tuple[np.ndarray, float]:
        """The class of each atom of X under the atoms of ``level`` (the one
        covering most of it), and the largest tie of level's atoms: how far
        they are from the unions of atoms of X they stand for
        (:meth:`atom_images`)."""
        key = id(level)
        if key not in self._classes:
            if level is self.alg:
                self._classes[key] = (np.arange(self.size), 0.0, level)
            else:
                t, ties = self.atom_images(self.alg._vh @ level.v, level._ranges)
                _, cls = np.unique(t.argmax(axis=1), return_inverse=True)
                self._classes[key] = (cls, float(ties.max()), level)
        return self._classes[key][:2]

    def basis_coords(self, alg: SpectralAlgebra) -> tuple[np.ndarray, np.ndarray]:
        """``(values, ties)`` of alg's basis on X: class indicators with the
        class tie."""
        cls, eps = self.classes(alg)
        return self.class_basis(cls), np.full(cls.max() + 1, eps)

    def class_basis(self, cls: np.ndarray) -> np.ndarray:
        """Class indicators, orthonormal under the trace inner product: one
        read-only array per class array, built on its first read."""
        key = cls.tobytes()
        if key not in self._bases:
            self._bases[key] = _class_basis(cls, self.ranks)
        return self._bases[key]

    def class_defects(self, values: np.ndarray, cls: np.ndarray) -> np.ndarray:
        """The rows of ``values`` minus their rank-weighted class means."""
        basis = self.class_basis(cls)  # real, its own conjugate
        return values - ((values * self.ranks) @ basis.T) @ basis

    def class_residual(self, values: np.ndarray, cls: np.ndarray) -> float:
        """Largest atom value of the rows minus their rank-weighted class
        means: their defect from the coarser algebra of class functions."""
        return float(np.abs(self.class_defects(values, cls)).max(initial=0.0))

    def member(self, values: np.ndarray, ties, level) -> float:
        """Bound on the distance of elements, atom values ``values`` plus
        ``ties``, from ``level``: a :class:`SpectralAlgebra`, read by its
        classes and their tie (:meth:`classes`), or a partition of X, exact.
        0 for no rows."""
        if not len(values):
            return 0.0
        cls, eps = self.classes(level) if isinstance(level, SpectralAlgebra) else (level, 0.0)
        return self.class_residual(values, cls) + float(np.max(ties)) + eps

    def span_basis(self, values: np.ndarray, ties: np.ndarray):
        """Rows orthonormal under the trace inner product that span the
        rows of ``values``, with their ties."""
        root = np.sqrt(self.ranks)
        left, s, vh = np.linalg.svd(values * root, full_matrices=False)
        keep = s > DROP_THRESHOLD * max(1.0, float(s[0]))
        coef = dagger(left[:, keep]) / s[keep][:, None]
        return vh[keep] / root, np.abs(coef) @ ties

    def span_residuals(self, values: np.ndarray, basis: np.ndarray) -> float:
        """Largest atom value of the rows minus their trace-orthogonal
        projection on the span of the orthonormal rows of ``basis``."""
        proj = ((values * self.ranks) @ dagger(basis)) @ basis
        return float(np.abs(values - proj).max(initial=0.0))


def _class_basis(cls: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """:meth:`_AtomFrame.class_basis`, built."""
    onehot = (cls[None, :] == np.arange(cls.max() + 1)[:, None]).astype(float)
    basis = onehot / np.sqrt(np.maximum(onehot @ ranks, 1.0))[:, None]  # a class may be empty
    basis.flags.writeable = False
    return basis


def _power_facts(frame: _AtomFrame, kmax: int) -> dict:
    """The facts about the powers W^k of U, k = 1..kmax, that the isometry
    reports and ``theorem22_report`` read, bounded on the atoms of the
    certified ``frame``.  As in :meth:`_AtomFrame.powers`, W^k = D_k + R_k
    with D_k one block per atom x in the block row of delta^k(x),
    ||R_k|| <= tau_k, and P_k = W^k W^k*, Q_k = W^k* W^k are atom vectors
    p_k, q_k plus ties.  With V = max(1, ||U||)^kmax >= ||W^k||:

    * ``powers`` (per k): the five conditions on W^k.  The spectra of the
      Hermitian parts of Q_k and P_k lie within their ties of Re q_k and
      Re p_k (Weyl); Q_k^2 - Q_k and P_k^2 - P_k are bounded as in
      :func:`_projection_defects`; and W^k W^k* W^k - W^k = W^k (Q_k - 1)
      = D_k (q_k - 1) + R_k (q_k - 1) + W^k (Q_k - q_k), whose block part
      reads q_k - 1 only on the atoms delta^k is defined on;
    * ``commute`` (rows l, columns k): [Q_l, P_k] (:func:`_commutator_bounds`);
    * ``reduction``: U* U^k U*^l - U^(k-1) U*^l = (Q_1 - 1) U^(k-1) U*^l
      for 1 <= k <= l, whose block part maps delta^l(x) to delta^(k-1)(x),
      an atom delta is defined on, so only |q_1 - 1| on those atoms enters it;
    * ``initial_chain``, ``final_chain``: the Q- and P-chains
      (:func:`_chain_defect`), ``initial_hermitian``: Q_k - Q_k*, and
      ``final_idempotent``: P_k^2 - P_k.

    They are computed once per frame and kmax; the arrays are read-only.
    """
    if kmax not in frame._facts:
        facts = _derive_power_facts(frame, kmax)
        for v in facts.values():
            if isinstance(v, np.ndarray):
                v.flags.writeable = False
        frame._facts[kmax] = facts
    return frame._facts[kmax]


def _derive_power_facts(frame: _AtomFrame, kmax: int) -> dict:
    """:func:`_power_facts`, computed."""
    images, taus, (p, p_ties, p_off), (q, q_ties, q_off) = frame.powers(kmax)
    big = max(1.0, np.sqrt(frame.nu2)) ** kmax
    tau = float(taus.max())
    gap = np.abs(q - 1.0)
    near = np.where(images >= 0, gap, 0.0).max(axis=1)
    q_idempotent, q_hermitian = _projection_defects(q, q_ties)
    p_idempotent, _ = _projection_defects(p, p_ties)
    pairs = ((q, q_ties), (p, p_ties))
    spectra = [np.minimum(abs(x.real), abs(x.real - 1.0)).max(axis=1) + t for x, t in pairs]
    triple = near * (big + taus) + gap.max(axis=1) * taus + q_ties * big
    return {
        "powers": np.maximum.reduce([*spectra, q_idempotent, p_idempotent, triple]),
        "commute": _commutator_bounds((_spread(q), q_ties, q_off), (_spread(p), p_ties, p_off)),
        "reduction": near[0] * (big + tau) ** 2 + gap[0].max() * tau * (2.0 * big + tau)
        + q_ties[0] * big * big,
        "initial_chain": _chain_defect(q, q_ties),
        "final_chain": _chain_defect(p, p_ties),
        "initial_hermitian": float(q_hermitian.max()),
        "final_idempotent": float(p_idempotent.max()),
    }


def _unit_closure(pair: EndoPair, tol: float) -> _AtomFrame:
    """The frame on the atoms of the double closure of C*(1) under u, with
    its certification defect (:func:`_double_closure`).  This needs
    neither a relation nor |a|, and by Halmos-Wallen every power of a
    partial isometry u is one exactly when u is a sum of a unitary and
    truncated shifts, which is when this closure is certified."""
    n = pair.ambient_dim
    one = _atom_algebra(np.eye(n, dtype=np.complex128), [np.arange(n)])
    return _double_closure(one, pair, tol)


def _unit_classes(frame: _AtomFrame) -> _AtomFrame:
    """:func:`_unit_closure` read on ``frame``, a certified
    :func:`_double_closure` of a seed with 1: C*(1) lies in the seed, so
    its double closure is the partition of X that P_k = delta^k(1) and
    Q_k = delta_*^k(1), k < depth (:meth:`_AtomFrame.gathers`), generate.
    Both decrease in k, so two counts class an atom: its distance to the
    start and to the end of its chain, depth on a cycle.  A discrete
    partition is X, with X's frame; a coarser one gets a frame on X's
    columns, certified by its own defect."""
    _, mask, depth = frame.gathers(1)
    start, end = (mask > 0).reshape(2, depth, -1).sum(axis=1)
    cls = _numbered(start * (depth + 1) + end)
    if cls.max(initial=-1) + 1 == frame.size:
        return frame
    return _AtomFrame(_class_algebra(frame, cls), frame.pair)


def _free_pair(v) -> EndoPair:
    """v with ||v||, unchecked but finite, as the isometry reports read it;
    a copy, since an EndoPair freezes its array."""
    um = np.array(_finite(as_matrix(v), "v"))
    return EndoPair(u=um, ambient_dim=len(um), norm=operator_norm(um))


@dataclass(frozen=True)
class PowerIsometryReport:
    """Joint check of two equivalent statements about the powers of v:
    (powers) every v^k is a partial isometry, and (family) the initial
    projections v*^k v^k form a commuting decreasing projection family.
    ``equivalent`` records that the two booleans agree, which the theory
    guarantees; a False means a tolerance straddle."""

    kmax: int
    powers_ok: bool
    family_ok: bool
    worst_power: float
    worst_family: float

    @property
    def equivalent(self) -> bool:
        return self.powers_ok == self.family_ok


def _power_isometry(frame: _AtomFrame, kmax: int, tol: float):
    """:func:`power_isometry_check` on the closure ``frame``."""
    limit, defect = LIMITS["frame"](tol, frame.pair.norm), frame.defect
    if not defect <= limit:
        return PowerIsometryReport(kmax, False, False, defect, defect)
    facts = _power_facts(frame, kmax)
    worst_power = float(facts["powers"].max())
    worst_family = max(facts["initial_chain"], facts["initial_hermitian"])
    verdicts = (worst_power <= limit, worst_family <= limit)
    return PowerIsometryReport(kmax, *verdicts, worst_power, worst_family)


def power_isometry_check(v, kmax: int, tol: float = DEFAULT_TOL) -> PowerIsometryReport:
    """Check powers-are-partial-isometries against the projection-family
    characterization, for k = 1..kmax, on the atoms of C*(1)'s double
    closure under v (:func:`_power_facts`) against the frame rule at ||v||.
    When that closure is not certified, both fail with its defect."""
    kmax = _count(kmax, "kmax", 1)
    return _power_isometry(_unit_closure(_free_pair(v), tol), kmax, tol)


@dataclass(frozen=True)
class CommutingProjectionReport:
    kmax: int
    commutant_residual: float
    reduction_residual: float
    family_residual: float
    passed: bool


def _commuting_projections(frame: _AtomFrame, kmax: int, tol: float):
    """:func:`commuting_projection_properties` on the closure ``frame``."""
    limit, defect = LIMITS["frame"](tol, frame.pair.norm), frame.defect
    if not defect <= limit:
        raise HypothesisViolated(f"C*(1)'s double closure under v is not certified ({defect:.3e})")
    facts = _power_facts(frame, kmax)
    if not facts["powers"][0] <= limit:
        raise HypothesisViolated(f"v is not a partial isometry (residual {facts['powers'][0]:.3e})")
    bad = np.flatnonzero(~(facts["commute"][0] <= limit))
    if bad.size:
        k, res = bad[0] + 1, facts["commute"][0, bad[0]]
        raise HypothesisViolated(f"[v*v, v^{k} v*^{k}] has norm up to {res:.3e}, beyond tolerance")
    residuals = (float(facts["commute"].max()), float(facts["reduction"]), facts["final_chain"])
    return CommutingProjectionReport(kmax, *residuals, passed=max(residuals) <= limit)


def commuting_projection_properties(
    v, kmax: int, tol: float = DEFAULT_TOL
) -> CommutingProjectionReport:
    """Consequences of [v*v, v^k v*^k] = 0 for a partial isometry v.

    Requires that hypothesis up to kmax (raises
    :class:`HypothesisViolated` naming the first offending k, or the
    defect of C*(1)'s double closure under v when that is not certified);
    then checks that each v*^l v^l commutes with the whole final-projection
    family, the reduction identity v* v^k v*^l = v^(k-1) v*^l for
    1 <= k <= l, and that {v^k v*^k} is a commuting decreasing projection
    family, all on that closure's atoms, as in :func:`power_isometry_check`.
    """
    kmax = _count(kmax, "kmax", 1)
    return _commuting_projections(_unit_closure(_free_pair(v), tol), kmax, tol)


def _spread(values: np.ndarray) -> np.ndarray:
    """Per row (the last axis), the diameter of a box holding its values."""
    re, im = values.real, values.imag
    return np.hypot(re.max(axis=-1) - re.min(axis=-1), im.max(axis=-1) - im.min(axis=-1))


def _commutator_bounds(one: tuple, other: tuple) -> np.ndarray:
    """Bounds on ||[x, y]|| for the rows x of ``one`` and y of ``other``,
    each given as ``(spread, ties, off)``.

    For elements f + E, g + F with f, g atom functions, [f, g] = 0 and f
    commutes with the part of F inside the atoms, so the commutator is
    [f, F_off] + [E_off, g] + [E, F], and ||[f, O]|| <= spread(f) ||O||.
    """
    (s1, t1, o1), (s2, t2, o2) = one, other
    return np.multiply.outer(s1, o2) + np.multiply.outer(o1, s2) + 2.0 * np.multiply.outer(t1, t2)


def _rows(values: np.ndarray, ties: np.ndarray) -> list:
    """``(spread, ties, off)`` of the rows of :meth:`_AtomFrame.layers`,
    layer by layer, for a commutator bound; a tie bounds the off part too."""
    ties = ties.reshape(-1)
    return [_spread(values).reshape(-1), ties, ties]


def _commutator_max(one: list, other: list, layer=None) -> float:
    """The largest of :func:`_commutator_bounds` over the rows of ``one``
    against those of ``other``, formed for blocks of rows of ``one`` of at
    most ``_BLOCK`` entries, or for one row.  Given ``layer``, the
    ascending layer of each row (``one`` is then ``other``), only pairs
    whose row of ``one`` lies in a lower layer count."""
    worst, start, low = 0.0, 0, 0
    while start < len(one[0]):
        if layer is not None:
            low = int(np.searchsorted(layer, layer[start], side="right"))
        end = start + max(1, _BLOCK // max(1, len(other[0]) - low))
        bound = _commutator_bounds([x[start:end] for x in one], [x[low:] for x in other])
        if layer is not None:
            bound = np.where(layer[start:end, None] < layer[None, low:], bound, 0.0)
        worst = max(worst, float(bound.max(initial=0.0)))
        start = end
    return worst


def _projection_defects(values: np.ndarray, ties: np.ndarray):
    """Per row, bounds on ||X^2 - X|| and ||X - X*|| for X = x + E with x
    the atom function of the row's values and ||E|| <= its tie:
    X^2 - X = x^2 - x + (x - 1/2) E + E (x - 1/2) + E^2, and
    X - X* = 2i Im x + E - E*."""
    idempotent = np.abs(values * values - values).max(axis=1)
    idempotent += 2.0 * np.abs(values - 0.5).max(axis=1) * ties
    return idempotent + ties * ties, 2.0 * (np.abs(values.imag).max(axis=1) + ties)


def _chain_defect(values: np.ndarray, ties: np.ndarray) -> float:
    """Bound on ||X_k X_l - X_k|| and ||X_l X_k - X_k|| over l <= k for
    X_k = values[k] + E_k, ||E_k|| <= ties[k]: the products of atom
    functions commute, and the rest is x_k E_l + E_k (x_l - 1) + E_k E_l.
    The products x_k x_l - x_k, l <= k, are formed for blocks of rows k
    of at most ``_BLOCK`` (l, atom) entries, or for one row."""
    count, atoms = values.shape
    norms, lower = np.abs(values).max(axis=1), np.abs(values - 1.0).max(axis=1)
    step = max(1, _BLOCK // max(1, count * atoms))
    worst = 0.0
    for k in range(0, count, step):
        x, end = values[k : k + step], min(count, k + step)
        prods = np.abs(x[:, None, :] * values[None, :end, :] - x[:, None, :]).max(axis=-1)
        t, near = ties[k:end, None], ties[None, :end]
        bound = prods + norms[k:end, None] * near + t * lower[None, :end] + t * near
        worst = max(worst, float(np.tril(bound, k).max(initial=0.0)))
    return worst


def _layer_classes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(cover, cls)`` of a layer's rows, the first axis of ``values``
    (further axes index layers): each row is a class indicator gathered
    through delta^k (:meth:`_AtomFrame.layers`), so the rows have disjoint
    supports; cover[x] = |h(x)| for the row h covering x, and cls puts x in
    h's class, or in one more class where no row covers it."""
    mags = np.abs(values)
    cover = mags.max(axis=0, initial=0.0)
    return cover, np.where(cover > 0, mags.argmax(axis=0), len(values))


def _layer_product_defect(frame: _AtomFrame, values: np.ndarray, ties: np.ndarray) -> float:
    """Worst residual of layer_k . layer_l against span(layer_k), l <= k,
    plus the ties of the factors, with no product formed.

    For a row g of layer l and the row h of layer k with support C
    (:func:`_layer_classes`), g h - m h, with m the rank-weighted mean of g
    over C, is h (g - m) on C and 0 elsewhere, and m h is in the span: a
    product stays in layer k's span exactly when layer l is constant on
    layer k's classes, and its residual is at most max_x |h(x)| |g(x) - m|,
    a class residual scaled by |h|.  For H = h + E, G = g + F with ||E|| <=
    t_k, ||F|| <= t_l, H G - m H = h (g - m) + h F + E g + E F - m E, so the
    ties add |h| t_l + (2 |g| + t_l) t_k."""
    cover, cls = _layer_classes(values.transpose(1, 0, 2))
    sizes, tops = cover.max(axis=1), ties.max(axis=1, initial=0.0)
    ties = np.outer(sizes, tops) + np.outer(tops, 2.0 * sizes + tops)  # [k, l]
    worst = 0.0
    for k in range(len(values)):
        res = (cover[k] * np.abs(frame.class_defects(values[: k + 1], cls[k]))).max(axis=(1, 2))
        worst = max(worst, float((res + ties[k, : k + 1]).max()))
    return worst


def _ideal_defect(frame: _AtomFrame, values: np.ndarray, ties, cls: np.ndarray) -> float:
    """Residual of the span of a layer, its rows ``values`` with ``ties``,
    absorbing the class functions of ``cls``: :func:`_layer_product_defect`
    with the class indicators, exact and at most 1, as the rows g."""
    cover, own = _layer_classes(values)
    res = cover * np.abs(frame.class_defects(frame.class_basis(cls), own))
    return float(res.max(initial=0.0)) + 2.0 * float(ties.max(initial=0.0))


def verify_tower_theorems(
    t: TowerReport, pair: EndoPair, tol: float = DEFAULT_TOL
) -> TheoremReport:
    """Check the tower theorems on a built tower, one residual per claim.

    Layer products and the top-layer ideal are always checked at the a_inf
    level; when the strong hypothesis set holds they are additionally
    checked at the seed level, where the theory makes the same claims.

    Every claim is checked on the atoms X of the double closure (see
    :class:`_AtomFrame`): delta and delta_* are the matrices of their
    action on X, and each residual is a coordinate residual plus a bound
    from the ties of the elements it reads.
    """
    _tolerance(tol)
    frame = t._frame
    if frame is None or frame.alg is not t.inf_a_inf or frame.pair is not pair:
        frame = _AtomFrame(t.inf_a_inf, pair)
    return _tower_theorems(t, frame, tol)[0]


def _tower_theorems(t: TowerReport, frame: _AtomFrame, tol: float) -> tuple[TheoremReport, list]:
    """:func:`verify_tower_theorems` on the atoms of ``frame``, with the
    coordinates of the star layers of a_inf it reads, so that the sum-form
    checks on the same frame need not recompute them."""
    checks: dict[str, tuple[bool, float]] = {}

    def record(name: str, residual: float):
        residual = float(residual)
        checks[name] = (residual <= LIMITS["frame"](tol, frame.pair.norm), residual)

    big = t.inf_a_inf
    maps = {d: frame.atom_map(d) for d in ("forward", "star")}

    every_algebra = (
        t.an_list + t.na_list + t.n_a_inf_list + [t.a_inf_of_inf_a, t.inf_a_inf]
    )
    record("commutative", _commutativity_defect(every_algebra))

    depth_seed = max(len(t.na_list), len(t.an_list))
    seed = frame.basis_coords(t.a0)
    seed_layers = {d: frame.layers(*seed, d, depth_seed) for d in ("star", "forward")}
    layer = np.repeat(np.arange(depth_seed + 1), len(seed[1]))
    for direction in ("star", "forward"):
        # commutators of elements in different layers
        rows = _rows(*seed_layers[direction])
        record(f"{direction}_layers_commute", _commutator_max(rows, rows, layer))

    inf_star = frame.layers(*frame.basis_coords(t.a_inf), "star", len(t.n_a_inf_list))
    inf_values, inf_ties = inf_star
    record("layer_products", _layer_product_defect(frame, *inf_star))
    level = _value_classes(inf_values, tol)
    top_ideal = _ideal_defect(frame, inf_values[-1], inf_ties[-1], level)
    record("top_layer_ideal", top_ideal + inf_ties.max())

    seed_layers_checked = t.hypotheses.strong_holds
    star_values, star_ties = seed_layers["star"]
    if seed_layers_checked:
        record("layer_products_seed", _layer_product_defect(frame, star_values, star_ties))
        top = star_values[len(t.na_list) - 1], star_ties[len(t.na_list) - 1]
        cls, eps = frame.classes(t.na_list[-1])
        member = frame.member(*top, t.na_list[-1])
        record("top_layer_ideal_seed", max(member, _ideal_defect(frame, *top, cls) + eps))

    def mapped_defect(pairs, direction) -> float:
        """Largest residual of d(src's basis) in the level dst over the
        pairs (src, dst), with every basis gathered at once."""
        if not pairs:
            return 0.0
        coords = [frame.basis_coords(src) for src, _ in pairs]
        layers = frame.layers(*map(np.concatenate, zip(*coords)), direction, 1)
        values, ties = (x[1] for x in layers)
        ends = np.cumsum([0] + [len(e) for _, e in coords])
        return max(frame.member(values[lo:hi], ties[lo:hi], dst)
                   for (_, dst), lo, hi in zip(pairs, ends, ends[1:]))

    seq = t.n_a_inf_list
    record("delta_lowers_level", mapped_defect(list(zip(seq[1:], seq)), "forward"))
    record("delta_star_raises_level", mapped_defect(list(zip(seq, seq[1:] + [big])), "star"))

    root = np.sqrt(frame.ranks)
    for name, direction in (("endomorphism_delta", "forward"), ("endomorphism_delta_star", "star")):
        # d(b_x) for the basis b_x = P_x / sqrt(r_x): values T[:, x] / sqrt(r_x)
        tmat, tmat_ties, _ = maps[direction]
        ties = tmat_ties / root
        mags = np.abs(tmat) / root
        # d(b_x b_y) = 0 against d(b_x) d(b_y) for x != y, and
        # d(b_x^2) = d(P_x) / r_x against d(b_x)^2
        cross = np.sort(mags, axis=1)[:, -2:].prod(axis=1).max() if frame.size > 1 else 0.0
        square = (np.abs(tmat - tmat * tmat) / frame.ranks).max()
        nu = mags.max(axis=0) + ties
        e = ties.max()
        tie = 2.0 * nu.max() * e + e * e + (tmat_ties / frame.ranks).max()
        record(name, max(e, max(cross, square) + tie))
    record("intertwining", max(maps["forward"][2], maps["star"][2]))

    own = frame.class_basis(np.arange(frame.size))
    record("double_closure_equality", frame.member(own, 0.0, t.a_inf_of_inf_a))

    # delta_*^j delta^i (seed) for i <= len(an_list), j <= len(n_a_inf_list),
    # and delta_*^j (seed) for j <= len(na_list), read from the seed's layers
    # at depth_seed, whose ties bound those of the layers at a smaller depth
    gens, tie = [star_values[: len(t.na_list) + 1]], star_ties[: len(t.na_list) + 1].max()
    fwd_values, fwd_ties = (x[1 : len(t.an_list) + 1] for x in seed_layers["forward"])
    if len(fwd_values):  # the star layers of every image in one gather, rows in image order
        values, ties = frame.layers(fwd_values.reshape(-1, frame.size), fwd_ties.reshape(-1),
                                    "star", len(t.n_a_inf_list))
        gens.append(values.reshape(len(values), len(fwd_values), -1, frame.size).swapaxes(0, 1))
        tie = max(tie, ties.max())
    minimal = _value_classes(gens[0], tol, *gens[1:])
    record("minimality", frame.member(own, tie, minimal))

    return TheoremReport(checks=checks, seed_layers_checked=seed_layers_checked), inf_star
