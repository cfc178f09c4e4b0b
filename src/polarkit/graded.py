"""Graded (banded) elements over a partial isometry and their norm calculus.

An element of the algebra generated by a commutative coefficient algebra A
and a partial isometry U is stored as a finite sum

    b  =  U*^n beta_{-n} + ... + U* beta_{-1} + beta_0 + beta_1 U + ... + beta_n U^n

with every beta_d in A and beta_{+-d} supported under the range projection
P_d = U^d U*^d (P_d beta = beta P_d = beta).  Degree bookkeeping makes the
product of two such elements again graded, with the degree-d coefficient
assembled from the push-through identities U alpha = delta(alpha) U and
alpha U* = U* delta(alpha); those identities are exact precisely when the
coefficients commute with the power projections of U, which is the model
hypothesis the ring-homomorphism tests exercise.

Products run on atom values.  A is C(X) for the atoms X of its
:class:`SpectralAlgebra`, so a coefficient is a vector over X (its atom
values, read from one stacked rotation V* beta V), delta and delta_* act
on X as a partial injection and its inverse, and P_k is a 0/1 vector.
Every term of a product is then a gather through a power of delta or
delta_* and an elementwise product, and P_d a mask; a term is dropped
only where its P_d is zero.  The gathers are the frame's
(``tower._AtomFrame.gathers``, the tower's own frame for a model over a
double closure), checked once to be 0/1 maps tied to U within the frame
rule (``linalg.LIMITS``); a coefficient algebra that is not stored by
its atoms, or that delta or delta_* does not map into itself, is a
:class:`ModelMismatch`.  Reading those atom values is also the one
membership check of a coefficient.  Realization runs on them too, as
V A + (V B)* over the model's one table of V* u^k (:func:`_realize_values`).

An element is its certified (degrees, atom values), fixed when it is
built.  There are four constructors: ``random_element`` draws the values
as random weights on the atoms times the mask of P_|d|; ``graded_mul``
takes them from the product; ``graded_adjoint`` conjugates them and flips
the degrees; and ``element`` reads them in its membership check, before
its support check, which clears a degree by a Frobenius bound and takes
an SVD only for the degrees that bound cannot clear; it keeps those
values, not the caller's matrices.  The dense coefficients are a
read-only view V diag(v) V* of the values, formed on first read, for
code that reads the dense map; no product, adjoint, norm or
realization does.  Nothing stored beside the values can go stale.  A
coefficient has norm max |v|, so ``GradedElement.coefficient_norm``
reads its norms without an SVD.

Draws, products and realizations also run on stacks of elements, atom
values shaped (..., degrees, atoms) over one degree set;
``random_element``, ``graded_mul`` and ``realize`` are these with one
item.  The graded suite of ``run_suite`` draws one stack of factors and
reads its ring check, coefficient bounds and sum estimates off their
atom values and one call of dense norms (:func:`_ring_defect`).

The degree-0 coefficient functional N_0 is the whole point: the norm of b
is recovered from coefficients alone through

    ||b|| = lim_k || N_0[ (b b*)^{2k} ] ||^{1/4k}

with the bracketing s_k <= ||b|| <= (4kn+1)^{1/4k} s_k for bandwidth n,
when U is nilpotent.  Then every orbit of delta on X is a chain, on which
U is W (x) 1 in a basis carried along it, W the 0/1 matrix of delta read
from the gathers, so b is faithfully H = Sum_{d >= 0} diag(beta_d) W^d +
Sum_{d < 0} W*^|d| diag(beta_d) on the atoms, and N_0 is its diagonal
(W^d has none for d != 0 on a chain; on a cycle neither holds).
``norm_estimate`` squares H H* with matrix products and reads ||N_0|| as
the largest diagonal entry.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .algebra import SpectralAlgebra, _block_constant_defect
from .errors import InvalidSpec, ModelMismatch, SupportViolation, ZeroElement
from .linalg import (
    COEFF_DROP,
    DEFAULT_TOL,
    LIMITS,
    ZERO_NORM,
    _count,
    _finite,
    _operator_norms,
    _tolerance,
    as_matrix,
    dagger,
    operator_norm,
)
from .tower import _BLOCK, EndoPair, _AtomFrame, _commutativity_defect, endo_pair

def _frozen(m: np.ndarray) -> np.ndarray:
    """m, made read-only: a cached matrix the caller cannot change."""
    m.flags.writeable = False
    return m


def _nilpotent(model: "GradedModel") -> bool:
    """Whether a power of u vanishes (a mask P_k = 0 on the atoms): only
    then does N_0 read degree 0 alone; on a cycle no u^d is 0."""
    return model._gathers.vanish is not None


def _degree(d) -> int:
    """The integer degree a coefficient key names: an integral number or a
    decimal string; anything else is a :class:`ModelMismatch`."""
    try:
        deg = int(d)
    except (TypeError, ValueError, OverflowError):
        deg = None
    if deg is None or not (isinstance(d, str) or deg == d):
        raise ModelMismatch(f"degree {d!r} is not an integer")
    return deg


class GradedModel:
    """A partial isometry with a coefficient algebra, plus a power table.

    ``algebra`` is the commutative algebra the coefficients live in,
    stored by its atoms (typically the double-closure coefficient algebra
    of a seed, or simply the diagonal algebra for shift models); any other
    algebra, or one whose atom basis v is not unitary (the rule of the
    tower's commutativity check), is a :class:`ModelMismatch`.  It keeps
    one read-only table T_k = V* u^k; u^k = V T_k and P_k are formed from it.
    The gathers of delta and delta_* on the atoms of the algebra, which
    products run on, are derived and checked on the first product.
    """

    def __init__(self, u, algebra: SpectralAlgebra, tol: float = DEFAULT_TOL):
        self.tol = _tolerance(tol)
        if not isinstance(algebra, SpectralAlgebra):
            raise ModelMismatch("the coefficient algebra is not stored by its atoms")
        self.pair: EndoPair = u if isinstance(u, EndoPair) else endo_pair(u, tol=tol)
        if algebra.dim != self.pair.ambient_dim:
            raise ModelMismatch("coefficient algebra dimension does not match u")
        defect = _commutativity_defect([algebra])
        if not defect <= LIMITS["relative"](tol):
            raise ModelMismatch(
                f"the coefficient algebra's atom basis is not unitary (defect {defect:.3e})"
            )
        self.algebra = algebra
        self.dim = self.pair.ambient_dim
        self._table = _frozen(algebra._vh[None].copy())

    def _powers(self, k: int) -> np.ndarray:
        """T_0 .. T_k, T_j = V* u^j, a read-only (k + 1, n, n) view of the
        table, which grows one product T_j = T_(j-1) u at a time."""
        if k >= len(self._table):
            rows = [self._table[-1]]
            for _ in range(len(self._table), k + 1):
                rows.append(rows[-1] @ self.pair.u)
            self._table = _frozen(np.concatenate([self._table, rows[1:]]))
        return self._table[: k + 1]

    def power(self, k: int) -> np.ndarray:
        """u^k = V T_k (k >= 0), a new read-only array."""
        return _frozen(self.algebra.v @ self._powers(k)[k])

    def range_projection(self, k: int) -> np.ndarray:
        """P_k = u^k u*^k, a new array."""
        uk = self.power(k)
        return uk @ dagger(uk)

    @cached_property
    def _frame(self) -> _AtomFrame:
        """The algebra's atoms, with u in their basis (a tower's, when set)."""
        return _AtomFrame(self.algebra, self.pair)

    @cached_property
    def _gathers(self) -> _AtomFrame:
        """The frame, once delta and delta_* act on its atoms as 0/1 maps."""
        for direction, name in (("forward", "delta"), ("star", "delta_*")):
            defect = self._frame.injection(direction)[2]
            if not defect <= LIMITS["frame"](self.tol, self._frame.pair.norm):
                raise ModelMismatch(
                    f"{name} does not map the coefficient algebra into itself "
                    f"(invariance defect {defect:.3e})"
                )
        return self._frame

    def element(self, coefficients: dict, enforce_support: bool = False) -> "GradedElement":
        """Build a graded element, validating the invariants.

        Degrees must be integers, each given once, and coefficients must be
        finite and belong to the coefficient algebra (:class:`ModelMismatch`
        otherwise) and be supported under the matching range projection
        (:class:`SupportViolation`), unless ``enforce_support`` projects them
        onto that support first.  The element keeps the atom values the
        membership check read, so its coefficients are their lift, within
        the operator rule at ||beta_d|| of the caller's.
        """
        degrees, mats = [], []
        unreadable = None
        for d, c in coefficients.items():
            # an unreadable coefficient is reported once every earlier one passes
            try:
                deg, cm = _degree(d), as_matrix(c)
            except (InvalidSpec, ModelMismatch) as exc:
                unreadable = exc
                break
            if deg in degrees:
                unreadable = ModelMismatch(f"degree {deg} is given twice")
                break
            if cm.shape[0] != self.dim:
                unreadable = ModelMismatch("coefficient dimension does not match the model")
                break
            if not np.isfinite(cm).all():
                unreadable = ModelMismatch(f"degree-{deg} coefficient has a non-finite entry")
                break
            if deg != 0 and enforce_support:
                p = self.range_projection(abs(deg))
                cm = p @ cm @ p
            degrees.append(deg)
            mats.append(cm)
        norms = _operator_norms(mats)
        keep = np.flatnonzero(~(norms <= COEFF_DROP))
        stack = np.array(mats, dtype=np.complex128).reshape(-1, self.dim, self.dim)[keep]
        kept = np.array(degrees, dtype=int)[keep]
        values = self._atom_values(stack, kept, norms[keep])
        if unreadable is not None:
            raise unreadable
        _check_support(self, kept, stack, norms[keep])
        return self._lift(kept, values)

    def _atom_values(self, mats: np.ndarray, degrees: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """Atom values (k, atoms) of a (k, n, n) stack of coefficients with
        operator norms ``norms``, read from one stacked rotation V* beta V.

        A coefficient whose rotation is further than the operator rule at
        ||beta|| from its atom values is not in the coefficient algebra,
        and is a :class:`ModelMismatch` naming its entry of ``degrees``.
        """
        alg = self.algebra
        rot = alg._vh @ mats @ alg.v
        defect, values = _block_constant_defect(rot, alg.labels, alg._ranges)
        # the largest atom value is at most ||beta||, so a Frobenius norm
        # under the operator rule at that value clears a coefficient; the
        # operator norms are taken only for the rest
        frobenius = np.linalg.norm(defect, axis=(1, 2))
        peak = np.abs(values).max(axis=1, initial=0.0)
        rest = np.flatnonzero(~(frobenius <= LIMITS["operator"](self.tol, peak)))
        res = _operator_norms(defect[rest])
        bad = np.flatnonzero(~(res <= LIMITS["operator"](self.tol, norms[rest])))
        if bad.size:
            raise ModelMismatch(
                f"degree-{degrees[rest[bad[0]]]} coefficient is not in the coefficient "
                f"algebra (residual {res[bad[0]]:.3e})"
            )
        return values

    def _lift(self, degrees: np.ndarray, values: np.ndarray) -> "GradedElement":
        """The graded element that carries the given (degrees, atom values),
        both made read-only."""
        return GradedElement(self, (_frozen(degrees), _frozen(values)))

    def _coefficients(self, values: np.ndarray) -> np.ndarray:
        """The coefficients V diag(v) V* of a (..., degrees, atoms) stack of
        atom values v, in one stacked product."""
        alg = self.algebra
        return (alg.v * values[..., None, alg.labels]) @ alg._vh


@dataclass(frozen=True, eq=False)
class GradedElement:
    """Immutable graded element over a GradedModel: ``_atoms``, its certified
    (degrees, atom values); :meth:`GradedModel._lift` builds every one."""

    model: GradedModel
    _atoms: tuple[np.ndarray, np.ndarray] = field(repr=False)

    @cached_property
    def coefficients(self) -> Mapping[int, np.ndarray]:
        """The read-only degree -> coefficient map, in the order of
        ``_atoms``: V diag(v) V* of the atom values, formed on first read."""
        degrees, values = self._atoms
        # views of a read-only stack are read-only
        mats = _frozen(self.model._coefficients(values))
        return MappingProxyType(dict(zip(degrees.tolist(), mats)))

    @property
    def bandwidth(self) -> int:
        return int(np.abs(self._atoms[0]).max(initial=0))

    def coefficient_norm(self, n: int | None = None) -> float:
        """||beta_n||, or max_d ||beta_d|| when ``n`` is None (0 if absent).

        A coefficient is V diag(v) V* for the atom basis V, whose norm is
        max |v|, so no SVD is taken."""
        degrees, values = self._atoms
        if n is not None:
            values = values[degrees == n]
        return float(np.abs(values).max(initial=0.0))


def _check_support(model: GradedModel, degrees: np.ndarray, mats: np.ndarray, norms):
    """Raise SupportViolation for the first nonzero degree whose coefficient
    in the (k, n, n) stack ``mats`` leaks outside P_|d|; ``degrees`` and
    ``norms`` are the stack's degrees and operator norms in order.

    A degree whose leaks P c - c and c P - c both have Frobenius norm at
    most the operator rule at ||c|| passes without an SVD: the Frobenius
    norm bounds the operator norm, so only the degrees this cannot clear
    go to the exact check, and no verdict changes."""
    nonzero = np.flatnonzero(degrees != 0)
    if not nonzero.size:
        return
    cs = mats[nonzero]
    ps = np.array([model.range_projection(abs(d)) for d in degrees[nonzero].tolist()])
    left, right = ps @ cs - cs, cs @ ps - cs
    limit = LIMITS["operator"](model.tol, norms[nonzero])
    upper = np.maximum(np.linalg.norm(left, axis=(1, 2)), np.linalg.norm(right, axis=(1, 2)))
    rest = np.flatnonzero(~(upper <= limit))
    if not rest.size:
        return
    both = _operator_norms(np.concatenate([left[rest], right[rest]]))
    defects = np.maximum(both[: rest.size], both[rest.size :])
    bad = np.flatnonzero(defects > limit[rest])
    if bad.size:
        i = int(bad[0])
        raise SupportViolation(
            f"degree-{degrees[nonzero[rest[i]]]} coefficient leaks outside its range "
            f"projection (defect {defects[i]:.3e})"
        )


def realize(g: GradedElement) -> np.ndarray:
    """The dense matrix Sum u*^|d| beta_d + beta_0 + beta_d u^d, from the
    element's certified atom values (:func:`_realize_values`)."""
    return _realize_values(g.model, g._atoms[0], g._atoms[1][None])[0]


def _realize_values(model: GradedModel, degrees: np.ndarray, values: np.ndarray) -> np.ndarray:
    """realize of every element (degrees, values[i]) of a (items, degrees,
    atoms) stack.  With T_k = V* u^k (the model's table), beta_d u^d =
    V diag(v_d) T_d and u*^|d| beta_d = (V diag(conj v_d) T_|d|)*, so an
    element is V A + (V B)* for A and B the sums over d >= 0 and d < 0 of
    those scaled rows of the table: two dense products at any bandwidth,
    and no coefficient.  A row of A or B is one product of its values on
    the powers 0 .. max |d| with its rows of the table, per item, so an
    item of a stack comes out as the element alone does; items go in
    blocks of at most ``_BLOCK`` accumulator entries (or one item)."""
    n, alg = model.dim, model.algebra
    top = int(np.abs(degrees).max(initial=0))
    # row k of side 0 holds v_k, row k of side 1 conj v_-k
    grid = np.zeros((len(values), 2, top + 1, alg.dimension), dtype=np.complex128)
    down = degrees < 0
    grid[:, down.astype(int), np.abs(degrees)] = np.where(down[:, None], values.conj(), values)
    scales = grid.transpose(0, 1, 3, 2)[:, :, alg.labels, None]  # (items, 2, n, 1, top + 1)
    rows = model._powers(top).transpose(1, 0, 2)  # row i of T_0 .. T_top
    out = np.empty((len(values), n, n), dtype=np.complex128)
    step = max(1, _BLOCK // (2 * n * n))
    for i in range(0, len(values), step):
        a, b = (scales[i : i + step] @ rows)[..., 0, :].swapaxes(0, 1)
        np.matmul(alg.v, a, out=out[i : i + step])
        out[i : i + step] += dagger(alg.v @ b)
    return out


def graded_adjoint(g: GradedElement) -> GradedElement:
    """Adjoint: the degree-d coefficient becomes the adjoint of the
    degree-(-d) one, so realize(graded_adjoint(g)) = realize(g)*: the atom
    values become their conjugates at the negated degrees."""
    degrees, values = g._atoms
    return g.model._lift(-degrees, values.conj())


def graded_mul(g1: GradedElement, g2: GradedElement) -> GradedElement:
    """Product in graded form, degree by degree, on atom values.

    The product runs on the inputs' atom values, see :func:`_product`,
    and the result is the values it returns.  The result's degree-d
    coefficient lies under P_|d|; degrees whose u-power vanishes
    (nilpotent truncation) and coefficients that come out at round-off
    scale are dropped.  :class:`ModelMismatch` is raised for elements of
    different models, and for a model whose coefficient algebra delta or
    delta_* does not map into itself.
    """
    if g1.model is not g2.model:
        raise ModelMismatch("graded elements belong to different models")
    return g1.model._lift(*_product(g1.model._gathers, g1._atoms, g2._atoms))


def _product(frame: _AtomFrame, left, right):
    """The graded product of two (degrees, atom values) pairs.  The values
    may be stacks shaped (..., degrees, atoms), the same stack on both
    sides over one degree set each; item i of the result is the product of
    the items i.

    The term at degrees (m, n) lands in degree m + n; by the push-through
    identities its atom values are

        m, n >= 0          beta * delta^m(gamma)
        m, n <= 0          delta^-n(beta) * gamma
        m > 0 > n, m >= -n beta * delta^(m+n)(P_-n gamma)
        m > 0 > n, m < -n  delta^(-n-m)(beta P_m) * gamma
        m < 0 < n          delta_*^min(-m, n)(beta * gamma)

    that is beta and gamma each gathered through one power of delta or
    delta_* (:func:`_term_rows`), times a mask, times the mask of
    P_|m+n|.  Terms whose P_|m+n| is zero (|m + n| at least the least k
    with P_k = 0, when U is nilpotent) are never formed.

    The terms are laid out with the left degrees as rows, in the order of
    ``left``, and the degrees m + n as columns; a slot whose right degree
    is absent gathers a row of zeros.  A stack's items sit side by side
    in a slot, so a slot holds items * atoms entries, and the gathers
    act on each item's atoms.  The terms are formed in blocks of about
    sqrt(``_BLOCK`` / (items * atoms)) rows and the columns those rows
    reach, at most ``_BLOCK`` entries each (or one slot), and each column
    is summed down its rows, a block's first row taking the sum of the
    blocks before it.  So every degree adds its terms one at a time in
    the order of the left degrees, as a loop over them would.  Per item
    and degree, coefficients whose largest value is at or below
    ``COEFF_DROP * scale**2`` are dropped, with scale the item's largest
    factor value and at least 1: the result's degrees are those some
    item keeps, and an item's row of a degree it drops is zero.
    """
    ldeg, lval = left
    rdeg, rval = right
    lead, atoms = lval.shape[:-2], lval.shape[-1]
    items = math.prod(lead)
    lval = lval.reshape(items, len(ldeg), atoms)
    rval = rval.reshape(items, len(rdeg), atoms)
    scale = np.maximum(
        np.abs(lval).reshape(items, -1).max(axis=1, initial=1.0),
        np.abs(rval).reshape(items, -1).max(axis=1, initial=1.0),
    )
    lmax, rmax = int(np.abs(ldeg).max(initial=0)), int(np.abs(rdeg).max(initial=0))
    top = lmax + rmax if frame.vanish is None else min(lmax + rmax, frame.vanish - 1)
    span = max(lmax, rmax, top)
    index, mask, depth = frame.gathers(span)
    size = items * atoms
    if items > 1:
        # the rows of delta^k and delta_*^k, k <= span, that the terms
        # read, with item i's atoms in the columns i * atoms + x of a slot
        read = np.r_[: span + 1, depth : depth + span + 1]
        index = (index[read, None, :] + np.arange(0, size, atoms)[:, None]).reshape(len(read), size)
        mask = np.tile(mask[read], items)
        depth = span + 1
    acc = np.zeros((2 * top + 1, size), dtype=np.complex128)
    if len(ldeg) and len(rdeg):
        # slot[n + reach] is the row of right degree n, or the row of zeros
        reach = top + lmax + rmax
        slot = np.full(2 * reach + 1, len(rdeg))
        slot[rdeg + reach] = np.arange(len(rdeg))
        lflat = lval.transpose(1, 0, 2).ravel()
        rrows = rval.transpose(1, 0, 2).reshape(len(rdeg), size)
        rflat = np.concatenate((rrows, np.zeros((1, size)))).ravel()
        rdeg0 = np.append(rdeg, 0)
        rlo, rhi = int(rdeg.min()), int(rdeg.max())
        rows = max(1, int(np.sqrt(_BLOCK // size)))
        for r in range(0, len(ldeg), rows):
            m = ldeg[r : r + rows, None]
            lo = max(-top, int(m.min()) + rlo)
            hi = min(top, int(m.max()) + rhi)
            d = np.arange(lo, hi + 1)
            j = slot[d - m + reach]
            on_beta, on_gamma, under = _term_rows(m, rdeg0[j], depth)
            at = (np.arange(r, r + len(m)) * size)[:, None, None]
            cols = max(1, _BLOCK // (len(m) * size))
            for c in range(0, len(d), cols):
                s = slice(c, c + cols)
                terms = lflat.take(index[on_beta[:, s]] + at)
                terms *= rflat.take(index[on_gamma[:, s]] + (j[:, s] * size)[..., None])
                terms *= mask[under[:, s]] * mask[np.abs(d[s])]
                block = slice(lo + top + c, lo + top + c + terms.shape[1])
                terms[0] += acc[block]
                acc[block] = terms.sum(axis=0)
    keep = np.abs(acc).reshape(len(acc), items, atoms).max(axis=2) > COEFF_DROP * scale * scale
    kept = np.flatnonzero(keep.any(axis=1))
    values = acc[kept]
    if items > 1:
        values = values.reshape(len(kept), items, atoms)
        values[~keep[kept]] = 0.0
        values = values.swapaxes(0, 1)
    return kept - top, values.reshape(lead + (len(kept), atoms))


def _term_rows(m: np.ndarray, n: np.ndarray, depth: int):
    """The rows of the gather tables (``_AtomFrame.gathers``) the terms at
    degrees (m, n) read: the power on beta, the power on gamma and the
    mask; row k is delta^k and P_k, row depth + k delta_*^k and Q_k."""
    m_up, n_up, n_down, neg = m >= 0, n >= 0, n <= 0, -n
    low = n_up | (neg <= m)
    star = np.where(n_down, neg, depth + np.minimum(-m, n))
    on_beta = np.where(m_up, np.where(low, 0, neg - m), star)
    on_gamma = np.where(
        m_up, np.where(n_up, m, np.where(low, m + n, 0)), np.where(n_down, 0, star)
    )
    under = np.where(m_up, np.where(low, m, neg), star)
    return on_beta, on_gamma, under


@dataclass(frozen=True)
class PropertyStarReport:
    samples: int
    worst_margin_center: float
    worst_margin_any: float
    violations: int
    passed: bool


def random_element(
    model: GradedModel, rng: np.random.Generator, bandwidth: int = 3
) -> GradedElement:
    """Random graded element, built as masked atom values.

    Per degree d = -b..b, k complex normals w weigh the coefficient-algebra
    basis P_x / sqrt(rank P_x), that is atom values w_x / sqrt(rank P_x);
    the mask of P_|d| projects them onto their canonical support, degrees
    left at or below ``COEFF_DROP`` are dropped, and the element is the
    rest.  Membership and support hold by construction: the mask is the
    atom form of P_|d|, tied to u once per model.
    """
    degrees, values = _draws(model, rng, bandwidth, 1)
    return model._lift(degrees, values[0])


def _u_plus_u_star(model: GradedModel) -> GradedElement:
    """U + U*: P_1's mask on the atoms at degrees -1 and 1, none where P_1 = 0."""
    p1 = model._gathers.gathers(1)[1][1]
    degrees = np.array([-1, 1] if p1.any() else [], dtype=int)
    return model._lift(degrees, np.tile(p1 + 0j, (len(degrees), 1)))


def _draws(model: GradedModel, rng: np.random.Generator, bandwidth: int, count: int):
    """(degrees, values): the atom values of ``count`` random elements
    (:func:`random_element`) as one (count, degrees, atoms) stack, from
    one draw, the same stream as ``count`` calls.  The degrees are those
    some element keeps; an element's row of a degree it drops is zero."""
    b = min(_count(bandwidth, "bandwidth", 0), model.dim - 1)
    alg = model.algebra
    _, mask, _ = model._gathers.gathers(b)
    degrees = np.arange(-b, b + 1)
    x = rng.standard_normal((count, 2 * b + 1, 2, alg.dimension))
    draws = x[:, :, 0] + 1j * x[:, :, 1]
    values = draws / np.sqrt(alg._ranges[1]) * mask[np.abs(degrees)]
    keep = np.abs(values).max(axis=2, initial=0.0) > COEFF_DROP
    kept = keep.any(axis=0)
    values = values[:, kept]
    if count > 1:
        values[~keep[:, kept]] = 0.0
    return degrees[kept], values


def _ring_defect(model: GradedModel, rng: np.random.Generator, pairs: int, bandwidth: int, tol):
    """The graded suite on one draw of ``pairs`` random pairs (g1, g2), the
    same draws as 2 * ``pairs`` calls of :func:`random_element`, drawn,
    multiplied and realized as stacks, with the three norms of every pair
    taken in one call: the largest ||realize(g1 g2) - realize(g1)
    realize(g2)|| / ((1 + ||realize(g1)||) (1 + ||realize(g2)||)), then
    the coefficient bounds and sum estimates of the factors, read from
    their atom values and those norms."""
    degrees, values = _draws(model, rng, bandwidth, 2 * pairs)
    factors = _realize_values(model, degrees, values).reshape(pairs, 2, model.dim, model.dim)
    r1, r2 = factors[:, 0], factors[:, 1]
    pair = values.reshape(pairs, 2, *values.shape[1:])
    product = _product(model._gathers, (degrees, pair[:, 0]), (degrees, pair[:, 1]))
    defect = _realize_values(model, *product) - r1 @ r2
    n1, n2, defect = _operator_norms(np.stack([r1, r2, defect], axis=1)).T
    worst = float((defect / ((1.0 + n1) * (1.0 + n2))).max())
    norms = np.stack([n1, n2], axis=1).ravel()  # factor 2i + j is pair i's g_(j+1)
    star = _star_report(degrees, values, norms, tol)
    return worst, star, _sum_bounds(model, degrees, values, norms, tol)


def _star_report(degrees, values, norms, tol: float) -> PropertyStarReport:
    """The coefficient bounds ||b|| >= ||beta_0|| and ||b|| >= max_d
    ||beta_d||, within the operator rule at ||b||, of each element of a
    (items, degrees, atoms) stack of atom values whose dense norms ||b||
    are ``norms``; a coefficient's norm is its largest atom value."""
    size = np.abs(values)
    center = norms - size[:, degrees == 0].max(axis=(1, 2), initial=0.0)
    any_margin = norms - size.max(axis=(1, 2), initial=0.0)
    limit = -LIMITS["operator"](tol, norms)
    violations = int(np.count_nonzero((center < limit) | (any_margin < limit)))
    return PropertyStarReport(
        len(norms), float(center.min()), float(any_margin.min()), violations, violations == 0
    )


def check_property_star(
    model: GradedModel,
    samples: int,
    tol: float = DEFAULT_TOL,
    bandwidth: int = 3,
    rng: np.random.Generator | None = None,
) -> PropertyStarReport:
    """Sample random graded elements and test the coefficient bounds
    ||b|| >= ||beta_0|| and ||b|| >= max_d ||beta_d||, within the operator
    rule at ||b||.  The samples are drawn, realized and normed as one
    stack each (the same draws as ``samples`` calls of
    :func:`random_element`), and the coefficient norms are read from their
    atom values."""
    _tolerance(tol)
    if _count(samples, "samples", 0) == 0:
        return PropertyStarReport(0, 0.0, 0.0, 0, True)
    if rng is None:
        rng = np.random.default_rng(0)
    degrees, values = _draws(model, rng, bandwidth, samples)
    norms = _operator_norms(_realize_values(model, degrees, values))
    return _star_report(degrees, values, norms, tol)


@dataclass(frozen=True)
class SumNormReport:
    count: int
    margins: dict[str, float]
    passed: bool


def sum_norm_inequalities(ds, tol: float = DEFAULT_TOL) -> SumNormReport:
    """The four sum estimates for a tuple d_1..d_m of same-size matrices:

        ||Sum d_i||^2          <= m ||Sum d_i d_i*||
        ||Sum d_i||^2          <= m ||Sum d_i* d_i||
        ||Sum |d_i|||^2        >= (1/m) ||Sum d_i* d_i||      (|d| = sqrt(d*d))
        ||Sum sqrt(d_i d_i*)||^2 >= (1/m) ||Sum d_i d_i*||

    Margins are reported as (bound side) - (bounded side), so all four
    should come out nonnegative up to round-off: each passes down to minus
    the sum rule at m and max_i ||d_i||.  A matrix that is not square, not
    finite or not the size of the first is an :class:`InvalidSpec`, naming
    it in the last two cases.  The dense form of the graded suite's check
    (:func:`_sum_bounds`), with the same margins and verdict.
    """
    _tolerance(tol)
    mats = []
    for i, d in enumerate(ds):
        m = as_matrix(d)
        if mats and m.shape != mats[0].shape:
            raise InvalidSpec(f"matrix {i} has shape {m.shape}, matrix 0 {mats[0].shape}")
        mats.append(_finite(m, f"matrix {i}"))
    if not mats:
        raise InvalidSpec("need at least one matrix")
    stack = np.array(mats)
    # d = W diag(s) V*, so |d*| = W diag(s) W* and |d| = V diag(s) V*
    w, s, vh = np.linalg.svd(stack)
    grams = stack @ dagger(stack), dagger(stack) @ stack
    roots = (w * s[:, None, :]) @ dagger(w), (dagger(vh) * s[:, None, :]) @ vh
    sums = np.array([stack, *grams, *roots]).sum(axis=1)
    top = np.array([s.max(initial=0.0)])  # the largest singular value, 0 for 0 x 0 matrices
    return _sum_reports(len(mats), top, _operator_norms(sums)[None], tol)[0]


def _sum_bounds(model: GradedModel, degrees, values, norms, tol: float) -> list[SumNormReport]:
    """:func:`sum_norm_inequalities` of the homogeneous parts b_d of each
    element b of a (items, degrees, atoms) stack of atom values, m =
    len(degrees) parts, with ||Sum b_d|| = ||b|| read from ``norms``.

    For d >= 0, b_d = beta_d u^d has b_d b_d* = |v_d|^2, b_d* b_d =
    delta_*^d(|v_d|^2) and |b_d| = delta_*^d(|v_d|), a gather through the
    frame's row depth + d; for d < 0 the two sides swap.  Every other sum
    is then a coefficient, whose norm is its largest atom value, and
    ||b_d|| is max |v_d|."""
    index, mask, depth = model._gathers.gathers(int(np.abs(degrees).max(initial=0)))
    size = np.abs(values)
    rows = depth + np.abs(degrees)
    pulled = size[:, np.arange(len(degrees))[:, None], index[rows]] * mask[rows]
    sides = np.where((degrees >= 0)[:, None], [size, pulled], [pulled, size])  # |b_d*|, |b_d|
    sums = np.concatenate([sides * sides, sides]).sum(axis=2).max(axis=2, initial=0.0)
    stats = np.column_stack([norms, *sums])
    return _sum_reports(len(degrees), size.max(axis=(1, 2), initial=0.0), stats, tol)


def _sum_reports(m: int, tops: np.ndarray, stats: np.ndarray, tol: float) -> list[SumNormReport]:
    """The sum estimates for m parts d from each row of ``stats``, ||Sum d||,
    ||Sum d d*||, ||Sum d* d||, ||Sum |d*||| and ||Sum |d|||, and the parts'
    largest norm in ``tops``."""
    reports = []
    for top, (total, right, left, abs_right, abs_left) in zip(tops.tolist(), stats.tolist()):
        margins = {
            "square_vs_right_gram": m * right - total**2,
            "square_vs_left_gram": m * left - total**2,
            "abs_sum_vs_left_gram": abs_left**2 - left / m,
            "abs_sum_vs_right_gram": abs_right**2 - right / m,
        }
        passed = all(v >= -LIMITS["sum"](tol, m, top) for v in margins.values())
        reports.append(SumNormReport(count=m, margins=margins, passed=passed))
    return reports


@dataclass(frozen=True)
class NormEstimate:
    """Norm estimates s_k = ||N_0[(b b*)^{2k}]||^{1/4k} at k = 1, 2, 4, ...

    Each recorded k brackets the true norm:
    s_k <= ||b|| <= (4 k n + 1)^{1/4k} s_k with n the bandwidth; N_0 is
    the diagonal of b's matrix on the atoms.  ``dense_norm`` is ||b||,
    also the scale that matrix was divided by.
    """

    estimates: tuple[tuple[int, float], ...]
    final: float
    bandwidth: int
    # ||realize(g)||, taken once for the zero test and the scale of b
    dense_norm: float

    def upper_bound(self, k: int, s_k: float) -> float:
        return float((4 * k * self.bandwidth + 1) ** (1.0 / (4 * k)) * s_k)

    def envelope(self, tol: float) -> tuple[bool, float]:
        """Whether every bracket holds the dense norm ||b|| within the
        operator rule at ||b||, and the worst overshoot, the largest of 0
        and s_k - ||b||, ||b|| - upper_k over the recorded k."""
        dense = self.dense_norm
        worst = 0.0
        for k, s_k in self.estimates:
            worst = max(worst, s_k - dense, dense - self.upper_bound(k, s_k))
        return worst <= LIMITS["operator"](tol, dense), worst


def norm_estimate(g: GradedElement, kmax: int = 64) -> NormEstimate:
    """Estimate ||realize(g)|| from coefficients alone.

    Forms c = h h* for h the matrix on the atoms (:func:`_chain_matrix`)
    of g / t, t = ||realize(g)|| (the zero test's norm, kept as
    ``dense_norm``, so the squares stay O(1)), squares c once per recorded
    k = 1, 2, 4, ... up to kmax, the last time forming only its diagonal,
    and records s_k = t ||N_0||^{1/4k}, N_0 the diagonal: one |X| x |X|
    product per k, whatever the bandwidth.
    Raises :class:`ZeroElement` for the zero element, and
    :class:`ModelMismatch` as :func:`graded_mul` does and for a u no
    power of which vanishes.
    """
    kmax = _count(kmax, "kmax", 1)
    degrees, values = g._atoms
    # a coefficient in A has the norm of its largest atom value; the dense
    # test stays, because degrees can cancel on a cycle
    coeff_scale = float(np.abs(values).max(initial=0.0))
    t = operator_norm(realize(g))  # the dense norm, and the scale of g
    if t <= ZERO_NORM * coeff_scale or coeff_scale == 0.0:
        raise ZeroElement("norm estimate of the zero element is undefined")
    if not _nilpotent(g.model):
        raise ModelMismatch(
            "u is not nilpotent (no power of it vanishes on the atoms), so the "
            "degree-0 functional does not give the norm"
        )
    h = _chain_matrix(g.model._gathers, degrees, values / t)
    c = h @ dagger(h)
    estimates = []
    k = 1
    while True:
        last = 2 * k > kmax
        # N_0[(h h*)^{2k}] is the diagonal of c^2, the last square's only part
        center = (c * c.T).sum(axis=1) if last else (c := c @ c).diagonal()
        estimates.append((k, t * float(np.abs(center).max()) ** (1.0 / (4 * k))))
        if last:
            break
        k *= 2
    return NormEstimate(
        estimates=tuple(estimates), final=estimates[-1][1], bandwidth=g.bandwidth, dense_norm=t
    )


def _chain_matrix(frame: _AtomFrame, degrees: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The |X| x |X| matrix H = Sum_{d >= 0} diag(v_d) W^d + Sum_{d < 0}
    W*^|d| diag(v_d) of an element's (degrees, atom values), with W the 0/1
    matrix of delta on the atoms, W[delta(x), x] = 1: entry (y, x) of W^d
    is 1 where row d of the frame's gathers reads x at y and its mask P_d
    is 1.  Each atom value outside its P_|d| is dropped, as u^d = P_d u^d
    and u*^|d| = u*^|d| P_|d| drop it."""
    index, mask, _ = frame.gathers(int(np.abs(degrees).max(initial=0)))
    rows = np.abs(degrees)
    d, y = np.nonzero(mask[rows])
    x = index[rows[d], y]
    up = degrees[d] >= 0
    h = np.zeros((values.shape[1], values.shape[1]), dtype=np.complex128)
    h[np.where(up, y, x), np.where(up, x, y)] = values[d, y]
    return h
