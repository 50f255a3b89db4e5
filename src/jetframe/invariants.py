"""Closed-form normalized differential invariants and their calculus.

A normalized invariant is the prolonged group action evaluated at the moving
frame, I_alpha = (rho(z) . z)_alpha.  The transformation law is written once,
in :mod:`jetframe.group`: with the frame's boost -eps3 = u and scaling
exp(-eps4) = |pivot|^(-1/denominator), the group's binomial boost sum
S_alpha = sum_k C(a1, k) u^k u[a1-k, a2+k] and its weight 3*a1 + a2 + 2 give,
for a multi-index alpha = (a1, a2) with a1 + a2 >= 1,

    time-normalized:   I_alpha = |u_t + u*u_x|^(-(3*a1+a2+2)/5) * S_alpha
    space-normalized:  I_alpha = |u_x|^(-(3*a1+a2+2)/3)        * S_alpha

The invariantized u itself is identically zero (the boost removes it), and
the pivot's own entry equals the branch sign.  On jets of solutions the
invariantized equation collapses to  branch + I[0,3] = 0  (time-normalized)
and  I[1,0] + I[0,3] = 0  (space-normalized).  The invariants of one frame
at one jet are the coordinates of the invariantized jet, so an
:class:`InvariantTable` stores them as one :class:`~jetframe.jets.Jet` at
t = x = 0.

The closed form is written once and runs on any jet whose entries support
the arithmetic of a :class:`TruncatedSeries`: on floats it gives I_alpha at a
point, and on series (a :class:`SolutionGerm` expanded along an exact
solution) it gives the Taylor expansion of I_alpha, so invariant
differentiation, recurrence and commutator identities are checked without
finite differences.  The recurrences, commutators and reconstruction of both
frames and branches come from one computed correction matrix (:func:`_corrections`).
The invariant derivatives come as one (D_t^i, D_x^i) pair, from
:meth:`SolutionGerm.differentiate`, :func:`invariant_derivative` and :func:`recurrence_rhs`.

:func:`normalized_invariant`, :meth:`SolutionGerm.invariant_series`,
:func:`invariant_derivative` and :func:`invariant_commutator` also take a
sequence of multi-indices, and :meth:`SolutionGerm.differentiate` a list of
series of one order; they return the list of results in the same order.
The work that does not depend on alpha is done once per call: ln|pivot| or
the series powers of every distinct weight (one Horner loop for all of them,
:func:`jetframe.taylor._compose`), the powers of u, and the series jet.  The
boost sums of all alphas are one pass over the jet's dense entries
(:func:`jetframe.group._transform`), and the invariant derivatives of all
series are one derivative gather (:func:`jetframe.taylor._derivatives`) and
three stacked products (:func:`jetframe.taylor._row_products`).  Each
element of the list is bit-identical to the call on that element alone.  A
float jet's pivot and singular test come once per call; along a germ, once
per germ and frame, a reconstruction's direct value included: the germ keeps
one record per frame kind (:meth:`SolutionGerm._frame`), the tested pivot and
branch and the derivative prefactor rows computed with them, at the highest
series order asked, and reads lower orders as prefix slices.  The probes of a
reconstruction are rows of one array that share one correction solve and
the eta rows of one jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import DegeneratePointError, DomainError, UsageError
from .frame import FrameKind, _require_kind, moving_frame, require_regular_pivot
from .group import (
    _UNITS,
    VectorField,
    _boost_plan,
    _boost_powers,
    _eta_rows,
    _partials,
    _transform,
    _weight,
    act_point,
)
from .jets import Jet, MultiIndex, _entries, _first_non_finite, _is_multi_index, _one_or_many, _require_real, _rows_for
from .solutions import _expansion, _read_jet
from .taylor import (
    TruncatedSeries,
    _compose,
    _derivatives,
    _integer,
    _multi_index,
    _pos,
    _row_products,
    multi_indices,
    triangle_size,
)
from .taylor import series_pow  # noqa: F401  bench/test_bench.py checks that the tracer rebinds it here


def _prefactors(p, branch, weights, w_den):
    """|p|^(-w/w_den) for each w in `weights`: one float, or one series row, per weight.

    These are the fractional-power prefactors of a frame.  A float pivot p
    gives exp(-w*ln|p|/w_den), with ln|p| taken once; a series pivot gives
    the rows of series_pow(branch*p, -w/w_den), whose constant term branch*p
    is positive, all weights in one Horner loop (:func:`~jetframe.taylor._compose`),
    on the slope pairs alone when p is affine.
    A pivot just above the singular threshold can overflow this power at high
    weight; that is a DomainError, not an arithmetic crash.
    """
    try:
        if isinstance(p, TruncatedSeries):
            return _compose("pow", branch * p, [-w / w_den for w in weights]).reshape(len(weights), -1)
        log_p = math.log(abs(p))
        return [math.exp(-w * log_p / w_den) for w in weights]
    except OverflowError:
        raise DomainError(
            f"frame prefactor |pivot|^(-w/{w_den}) overflows a double for a weight w <= {max(weights)}"
        ) from None


def _table(jet, kind, order, derived=None, pivot=None):
    """I_alpha of every alpha of multi_indices(order) at `jet`, as floats or series rows.

    The boost by u and the frame's scaling go through the group's
    transformation law with the powers of u and one prefactor per weight.
    Only the weights and powers that the multi-indices `derived` need are
    computed (all of positive order when None), so the row of an alpha
    outside them is junk, never an error.  Row (0, 0), the invariantized u,
    is zero: 0.0, or a zero series row.  `pivot` is the (p, branch) of
    `require_regular_pivot` when the caller already has it.
    """
    if derived is None:
        weights, top = _boost_plan(order).weights, order
    else:
        weights, top = sorted({_weight(alpha) for alpha in derived}), max(a1 for a1, _ in derived)
    p, branch = require_regular_pivot(jet, kind) if pivot is None else pivot
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite invariant is reported by the caller
        scales = _prefactors(p, branch, weights, kind.weight_denominator)
        powers = _boost_powers(jet.u[(0, 0)], top, order)
        values = _transform(jet.data, order, powers, weights, scales)
    values[0] = 0.0
    return values


def normalized_invariant(jet, alpha, kind, _pivot=None, _dense=False):
    """Invariant I_alpha of the chosen frame, read off a single jet.

    Equals the alpha-entry of the jet after applying its own moving frame,
    read through the group's transformation law without constructing the
    frame: the boost by u, then the frame's scaling prefactor.  (0, 0)
    returns the jet's zero entry (the invariantized u), 0.0 or a zero series,
    with no pivot test when nothing else is asked for; on the negative branch
    the prefactor uses |pivot| with the sign carried separately.  Entries may
    be floats or truncated series; the result has the same type.  `alpha`
    may also be a sequence of multi-indices, which gives the list of their
    invariants.  `_pivot` passes on the (p, branch) of a frame already
    computed at `jet`; with `_dense` the result is the array of the
    invariants of the sequence `alpha` itself, one value or series row per
    alpha, for a caller that stores them as they are.
    """
    alphas, shape = _one_or_many(alpha, _is_multi_index)
    order, rows = _rows_for(alphas, jet.order)
    if order == 0:
        _require_kind(kind)
        values = np.zeros((len(alphas),) + jet.data.shape[1:])
    else:
        # read back from the rows as Python ints: a weight of numpy unsigned ints would wrap when negated
        derived = None if rows is None else [multi_indices(order)[r] for r in rows if r > 0]
        values = _table(jet, kind, order, derived, _pivot)
        if rows is not None:
            values = values[rows]
        bad = _first_non_finite(values, alphas)
        if bad is not None:
            raise DomainError(f"invariant I_{bad[0]} = {bad[1]!r} is not finite at this jet")
    return values if _dense else shape(_entries(values))


@dataclass(frozen=True)
class InvariantTable:
    """All normalized invariants of one frame at one jet, up to `order`.

    The values are the invariantized jet J, a :class:`~jetframe.jets.Jet`
    at t = x = 0: `values` is its read-only view ``J.u``, I_alpha for every
    multi-index of total order <= order, and `value` is ``J.value``.  They
    may be given as a mapping from exactly those multi-indices or as a dense
    row in :func:`multi_indices` order; the jet copies and validates either,
    so a missing, non-finite or series entry is a UsageError and the cached
    corrections cannot go stale.  `phantoms` records the invariantized
    coordinates pinned by the cross-section, keyed by what they invariantize
    ("t", "x", "u" and the pivot derivative "u_t" or "u_x").  The "t", "x"
    and "u" phantoms are computed by applying the frame element rho to the
    base point (t, x, u), so they are exactly 0.0 only when rho really lands
    on the cross-section.
    """

    kind: FrameKind
    order: int
    branch: int
    values: Mapping[MultiIndex, float]
    phantoms: Mapping[str, float]
    _jet: Jet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_kind(self.kind)
        if self.branch not in (1, -1):
            raise UsageError(f"an invariant table's branch is 1 or -1, got {self.branch!r}")
        try:
            phantoms = dict(self.phantoms)
        except (TypeError, ValueError):
            raise UsageError(f"an invariant table's phantoms are a mapping, got {self.phantoms!r}") from None
        jet = Jet(self.order, 0.0, 0.0, self.values)
        _require_real(jet, "an invariant table")
        object.__setattr__(self, "_jet", jet)
        object.__setattr__(self, "values", jet.u)
        object.__setattr__(self, "phantoms", MappingProxyType(phantoms))

    def value(self, alpha):
        return self._jet.value(alpha)

    @cached_property
    def _etas(self):
        # eta^alpha of each basis field on the invariantized jet J: one row
        # per field, alpha at _pos(*alpha)
        return _eta_rows(VectorField.basis(), self._jet).tolist()

    @cached_property
    def _R(self):
        # built on the first recurrence or commutator query, not by invariant_table
        if self.order < 2:
            raise UsageError(f"the correction matrix reads second-order invariants, got a table of order {self.order}")
        return _corrections(self.kind, self._etas, self._jet.data[None])[0]


def invariant_table(jet, kind, order):
    """Tabulate every I_alpha with total order <= `order` at one jet."""
    order = _integer(order, "table order", high=jet.order)
    frame = moving_frame(jet, kind)
    values = normalized_invariant(jet, multi_indices(order), kind, (frame.pivot, frame.branch), _dense=True)
    t, x, u = act_point(frame.rho, (jet.t, jet.x, jet.u[(0, 0)]))
    phantoms = {"t": t, "x": x, "u": u, f"u_{kind.value}": float(frame.branch)}
    return InvariantTable(
        kind=kind, order=order, branch=frame.branch, values=values, phantoms=phantoms
    )


class SolutionGerm:
    """Taylor expansions of jet data and invariants along one solution.

    Everything is expanded around a fixed base point (t0, x0) to a fixed
    total order, so invariant differentiation becomes exact series algebra:
    each application of an invariant derivative costs one series order.
    The germ is the one expansion of its point: the float jet there
    (:meth:`jet`) and every series below are read off it.  It holds one
    frame record per frame kind (:meth:`_frame`).
    """

    def __init__(self, solution, t0, x0, order):
        self._master = _expansion(solution, t0, x0, order)
        self.t0 = float(t0)
        self.x0 = float(x0)
        self.order = self._master.order
        self._frames = {}

    def jet(self, order):
        """The float jet of order `order` at the base point, read off the germ's expansion.

        No coefficient of degree <= `order` depends on where the expansion is
        cut, so this is :func:`~jetframe.solutions.jet_of_solution` bit for bit.
        """
        return _read_jet(self._master, self.t0, self.x0, _integer(order, "jet order", high=self.order))

    def series_jet(self, jet_order, order):
        """Jet at the base point whose entries are the order-`order` series of every u_alpha."""
        return Jet(jet_order, self.t0, self.x0, self._master.derivatives(jet_order, order))

    def _frame(self, kind, order, jet=None):
        """(pivot series, branch, prefactor rows) of the frame `kind` along the germ, at series order `order`.

        Each kind keeps one record at the highest order asked: what
        :func:`~jetframe.frame.require_regular_pivot` returns there, tested
        once, and the rows of |pivot|^(-3/d) and |pivot|^(-1/d), the
        prefactors of D_t^i and D_x^i at the scaling weights 3 of t and 1 of
        x.  A lower order reads prefix slices, bit for bit what that order
        computes, as no coefficient of degree <= `order` depends on where a
        series is cut.  A singular frame is never kept, so it raises on every
        call.  `jet` is a series jet of order >= 1 at series order `order`, if any.
        """
        _require_kind(kind)
        order = _integer(order, "series order of a frame", high=self.order - 1)
        frame = self._frames.get(kind)
        if frame is None or frame[0].order < order:
            jet = self.series_jet(1, order) if jet is None else jet
            p, branch = require_regular_pivot(jet, kind)
            frame = self._frames[kind] = p, branch, _prefactors(p, branch, (3, 1), kind.weight_denominator)
        p, branch, scales = frame
        size = triangle_size(order)
        return TruncatedSeries._wrap(order, p.coeffs[:size]), branch, scales[:, :size]

    def invariant_series(self, alpha, kind, order):
        """Series of (t, x) -> I_alpha(jet at (t, x)) along the solution.

        For a sequence of multi-indices, one series jet and the germ's frame
        serve them all and the result is the list of their series.
        """
        alphas, shape = _one_or_many(alpha, _is_multi_index)
        jet_order = _rows_for(alphas, self.order)[0]
        jet = self.series_jet(jet_order, order)  # a germ too short is a UsageError
        pivot = self._frame(kind, order, jet)[:2] if jet_order else None  # (0, 0) alone needs no pivot
        return shape(normalized_invariant(jet, alphas, kind, pivot))

    def differentiate(self, series, kind):
        """(D_t^i s, D_x^i s): both invariant derivatives of the frame; series order drops by one.

        time-normalized:  D_t^i = |pivot|^(-3/5) (D_t + u D_x),  D_x^i = |pivot|^(-1/5) D_x
        space-normalized: D_t^i = |u_x|^(-1) (D_t + u D_x),      D_x^i = |u_x|^(-1/3) D_x

        i.e. |pivot| to minus the scaling weight of t (3) or of x (1) over
        the frame's weight denominator.  For a list of series of one order
        the result is the pair of lists of their derivatives, read off the
        germ's frame and computed on the stacked coefficient rows, each
        series bit for bit its own call; series of different orders are a
        UsageError, and ``differentiate([], kind)`` is ``([], [])``.
        """
        items, shape = _one_or_many(series, lambda arg: isinstance(arg, TruncatedSeries))
        orders = {s.order for s in items}
        if len(orders) > 1:
            raise UsageError(f"series differentiated in one call share one order, got {sorted(orders)}")
        if not items:
            _require_kind(kind)  # no frame is read, but the kind is still checked
            return [], []
        order = items[0].order - 1
        _, _, (scale_t, scale_x) = self._frame(kind, order)  # a series too short is a UsageError
        rows = _derivatives(np.array([s.coeffs for s in items]), 1, order)
        dt, dx = (rows[:, _pos(*e)] for e in _UNITS)
        d_t = _row_products(scale_t, dt + _row_products(self._master.coeffs[: scale_t.size], dx))
        return shape(_entries(d_t)), shape(_entries(_row_products(scale_x, dx)))


def _require_germ(germ):
    if not isinstance(germ, SolutionGerm):
        raise UsageError(f"expected a SolutionGerm, got {type(germ).__name__}")


def invariant_derivative(germ, alpha, kind):
    """(D_t^i I_alpha, D_x^i I_alpha) at the germ's base point, exact to machine precision.

    The germ's order must exceed |alpha| by one.  For a sequence of
    multi-indices the result is the list of their pairs.
    """
    _require_germ(germ)
    alphas, shape = _one_or_many(alpha, _is_multi_index)
    dtF, dxF = germ.differentiate(germ.invariant_series(alphas, kind, 1), kind)
    return shape([(dt.value, dx.value) for dt, dx in zip(dtF, dxF)])


def _bracket_order(kind):
    """(a, b) of the frame's bracket [D_a^i, D_b^i], as indices into (t, x): the pivot's direction first."""
    a = _UNITS.index(kind.pivot_alpha)
    return a, 1 - a


def invariant_commutator(germ, alpha, kind):
    """(I_alpha, D_t^i I_alpha, D_x^i I_alpha, bracket) at the germ's base point.

    The bracket [D_a^i, D_b^i] I_alpha puts the pivot's direction first
    (:func:`_bracket_order`): [D_t^i, D_x^i] I_alpha for the time-normalized
    frame and [D_x^i, D_t^i] I_alpha for the space-normalized one.  The
    germ's order must exceed |alpha| by two.  For a sequence of
    multi-indices the result is the list of their 4-tuples.
    """
    _require_germ(germ)
    alphas, shape = _one_or_many(alpha, _is_multi_index)
    F = germ.invariant_series(alphas, kind, 2)
    first = germ.differentiate(F, kind)
    a, b = _bracket_order(kind)
    second = germ.differentiate(first[b] + first[a], kind)  # read: D_a^i of D_b^i F, D_b^i of D_a^i F
    pairs = zip(F, *first, second[a], second[b][len(F):])
    return shape([(f.value, dt.value, dx.value, ab.value - ba.value) for f, dt, dx, ab, ba in pairs])


def _plus(alpha, e):
    return (alpha[0] + e[0], alpha[1] + e[1])


def _corrections(kind, etas, entries):
    """Stacked correction matrices R[kappa][j] = R_j^kappa, kappa over VectorField.basis(), j over (t, x).

    The phantoms z = t, x, u, u_p are constant on the cross-section, so R solves
    0 = iota(D_j z) + sum_kappa R_j^kappa iota(v_kappa z) on the invariantized jet J.
    `entries` holds one dense row per invariantized jet of the frame `kind`,
    of order >= 2, and `etas` the eta rows of the basis fields on one of
    them.  The jets share their first-order entries, the only ones the matrix
    iota(v_kappa z) reads: it is built once, and one solve takes every row's
    right-hand side, each solved exactly as on its own.
    """
    p, origin = kind.pivot_alpha, (0.0, 0.0, 0.0)
    fields = VectorField.basis()
    v_z = [[v.tau(*origin), v.xi(*origin), v.eta(*origin), row[_pos(*p)]] for v, row in zip(fields, etas)]
    # iota(D_j z): D_j t and D_j x are the units themselves, D_j u_z is u_(z + e_j)
    d_z = [[list(e) for e in _UNITS] + [[row[_pos(*_plus(z, e))] for e in _UNITS] for z in ((0, 0), p)] for row in entries]
    return np.linalg.solve(np.array(v_z).T, -np.array(d_z, dtype=float))


def recurrence_rhs(table, alpha):
    """(D_t^i I_alpha, D_x^i I_alpha) from the table, for either frame and branch.

    Universal recurrence formula (Fels & Olver, Moving coframes II, Acta
    Appl. Math. 1999), with R the table's correction matrix and eta^alpha_kappa
    the prolongation coefficient of v_kappa on the invariantized jet J:

        D_j^i I_alpha = I[alpha + e_j] + sum_kappa R_j^kappa eta^alpha_kappa(J),  j over (t, x)

    The phantom indices (0, 0) and the frame's pivot index are rejected.
    """
    alpha = _multi_index(alpha)
    if alpha in ((0, 0), table.kind.pivot_alpha):
        raise UsageError(f"recurrence undefined at phantom index {alpha}")
    if sum(alpha) >= table.order:
        raise UsageError(f"the recurrence of I_{alpha} reads order {sum(alpha) + 1}, beyond the table's order {table.order}")
    return _recurrence(table._jet.data, alpha, table._R, table._etas)


def _recurrence(entries, alpha, R, etas):
    """The recurrence of `recurrence_rhs` on the dense row `entries` of a table, with R and the eta rows given."""
    d_t, d_x = (float(entries[_pos(*_plus(alpha, e))]) for e in _UNITS)
    for eta_row, r in zip(etas, R):
        eta = eta_row[_pos(*alpha)]
        d_t += float(r[0]) * eta
        d_x += float(r[1]) * eta
    return d_t, d_x


# iota(D_j xi^l_kappa) as [kappa][l][j], kappa over VectorField.basis(), l and j
# over (t, x): tau and xi are affine in (t, x) and free of u, so the partials are constants
_XI_JACOBIAN = tuple(
    tuple(_partials(f, 0.0, 0.0, 0.0)[:2] for f in (v.tau, v.xi))
    for v in VectorField.basis()
)


def commutator_coefficients(table):
    """Coefficients (aT, aX) of [D_a^i, D_b^i] = aT*D_t^i + aX*D_x^i.

    (a, b) is (t, x) in the time-normalized frame and (x, t) in the
    space-normalized one (:func:`_bracket_order`).  By the universal recurrence formula (Fels & Olver,
    Moving coframes II, Acta Appl. Math. 1999), with xi^t = tau and xi^x = xi,

        Y^l = sum_kappa (R_b^kappa iota(D_a xi^l_kappa) - R_a^kappa iota(D_b xi^l_kappa)).

    iota(D_j xi^l_kappa) is read off :data:`_XI_JACOBIAN`.
    """
    return _bracket(table.kind, table._R)


def _bracket(kind, R):
    """The coefficients of `commutator_coefficients` from the correction matrix R."""
    a, b = _bracket_order(kind)
    out = [0.0, 0.0]
    for jacobian, r in zip(_XI_JACOBIAN, R):
        for l, d_xi in enumerate(jacobian):
            out[l] += float(r[b]) * d_xi[a] - float(r[a]) * d_xi[b]
    return tuple(out)


# the invariant that reconstruction rebuilds, and the worst conditioning it accepts
_RECONSTRUCTED = (2, 0)
_MAX_CONDITION = 1e8


def reconstruct_generators(germ, kind):
    """Rebuild I[2,0] from the frame's generating invariant I_g, g the non-pivot unit.

    D_t^i I_g, D_x^i I_g and the bracket of I_g, taken along the germ of
    order >= 3 (:func:`invariant_commutator`), obey
    the universal recurrence formula (Fels & Olver, Moving coframes II, Acta
    Appl. Math. 1999) on an order-2 invariantized jet whose first-order
    entries are known.  R is affine in its second-order entries, so the
    residuals of `recurrence_rhs` and `commutator_coefficients` are too: their
    coefficients are read exactly at zero and at the unit vectors, and one 3x3
    solve gives I[2,0].  The probes differ only in second-order entries: they
    are rows of one array, their correction matrices come from one solve
    (:func:`_corrections`), and their eta rows at g from one jet of the
    first.  Returns (reconstructed, direct) to compare with the closed form,
    the direct value at the pivot of the germ's frame.
    """
    _require_germ(germ)
    _require_kind(kind)
    g = _UNITS[_bracket_order(kind)[1]]
    i_g, dt, dx, bracket = invariant_commutator(germ, g, kind)
    p, branch, _ = germ._frame(kind, 0)
    order = sum(_RECONSTRUCTED)
    # the rows below the unknowns in storage order hold I[0,0] = 0, the pivot's
    # branch and I_g; the probes set the unknowns to zero, then to each unit vector
    known, size = triangle_size(order - 1), triangle_size(order)
    entries = np.zeros((1 + size - known, size))
    entries[:, _pos(*kind.pivot_alpha)], entries[:, _pos(*g)] = branch, i_g
    entries[1:, known:] = np.eye(size - known)
    etas = _eta_rows(VectorField.basis(), Jet(order, 0.0, 0.0, entries[0])).tolist()  # read at g only

    def residuals(row, R):
        a_t, a_x = _bracket(kind, R)
        rhs_t, rhs_x = _recurrence(row, g, R, etas)
        return np.array([rhs_t - dt, rhs_x - dx, a_t * dt + a_x * dx - bracket])

    at_zero, *at_units = map(residuals, entries, _corrections(kind, etas, entries))
    A = np.column_stack([r - at_zero for r in at_units])
    condition = np.linalg.cond(A)
    if not condition <= _MAX_CONDITION:
        raise DegeneratePointError(f"reconstruction at ({germ.t0}, {germ.x0}) has condition {condition:.3g}")
    reconstructed = np.linalg.solve(A, -at_zero)[_pos(*_RECONSTRUCTED) - known]
    return float(reconstructed), normalized_invariant(germ.jet(order), _RECONSTRUCTED, kind, _pivot=(p.value, branch))
