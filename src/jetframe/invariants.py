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
frames and branches come from one computed correction matrix (:func:`_corrections`);
dense rows of invariant tables get it, with their eta rows, from :func:`_relations`.
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
jet's pivot and singular test come once per call, from
:func:`~jetframe.frame.require_regular_pivots`.  Along a germ each
point's pivot is decided once per germ and frame, float tables and a
reconstruction's direct value included: the germ keeps one record per frame
kind (:meth:`SolutionGerm._frame`), the tested pivot and branch and the
derivative prefactor rows computed with them, at the highest series order
asked, and reads lower orders as prefix slices; the float tables
(:meth:`SolutionGerm._tables`) read the constant terms of its pivot rows.
The probes of a reconstruction are rows of one array that share one
correction matrix and the eta rows of one jet.

The same work also runs on many points at once.  A stack of germs
(:meth:`SolutionGerm.stack`) holds one expansion row per point, and every
array above gains a leading point axis: the series jet, the frame record,
the powers of u, the boost sums, the derivative rows, the invariant series
and their derivatives, which a stack takes and returns as float arrays of
coefficient rows, never as series, and, for the float
tables of the stack's points (:meth:`SolutionGerm._tables`), the
invariant rows, R and the eta rows (:func:`_relations`), the recurrences
(:func:`_recurrence`) and the bracket coefficients (:func:`_bracket`).
Only what must stay a per-point Python float operation for its bits is
taken point by point: ln|pivot| and exp in the float prefactors, the float
powers of u, and the powers a0 ** (r - k) behind the Taylor coefficients of
a composition, which are then columns over the stack.  Products and
sums keep their per-point order, and each LAPACK solve or condition number
runs once per matrix with one point's right-hand sides, so each point of a
stack is bit for bit its own call.  A call on one germ runs as the stack
of its one point, which shares the germ's frame record, and returns series
and floats.  The seeded suites draw their germs first and evaluate each
stack once (:mod:`jetframe.verify`).

:func:`normalized_invariant` and :func:`invariant_table` also take a stack
of jets, a list or tuple of jets of one order, real for a table, and for
the invariants either all real or all series rows of one size, as the
lifted jets of :func:`~jetframe.group.pr_v_apply` are: one pass of the
closed form over their entries, stacked once, with the pivots of all of
them tested at once.  One jet is the stack of one, so each point is bit
for bit its own call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import DegeneratePointError, DomainError, UsageError
from .frame import FrameKind, _frames, _require_kind, require_regular_pivots
from .group import (
    _UNITS,
    VectorField,
    _boost_plan,
    _boost_powers,
    _eta_stack,
    _partials,
    _transform,
    _weight,
    act_point,
)
from .jets import Jet, MultiIndex, _entries, _first_non_finite, _is_multi_index, _one_or_many, _require_real, _rows_for, _stack
from .solutions import _expansions, _jet_rows
from .taylor import (
    MAX_ORDER,
    TruncatedSeries,
    _compose,
    _derivatives,
    _integer,
    _multi_index,
    _pos,
    _row_products,
    _series_order,
    multi_indices,
    triangle_size,
)
from .taylor import series_pow  # noqa: F401  bench/test_bench.py checks that the tracer rebinds it here


def _prefactors(p, branch, weights, w_den):
    """|p|^(-w/w_den) for each w in `weights`, at each pivot of a stack: one row per pivot.

    These are the fractional-power prefactors of a frame.  `p` holds the
    pivots, a list of Python floats or an array of series rows, and `branch`
    their signs.  A float pivot gives exp(-w*ln|p|/w_den) per weight, with
    ln|p| taken once, point by point; series pivots give the rows of
    series_pow(branch*p, -w/w_den), whose constant terms branch*p are
    positive, every pivot and weight in one Horner loop
    (:func:`~jetframe.taylor._compose`), on the slope pairs alone when every
    p is affine.
    A pivot just above the singular threshold can overflow this power at high
    weight; that is a DomainError, not an arithmetic crash.
    """
    try:
        if isinstance(p, np.ndarray):
            exponents = [-w / w_den for w in weights]
            return _compose("pow", p * branch[:, None], exponents).reshape(len(p), len(weights), -1)
        rows = []
        for pivot in p:
            log_p = math.log(abs(pivot))
            rows.append([math.exp(-w * log_p / w_den) for w in weights])
        return np.array(rows)
    except OverflowError:
        raise DomainError(
            f"frame prefactor |pivot|^(-w/{w_den}) overflows a double for a weight w <= {max(weights)}"
        ) from None


def _table(data, kind, order, derived, pivot):
    """I_alpha of every alpha of multi_indices(order) at each point of a stack, as floats or series rows.

    `data` holds one dense row of jet entries per point and `pivot` the
    (pivots, branches) of the frame there, as :func:`require_regular_pivots`
    gives them: an array of series rows, or a list of one float per point.
    The boost by u and the frame's scaling go through the group's
    transformation law with the powers of u and one prefactor per weight.
    Only the weights and powers that the multi-indices `derived` need are
    computed (all of positive order when None), so the row of an alpha
    outside them is junk, never an error.  Row (0, 0), the invariantized u,
    is zero: 0.0, or a zero series row.
    """
    if derived is None:
        weights, top = _boost_plan(order).weights, order
    else:
        weights, top = sorted({_weight(alpha) for alpha in derived}), max(a1 for a1, _ in derived)
    p, branch = pivot
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite invariant is reported by the caller
        scales = _prefactors(p, branch, weights, kind.weight_denominator)
        powers = _boost_powers(data[:, 0], top, order)
        values = _transform(data, order, powers, weights, scales)
    values[:, 0] = 0.0
    return values


def _invariant_rows(data, kind, alphas, jet_order, pivot):
    """I_alpha of each of `alphas` at each point of a stack: one row of floats or series rows per point.

    `data` holds one dense row of entries of a jet of order `jet_order` per
    point; `pivot()` gives the frame's (pivots, branches) there, and is
    asked only when some alpha has positive order.  A non-finite invariant
    is a DomainError.
    """
    order, rows = _rows_for(alphas, jet_order)
    if order == 0:
        _require_kind(kind)
        return np.zeros((len(data), len(alphas)) + data.shape[2:])
    # read back from the rows as Python ints: a weight of numpy unsigned ints would wrap when negated
    derived = None if rows is None else [multi_indices(order)[r] for r in rows if r > 0]
    values = _table(data, kind, order, derived, pivot())
    if rows is not None:
        values = values[:, rows]
    bad = _first_non_finite(values, alphas)
    if bad is not None:
        raise DomainError(f"invariant I_{bad[1]} = {bad[2]!r} is not finite at this jet")
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
    invariants.

    `jet` may also be a list or tuple of jets of one order, a stack, whose
    entries are all floats or all series rows of one size, as the lifted
    jets of :func:`~jetframe.group.pr_v_apply` and the series jets of a
    germ are; anything else is a UsageError (:func:`~jetframe.jets._stack`).
    The result is the list of each jet's result, from one pass over the
    stacked entries with the pivots of
    :func:`~jetframe.frame.require_regular_pivots`.  One jet is the stack of
    one, so each result is bit for bit its own call.  `_pivot` passes on the
    (pivots, branches) that function gives at the stack, and with `_dense`
    the result is the array of the invariants of the sequence `alpha`
    itself, one value or series row per alpha, or one row of them per jet
    of a stack, for a caller that stores them as they are.
    """
    alphas, shape = _one_or_many(alpha, _is_multi_index)
    jets, order, data = _stack(jet, "normalized_invariant", series=True)

    def pivot():
        return require_regular_pivots(data, kind, lambda i: (jets[i].t, jets[i].x)) if _pivot is None else _pivot

    values = _invariant_rows(data, kind, alphas, order, pivot)
    if not _dense:
        values = [shape(_entries(row)) for row in values]
    return values[0] if isinstance(jet, Jet) else values


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
    def _relations(self):
        # (R, eta rows) of J as a stack of one, built on the first recurrence or commutator query
        return _relations(self.kind, self._jet.data[None], self.order)


def _tabulated(jet, frame, kind, order, values):
    """The InvariantTable of `frame` at `jet`, with `values` the dense row of its invariants up to `order`.

    The phantoms t, x and u are the image of the jet's base point under the
    frame element rho.
    """
    t, x, u = act_point(frame.rho, (jet.t, jet.x, float(jet.data[0])))
    phantoms = {"t": t, "x": x, "u": u, f"u_{kind.value}": float(frame.branch)}
    return InvariantTable(kind=kind, order=order, branch=frame.branch, values=values, phantoms=phantoms)


def invariant_table(jet, kind, order):
    """Tabulate every I_alpha with total order <= `order` at one jet.

    `jet` may also be a list or tuple of real jets of one order, a stack:
    the result is the list of their tables.  The frames come from one
    pivot test on the stack as validated here, with no second validation by
    :func:`~jetframe.frame.moving_frame`, and the invariants from one
    :func:`normalized_invariant` on `jet` itself, which reads those pivots.
    Each table's phantoms come from its own frame element and base point,
    and one jet is the stack of one, so each table is bit for bit its own
    call.
    """
    jets, jet_order, data = _stack(jet, "invariant_table")
    order = _integer(order, "table order", high=jet_order)
    frames, pivots = _frames(jets, data, kind)
    values = normalized_invariant(jet, multi_indices(order), kind, pivots, _dense=True)
    if isinstance(jet, Jet):
        return _tabulated(jet, frames[0], kind, order, values)
    return [_tabulated(j, frame, kind, order, row) for j, frame, row in zip(jets, frames, values)]


class SolutionGerm:
    """Taylor expansions of jet data and invariants along a solution, at one point or at a stack of points.

    Everything is expanded around a fixed base point (t0, x0) to a fixed
    total order, so invariant differentiation becomes exact series algebra:
    each application of an invariant derivative costs one series order.
    The germ is the one expansion of its point: the float jet there
    (:meth:`jet`) and every series below are read off it.  It holds one
    frame record per frame kind (:meth:`_frame`).

    A stack of germs of one order (:meth:`stack`), of any solutions, holds
    one expansion row per point; `t0` and `x0` are then the tuples of the
    points' coordinates.  A stack made from points (:meth:`_expanded`)
    expands them all in one call
    (:func:`~jetframe.solutions._expansions`), and one germ is its
    one-point case.  Its calls, and :func:`invariant_derivative`,
    :func:`invariant_commutator` and :func:`reconstruct_generators` on it,
    run every point at once, each point bit for bit its own call.
    :meth:`jet` and :meth:`series_jet` return one jet per point; the series
    calculus takes and returns float arrays with a leading point axis:
    coefficient rows (points[, alphas], coefficients) from
    :meth:`invariant_series` and :meth:`differentiate`, and (points[,
    alphas], 2), (points[, alphas], 4) and (points, 2) from the three
    functions.  A call on one germ is the one-row case of the same code.
    """

    def __init__(self, solution, t0, x0, order):
        self._expand([(solution, t0, x0)], order)
        ((self.t0, self.x0),) = self._points
        self._stacked = False

    @classmethod
    def _expanded(cls, points, order):
        """A stack of germs of order `order` at the (solution, t0, x0) `points`, in one stacked expansion.

        It is :meth:`stack` of the germs of the points, bit for bit.
        """
        stack = cls.__new__(cls)
        stack._expand(points, order)
        stack.t0, stack.x0 = map(tuple, zip(*stack._points))
        stack._stacked = True
        return stack

    def _expand(self, points, order):
        points = list(points)
        self._coeffs = _expansions(points, order)  # one expansion row per point
        self.order = _series_order(self._coeffs.shape[1])
        self._points = [(float(t0), float(x0)) for _, t0, x0 in points]
        self._frames = {}

    @classmethod
    def stack(cls, germs):
        """One germ over the points of `germs`, in their order; germs of different orders are a UsageError.

        A stack of one germ shares that germ's frame record (:meth:`_frame`).
        """
        germs = list(germs)
        for germ in germs:
            if not isinstance(germ, SolutionGerm):
                raise UsageError(f"expected a SolutionGerm, got {type(germ).__name__}")
        orders = sorted({germ.order for germ in germs})
        if len(orders) != 1:
            raise UsageError(f"a stack holds germs of one order, got {orders}")
        stack = cls.__new__(cls)
        stack._points = [point for germ in germs for point in germ._points]
        stack.t0, stack.x0 = map(tuple, zip(*stack._points))
        stack.order = orders[0]
        stack._coeffs = np.concatenate([germ._coeffs for germ in germs])
        stack._stacked = True
        stack._frames = germs[0]._frames if len(germs) == 1 else {}
        return stack

    def _results(self, results):
        """What a call returns, from the list of its results per point: the list for a stack, its one item otherwise."""
        return results if self._stacked else results[0]

    def _answer(self, values, shape, item):
        """What a call on multi-indices returns from `values`, its float array (points, alphas, ...).

        A stack returns the array, without the alphas axis when `shape` (of
        :func:`~jetframe.jets._one_or_many`) is that of one multi-index; one
        germ returns `shape` of the list of `item` of its row.
        """
        if self._stacked:
            return values if shape is list else values[:, 0]
        return shape(item(values[0]))

    def jet(self, order):
        """The float jet of order `order` at the base point, read off the germ's expansion.

        No coefficient of degree <= `order` depends on where the expansion is
        cut, so this is :func:`~jetframe.solutions.jet_of_solution` bit for bit.
        """
        order = _integer(order, "jet order", high=self.order)
        rows = _jet_rows(self._coeffs, order, self._points)
        return self._results([Jet(order, t, x, row) for (t, x), row in zip(self._points, rows)])

    def series_jet(self, jet_order, order):
        """Jet at the base point whose entries are the order-`order` series of every u_alpha."""
        rows = _derivatives(self._coeffs, jet_order, order)  # one row of series per point and u_alpha
        return self._results([Jet(jet_order, t, x, row) for (t, x), row in zip(self._points, rows)])

    def _frame(self, kind, order):
        """(pivot rows, branches, prefactor rows) of the frame `kind` at each point, at series order `order`.

        Each kind keeps one record at the highest order asked: what
        :func:`~jetframe.frame.require_regular_pivots` returns there, tested
        once, and the rows of |pivot|^(-3/d) and |pivot|^(-1/d), the
        prefactors of D_t^i and D_x^i at the scaling weights 3 of t and 1 of
        x.  A lower order reads prefix slices, bit for bit what that order
        computes, as no coefficient of degree <= `order` depends on where a
        series is cut.  The constant terms of the pivot rows are the pivots
        of the float jets, so the float tables (:meth:`_tables`) read the
        same record: each point's pivot is decided once per germ and frame.
        A singular frame is never kept, so it raises on every call.
        """
        _require_kind(kind)
        order = _integer(order, "series order of a frame", high=self.order - 1)
        size = triangle_size(order)
        frame = self._frames.get(kind)
        if frame is None or frame[0].shape[1] < size:
            p, branch = require_regular_pivots(_derivatives(self._coeffs, 1, order), kind, self._points.__getitem__)
            frame = self._frames[kind] = p, branch, _prefactors(p, branch, (3, 1), kind.weight_denominator)
        p, branch, scales = frame
        return p[:, :size], branch, scales[:, :, :size]

    def _tables(self, kind, order):
        """The dense rows of the invariant tables of the frame `kind` up to `order`, one row per point.

        Each row is bit for bit the values of the table :func:`invariant_table`
        gives at that point's float jet, read off the expansion.  The pivots and
        branches are the constant terms of the germ's frame record
        (:meth:`_frame`), read only when the table has positive order, so a
        singular pivot is the SingularFrameError of that record.
        """
        data = _jet_rows(self._coeffs, _integer(order, "table order", high=self.order), self._points)

        def pivot():
            p, branch, _ = self._frame(kind, 0)
            return p[:, 0].tolist(), branch.tolist()

        return _invariant_rows(data, kind, multi_indices(order), order, pivot)

    def invariant_series(self, alpha, kind, order):
        """Series of (t, x) -> I_alpha(jet at (t, x)) along the solution.

        For a sequence of multi-indices, one series jet and the germ's frame
        serve them all and the result is the list of their series.  A stack
        returns the float array of coefficient rows (points, alphas,
        coefficients), or (points, coefficients) for one multi-index.  The germ
        must reach the highest |alpha| plus `order`; a shorter one is a
        UsageError naming both orders.
        """
        alphas, shape = _one_or_many(alpha, _is_multi_index)
        order = _integer(order, "series order")
        jet_order = _rows_for(alphas, MAX_ORDER)[0]
        if jet_order + order > self.order:
            raise UsageError(
                f"series of order {order} of invariants of order {jet_order} need a germ of order"
                f" {jet_order + order}, got order {self.order}"
            )
        rows = _derivatives(self._coeffs, jet_order, order)
        values = _invariant_rows(rows, kind, alphas, jet_order, lambda: self._frame(kind, order)[:2])
        return self._answer(values, shape, _entries)

    def differentiate(self, series, kind):
        """(D_t^i s, D_x^i s): both invariant derivatives of the frame; series order drops by one.

        time-normalized:  D_t^i = |pivot|^(-3/5) (D_t + u D_x),  D_x^i = |pivot|^(-1/5) D_x
        space-normalized: D_t^i = |u_x|^(-1) (D_t + u D_x),      D_x^i = |u_x|^(-1/3) D_x

        i.e. |pivot| to minus the scaling weight of t (3) or of x (1) over
        the frame's weight denominator.  For a list of series of one order
        the result is the pair of lists of their derivatives, read off the
        germ's frame and computed on the stacked coefficient rows, each
        series bit for bit its own call; series of different orders are a
        UsageError, and ``differentiate([], kind)`` is ``([], [])``.  Any
        other item is a UsageError naming its type.  A stack takes a float
        array of coefficient rows of one series order, (points,
        coefficients) or (points, series, coefficients) as
        :meth:`invariant_series` returns them, and returns the pair of
        arrays in the same layout; anything else is a UsageError naming the
        stack's point count.  One germ runs as the stack of its point.
        """
        if not self._stacked:
            items, shape = _one_or_many(series, lambda arg: not isinstance(arg, (list, tuple)))
            bad = [type(s).__name__ for s in items if not isinstance(s, TruncatedSeries)]
            if bad:
                raise UsageError(f"differentiate takes a TruncatedSeries or a list of them, got {bad[0]}")
            orders = sorted({s.order for s in items})
            if len(orders) > 1:
                raise UsageError(f"series differentiated in one call share one order, got {orders}")
            if not orders:
                _require_kind(kind)  # no frame is read, but the kind is still checked
                return [], []
            halves = SolutionGerm.stack([self]).differentiate(np.array([[s.coeffs for s in items]]), kind)
            return tuple(shape(_entries(half[0])) for half in halves)
        n, array = len(self._points), isinstance(series, np.ndarray)
        top = _series_order(series.shape[-1]) if array and series.ndim in (2, 3) else None
        if top is None or series.dtype.kind != "f" or len(series) != n:
            got = f"{series.dtype} array of shape {series.shape}" if array else type(series).__name__
            raise UsageError(f"a stack of {n} points differentiates a float array (points[, series], coefficients), got {got}")
        if series.size == 0:  # as differentiate([], kind): no frame is read, but the kind is still checked
            _require_kind(kind)
            return tuple(np.zeros(series.shape[:-1] + (triangle_size(top - 1),)) for _ in _UNITS)
        _, _, scales = self._frame(kind, top - 1)  # a series too short is a UsageError
        size = scales.shape[2]
        rows = _derivatives(series.reshape(n, -1, series.shape[-1]), 1, top - 1)
        dt, dx = (rows[:, :, _pos(*e)] for e in _UNITS)
        d_t = _row_products(scales[:, :1], dt + _row_products(self._coeffs[:, None, :size], dx))
        d_x = _row_products(scales[:, 1:], dx)
        return tuple(half.reshape(series.shape[:-1] + (size,)) for half in (d_t, d_x))


def _tuples(rows):
    return [tuple(row) for row in rows.tolist()]


def invariant_derivative(germ, alpha, kind):
    """(D_t^i I_alpha, D_x^i I_alpha) at the germ's base point, exact to machine precision.

    The germ's order must exceed |alpha| by one.  For a sequence of
    multi-indices the result is the list of their pairs; a stack gives one
    float array (points[, alphas], 2).
    """
    stack = SolutionGerm.stack([germ])  # one germ runs as the stack of its point
    alphas, shape = _one_or_many(alpha, _is_multi_index)
    halves = stack.differentiate(stack.invariant_series(alphas, kind, 1), kind)
    return germ._answer(np.stack([half[..., 0] for half in halves], axis=-1), shape, _tuples)


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
    multi-indices the result is the list of their 4-tuples; a stack gives
    one float array (points[, alphas], 4).
    """
    stack = SolutionGerm.stack([germ])  # one germ runs as the stack of its point
    alphas, shape = _one_or_many(alpha, _is_multi_index)
    F = stack.invariant_series(alphas, kind, 2)
    first = stack.differentiate(F, kind)
    a, b = _bracket_order(kind)
    # one call on D_b^i F and D_a^i F: read D_a^i of the first half, D_b^i of the second
    second = stack.differentiate(np.concatenate([first[b], first[a]], axis=1), kind)
    values = (F, *first, second[a][:, : len(alphas)] - second[b][:, len(alphas) :])
    return germ._answer(np.stack([v[..., 0] for v in values], axis=-1), shape, _tuples)


def _plus(alpha, e):
    return (alpha[0] + e[0], alpha[1] + e[1])


# iota(v_kappa z) of the phantoms z = t, x, u as [z][kappa], kappa over
# VectorField.basis(): tau, xi and eta of each field at the origin
_AT_ORIGIN = tuple(zip(*((v.tau(0.0, 0.0, 0.0), v.xi(0.0, 0.0, 0.0), v.eta(0.0, 0.0, 0.0)) for v in VectorField.basis())))


def _corrections(kind, etas, entries):
    """Correction matrices R[..., kappa, j] = R_j^kappa, kappa over VectorField.basis(), j over (t, x).

    The phantoms z = t, x, u, u_p are constant on the cross-section, so R solves
    0 = iota(D_j z) + sum_kappa R_j^kappa iota(v_kappa z) on the invariantized jet J.
    `entries` holds the dense rows of invariantized jets of the frame
    `kind`, of order >= 2, and `etas` the eta rows of the basis fields on
    them; their leading axes broadcast, so jets that share their first-order
    entries, the only ones the matrix iota(v_kappa z) reads, can share one
    row of etas.  Each matrix takes its jets' right-hand sides in one LAPACK
    solve, each solved exactly as on its own.
    """
    at = [[_pos(*_plus(z, e)) for e in _UNITS] for z in ((0, 0), kind.pivot_alpha)]
    v_z = np.empty(etas.shape[:-2] + (4, 4))
    v_z[..., :3, :] = _AT_ORIGIN
    v_z[..., 3, :] = etas[..., _pos(*kind.pivot_alpha)]
    # iota(D_j z): D_j t and D_j x are the units themselves, D_j u_z is u_(z + e_j)
    d_z = np.zeros(entries.shape[:-1] + (4, 2))
    d_z[..., 0, 0] = d_z[..., 1, 1] = 1.0
    d_z[..., 2:, :] = entries[..., at]
    return np.linalg.solve(v_z, -d_z)


def _relations(kind, rows, order):
    """(R, eta rows) of the frame `kind` on `rows`, the dense rows of invariant tables of `order`, one per point.

    R is :func:`_corrections` on the basis fields' eta rows of each
    invariantized jet; with the rows themselves they are all that
    :func:`_recurrence` and :func:`_bracket` read.
    """
    if order < 2:
        raise UsageError(f"the correction matrix reads second-order invariants, got a table of order {order}")
    etas = _eta_stack(VectorField.basis(), rows, order)
    return _corrections(kind, etas, rows), etas


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
    return tuple(v.item() for v in _recurrence(table._jet.data[None], alpha, *table._relations))


def _recurrence(entries, alpha, R, etas):
    """The recurrence of `recurrence_rhs` on dense rows `entries` of tables, with (R, etas) of :func:`_relations`.

    The leading axes of the three broadcast, so one call runs every point
    of a stack, each bit for bit its own.
    """
    d_t, d_x = (entries[..., _pos(*_plus(alpha, e))] for e in _UNITS)
    at = _pos(*alpha)
    for kappa in range(R.shape[-2]):
        eta = etas[..., kappa, at]
        d_t = d_t + R[..., kappa, 0] * eta
        d_x = d_x + R[..., kappa, 1] * eta
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
    return tuple(c.item() for c in _bracket(table.kind, table._relations[0]))


def _bracket(kind, R):
    """The coefficients of `commutator_coefficients` from the correction matrices R, over R's leading axes."""
    a, b = _bracket_order(kind)
    out = [0.0, 0.0]
    for kappa, jacobian in enumerate(_XI_JACOBIAN):
        r = R[..., kappa, :]
        for l, d_xi in enumerate(jacobian):
            out[l] += r[..., b] * d_xi[a] - r[..., a] * d_xi[b]
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
    are rows of one array, their correction matrices come from one matrix
    (:func:`_corrections`), and their eta rows at g from one jet of the
    first.  Returns (reconstructed, direct) to compare with the closed form,
    the direct value read off the germ's float table
    (:meth:`SolutionGerm._tables`); a stack gives one float array (points,
    2), and a point whose system is worse conditioned than
    :data:`_MAX_CONDITION` is a DegeneratePointError.
    """
    stack = SolutionGerm.stack([germ])
    _require_kind(kind)
    g = _UNITS[_bracket_order(kind)[1]]
    # one column per point, to broadcast over the probes
    i_g, dt, dx, bracket = invariant_commutator(stack, g, kind).T[..., None]
    _, branch, _ = stack._frame(kind, 0)
    order = sum(_RECONSTRUCTED)
    # the rows below the unknowns in storage order hold I[0,0] = 0, the pivot's
    # branch and I_g; the probes set the unknowns to zero, then to each unit vector
    known, size = triangle_size(order - 1), triangle_size(order)
    entries = np.zeros((len(branch), 1 + size - known, size))
    entries[..., _pos(*kind.pivot_alpha)], entries[..., _pos(*g)] = branch[:, None], i_g
    entries[:, 1:, known:] = np.eye(size - known)
    etas = _eta_stack(VectorField.basis(), entries[:, 0], order)[:, None]  # read at g only
    R = _corrections(kind, etas, entries)
    a_t, a_x = _bracket(kind, R)
    rhs_t, rhs_x = _recurrence(entries, g, R, etas)
    residuals = np.stack([rhs_t - dt, rhs_x - dx, a_t * dt + a_x * dx - bracket], axis=-1)
    A = (residuals[:, 1:] - residuals[:, :1]).swapaxes(1, 2)
    condition = np.linalg.cond(A)
    degenerate = ~(condition <= _MAX_CONDITION)
    if degenerate.any():
        i = int(np.argmax(degenerate))
        t0, x0 = germ._points[i]
        raise DegeneratePointError(f"reconstruction at ({t0}, {x0}) has condition {condition[i]:.3g}")
    reconstructed = np.linalg.solve(A, -residuals[:, 0, :, None])[:, _pos(*_RECONSTRUCTED) - known, 0]
    pairs = np.stack([reconstructed, stack._tables(kind, order)[:, _pos(*_RECONSTRUCTED)]], axis=-1)
    return pairs if germ._stacked else tuple(pairs[0].tolist())
