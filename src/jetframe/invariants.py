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
The work that does not depend on alpha is done once per call: the pivot and
its singular test, ln|pivot| or one series power per distinct weight, the
powers of u, and the germ with its series jet.  The boost sums of all
alphas are one pass over the jet's dense entries
(:func:`jetframe.group._transform`).  Each element of the list is
bit-identical to the call on that element alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import DegeneratePointError, DomainError, UsageError
from .frame import FrameKind, moving_frame, require_regular_pivot
from .group import (
    _UNITS,
    VectorField,
    _boost_plan,
    _boost_powers,
    _eta_rows,
    _first_non_finite,
    _transform,
    _weight,
    act_point,
)
from .jets import Jet, MultiIndex, _entries, _is_multi_index, _one_or_many, _rows_for
from .solutions import _expansion, jet_of_solution
from .taylor import MAX_ORDER, TruncatedSeries, _integer, _multi_index, _pos, multi_indices, series_pow


def _prefactors(p, branch, weights, w_den, size):
    """|p|^(-w/w_den) at index w, for each w in `weights`, zero elsewhere up to `size`.

    These are the fractional-power prefactors of a frame.  A float pivot p
    gives exp(-w*ln|p|/w_den), with ln|p| taken once; a series pivot gives
    the rows of series_pow(branch*p, -w/w_den), whose constant term branch*p
    is positive.  A pivot just above the singular threshold can overflow
    this power at high weight; that is a DomainError, not an arithmetic crash.
    """
    try:
        if isinstance(p, TruncatedSeries):
            base = branch * p
            scales = np.zeros((size, p.coeffs.size))
            for w in weights:
                scales[w] = series_pow(base, -w / w_den).coeffs
            return scales
        log_p = math.log(abs(p))
        scales = np.zeros(size)
        scales[list(weights)] = [math.exp(-w * log_p / w_den) for w in weights]
        return scales
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
        scales = _prefactors(p, branch, weights, kind.weight_denominator, 3 * order + 3)
        powers = _boost_powers(jet.u[(0, 0)], top, order)
        values = _transform(jet.data, order, powers, scales)
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
        values = np.zeros((len(alphas),) + jet.data.shape[1:])
    else:
        derived = None if rows is None else [a for a in alphas if sum(a) > 0]
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
        jet = Jet(self.order, 0.0, 0.0, self.values)
        if jet.data.ndim != 1:
            raise UsageError("invariant table entries must be real numbers, not series")
        object.__setattr__(self, "_jet", jet)
        object.__setattr__(self, "values", jet.u)
        object.__setattr__(self, "phantoms", MappingProxyType(dict(self.phantoms)))

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
        return _corrections(self)


def invariant_table(jet, kind, order):
    """Tabulate every I_alpha with total order <= `order` at one jet."""
    order = _integer(order, "table order", high=jet.order)
    frame = moving_frame(jet, kind)
    values = normalized_invariant(jet, multi_indices(order), kind, (frame.pivot, frame.branch), _dense=True)
    t, x, u = act_point(frame.rho, (jet.t, jet.x, jet.u[(0, 0)]))
    pivot_key = "u_t" if kind is FrameKind.T_NORMALIZED else "u_x"
    phantoms = {"t": t, "x": x, "u": u, pivot_key: float(frame.branch)}
    return InvariantTable(
        kind=kind, order=order, branch=frame.branch, values=values, phantoms=phantoms
    )


class SolutionGerm:
    """Taylor expansions of jet data and invariants along one solution.

    Everything is expanded around a fixed base point (t0, x0) to a fixed
    total order, so invariant differentiation becomes exact series algebra:
    each application of an invariant derivative costs one series order.
    """

    def __init__(self, solution, t0, x0, order):
        self.solution = solution
        self.t0 = float(t0)
        self.x0 = float(x0)
        self.order = order
        self._master = _expansion(solution, t0, x0, order)

    def series_jet(self, jet_order, order):
        """Jet at the base point whose entries are the order-`order` series of every u_alpha."""
        return Jet(jet_order, self.t0, self.x0, self._master.derivatives(jet_order, order))

    def invariant_series(self, alpha, kind, order):
        """Series of (t, x) -> I_alpha(jet at (t, x)) along the solution.

        For a sequence of multi-indices, one series jet serves them all and
        the result is the list of their series.
        """
        alphas, shape = _one_or_many(alpha, _is_multi_index)
        jet = self.series_jet(_rows_for(alphas, MAX_ORDER)[0], order)  # a germ too short is a UsageError
        return shape(normalized_invariant(jet, alphas, kind))

    def differentiate(self, series, kind):
        """(D_t^i s, D_x^i s): both invariant derivatives of the frame; series order drops by one.

        time-normalized:  D_t^i = |pivot|^(-3/5) (D_t + u D_x),  D_x^i = |pivot|^(-1/5) D_x
        space-normalized: D_t^i = |u_x|^(-1) (D_t + u D_x),      D_x^i = |u_x|^(-1/3) D_x

        i.e. |pivot| to minus the scaling weight of t (3) or of x (1) over
        the frame's weight denominator.  For a list of series of one order
        the result is the pair of lists of their derivatives, from one series
        jet, pivot test and prefactor call; series of different orders are a
        UsageError, and ``differentiate([])`` is ``([], [])``.
        """
        items, shape = _one_or_many(series, lambda arg: isinstance(arg, TruncatedSeries))
        orders = {s.order for s in items}
        if len(orders) > 1:
            raise UsageError(f"series differentiated in one call share one order, got {sorted(orders)}")
        if not items:
            return [], []
        order = items[0].order - 1
        jet = self.series_jet(1, order)  # a series too short is a UsageError
        p, branch = require_regular_pivot(jet, kind)
        scales = _prefactors(p, branch, (3, 1), kind.weight_denominator, 4)
        scale_t, scale_x = (TruncatedSeries._wrap(order, scales[w]) for w in (3, 1))
        u = jet.u[(0, 0)]
        d_t, d_x = [], []
        for s in items:
            rows = s.derivatives(1, order)  # the d/dt and d/dx rows of s
            dt, dx = (TruncatedSeries._wrap(order, rows[_pos(*e)]) for e in _UNITS)
            d_t.append(scale_t * (dt + u * dx))
            d_x.append(scale_x * dx)
        return shape(d_t), shape(d_x)


def invariant_derivative(solution, t0, x0, alpha, kind):
    """(D_t^i I_alpha, D_x^i I_alpha) at (t0, x0) along `solution`, exact to machine precision.

    For a sequence of multi-indices, one germ serves them all and the result
    is the list of their pairs.
    """
    alphas, shape = _one_or_many(alpha, _is_multi_index)
    germ = SolutionGerm(solution, t0, x0, _rows_for(alphas, MAX_ORDER)[0] + 1)
    dtF, dxF = germ.differentiate(germ.invariant_series(alphas, kind, 1), kind)
    return shape([(dt.value, dx.value) for dt, dx in zip(dtF, dxF)])


def invariant_commutator(solution, t0, x0, alpha, kind):
    """(I_alpha, D_t^i I_alpha, D_x^i I_alpha, bracket) at (t0, x0), from one germ.

    The bracket follows each frame's own orientation convention:
    [D_t^i, D_x^i] I_alpha for the time-normalized frame and
    [D_x^i, D_t^i] I_alpha for the space-normalized one.  For a sequence of
    multi-indices, one germ serves them all and the result is the list of
    their 4-tuples.
    """
    alphas, shape = _one_or_many(alpha, _is_multi_index)
    germ = SolutionGerm(solution, t0, x0, _rows_for(alphas, MAX_ORDER)[0] + 2)
    F = germ.invariant_series(alphas, kind, 2)
    dtF, dxF = germ.differentiate(F, kind)
    dt2, dx2 = germ.differentiate(dtF + dxF, kind)  # the bracket reads D_t^i dxF and D_x^i dtF
    out = []
    for f, dt, dx, tx, xt in zip(F, dtF, dxF, dt2[len(F):], dx2):
        bracket = tx.value - xt.value if kind is FrameKind.T_NORMALIZED else xt.value - tx.value
        out.append((f.value, dt.value, dx.value, bracket))
    return shape(out)


def _plus(alpha, e):
    return (alpha[0] + e[0], alpha[1] + e[1])


def _corrections(table):
    """Correction matrix R[kappa][j] = R_j^kappa, kappa over VectorField.basis(), j over (t, x).

    The phantoms z = t, x, u, u_p are constant on the cross-section, so R solves
    0 = iota(D_j z) + sum_kappa R_j^kappa iota(v_kappa z) on the invariantized jet J.
    """
    p, origin = table.kind.pivot_alpha, (0.0, 0.0, 0.0)
    fields = VectorField.basis()
    v_z = [[v.tau(*origin), v.xi(*origin), v.eta(*origin), etas[_pos(*p)]] for v, etas in zip(fields, table._etas)]
    # iota(D_j z): D_j t and D_j x are the units themselves, D_j u_z is u_(z + e_j)
    d_z = [list(e) for e in _UNITS] + [[table.value(_plus(z, e)) for e in _UNITS] for z in ((0, 0), p)]
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
    d_t, d_x = (table.value(_plus(alpha, e)) for e in _UNITS)  # alpha + e_j in the table, so alpha too
    for etas, r in zip(table._etas, table._R):
        eta = etas[_pos(*alpha)]
        d_t += float(r[0]) * eta
        d_x += float(r[1]) * eta
    return d_t, d_x


def _xi_jacobian():
    """iota(D_j xi^l_kappa) as [kappa][l][j], kappa over VectorField.basis(), l and j over (t, x).

    tau and xi are affine in (t, x) and free of u, so this is a constant
    partial derivative, read off by forward mode on t and x lifted to eps_t and eps_x.
    """
    t, x = (TruncatedSeries.affine(0.0, *e, 1) for e in _UNITS)
    fields = VectorField.basis()
    return tuple(tuple(tuple(f(t, x, 0.0).coeff(*e) for e in _UNITS) for f in (v.tau, v.xi)) for v in fields)


_XI_JACOBIAN = _xi_jacobian()


def commutator_coefficients(table):
    """Coefficients (aT, aX) of [D_a^i, D_b^i] = aT*D_t^i + aX*D_x^i.

    (a, b) is (t, x) in the time-normalized frame and (x, t) in the
    space-normalized one.  By the universal recurrence formula (Fels & Olver,
    Moving coframes II, Acta Appl. Math. 1999), with xi^t = tau and xi^x = xi,

        Y^l = sum_kappa (R_b^kappa iota(D_a xi^l_kappa) - R_a^kappa iota(D_b xi^l_kappa)).

    iota(D_j xi^l_kappa) is read off :data:`_XI_JACOBIAN`.
    """
    a, b = (0, 1) if table.kind is FrameKind.T_NORMALIZED else (1, 0)
    out = [0.0, 0.0]
    for jacobian, r in zip(_XI_JACOBIAN, table._R):
        for l, d_xi in enumerate(jacobian):
            out[l] += float(r[b]) * d_xi[a] - float(r[a]) * d_xi[b]
    return tuple(out)


# the invariant that reconstruction rebuilds, and the worst conditioning it accepts
_RECONSTRUCTED = (2, 0)
_MAX_CONDITION = 1e8


def reconstruct_generators(solution, t0, x0, kind):
    """Rebuild I[2,0] from the frame's generating invariant I_g, g the non-pivot unit.

    D_t^i I_g, D_x^i I_g and the bracket of I_g, taken along the solution, obey
    the universal recurrence formula (Fels & Olver, Moving coframes II, Acta
    Appl. Math. 1999) on an order-2 table whose first-order entries are known.
    R is affine in the table's second-order entries, so the residuals of
    `recurrence_rhs` and `commutator_coefficients` are too: their coefficients
    are read exactly at zero and at the unit vectors, and one 3x3 solve gives
    I[2,0].  Returns (reconstructed, direct) to compare with the closed form.
    """
    order = sum(_RECONSTRUCTED)
    jet = jet_of_solution(solution, t0, x0, order)
    _, branch = require_regular_pivot(jet, kind)
    g = next(e for e in _UNITS if e != kind.pivot_alpha)
    i_g, dt, dx, bracket = invariant_commutator(solution, t0, x0, g, kind)
    unknowns = [a for a in multi_indices(order) if sum(a) == order]
    # the rows below the unknowns in storage order: I[0,0] = 0, the pivot's branch and I_g
    known = np.zeros(len(multi_indices(order)) - len(unknowns))
    known[_pos(*kind.pivot_alpha)], known[_pos(*g)] = branch, i_g

    def residuals(entries):
        table = InvariantTable(kind, order, branch, np.concatenate((known, entries)), {})
        a_t, a_x = commutator_coefficients(table)
        rhs_t, rhs_x = recurrence_rhs(table, g)
        return np.array([rhs_t - dt, rhs_x - dx, a_t * dt + a_x * dx - bracket])

    at_zero = residuals(np.zeros(len(unknowns)))
    A = np.column_stack([residuals(e) - at_zero for e in np.eye(len(unknowns))])
    condition = np.linalg.cond(A)
    if not condition <= _MAX_CONDITION:
        raise DegeneratePointError(f"reconstruction at ({t0}, {x0}) has condition {condition:.3g}")
    reconstructed = np.linalg.solve(A, -at_zero)[unknowns.index(_RECONSTRUCTED)]
    return float(reconstructed), normalized_invariant(jet, _RECONSTRUCTED, kind)
