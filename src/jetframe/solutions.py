"""Catalog of exact solutions of u_t + u*u_x + u_xxx = 0.

A solution is a map of series: given the two input series t0 + dt and
x0 + dx, it returns the series of u around (t0, x0).  :func:`_expansions`
builds those inputs for a stack of points, once for every solution, and
checks what comes back; that is how jets are manufactured to machine
precision.  Each catalog class writes its profile on the coefficient rows
of a stack of input series (``_rows``), so the points of one catalog class
in a stack expand in one row pass, each bit for bit its own
``series(t, x)``.  The soliton's profile is written once, on rows of any
input series (:func:`_soliton`), and ``Soliton.series(t, x)`` is its
one-row case; ``Rational.series`` runs x * series_recip(t), the two
kernels its rows run, in series arithmetic.  A ``Custom`` solution's
series runs point by point.  The verify battery draws its points first and
expands each stack of them in one call (equivariance, invariance, phantom
and kdv-residual through their float jets, the germ suites through their
germs); only singular-sets expands point by point, through
:func:`jet_of_solution`.  The catalog covers

* ``Constant``  u = u0                       (trivial, frame-singular everywhere)
* ``Rational``  u = x/t                      (t != 0)
* ``Soliton``   u = 3c sech^2(sqrt(c)/2 (x - c t - phase)), c > 0
* ``Custom``    any user closure mapping the input series (t, x) to u

The soliton profile is a derived closed form; it is validated against the
equation residual in the test suite before being used anywhere else.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, UsageError
from .jets import Jet, _first_non_finite, multi_indices
from .taylor import TruncatedSeries, _compose, _derivative_table, _integer, _pos, _row_products, series_recip, triangle_size


class Solution:
    """Base class: an exact solution, as a map of its input series.

    :meth:`series` takes the series t = t0 + dt and x = x0 + dx of one order
    and returns the series of u at that order; the expansion that calls it
    (:func:`_expansions`) checks the result.
    """

    name = "solution"

    def series(self, t: TruncatedSeries, x: TruncatedSeries) -> TruncatedSeries:
        raise UsageError(f"{type(self).__name__} does not define series(t, x)")


def _require_real_fields(solution):
    """A catalog parameter that is not a real number is a UsageError, before its range is checked."""
    for f in dataclasses.fields(solution):
        value = getattr(solution, f.name)
        if not (type(value) is float or isinstance(value, numbers.Real)):
            raise UsageError(f"{solution.name} parameter {f.name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class Constant(Solution):
    """u = u0 everywhere."""

    u0: float = 0.0
    name = "constant"

    def __post_init__(self):
        _require_real_fields(self)
        if not math.isfinite(self.u0):
            raise UsageError(f"constant solution value must be finite, got {self.u0}")

    def series(self, t, x):
        return TruncatedSeries.constant(self.u0, t.order)

    @staticmethod
    def _rows(solutions, t, x):
        u = np.zeros(t.shape)
        u[:, 0] = [s.u0 for s in solutions]
        return u


@dataclass(frozen=True)
class Rational(Solution):
    """u = x/t, defined away from t = 0."""

    name = "rational"

    def series(self, t, x):
        if t.value == 0.0:
            raise DomainError("rational solution x/t is undefined at t = 0")
        return x * series_recip(t)

    @staticmethod
    def _rows(solutions, t, x):
        # series(t, x) on each row: series_recip is one _compose, and x * 1/t one _row_products
        return _row_products(x, _compose("pow", t, (-1,)).reshape(t.shape))


@dataclass(frozen=True)
class Soliton(Solution):
    """Right-moving solitary wave of speed c > 0 and crest offset `phase`."""

    c: float = 1.0
    phase: float = 0.0
    name = "soliton"

    def __post_init__(self):
        _require_real_fields(self)
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise UsageError(f"soliton speed must be positive and finite, got {self.c}")
        if not math.isfinite(self.phase):
            raise UsageError(f"soliton phase must be finite, got {self.phase}")

    def series(self, t, x):
        x._check_order(t)
        return TruncatedSeries._wrap(x.order, _soliton(float(self.c), float(self.phase), t.coeffs, x.coeffs))

    @staticmethod
    def _rows(solutions, t, x):
        p = np.array([(s.c, s.phase) for s in solutions], dtype=float)
        return _soliton(p[:, :1], p[:, 1], t, x)


def _soliton(c, phase, t, x):
    """u = 3c sech^2(k (x - c t - phase)), k = sqrt(c)/2, on coefficient rows of the input series t and x.

    One series takes float parameters and the 1-D rows of t and x; a stack
    of n series takes c as an (n, 1) column and phase as n values, one per
    row of t and x.  Each row is bit for bit the one-row call on its own
    parameters: the sech rows come from one
    :func:`~jetframe.taylor._compose`, and the profile is ((3c) s) s, one
    row scale and one :func:`~jetframe.taylor._row_products`.
    """
    theta = x - c * t
    theta.T[0] -= phase  # the constant term of each row
    theta *= 0.5 * np.sqrt(c)
    s = _compose("sech", theta.reshape(-1, theta.shape[-1]), (None,)).reshape(theta.shape)
    return _row_products((3.0 * c) * s, s)


@dataclass(frozen=True)
class Custom(Solution):
    """Solution given by a closure from the input series (t, x) to the series of u.

    The closure receives the two series t0 + dt and x0 + dx and must return
    the series of u around that point, at their order.
    """

    fn: Callable[[TruncatedSeries, TruncatedSeries], TruncatedSeries]
    label: str = "custom"

    @property
    def name(self):
        return self.label

    def series(self, t, x):
        return self.fn(t, x)


_CATALOG = {cls.name: cls for cls in (Soliton, Rational, Constant)}
CATALOG = tuple(_CATALOG)


def make_solution(name, **params):
    """Build a catalog solution by name from the entries of `params` it takes, validating them."""
    cls = _CATALOG.get(name)
    if cls is None:
        raise UsageError(f"unknown solution {name!r}; pick one of {CATALOG}")
    return cls(**{f.name: params[f.name] for f in dataclasses.fields(cls) if f.name in params})


def _expansions(points, order):
    """The expansions of u at the (solution, t0, x0) `points`: one coefficient row per point, in their order.

    Row i is `solution.series(t, x)` on the input series t0 + dt and x0 + dx
    of order `order`, bit for bit.  The points of each catalog class with
    two or more points in the stack run its profile once, on the rows of all
    of them (:func:`_row_passes`); a lone point, and every point of any
    other class, runs its own series point by point (for one point the row
    pass costs more than the one-row case, and gives the same bits).  A
    `solution` that is not a :class:`Solution`, a base point that is not
    two finite real numbers, or a result that is not a series of the
    inputs' order is a :class:`UsageError`; an arithmetic failure or a
    non-finite coefficient (the point is too far out for double precision)
    is a :class:`DomainError`, at the first such point in stack order.
    """
    for solution, t0, x0 in points:
        if not isinstance(solution, Solution):
            raise UsageError(f"expected a catalog or custom Solution, got {type(solution).__name__}")
        if not all((type(v) is float or isinstance(v, numbers.Real)) and math.isfinite(v) for v in (t0, x0)):
            raise UsageError(f"base point must be two finite real numbers, got (t0, x0) = ({t0!r}, {x0!r})")
    order = _integer(order, "expansion order")
    rows = np.empty((len(points), triangle_size(order)))
    own = range(len(points))  # the points that run their own series(t, x), in stack order
    failed = len(points)  # the first point whose expansion leaves double range
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        if len(points) > 1:
            own, failed = _row_passes(points, order, rows)
        for i in own:
            if i >= failed:
                break
            solution, t0, x0 = points[i]
            t, x = TruncatedSeries.affine(t0, 1.0, 0.0, order), TruncatedSeries.affine(x0, 0.0, 1.0, order)
            try:
                s = solution.series(t, x)
                if not isinstance(s, TruncatedSeries) or s.order != order:
                    raise UsageError(f"{solution.name}: series(t, x) must return a series of the inputs' order {order}")
                rows[i] = s.coeffs
                finite = np.isfinite(s.coeffs).all()
            except (OverflowError, ZeroDivisionError):
                finite = False
            if not finite:
                failed = i
                break
    if failed < len(points):
        solution, t0, x0 = points[failed]
        raise DomainError(f"{solution.name} expansion at ({t0}, {x0}) leaves double-precision range")
    return rows


def _row_passes(points, order, rows):
    """Fill `rows` with one row pass per catalog class that has two or more of the `points`.

    Returns the points left to run their own series(t, x), in stack order,
    and the first point whose row leaves double range (len(points) if none).
    A row pass that raises (Python's ``**`` overflowing, or x/t at t = 0)
    leaves its points to their own series, which raise their own errors in
    stack order.
    """
    classes = {}
    for i, (solution, _, _) in enumerate(points):
        classes.setdefault(type(solution), []).append(i)
    own, failed = [], len(points)
    for cls, at in classes.items():
        if len(at) == 1 or cls not in _CATALOG.values():  # each catalog class has its row pass, `cls._rows`
            own += at
            continue
        tx = np.zeros((len(at), 2, rows.shape[1]))  # the rows of t0 + dt and x0 + dx
        tx[..., 0] = [points[i][1:] for i in at]
        if order:
            tx[:, 0, _pos(1, 0)] = tx[:, 1, _pos(0, 1)] = 1.0
        try:
            rows[at] = u = cls._rows([points[i][0] for i in at], tx[:, 0], tx[:, 1])
        except (ArithmeticError, DomainError):
            own += at
            continue
        finite = np.isfinite(u).all(axis=1)
        if not finite.all():
            failed = min(failed, at[finite.argmin()])
    return sorted(own), failed


def _jet_rows(coeffs, order, points):
    """The dense rows of the order-`order` jets read off expansions: one row per coefficient row of `coeffs`.

    The entries are i! j! times the coefficients of degree <= `order`, which
    lead each row in storage order; an entry that overflows a double is a
    :class:`DomainError` naming its point, (t0, x0) in `points`.
    """
    factor = _derivative_table(order, 0)[1][:, 0]  # i! j!, one per alpha
    with np.errstate(over="ignore"):  # an overflow is reported below, by alpha
        values = factor * coeffs[..., : len(factor)]
    if not np.isfinite(values).all():
        i, alpha, _ = _first_non_finite(values.reshape(len(points), -1), multi_indices(order))
        raise DomainError(f"jet entry u_{alpha} at ({points[i][0]}, {points[i][1]}) overflows a double")
    return values


def jet_of_solution(solution, t0, x0, order):
    """Jet of a solution at (t0, x0) with all derivatives up to `order`.

    The solution is expanded to exactly `order` (no coefficient of degree
    <= order depends on where the expansion is cut) and the jet is read off
    that expansion (:func:`_jet_rows`).  The expansion is the one-point
    case of :func:`_expansions`.
    """
    rows = _expansions([(solution, t0, x0)], order)
    return Jet(order, float(t0), float(x0), _jet_rows(rows[0], order, [(t0, x0)]))


def kdv_residual(jet):
    """u_t + u*u_x + u_xxx read off a jet (zero on exact solutions)."""
    if jet.order < 3:
        raise UsageError(f"residual needs a jet of order >= 3, got {jet.order}")
    return jet.u[(1, 0)] + jet.u[(0, 0)] * jet.u[(0, 1)] + jet.u[(0, 3)]
