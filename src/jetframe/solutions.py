"""Catalog of exact solutions of u_t + u*u_x + u_xxx = 0.

Each solution knows how to expand itself as a :class:`TruncatedSeries` around
an arbitrary admissible base point, which is how jets are manufactured to
machine precision.  The catalog covers

* ``Constant``  u = u0                       (trivial, frame-singular everywhere)
* ``Rational``  u = x/t                      (t != 0)
* ``Soliton``   u = 3c sech^2(sqrt(c)/2 (x - c t - phase)), c > 0
* ``Custom``    any user closure mapping base-point series (t, x) to u

The soliton profile is a derived closed form; it is validated against the
equation residual in the test suite before being used anywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, UsageError
from .jets import Jet, multi_indices
from .taylor import TruncatedSeries, _integer, series_recip, series_sech


class Solution:
    """Base class: an exact solution expandable around any admissible point."""

    name = "solution"

    def series(self, t0: float, x0: float, order: int) -> TruncatedSeries:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Solution):
    """u = u0 everywhere."""

    u0: float = 0.0
    name = "constant"

    def __post_init__(self):
        if not math.isfinite(self.u0):
            raise UsageError(f"constant solution value must be finite, got {self.u0}")

    def series(self, t0, x0, order):
        return TruncatedSeries.constant(self.u0, order)


@dataclass(frozen=True)
class Rational(Solution):
    """u = x/t, defined away from t = 0."""

    name = "rational"

    def series(self, t0, x0, order):
        if t0 == 0.0:
            raise DomainError("rational solution x/t is undefined at t = 0")
        num = TruncatedSeries.affine(x0, 0.0, 1.0, order)
        den = TruncatedSeries.affine(t0, 1.0, 0.0, order)
        return num * series_recip(den)


@dataclass(frozen=True)
class Soliton(Solution):
    """Right-moving solitary wave of speed c > 0 and crest offset `phase`."""

    c: float = 1.0
    phase: float = 0.0
    name = "soliton"

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise UsageError(f"soliton speed must be positive and finite, got {self.c}")
        if not math.isfinite(self.phase):
            raise UsageError(f"soliton phase must be finite, got {self.phase}")

    def series(self, t0, x0, order):
        k = 0.5 * math.sqrt(self.c)
        theta = TruncatedSeries.affine(
            k * (x0 - self.c * t0 - self.phase), -k * self.c, k, order
        )
        s = series_sech(theta)
        return (3.0 * self.c) * s * s


@dataclass(frozen=True)
class Custom(Solution):
    """Solution given by a closure from base-point series (t, x) to u.

    The closure receives two series of the requested order representing
    t0 + dt and x0 + dx and must return the series of u around that point.
    """

    fn: Callable[[TruncatedSeries, TruncatedSeries], TruncatedSeries]
    label: str = "custom"

    @property
    def name(self):
        return self.label

    def series(self, t0, x0, order):
        t = TruncatedSeries.affine(t0, 1.0, 0.0, order)
        x = TruncatedSeries.affine(x0, 0.0, 1.0, order)
        out = self.fn(t, x)
        if not isinstance(out, TruncatedSeries) or out.order != order:
            raise UsageError("custom solution closure must return a series of the same order")
        return out


CATALOG = ("soliton", "rational", "constant")


def make_solution(name, **params):
    """Build a catalog solution by name, validating its parameters."""
    if name == "soliton":
        return Soliton(c=params.get("c", 1.0), phase=params.get("phase", 0.0))
    if name == "rational":
        return Rational()
    if name == "constant":
        return Constant(u0=params.get("u0", 0.0))
    raise UsageError(f"unknown solution {name!r}; pick one of {CATALOG}")


def _expansion(solution, t0, x0, order):
    """`solution.series(t0, x0, order)` with its failures typed.

    A non-finite base point is a :class:`UsageError`; an arithmetic failure
    or a non-finite coefficient (the point is too far out for double
    precision) is a :class:`DomainError`.
    """
    if not (math.isfinite(t0) and math.isfinite(x0)):
        raise UsageError(f"base point must be finite, got (t0, x0) = ({t0}, {x0})")
    order = _integer(order, "expansion order")
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
            s = solution.series(t0, x0, order)
        finite = np.isfinite(s.coeffs).all()
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise DomainError(
            f"{solution.name} expansion at ({t0}, {x0}) leaves double-precision range"
        )
    return s


def jet_of_solution(solution, t0, x0, order):
    """Jet of a solution at (t0, x0) with all derivatives up to `order`.

    The solution is expanded to exactly `order` (no coefficient of degree
    <= order depends on where the expansion is cut), and the jet entries are
    read off as i! j! times the series coefficients; an entry that
    overflows a double is a :class:`DomainError`.
    """
    s = _expansion(solution, t0, x0, order)
    with np.errstate(over="ignore"):  # an overflow is reported below, by alpha
        values = s.derivatives(order, 0)[:, 0]
    finite = np.isfinite(values)
    if not finite.all():
        alpha = multi_indices(order)[int(np.argmin(finite))]
        raise DomainError(f"jet entry u_{alpha} at ({t0}, {x0}) overflows a double")
    return Jet(order, float(t0), float(x0), values)


def kdv_residual(jet):
    """u_t + u*u_x + u_xxx read off a jet (zero on exact solutions)."""
    if jet.order < 3:
        raise UsageError(f"residual needs a jet of order >= 3, got {jet.order}")
    return jet.u[(1, 0)] + jet.u[(0, 0)] * jet.u[(0, 1)] + jet.u[(0, 3)]
