"""The four-parameter point-symmetry group of u_t + u*u_x + u_xxx = 0.

A group element is the composition (applied left to right) of a time
translation eps1, a space translation eps2, a Galilean boost eps3 and a
scaling eps4, acting on base variables as

    T = exp(3*eps4) * (t + eps1)
    X = exp(eps4)   * (x + eps2 + eps1*eps3 + eps3*t)
    U = exp(-2*eps4) * (u + eps3)

Derivative coordinates of any order transform in closed form: the boost mixes
t-derivatives into x-derivatives through a binomial sum and the scaling acts
with weight 3*a1 + a2 + 2 on the multi-index (a1, a2).  This transformation
law is written once, in :func:`_weight` and :func:`_transform`: it drives
:func:`prolong_act`, the infinitesimal coefficients :func:`eta_alpha`, and the
normalized invariants, which are the prolonged action evaluated at the moving
frame, I_alpha = (rho . z)_alpha; an action or product that leaves double
range is a DomainError.  It runs on the dense entries of a jet, floats or
series rows, from one cached plan of index rows per order.  The module also
hosts the infinitesimal side: vector fields c1*d_t + c2*d_x + c3*(t d_x + d_u) + c4*(3t d_t + x d_x - 2u d_u),
their prolongation coefficients, and the exact application of the prolonged
field to jet functions in vector forward mode: each coordinate c is lifted
once to the order-1 series c + eps*(its coefficient), and the eps coefficient
of every value the function returns is that value's derivative along the
flow.  First-order coefficients do not mix, so one lift serves every output
and two fields at once, one in each first-order slot of the series.

Batched forms are exact, not approximate: a list of outputs of one lift, the
second field of a pair, and every boost sum of a table read off one plan are
each bit-identical to computing that value alone, one term at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UsageError
from .jets import Jet, _entries, _is_multi_index, _one_or_many, _rows_for
from .taylor import TruncatedSeries, _pos, _read_only, _row_products, multi_indices


@dataclass(frozen=True)
class GroupElement:
    """Parameters (eps1, eps2, eps3, eps4) of one symmetry transformation."""

    eps1: float = 0.0
    eps2: float = 0.0
    eps3: float = 0.0
    eps4: float = 0.0

    @classmethod
    def identity(cls):
        return cls(0.0, 0.0, 0.0, 0.0)

    def params(self):
        return (self.eps1, self.eps2, self.eps3, self.eps4)


def _in_range(compute, what, *args):
    """compute(), a tuple of floats; an overflow or a non-finite value is a DomainError."""
    try:
        values = compute()
    except (OverflowError, ZeroDivisionError):
        values = (math.inf,)
    if not all(map(math.isfinite, values)):
        raise DomainError(what.format(*args) + " leaves double-precision range")
    return values


def act_point(g, point):
    """Image (T, X, U) of a base-space point (t, x, u) under g.

    An image coordinate that leaves double-precision range is a DomainError.
    """
    t, x, u = point

    def image():
        b = math.exp(g.eps4)
        return (
            b**3 * (t + g.eps1),
            b * (x + g.eps2 + g.eps1 * g.eps3 + g.eps3 * t),
            (u + g.eps3) / b**2,
        )

    return _in_range(image, "image of the point {} under {}", point, g)


def _scaled(rate, e4, param):
    """exp(rate*e4) * param; a zero param stays the zero of its sign, even where exp overflows."""
    if param == 0.0:
        return param  # the sign exp(...) * param has, since exp(...) > 0
    return math.exp(rate * e4) * param


def compose(g2, g1):
    """Element acting as g1 first, then g2 (the group product g2 * g1).

    The parameter law below is the canonical re-extraction of
    (eps1, eps2, eps3, eps4) from the composition of the two affine maps;
    keeping it in closed form makes eps4 exactly additive and composition
    with the identity bit-exact.  A zero parameter is never scaled, so a
    product is a DomainError only where a coordinate really leaves range.
    """
    e1, e2, e3, e4 = g1.params()
    f1, f2, f3, f4 = g2.params()

    def law():
        return (
            e1 + _scaled(-3.0, e4, f1),
            e2 + _scaled(-1.0, e4, f2) - _scaled(-3.0, e4, f1) * e3,
            e3 + _scaled(2.0, e4, f3),
            e4 + f4,
        )

    return GroupElement(*_in_range(law, "product of {} and {}", g2, g1))


def inverse(g):
    e1, e2, e3, e4 = g.params()

    def law():
        return (
            -_scaled(3.0, e4, e1),
            -_scaled(1.0, e4, e2 + e1 * e3),
            -_scaled(-2.0, e4, e3),
            -e4,
        )

    return GroupElement(*_in_range(law, "inverse of {}", g))


def _weight(alpha):
    """Scaling weight 3*a1 + a2 + 2 of the derivative coordinate u_alpha."""
    a1, a2 = alpha
    return 3 * a1 + a2 + 2


class _BoostPlan(NamedTuple):
    """Index rows of the boost sums of every alpha of one order (see :func:`_boost_plan`)."""

    target: np.ndarray  # per term: row of alpha
    source: np.ndarray  # per term: row of u[a1 - k, a2 + k]
    k: np.ndarray  # per term: power of the boost
    comb: np.ndarray  # per term: C(a1, k), as a float
    weight: np.ndarray  # per alpha: 3*a1 + a2 + 2
    weights: tuple  # distinct weights of the alphas of positive order
    # the terms with k = 1, one per alpha with a1 >= 1: its row, the row of
    # u[a1 - 1, a2 + 1] and a1
    lowered: tuple


@functools.lru_cache(maxsize=None)
def _boost_plan(order):
    """Terms C(a1, k) b^k u[a1 - k, a2 + k] of every alpha of multi_indices(order), built on first use.

    Terms are grouped by alpha in storage order and run over k in increasing
    order within it, the order in which a loop over k adds them.
    """
    alphas = multi_indices(order)
    terms = [(i, _pos(a1 - k, a2 + k), k, math.comb(a1, k))
             for i, (a1, a2) in enumerate(alphas) for k in range(a1 + 1)]
    target, source, k, comb = (np.array(column) for column in zip(*terms))
    comb = comb.astype(float)
    weight = np.array([_weight(alpha) for alpha in alphas])
    return _BoostPlan(
        *map(_read_only, (target, source, k, comb, weight)),
        tuple(sorted(set(weight[1:].tolist()))),
        tuple(_read_only(column[k == 1]) for column in (target, source, comb)),
    )


def _per_row(values, data):
    """One value per row of `data`, shaped to scale its entries: floats, or rows of series."""
    return values.reshape(values.shape + (1,) * (data.ndim - 1))


def _times(a, b):
    """Entrywise product of two arrays of jet entries: floats, or series rows."""
    return a * b if a.ndim == 1 else _row_products(a, b)


def _boost_powers(b, top, order):
    """Rows b**0, ..., b**top, each bit-identical to b**k, then zero rows up to `order`.

    A series power is the previous one times b, which is how ** computes it.
    A float power that leaves double-precision range is a DomainError.
    """
    if isinstance(b, TruncatedSeries):
        rows = np.zeros((order + 1, b.coeffs.size))
        power = TruncatedSeries.constant(1.0, b.order)
        rows[0] = power.coeffs
        for k in range(1, top + 1):
            power = power * b
            rows[k] = power.coeffs
        return rows
    try:
        return np.array([b**k for k in range(top + 1)] + [0.0] * (order - top))
    except OverflowError:
        raise DomainError(f"a power up to {b!r}**{top} of the boost overflows a double") from None


def _transform(data, order, powers, scales):
    """scales[w] * sum_k C(a1, k) powers[k] u[a1 - k, a2 + k] for every alpha of multi_indices(order).

    This is u_alpha after a Galilean boost by b, the powers of b being
    ``_boost_powers``, then a scaling with one factor per weight
    w = 3*a1 + a2 + 2: the transformation law of every derivative
    coordinate, closed at fixed total order.  `data` holds the entries of a
    jet of order >= `order`, floats or series rows, and `scales` is indexed
    by weight.  Each term is one gather and one product (one row-stacked
    series product), the sums are one bincount that adds each alpha's terms
    in k order, and the scaling is one more product, so every entry is
    bit-identical to the loop over k that it replaces.  Overflow gives inf
    or nan, which callers report.
    """
    plan = _boost_plan(order)
    size = len(plan.weight)
    terms = _times(_per_row(plan.comb, powers) * powers[plan.k], data[plan.source])
    if terms.ndim == 1:
        sums = np.bincount(plan.target, terms, size)
    else:  # one bin per (alpha, coefficient)
        width = terms.shape[1]
        bins = plan.target[:, None] * width + np.arange(width)
        sums = np.bincount(bins.ravel(), terms.ravel(), size * width).reshape(size, width)
    return _times(scales[plan.weight], sums)


def _first_non_finite(values, alphas):
    """The first alpha whose value is not finite, and that value; None if all are finite."""
    finite = np.isfinite(values)
    if finite.all():
        return None
    i = int(np.argmin(finite))
    return alphas[i], values[i].item()


def _exp_or_inf(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def prolong_act(g, jet):
    """Prolonged action of g on a jet; the output jet has the same order.

    The base point moves by :func:`act_point`.  Each derivative coordinate
    with multi-index (a1, a2), a1 + a2 >= 1, becomes

        U_alpha = exp(-(3*a1 + a2 + 2)*eps4)
                  * sum_k C(a1, k) (-eps3)^k u[a1 - k, a2 + k]

    i.e. the boost by -eps3 followed by the scaling of weight 3*a1 + a2 + 2,
    with one math.exp per distinct weight.  A transformed coordinate that
    leaves double-precision range is a DomainError.
    """
    T, X, U0 = act_point(g, (jet.t, jet.x, jet.u[(0, 0)]))
    order = jet.order
    plan = _boost_plan(order)
    scales = np.zeros(3 * order + 3)
    scales[list(plan.weights)] = [_exp_or_inf(-w * g.eps4) for w in plan.weights]
    with np.errstate(over="ignore", invalid="ignore"):
        values = _transform(jet.data, order, _boost_powers(-g.eps3, order, order), scales)
    values[0] = U0
    bad = _first_non_finite(values, multi_indices(order))
    if bad is not None:
        raise DomainError(f"transformed u_{bad[0]} under {g} leaves double-precision range")
    return Jet(order, T, X, values)


@dataclass(frozen=True)
class VectorField:
    """Infinitesimal generator with coefficients in the standard basis.

    The field is tau*d_t + xi*d_x + eta*d_u with
    tau = 3*c4*t + c1, xi = c4*x + c3*t + c2, eta = -2*c4*u + c3.
    """

    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0
    c4: float = 0.0

    @classmethod
    def time_translation(cls):
        return cls(c1=1.0)

    @classmethod
    def space_translation(cls):
        return cls(c2=1.0)

    @classmethod
    def galilean_boost(cls):
        return cls(c3=1.0)

    @classmethod
    def scaling(cls):
        return cls(c4=1.0)

    @classmethod
    def basis(cls):
        return (
            cls.time_translation(),
            cls.space_translation(),
            cls.galilean_boost(),
            cls.scaling(),
        )

    def tau(self, t, x, u):
        return 3.0 * self.c4 * t + self.c1

    def xi(self, t, x, u):
        return self.c4 * x + self.c3 * t + self.c2

    def eta(self, t, x, u):
        return -2.0 * self.c4 * u + self.c3


def _eta_rows(fields, jet):
    """eta^alpha of each field at every alpha of the jet, one row of entries per field.

    -(3*a1 + a2 + 2)*c4*u_alpha - a1*c3*u[a1-1, a2+1], plus c3 at (0, 0);
    the a1*c3 term is the k = 1 term of the boost sum.
    """
    data, plan = jet.data, _boost_plan(jet.order)
    column = (-1,) + (1,) * data.ndim  # one row of entries per field
    c3 = np.array([v.c3 for v in fields]).reshape(column)
    c4 = np.array([v.c4 for v in fields]).reshape(column)
    etas = (-_per_row(plan.weight, data) * c4) * data
    etas[(slice(None),) + (0,) * data.ndim] += c3.ravel()  # the constant term of u's coefficient
    target, source, a1 = plan.lowered
    etas[:, target] -= (_per_row(a1, data) * c3) * data[source]
    return etas


def eta_alpha(v, alpha, jet):
    """Coefficient of d/du_alpha in the prolongation of v, evaluated on a jet.

    For a1 + a2 >= 1 this is -(3*a1 + a2 + 2)*c4*u_alpha - a1*c3*u[a1-1, a2+1];
    at (0, 0) it is the u-coefficient of the field itself, -2*c4*u + c3.
    `alpha` may also be a sequence of multi-indices; the result is then the
    list of their coefficients, from one pass over the jet's entries.
    """
    alphas, shape = _one_or_many(alpha, _is_multi_index)
    _, rows = _rows_for(alphas, jet.order)
    (etas,) = _eta_rows((v,), jet)
    return shape(_entries(etas[: len(alphas)] if rows is None else etas[rows]))


# the first-order slots of an order-1 series, one flow parameter each
_SLOTS = ((1, 0), (0, 1))


def _lift(c, dt_slope, dx_slope=0.0):
    """c + dt_slope*eps_1 + dx_slope*eps_2: an order-1 series, one flow parameter per slot."""
    return TruncatedSeries.affine(c, dt_slope, dx_slope, 1)


def _eps_coefficient(value, slot=_SLOTS[0]):
    """d/deps at eps = 0 of a lifted computation (of each element of a list or tuple)."""
    if isinstance(value, (list, tuple)):
        return [_eps_coefficient(element, slot) for element in value]
    if not isinstance(value, TruncatedSeries):  # a plain number is constant
        return 0.0
    d = value.coeff(*slot)
    if not math.isfinite(d):
        raise DomainError("derivative along the flow is not finite at this point")
    return d


def pr_v_apply(v, F, jet):
    """Apply the prolonged vector field to a jet function, exactly.

    Every coordinate is lifted along the flow of v, t + eps*tau,
    x + eps*xi, u_alpha + eps*eta^alpha, and F is evaluated once on that
    jet of series; the eps coefficient of the result is
    tau*dF/dt + xi*dF/dx + sum_alpha eta^alpha * dF/du_alpha at `jet`.
    F may use only arithmetic that TruncatedSeries supports.  The result
    vanishes (up to roundoff) exactly when F is a differential invariant of
    the one-parameter group generated by v.  F may also return a list or
    tuple: the result is then a list of floats in the same order, each equal,
    bit for bit, to the call on that element alone.

    `v` may also be a pair of fields: the first rides in the dt slot of the
    lift and the second in the dx slot, F is evaluated once, and the result
    is the list of the two fields' results, each bit-identical to its own call.
    """
    fields, shape = _one_or_many(v, lambda arg: isinstance(arg, VectorField))
    if not 1 <= len(fields) <= len(_SLOTS):
        raise UsageError(f"pr_v_apply lifts one or two fields at once, got {len(fields)}")
    t, x, u = jet.t, jet.x, jet.u[(0, 0)]
    lift = np.zeros((len(jet.data), 3))  # one order-1 series per entry
    lift[:, 0] = jet.data
    for w, slot in zip(fields, _SLOTS):
        lift[:, _pos(*slot)] = eta_alpha(w, jet.indices(), jet)
    lifted = Jet(
        jet.order,
        _lift(t, *(w.tau(t, x, u) for w in fields)),
        _lift(x, *(w.xi(t, x, u) for w in fields)),
        lift,
    )
    value = F(lifted)
    return shape([_eps_coefficient(value, slot) for slot in _SLOTS[: len(fields)]])


def determining_equation_residuals(v, t, x, u):
    """Residuals of the eight linear constraints the coefficients must satisfy.

    tau_x = tau_u = xi_u = eta_t = eta_x = 0,
    eta = xi_t - (2/3) u tau_t,  eta_u = -(2/3) tau_t,  eta_u = -2 xi_x.

    Each partial is exact: the coordinate is lifted to c + eps, as in
    :func:`pr_v_apply`, and the eps coefficient of the coefficient function
    is read off.
    """
    point = {"t": t, "x": x, "u": u}

    def d(f, which):
        args = dict(point)
        args[which] = _lift(args[which], 1.0)
        return _eps_coefficient(f(**args))

    tau, xi, eta = v.tau, v.xi, v.eta
    tau_t = d(tau, "t")
    eta_u = d(eta, "u")
    return (
        d(tau, "x"),
        d(tau, "u"),
        d(xi, "u"),
        d(eta, "t"),
        d(eta, "x"),
        eta(t=t, x=x, u=u) - d(xi, "t") + (2.0 / 3.0) * u * tau_t,
        eta_u + (2.0 / 3.0) * tau_t,
        eta_u + 2.0 * d(xi, "x"),
    )
