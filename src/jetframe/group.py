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
law is written once, in :func:`_weight` and :func:`_boosted`: it drives
:func:`prolong_act`, the infinitesimal coefficients :func:`eta_alpha`, and the
normalized invariants, which are the prolonged action evaluated at the moving
frame, I_alpha = (rho . z)_alpha; an action or product that leaves double
range is a DomainError.  The module also hosts the infinitesimal side:
vector fields c1*d_t + c2*d_x + c3*(t d_x + d_u) + c4*(3t d_t + x d_x - 2u d_u),
their prolongation coefficients, and the exact application of the prolonged
field to jet functions in vector forward mode: each coordinate c is lifted
once to the order-1 series c + eps*(its coefficient), and the eps coefficient
of every value the function returns is that value's derivative along the
flow.  First-order coefficients do not mix, so one lift serves every output
and two fields at once, one in each first-order slot of the series.

Batched forms are exact, not approximate: a list of outputs of one lift, the
second field of a pair, and a boost sum read off a shared table of powers are
each bit-identical to the call that computes that value alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, UsageError
from .jets import Jet, _one_or_many
from .taylor import TruncatedSeries


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


def _powers(b, n):
    """[b**0, ..., b**n], each bit-identical to b**k.

    A series power is the previous one times b, which is how ** computes it.
    A float power that leaves double-precision range is a DomainError.
    """
    if isinstance(b, TruncatedSeries):
        powers = [TruncatedSeries.constant(1.0, b.order)]
        for _ in range(n):
            powers.append(powers[-1] * b)
        return powers
    try:
        return [b**k for k in range(n + 1)]
    except OverflowError:
        raise DomainError(f"a power up to {b!r}**{n} of the boost overflows a double") from None


def _boosted(jet, alpha, powers):
    """sum_k C(a1, k) b^k u[a1 - k, a2 + k]: u_alpha after a Galilean boost by b.

    Closed at fixed total order, because the boost trades one t-derivative
    for one x-derivative at a time.  `powers` is ``_powers(b, n)`` for some
    n >= a1, shared by every alpha of a call.  b and the jet entries may be
    floats or truncated series.
    """
    a1, a2 = alpha
    acc = 0.0
    for k in range(a1 + 1):
        acc += math.comb(a1, k) * powers[k] * jet.u[(a1 - k, a2 + k)]
    return acc


def prolong_act(g, jet):
    """Prolonged action of g on a jet; the output jet has the same order.

    The base point moves by :func:`act_point`.  Each derivative coordinate
    with multi-index (a1, a2), a1 + a2 >= 1, becomes

        U_alpha = exp(-(3*a1 + a2 + 2)*eps4)
                  * sum_k C(a1, k) (-eps3)^k u[a1 - k, a2 + k]

    i.e. the boost by -eps3 followed by the scaling of weight 3*a1 + a2 + 2.
    A transformed coordinate that leaves double-precision range is a
    DomainError.
    """
    T, X, U0 = act_point(g, (jet.t, jet.x, jet.u[(0, 0)]))
    values = {(0, 0): U0}
    powers = _powers(-g.eps3, jet.order)
    for alpha in jet.indices()[1:]:
        (values[alpha],) = _in_range(
            lambda: (math.exp(-_weight(alpha) * g.eps4) * _boosted(jet, alpha, powers),),
            "transformed u_{} under {}", alpha, g,
        )
    return Jet(order=jet.order, t=T, x=X, u=values)


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


def eta_alpha(v, alpha, jet):
    """Coefficient of d/du_alpha in the prolongation of v, evaluated on a jet.

    For a1 + a2 >= 1 this is -(3*a1 + a2 + 2)*c4*u_alpha - a1*c3*u[a1-1, a2+1];
    at (0, 0) it is the u-coefficient of the field itself, -2*c4*u + c3.
    """
    a1, a2 = alpha
    if a1 < 0 or a2 < 0:
        raise UsageError(f"invalid multi-index {alpha}")
    if a1 + a2 == 0:
        return v.eta(jet.t, jet.x, jet.u[(0, 0)])
    out = -_weight(alpha) * v.c4 * jet.value(alpha)
    if a1 > 0:
        out -= a1 * v.c3 * jet.value((a1 - 1, a2 + 1))
    return out


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
    lifted = Jet(
        jet.order,
        _lift(t, *(w.tau(t, x, u) for w in fields)),
        _lift(x, *(w.xi(t, x, u) for w in fields)),
        {alpha: _lift(c, *(eta_alpha(w, alpha, jet) for w in fields)) for alpha, c in jet.u.items()},
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
