"""Right moving frames for the two normalizations of the symmetry group.

Both frames pin the base point to the origin and u to zero; they differ in
which first-order coordinate is normalized to +-1:

* time-normalized   pivot = u_t + u*u_x,  eps4 = ln|pivot| / 5
* space-normalized  pivot = u_x,          eps4 = ln|pivot| / 3

The sign of the pivot selects the branch; it is preserved by the (connected)
group, so each branch carries its own well-defined equivariant frame.

:func:`moving_frame` and :func:`equivariance_defect` also take a stack, a
list or tuple of real jets of one order (with one element per jet for the
defect).  One jet is the stack of one: every pivot is tested by one
function, :func:`require_regular_pivots`, point by point on Python floats,
so each point of a stack is bit for bit its own call.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import SingularFrameError, UsageError
from .group import GroupElement, _paired_stack, _prolong, _weight, compose, inverse
from .jets import Jet, _stack
from .taylor import TruncatedSeries, _row_products

SINGULAR_THRESHOLD = 1e-30
_CANCEL_ULPS = 32.0 * sys.float_info.epsilon


class FrameKind(Enum):
    """Which first-order coordinate the cross-section pins to +-1."""

    T_NORMALIZED = "t"
    X_NORMALIZED = "x"

    # each fact is read once per point of a stack, so it is computed once per kind
    @cached_property
    def pivot_name(self):
        return "u_t + u*u_x" if self is FrameKind.T_NORMALIZED else "u_x"

    @cached_property
    def pivot_alpha(self):
        # multi-index whose invariantized entry is pinned to the branch sign
        # (u = 0 on the cross-section, so u_t + u*u_x normalizes like u_t)
        return (1, 0) if self is FrameKind.T_NORMALIZED else (0, 1)

    @cached_property
    def weight_denominator(self):
        # fractional-power denominator of this normalization's invariants:
        # the scaling weight of the pivot coordinate, 5 for u_t and 3 for u_x
        return _weight(self.pivot_alpha)


# the per-point pivot test reads this kind once per point, and on Python 3.11
# a lookup of an Enum member costs about 0.1 us against 0.02 us for a global
_TIME = FrameKind.T_NORMALIZED


def _require_kind(kind):
    """Anything but a FrameKind is a UsageError."""
    if not isinstance(kind, FrameKind):
        raise UsageError(f"a frame kind is a FrameKind, got {kind!r}")


def _pivot(u, u_t, u_x, kind, times=operator.mul):
    """The pivot of `kind` from u, u_t and u_x; `times` multiplies two entries."""
    return u_t + times(u, u_x) if kind is _TIME else u_x


def _singular(p0, u, u_t, u_x, kind):
    """Whether the pivot value p0 of `kind`, made of u, u_t and u_x, is singular; all are Python floats.

    A pivot is singular when it is a hard zero or a pure cancellation
    artifact: the time-normalized pivot is a sum, and a result within a few
    ulps of the magnitude of its terms means the exact pivot is zero.  u_x is
    a single coordinate, not a sum, and needs no such scale.
    """
    scale = abs(u_t) + abs(u * u_x) if kind is _TIME else 0.0
    return abs(p0) < SINGULAR_THRESHOLD or abs(p0) <= _CANCEL_ULPS * scale


def pivot_value(jet, kind):
    """The normalized quantity whose sign and size control the frame."""
    _require_kind(kind)
    if jet.order < 1:
        raise UsageError("frames need a jet of order >= 1")
    return _pivot(jet.u[(0, 0)], jet.u[(1, 0)], jet.u[(0, 1)], kind)


def _base_value(c):
    """The value at the base point of a coordinate: a float, or a series' constant term (t and x of a lift)."""
    return c.value if isinstance(c, TruncatedSeries) else c


def require_regular_pivots(data, kind, at):
    """Pivots of `kind` and their branch signs at each point of a stack; raises at the first singular one.

    `data` holds one dense row of jet entries per point, floats or series
    rows, and `at(i)` gives point i's base (t, x), floats or the series of a
    lift, read only for the error.  The singular test (:func:`_singular`)
    and the branch read each point's base-point values as Python floats: the
    float entries, or the constant terms of the series rows.  Float rows
    give the lists of the pivots and of their signs; series rows give the
    array of pivot rows and the array of signs.
    """
    _require_kind(kind)
    if data.shape[1] < 3:
        raise UsageError("frames need a jet of order >= 1")
    p, base = None, data[:, :3]  # the storage order of (0, 0), (0, 1), (1, 0)
    if data.ndim == 3:
        with np.errstate(over="ignore", invalid="ignore"):  # as silent as the test on Python floats
            p = _pivot(base[:, 0], base[:, 2], base[:, 1], kind, _row_products)
        base, constants = base[..., 0], p[:, 0].tolist()
    pivots, branches = [], []
    for i, (u, u_x, u_t) in enumerate(base.tolist()):
        p0 = _pivot(u, u_t, u_x, kind) if p is None else constants[i]
        if _singular(p0, u, u_t, u_x, kind):
            t, x = map(_base_value, at(i))
            raise SingularFrameError(kind.pivot_name, p0, f"at (t, x) = ({t}, {x})")
        pivots.append(p0)
        branches.append(1 if p0 > 0 else -1)
    return (pivots, branches) if p is None else (p, np.array(branches))


@dataclass(frozen=True)
class FrameResult:
    """Frame element at one jet, together with its branch and pivot value."""

    rho: GroupElement
    branch: int
    pivot: float


def _frame_result(t, x, u, p, branch, kind):
    """The FrameResult of the pivot `p` of `kind` and its branch at the point (t, x, u), all Python numbers.

    rho = (-t, -x, -u, ln|p| / weight): the translations and the boost
    remove the base point and u, and the scaling pins the pivot to its sign.
    """
    eps4 = math.log(abs(p)) / kind.weight_denominator
    return FrameResult(rho=GroupElement(-t, -x, -u, eps4), branch=branch, pivot=p)


def _frames(jets, data, kind):
    """(FrameResults, (pivots, branches)) of `kind` at the jets of a validated stack of real jets, `data` their entries.

    The pivots of all of them are tested at once
    (:func:`require_regular_pivots`), so the first singular point in stack
    order raises.
    """
    p, branch = pivots = require_regular_pivots(data, kind, lambda i: (jets[i].t, jets[i].x))
    frames = [_frame_result(j.t, j.x, u, q, b, kind) for j, u, q, b in zip(jets, data[:, 0].tolist(), p, branch)]
    return frames, pivots


def moving_frame(jet, kind):
    """Solve the normalization equations at `jet` for the group parameters.

    Translations and the boost remove the base point and u (eps1 = -t,
    eps2 = -x, eps3 = -u); the scaling eps4 = ln|pivot| / weight pins the
    pivot coordinate to branch = sign(pivot).  Applying the returned element
    to `jet` therefore lands exactly on the cross-section.

    `jet` may also be a list or tuple of real jets of one order, a stack:
    the result is the list of their frames, the pivots of all of them tested
    at once (:func:`require_regular_pivots`), so the first singular point in
    stack order is the SingularFrameError its own call raises.  One jet is
    the stack of one, so each frame is bit for bit its own call.
    """
    jets, _, data = _stack(jet, "moving_frame")
    frames, _ = _frames(jets, data, kind)
    return frames[0] if isinstance(jet, Jet) else frames


def equivariance_defect(jet, g, kind):
    """Max parameter-wise gap between frame(g . jet) and frame(jet) * g^-1.

    Zero (up to roundoff) is the defining property of a right moving frame.

    `jet` and `g` may also be equal-length lists or tuples of real jets of
    one order and of elements, a stack: the result is the list of one
    defect per point, each bit for bit its own call.  The pair is validated
    once (:func:`~jetframe.group._paired_stack`), and any other `jet` or `g`
    is a UsageError that names this function.  The moved jets are one pass
    of the prolonged action (:func:`~jetframe.group._prolong`), each side's
    frames one pivot test, the moved side first, and the products are taken
    point by point.
    """
    elements, jets, order, data = _paired_stack(g, jet, "equivariance_defect")
    moved, _ = _frames(*_prolong(elements, jets, order, data), kind)
    frames, _ = _frames(jets, data, kind)
    defects = []
    for lhs, frame, e in zip(moved, frames, elements):
        rhs = compose(frame.rho, inverse(e))
        defects.append(max(abs(a - b) for a, b in zip(lhs.rho.params(), rhs.params())))
    return defects[0] if isinstance(jet, Jet) else defects
