"""Right moving frames for the two normalizations of the symmetry group.

Both frames pin the base point to the origin and u to zero; they differ in
which first-order coordinate is normalized to +-1:

* time-normalized   pivot = u_t + u*u_x,  eps4 = ln|pivot| / 5
* space-normalized  pivot = u_x,          eps4 = ln|pivot| / 3

The sign of the pivot selects the branch; it is preserved by the (connected)
group, so each branch carries its own well-defined equivariant frame.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import SingularFrameError, UsageError
from .group import GroupElement, _weight, compose, inverse, prolong_act
from .taylor import TruncatedSeries

SINGULAR_THRESHOLD = 1e-30
_CANCEL_ULPS = 32.0 * sys.float_info.epsilon


class FrameKind(Enum):
    """Which first-order coordinate the cross-section pins to +-1."""

    T_NORMALIZED = "t"
    X_NORMALIZED = "x"

    @property
    def pivot_name(self):
        return "u_t + u*u_x" if self is FrameKind.T_NORMALIZED else "u_x"

    @property
    def pivot_alpha(self):
        # multi-index whose invariantized entry is pinned to the branch sign
        # (u = 0 on the cross-section, so u_t + u*u_x normalizes like u_t)
        return (1, 0) if self is FrameKind.T_NORMALIZED else (0, 1)

    @property
    def weight_denominator(self):
        # fractional-power denominator of this normalization's invariants:
        # the scaling weight of the pivot coordinate, 5 for u_t and 3 for u_x
        return _weight(self.pivot_alpha)


def pivot_value(jet, kind):
    """The normalized quantity whose sign and size control the frame."""
    if not isinstance(kind, FrameKind):
        raise UsageError(f"a frame kind is a FrameKind, got {kind!r}")
    if jet.order < 1:
        raise UsageError("frames need a jet of order >= 1")
    if kind is FrameKind.T_NORMALIZED:
        return jet.u[(1, 0)] + jet.u[(0, 0)] * jet.u[(0, 1)]
    return jet.u[(0, 1)]


def require_regular_pivot(jet, kind):
    """Pivot of `kind` at `jet` and its branch sign; raises where the frame is singular.

    Jet entries may be floats or truncated series around a base point; the
    singular test and the branch read the base-point values.  A pivot is
    singular when it is a hard zero or a pure cancellation artifact: the
    time-normalized pivot is a sum, and a result within a few ulps of the
    magnitude of its terms means the exact pivot is zero.  u_x is a single
    coordinate, not a sum, and needs no such scale.
    """
    p = pivot_value(jet, kind)
    p0, u, u_t, u_x = p, jet.u[(0, 0)], jet.u[(1, 0)], jet.u[(0, 1)]
    if isinstance(p, TruncatedSeries):
        p0, u, u_t, u_x = p.value, u.value, u_t.value, u_x.value
    scale = abs(u_t) + abs(u * u_x) if kind is FrameKind.T_NORMALIZED else 0.0
    if abs(p0) < SINGULAR_THRESHOLD or abs(p0) <= _CANCEL_ULPS * scale:
        t, x = (c.value if isinstance(c, TruncatedSeries) else c for c in (jet.t, jet.x))
        raise SingularFrameError(kind.pivot_name, p0, f"at (t, x) = ({t}, {x})")
    return p, 1 if p0 > 0 else -1


@dataclass(frozen=True)
class FrameResult:
    """Frame element at one jet, together with its branch and pivot value."""

    rho: GroupElement
    branch: int
    pivot: float


def moving_frame(jet, kind):
    """Solve the normalization equations at `jet` for the group parameters.

    Translations and the boost remove the base point and u (eps1 = -t,
    eps2 = -x, eps3 = -u); the scaling eps4 = ln|pivot| / weight pins the
    pivot coordinate to branch = sign(pivot).  Applying the returned element
    to `jet` therefore lands exactly on the cross-section.
    """
    p, branch = require_regular_pivot(jet, kind)
    eps4 = math.log(abs(p)) / kind.weight_denominator
    rho = GroupElement(-jet.t, -jet.x, -jet.u[(0, 0)], eps4)
    return FrameResult(rho=rho, branch=branch, pivot=p)


def equivariance_defect(jet, g, kind):
    """Max parameter-wise gap between frame(g . jet) and frame(jet) * g^-1.

    Zero (up to roundoff) is the defining property of a right moving frame.
    """
    lhs = moving_frame(prolong_act(g, jet), kind).rho
    rhs = compose(moving_frame(jet, kind).rho, inverse(g))
    return max(abs(a - b) for a, b in zip(lhs.params(), rhs.params()))
