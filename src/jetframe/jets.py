"""Jet points: a base point (t, x) together with derivative coordinates.

A multi-index alpha = (a1, a2) selects the mixed partial derivative
u_alpha = d^(a1+a2) u / dt^a1 dx^a2, so (0, 0) is u itself, (1, 0) is u_t,
(0, 1) is u_x and so on.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, Tuple

from .errors import UsageError

MultiIndex = Tuple[int, int]

# Largest jet or series order.  A product table of order M holds C(M+4, 4)
# index triples, so the cap also bounds the memory a single order can claim.
MAX_ORDER = 30


@functools.lru_cache(maxsize=None)
def multi_indices(order: int) -> Tuple[MultiIndex, ...]:
    """All multi-indices with total order <= `order`, graded, t-degree minor.

    This is the storage order of :class:`~jetframe.taylor.TruncatedSeries`
    coefficients as well as the iteration order of every jet.
    """
    return tuple((a1, d - a1) for d in range(order + 1) for a1 in range(d + 1))


def _is_multi_index(arg) -> bool:
    """True for one multi-index (integers, numpy ones included), False for a sequence of them."""
    return len(arg) > 0 and all(isinstance(a, numbers.Integral) for a in arg)


def _one_or_many(arg, is_one):
    """Items of an argument that is one item or a sequence of them, and the shape of the answer.

    Returns (items, shape): `shape` turns the list of per-item results into
    what the call returns, the one result for one item or the list otherwise.
    """
    if is_one(arg):
        return [arg], lambda results: results[0]
    return list(arg), list


@dataclass(frozen=True)
class Jet:
    """A point of the order-N jet space.

    `u` maps exactly the multi-indices of total order <= `order` to the values
    of the corresponding derivative coordinates; `u[(0, 0)]` is the value of u itself.
    Coordinates may also be truncated series around the point, which is how
    the closed forms are expanded along a solution or differentiated along a
    flow.  Real coordinates, t and x must be finite.  Instances are treated
    as immutable: operations return new jets.
    """

    order: int
    t: float
    x: float
    u: Dict[MultiIndex, float] = field(repr=False)

    def __post_init__(self):
        if not 0 <= self.order <= MAX_ORDER:
            raise UsageError(f"jet order must lie in [0, {MAX_ORDER}], got {self.order}")
        indices = multi_indices(self.order)
        missing = [a for a in indices if a not in self.u]
        if missing:
            raise UsageError(f"incomplete jet: missing entries {missing[:4]}")
        if len(self.u) > len(indices):
            extra = [a for a in self.u if a not in indices]
            raise UsageError(f"jet of order {self.order} has entries beyond it: {extra[:4]}")
        entries = (self.t, self.x, *self.u.values())
        try:
            finite = all(map(math.isfinite, entries))
        except TypeError:  # truncated-series entries are exempt
            finite = all(math.isfinite(c) for c in entries if isinstance(c, float))
        if not finite:
            named = {"t": self.t, "x": self.x, **{f"u_{a}": c for a, c in self.u.items()}}
            bad = {k: c for k, c in named.items() if isinstance(c, float) and not math.isfinite(c)}
            raise UsageError(f"jet entries must be finite, got {bad}")
        object.__setattr__(self, "u", dict(self.u))  # detach from the caller's dict

    def value(self, alpha: MultiIndex) -> float:
        try:
            return self.u[alpha]
        except KeyError:
            raise UsageError(
                f"jet of order {self.order} has no entry for alpha={alpha}"
            ) from None

    def indices(self) -> Tuple[MultiIndex, ...]:
        return multi_indices(self.order)
