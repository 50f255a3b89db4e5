"""Jet points: a base point (t, x) together with derivative coordinates.

A multi-index alpha = (a1, a2) selects the mixed partial derivative
u_alpha = d^(a1+a2) u / dt^a1 dx^a2, so (0, 0) is u itself, (1, 0) is u_t,
(0, 1) is u_x and so on.

A jet stores its coordinates as one dense array in :func:`multi_indices`
order, the layout of :class:`~jetframe.taylor.TruncatedSeries` coefficients:
shape (n_alpha,) for real coordinates, or (n_alpha, n_coeff) when every
coordinate is a truncated series, one row of coefficients per alpha.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping, Sized
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import UsageError
from .taylor import (
    MAX_ORDER,
    MultiIndex,
    TruncatedSeries,
    _integer,
    _multi_index,
    _pos,
    _series_order,
    multi_indices,
)


def _is_multi_index(arg) -> bool:
    """True for one multi-index (integers, numpy ones included) or anything unsized, False for a sequence."""
    return not isinstance(arg, Sized) or len(arg) > 0 and all(isinstance(a, numbers.Integral) for a in arg)


def _one_or_many(arg, is_one):
    """Items of an argument that is one item or a sequence of them, and the shape of the answer.

    Returns (items, shape): `shape` turns the list of per-item results into
    what the call returns, the one result for one item or the list otherwise.
    """
    if is_one(arg):
        return [arg], lambda results: results[0]
    return list(arg), list


def _rows_for(alphas, order):
    """(n, rows): the largest total order n among multi-indices of a jet of `order`, and their rows.

    `rows` is None when the multi-indices are exactly multi_indices(n), the
    whole table in storage order.  A malformed index or one beyond `order` is
    a UsageError.
    """
    n = _series_order(len(alphas))
    if n is not None and n <= order:
        try:
            if tuple(alphas) == multi_indices(n):
                return n, None
        except ValueError:  # an index given as a numpy array compares elementwise
            pass
    alphas = [_multi_index(alpha) for alpha in alphas]
    for alpha in alphas:
        if sum(alpha) > order:
            raise UsageError(f"alpha={alpha} exceeds jet order {order}")
    return max(map(sum, alphas), default=0), [_pos(*alpha) for alpha in alphas]


def _entries(values):
    """Python floats, or TruncatedSeries rows, of an array of jet entries."""
    if values.ndim == 1:
        return values.tolist()
    order = _series_order(values.shape[1])
    return [TruncatedSeries._wrap(order, row) for row in values]


def _rows_of(order, u):
    """The dense array of a mapping from every multi-index of total order <= `order` to its real entry."""
    indices = multi_indices(order)
    try:
        entries = [u[a] for a in indices]
    except KeyError:
        missing = [a for a in indices if a not in u]
        raise UsageError(f"incomplete jet: missing entries {missing[:4]}") from None
    if len(u) > len(indices):
        extra = [a for a in u if a not in indices]
        raise UsageError(f"jet of order {order} has entries beyond it: {extra[:4]}")
    return _array(entries, np.fromiter)  # one real number per entry, never a row


def _array(entries, convert=np.array):
    """A float array of jet entries, copied by `convert`; anything else is a UsageError."""
    try:
        return convert(entries, float)
    except (TypeError, ValueError):
        raise UsageError(
            "jet entries must be real numbers; a series jet takes an array of coefficient rows, one per alpha"
        ) from None


@dataclass(frozen=True, init=False, eq=False)
class Jet:
    """A point of the order-N jet space.

    `data` holds the derivative coordinates in :func:`multi_indices` order,
    as a read-only float array: one value per alpha, or one row of series
    coefficients per alpha.  `u` is a read-only dict view of the same
    entries by multi-index, built once from `data` on first use;
    `u[(0, 0)]` is the value of u itself, a float, or a
    :class:`~jetframe.taylor.TruncatedSeries` for a series jet.  Series
    coordinates carry an expansion around the point, which is how the closed
    forms are expanded along a solution or differentiated along a flow.

    `u` may be given as a mapping from exactly the multi-indices of total
    order <= `order` to real entries, or as an array of the layout of
    `data`, the one form that takes series entries; either is copied.  Real
    coordinates, t and x must be finite.  Jets compare equal when order, t,
    x and every entry are equal (0.0 == -0.0); they are not hashable.
    Instances are immutable: operations return new jets.
    """

    order: int
    t: float
    x: float
    data: np.ndarray = field(repr=False)

    def __init__(self, order, t, x, u):
        order = _integer(order, "jet order")
        data = _rows_of(order, u) if isinstance(u, Mapping) else _array(u)
        n = len(multi_indices(order))
        series = data.ndim == 2 and _series_order(data.shape[1]) is not None
        if data.shape[:1] != (n,) or not (data.ndim == 1 or series):
            raise UsageError(
                f"jet of order {order} needs shape ({n},) or ({n}, series size), got {data.shape}"
            )
        try:
            finite = math.isfinite(t) and math.isfinite(x)
        except TypeError:  # a series base point, as in a lift along a flow
            finite = False
        if not (finite and (data.ndim == 2 or np.isfinite(data).all())):  # series entries are exempt
            named = {"t": t, "x": x}
            if data.ndim == 1:
                named.update(zip((f"u_{a}" for a in multi_indices(order)), data.tolist()))
            bad = {k: c for k, c in named.items() if isinstance(c, numbers.Real) and not math.isfinite(c)}
            if bad:
                raise UsageError(f"jet entries must be finite, got {bad}")
        data.flags.writeable = False
        self.__dict__.update(order=order, t=t, x=x, data=data)  # past the frozen __setattr__

    @cached_property
    def u(self):
        return MappingProxyType(dict(zip(multi_indices(self.order), _entries(self.data))))

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.order, self.t, self.x) == (other.order, other.t, other.x) and np.array_equal(
            self.data, other.data
        )

    __hash__ = None

    def value(self, alpha: MultiIndex) -> float:
        try:
            return self.u[_multi_index(alpha)]
        except KeyError:
            raise UsageError(
                f"jet of order {self.order} has no entry for alpha={alpha}"
            ) from None

