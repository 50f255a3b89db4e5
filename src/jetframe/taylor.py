"""Dense truncated bivariate Taylor arithmetic.

A :class:`TruncatedSeries` is a polynomial in two offsets (dt, dx) kept to a
fixed total degree M.  Sums, Cauchy products and analytic composition are
exact up to truncation, which is what lets jets of analytic solutions be
produced to machine precision: the derivative d^(i+j)u/dt^i dx^j is just
i! j! times the (i, j) coefficient of the expansion of u.

Coefficients are stored densely in the graded-lexicographic order of
:func:`multi_indices` (total degree major, t-degree minor), so a series of
order M owns (M+1)(M+2)/2 scalars and truncation to a lower order is a
prefix slice.  Every kernel below reads that layout from the cached index
tables derived from it.  The same order lays out the entries of every
:class:`~jetframe.jets.Jet`, which is why it is defined here.

Analytic composition runs one Horner loop in the inner series b = a - a(0),
each step one bincount over a table of coefficient pairs.  When b is affine
(no coefficient above degree 1), as the soliton phase, the rational
solution's denominator and every order-1 series are, the table holds only
the two pairs per coefficient whose factor of b is a slope instead of the
dense product's every pair, and the result is the same bit for bit (see
:func:`analytic`).
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Tuple

import numpy as np

from .errors import DomainError, UsageError

MultiIndex = Tuple[int, int]

# Largest jet or series order.  A product table of order M holds C(M+4, 4)
# index triples, so the cap also bounds the memory a single order can claim.
MAX_ORDER = 30


@functools.lru_cache(maxsize=None)
def multi_indices(order: int) -> Tuple[MultiIndex, ...]:
    """All multi-indices with total order <= `order`, graded, t-degree minor.

    This is the storage order of :class:`TruncatedSeries` coefficients as
    well as of the entries of every jet.
    """
    return tuple((a1, d - a1) for d in range(order + 1) for a1 in range(d + 1))


def triangle_size(order: int) -> int:
    return (order + 1) * (order + 2) // 2


def _series_order(size):
    """Order M of a series with `size` coefficients, or None if no order has that many."""
    order = (math.isqrt(8 * size + 1) - 3) // 2
    return order if order >= 0 and triangle_size(order) == size else None


def _pos(i, j):
    """Storage position of the (i, j) coefficient: the inverse of multi_indices."""
    d = i + j
    return d * (d + 1) // 2 + i


def _integer(value, name, low=0, high=MAX_ORDER):
    """`value` as an int in [low, high], numpy integers included; anything else is a UsageError naming `name`."""
    try:
        value = operator.index(value)
    except TypeError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if not low <= value <= high:
        raise UsageError(f"{name} must lie in [{low}, {high}], got {value}")
    return value


def _multi_index(alpha) -> MultiIndex:
    """The pair `alpha` as a tuple; anything but two non-negative integers is a UsageError."""
    try:
        a1, a2 = map(operator.index, alpha)
        if a1 >= 0 and a2 >= 0:
            return a1, a2
    except (TypeError, ValueError):
        pass
    raise UsageError(f"a multi-index is a pair of non-negative integers, got {alpha!r}")


def _read_only(table):
    table.flags.writeable = False  # cached tables are shared by every caller
    return table


@functools.lru_cache(maxsize=None)
def _exponents(order):
    """The t- and x-exponent rows (i, j) of the coefficients, in storage order."""
    return _read_only(np.array(multi_indices(order)).T)


@functools.lru_cache(maxsize=None)
def _product_table(order):
    """(lhs, rhs, out) position rows of every coefficient pair a product keeps.

    Pairs run lhs-major in storage order, as in the schoolbook double loop.
    """
    i, j = _exponents(order)
    degree = i + j
    lhs, rhs = np.nonzero(degree[:, None] + degree <= order)
    return _read_only(np.stack((lhs, rhs, _pos(i[lhs] + i[rhs], j[lhs] + j[rhs]))))


@functools.lru_cache(maxsize=None)
def _derivative_table(jet_order, order):
    """(source, factor) rows, one per alpha of multi_indices(jet_order), that read
    coefficient (i, j) of d^alpha s as (i+a1)!/i! (j+a2)!/j! c_(i+a1, j+a2)."""
    rows, cols = multi_indices(jet_order), multi_indices(order)
    source = [[_pos(i + a1, j + a2) for i, j in cols] for a1, a2 in rows]
    factor = [[float(math.perm(i + a1, a1) * math.perm(j + a2, a2)) for i, j in cols] for a1, a2 in rows]
    return _read_only(np.array(source)), _read_only(np.array(factor))


class TruncatedSeries:
    """Bivariate polynomial sum c_ij dt^i dx^j over i + j <= order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=None):
        order = _integer(order, "series order")
        self.order = order
        if coeffs is None:
            self.coeffs = np.zeros(triangle_size(order))
        else:
            coeffs = np.array(coeffs, dtype=float)  # own copy; values stay immutable
            if coeffs.shape != (triangle_size(order),):
                raise UsageError(
                    f"need {triangle_size(order)} coefficients for order {order}, "
                    f"got shape {coeffs.shape}"
                )
            self.coeffs = coeffs

    @classmethod
    def _wrap(cls, order, coeffs):
        # a kernel's own fresh array of the right shape: no copy, no checks
        s = cls.__new__(cls)
        s.order, s.coeffs = order, coeffs
        return s

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, order):
        s = cls(order)
        s.coeffs[0] = value
        return s

    @classmethod
    def affine(cls, c0, ct, cx, order):
        """c0 + ct*dt + cx*dx, truncated at `order`."""
        s = cls(order)
        s.coeffs[0] = c0
        if order >= 1:
            s.coeffs[_pos(1, 0)] = ct
            s.coeffs[_pos(0, 1)] = cx
        return s

    # -- inspection --------------------------------------------------------

    @property
    def value(self):
        """Constant term (the value at the expansion point)."""
        return float(self.coeffs[0])

    def coeff(self, i, j):
        i, j = _multi_index((i, j))
        if i + j > self.order:
            raise UsageError(f"coefficient ({i},{j}) outside order {self.order}")
        return float(self.coeffs[_pos(i, j)])

    def __repr__(self):
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[:6])
        return f"TruncatedSeries(order={self.order}, coeffs=[{head}...])"

    # -- arithmetic --------------------------------------------------------

    def _check_order(self, other):
        if other.order != self.order:
            raise UsageError(
                f"series order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return TruncatedSeries._wrap(self.order, self.coeffs + other.coeffs)
        out = self.coeffs.copy()
        out[0] += other
        return TruncatedSeries._wrap(self.order, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._wrap(self.order, -self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries._wrap(self.order, self.coeffs * float(other))
        self._check_order(other)
        lhs, rhs, out = _product_table(self.order)
        products = self.coeffs[lhs] * other.coeffs[rhs]
        return TruncatedSeries._wrap(self.order, np.bincount(out, products, triangle_size(self.order)))

    __rmul__ = __mul__

    # -- differentiation ---------------------------------------------------

    def derivatives(self, jet_order, order):
        """Order-`order` series of every d^alpha of this series, |alpha| <= jet_order.

        One row of coefficients per alpha, in ``multi_indices(jet_order)``
        order; row alpha at order 0 is the alpha! c_alpha of a jet entry.
        """
        if jet_order < 0 or order < 0 or jet_order + order > self.order:
            raise UsageError(f"cannot read order-{order} series of derivatives up to order "
                             f"{jet_order} off a series of order {self.order}")
        source, factor = _derivative_table(jet_order, order)
        return factor * self.coeffs[source]


def _row_products(a, b):
    """Series product of each row of `a` with the same row of `b`, as rows of coefficients.

    One gather and one bincount serve every row; the bins of row r are
    offset by r times the row length, so each row sums its pairs in the
    order of a single product and equals, bit for bit, a row times b row.
    """
    rows, size = a.shape
    lhs, rhs, out = _product_table(_series_order(size))
    bins = out + size * np.arange(rows)[:, None]
    return np.bincount(bins.ravel(), (a[:, lhs] * b[:, rhs]).ravel(), rows * size).reshape(rows, size)


# -- analytic composition ----------------------------------------------------


def _univariate_coeffs(kind, a0, n, exponent=None):
    """Taylor coefficients f^(k)(a0)/k! of the univariate map `kind` at a0."""
    if kind == "pow":
        if exponent is None:
            raise UsageError("pow requires an exponent")
        r = exponent
        if r == int(r):
            r = int(r)
            if r < 0 and a0 == 0.0:
                raise DomainError("negative power of a series with zero constant term")
        elif a0 <= 0.0:
            raise DomainError(
                f"non-integer power requires a positive constant term, got {a0!r}"
            )
        out = []
        binom = 1.0  # falling-factorial binomial C(r, k)
        for k in range(n + 1):
            if isinstance(r, int) and k > r >= 0:
                out.append(0.0)
                continue
            out.append(binom * a0 ** (r - k))
            binom *= (r - k) / (k + 1)
        return out
    if kind == "sech":
        # coupled recurrences from s' = -s*t and t' = s^2, t = tanh
        s = [1.0 / math.cosh(a0)]
        t = [math.tanh(a0)]
        for k in range(n):  # the sums pair s[m] with t[k-m] and s[k-m], m = 0..k
            s_next = -sum(map(operator.mul, s, reversed(t))) / (k + 1)
            t.append(sum(map(operator.mul, s, reversed(s))) / (k + 1))
            s.append(s_next)
        return s
    raise UsageError(f"unknown analytic function {kind!r}; pick pow or sech")


@functools.lru_cache(maxsize=None)
def _slope_pairs(order):
    """(lhs, rhs, out) rows of the pairs of _product_table(order) whose rhs is (1, 0) or (0, 1), in its order."""
    lhs, rhs, out = _product_table(order)
    keep = (rhs == _pos(1, 0)) | (rhs == _pos(0, 1))
    return _read_only(lhs[keep]), _read_only(rhs[keep]), _read_only(out[keep])


def _horner(coeffs, b, pairs):
    """Coefficients of sum_k coeffs[k] b^k by Horner's rule, b given by its coefficients.

    Each step r*b + f_k is one bincount of the products r[lhs]*b[rhs] over
    the (lhs, rhs, out) rows `pairs` of a product table, as in
    ``TruncatedSeries.__mul__``, then f_k added to the constant term.
    """
    lhs, rhs, out = pairs
    factors = b[rhs]
    r = np.zeros(b.size)
    r[0] = coeffs[-1]
    for f in reversed(coeffs[:-1]):
        r = np.bincount(out, r[lhs] * factors, b.size)
        r[0] += f
    return r


def analytic(kind, a, exponent=None):
    """Compose an analytic map with a series: exact Taylor re-expansion.

    Horner's rule in b = a - a(0) sums the univariate coefficients, one
    product by b per step (:func:`_horner`).  When b is affine (no nonzero
    coefficient above degree 1) and of order >= 1, a step needs only the
    pairs whose factor of b is a slope, ct*r(i-1, j) + cx*r(i, j-1)
    (:func:`_slope_pairs`), which never read b's constant term, so they run
    on a's own coefficients.  Every other pair of the dense product is an
    exact zero while r is finite, and a bincount's running sum starts at
    +0.0 and so is never -0.0, which such a zero leaves unchanged: the slope
    pairs give the dense product bit for bit.  Any other b, or a non-finite
    slope-pair result, takes every pair of :func:`_product_table`.

    Parameters
    ----------
    kind : str
        ``pow`` or ``sech``.
    a : TruncatedSeries
        Inner series; for ``pow`` its constant term must be positive under a
        non-integer exponent and non-zero under a negative one.
    exponent : float, optional
        Exponent for ``pow``; ignored otherwise.
    """
    coeffs = _univariate_coeffs(kind, a.value, a.order, exponent)
    # an order-0 series takes no Horner step; a finite a(0) makes b(0) exactly 0.0
    if a.order and math.isfinite(a.value) and not np.count_nonzero(a.coeffs[3:]):
        with np.errstate(all="ignore"):  # a non-finite result is rerun densely, warnings included
            r = _horner(coeffs, a.coeffs, _slope_pairs(a.order))
        if np.isfinite(r).all():
            return TruncatedSeries._wrap(a.order, r)
    b = a - a.value  # zero constant term, so b**k has minimum degree k
    return TruncatedSeries._wrap(a.order, _horner(coeffs, b.coeffs, _product_table(a.order)))


def series_pow(a, exponent):
    return analytic("pow", a, exponent)


def series_sech(a):
    return analytic("sech", a)


def series_recip(a):
    return analytic("pow", a, -1)
