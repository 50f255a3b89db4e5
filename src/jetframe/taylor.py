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
for one exponent or many, each step one bincount over a table of coefficient
pairs (:func:`_compose`).  When b is affine (no coefficient above degree 1),
as the soliton phase, the rational solution's denominator, a frame pivot on
an order-1 germ and every order-1 series are, the table holds only the two
pairs per coefficient whose factor of b is a slope instead of the dense
product's every pair, and the result is the same bit for bit.  Many
exponents, as the prefactors |pivot|^(-w/d) of every weight w of a frame,
stack their rows end to end in one loop over one table
(:func:`_stacked_pairs`); many inner series, as the pivots of a stack of
germs, run in the same loop, one block of rows each.  The outer map's
Taylor coefficients of many rows come as columns over the rows: one sech
recurrence on the columns, one flat pass of Python's powers for pow.
Row-wise products of many series (:func:`_row_products`) are one bincount
as well.  Tables are cached per order and per number of exponents, never
per number of rows of a stack: a stack's tables are shifted copies made for
the call.
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

    # a - b is a + (-b) in IEEE arithmetic, signed zeros included, so
    # subtracting directly gives the sum's bits without a negated copy
    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return TruncatedSeries._wrap(self.order, self.coeffs - other.coeffs)
        out = self.coeffs.copy()
        out[0] -= other
        return TruncatedSeries._wrap(self.order, out)

    def __rsub__(self, other):
        out = -self.coeffs
        out[0] += other
        return TruncatedSeries._wrap(self.order, out)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries._wrap(self.order, self.coeffs * float(other))
        self._check_order(other)
        return TruncatedSeries._wrap(self.order, _row_products(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    # -- differentiation ---------------------------------------------------

    def derivatives(self, jet_order, order):
        """Order-`order` series of every d^alpha of this series, |alpha| <= jet_order.

        One row of coefficients per alpha, in ``multi_indices(jet_order)``
        order; row alpha at order 0 is the alpha! c_alpha of a jet entry.
        """
        return _derivatives(self.coeffs, jet_order, order)


def _derivatives(coeffs, jet_order, order):
    """:meth:`TruncatedSeries.derivatives` of the series `coeffs`, or of each row of a stack of series."""
    top = _series_order(coeffs.shape[-1])
    jet_order = _integer(jet_order, "derivative order", high=top)
    source, factor = _derivative_table(jet_order, _integer(order, "derivative series order", high=top - jet_order))
    return factor * coeffs.take(source, -1)


def _shifted(table, copies, stride):
    """`table` repeated `copies` times end to end, copy r shifted by r*stride: the index rows of a stack."""
    if copies == 1:
        return table
    return (table + stride * np.arange(copies)[:, None]).ravel()


@functools.lru_cache(maxsize=None)
def _stacked_pairs(order, rows, slopes):
    """(lhs, rhs, out) rows of the pairs of `rows` products by one series b, the rows end to end.

    The pairs are those of :func:`_product_table`, or with `slopes` those
    whose rhs is (1, 0) or (0, 1).  lhs and out are shifted by r series sizes
    in row r, and rhs indexes b.  One bincount over out sums each row's pairs
    in the order of a single product, so each row is its own product bit for bit.
    """
    lhs, rhs, out = _product_table(order)
    if slopes:
        keep = (rhs == _pos(1, 0)) | (rhs == _pos(0, 1))
        lhs, rhs, out = lhs[keep], rhs[keep], out[keep]
    size = triangle_size(order)
    return _read_only(_shifted(lhs, rows, size)), _read_only(np.tile(rhs, rows)), _read_only(_shifted(out, rows, size))


def _row_products(a, b):
    """Series products of the rows of `a` and `b` (the last axis), their leading axes broadcast.

    A 1-D `a` is one series, the left factor of every row of `b`.  One
    bincount over the pairs of :func:`_product_table`, shifted by one series
    size per row, sums each row's pairs in the order of a single product, so
    each row is its own product bit for bit.
    """
    size = b.shape[-1]
    lhs, rhs, out = _product_table(_series_order(size))
    if a.ndim == b.ndim == 1:  # one product: plain indexing gathers faster than a take along an axis
        return np.bincount(out, a[lhs] * b[rhs], size)
    products = a.take(lhs, -1) * b.take(rhs, -1)
    shape = products.shape[:-1]
    rows = math.prod(shape)
    return np.bincount(_shifted(out, rows, size), products.ravel(), rows * size).reshape(shape + (size,))


# -- analytic composition ----------------------------------------------------


def _pow_terms(exponent, n):
    """(r, terms) of x**r: r, an int when it is integral, and the pairs (C(r, k), r - k), k = 0..n.

    A non-finite or non-real exponent is a UsageError.  The binomials run
    the falling-factorial recurrence C(r, k + 1) = C(r, k) * (r - k) / (k + 1).
    Past an integer r >= 0 every k pairs the binomial 0.0 with the power 0,
    a term that is 0.0 at any a0.
    """
    try:
        finite = math.isfinite(exponent)
    except TypeError:  # None, a string, a complex number
        finite = False
    if not finite:
        raise UsageError(f"pow requires a finite real exponent, got {exponent!r}")
    r = exponent
    if r == int(r):
        r = int(r)
    terms = []
    binom = 1.0
    for k in range(n + 1):
        if isinstance(r, int) and k > r >= 0:
            terms.append((0.0, 0))
            continue
        terms.append((binom, r - k))
        binom *= (r - k) / (k + 1)
    return r, terms


def _require_pow_domain(a0, exponents):
    """A DomainError at the first r of `exponents` whose power has no Taylor series at a0; it needs a0 <= 0."""
    for r in exponents:
        if isinstance(r, int):
            if r < 0 and a0 == 0.0:
                raise DomainError("negative power of a series with zero constant term")
        elif a0 <= 0.0:
            raise DomainError(
                f"non-integer power requires a positive constant term, got {a0!r}"
            )


def _in_pow_domain(values, exponents):
    """Each a0 of `values` once it passes its domain test, so the first failing point raises in stack order."""
    for a0 in values:
        if a0 <= 0.0:
            _require_pow_domain(a0, exponents)
        yield a0


def _sech_seed(a0):
    """(sech(a0), tanh(a0)) of a Python float, in math."""
    try:
        s = 1.0 / math.cosh(a0)
    except OverflowError:  # |a0| > ~710.5: sech(a0) = 2 exp(-|a0|) to double precision, subnormal or zero
        s = 2.0 * math.exp(-abs(a0))
    return s, math.tanh(a0)


def _univariate_coeffs(kind, a0, n):
    """Taylor coefficients f^(k)(a0)/k! of the univariate map `kind`, k = 0..n; pow's are made in :func:`_compose`.

    `a0` is a Python float, which gives n + 1 floats, or a list of them,
    which gives n + 1 columns, one entry per point.  One recurrence runs on
    either: its sums are plain ``+`` left to right from the int 0 on floats
    and on arrays alike, so each column entry is its point's float bit for
    bit.  (The builtin ``sum`` would not do: from Python 3.12 it compensates
    a sum of floats, and adds arrays plainly.)
    """
    if kind == "sech":
        # coupled recurrences from s' = -s*t and t' = s^2, t = tanh
        if isinstance(a0, list):
            s, t = map(np.array, zip(*map(_sech_seed, a0)))
        else:
            s, t = _sech_seed(a0)
        s, t = [s], [t]
        for k in range(n):  # the sums pair s[m] with t[k-m] and s[k-m], m = 0..k
            s_next = -functools.reduce(operator.add, map(operator.mul, s, reversed(t)), 0) / (k + 1)
            t.append(functools.reduce(operator.add, map(operator.mul, s, reversed(s)), 0) / (k + 1))
            s.append(s_next)
        return s
    raise UsageError(f"unknown analytic function {kind!r}; pick pow or sech")


def _horner(coeffs, b, pairs):
    """Rows of sum_k c[k] b^k by Horner's rule, laid end to end.

    coeffs[k] holds c[k] of every row: a float for one row, or a column of
    one entry per row.  b is given by its coefficients: one series, or the
    rows of a stack of series, each the b of one block of rows // len(b)
    consecutive rows.  Each step r*b + c[k] is one bincount of the products
    r[lhs]*b[rhs] over the (lhs, rhs, out) rows `pairs` of
    :func:`_stacked_pairs` for one block, as in ``TruncatedSeries.__mul__``,
    shifted block by block, then c[k] added to each row's constant term.
    """
    lhs, rhs, out = pairs
    size = b.shape[-1]
    if isinstance(coeffs[-1], float):  # one row: a scalar add at position 0 costs less than a strided one
        rows, heads = 1, 0
    else:  # every row's constant term, as one strided view
        rows, heads = len(coeffs[-1]), slice(None, None, size)
    blocks = b.size // size
    if blocks > 1:
        lhs, out = (_shifted(table, blocks, rows // blocks * size) for table in (lhs, out))
        rhs = _shifted(rhs, blocks, size)
    factors = b.ravel()[rhs]
    r = np.zeros(rows * size)
    r[heads] = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        r = np.bincount(out, r[lhs] * factors, r.size)
        r[heads] += c
    return r


def _compose(kind, a, exponents):
    """The coefficients of analytic(kind, a, r) for each r in `exponents`, end to end, in one Horner loop.

    `a` holds the coefficient rows of a stack of series of one order, which
    give one block of rows each, in stack order; each block is bit for bit
    the call on its series alone.  Horner's rule runs in
    b = a - a(0) (:func:`_horner`).  When every b is affine (no nonzero
    coefficient above degree 1) and of order >= 1, a step needs only the
    pairs whose factor of b is a slope, ct*r(i-1, j) + cx*r(i, j-1), which
    never read b's constant term, so they run on a's own coefficients.
    Every other pair of the dense product is an exact zero while r is
    finite, and a bincount's running sum starts at +0.0 and so is never
    -0.0, which such a zero leaves unchanged: the slope pairs give the dense
    product bit for bit.  Any other b, or a non-finite slope-pair result in
    any row, takes every pair of the product table for every row.

    One row (one series and one exponent) takes its Taylor coefficients as
    Python floats; more rows take them as columns with one entry per row,
    from the same arithmetic.  The sech coefficients run one recurrence
    (:func:`_univariate_coeffs`) on the columns, seeded point by point in
    math.  The pow coefficients build each exponent's binomials
    (:func:`_pow_terms`) once per call.  The domain test and the powers
    a0 ** (r - k) are Python's: for a stack, one flat pass over the points,
    exponents and k, and one array product applies the binomials; one
    series keeps Python's products, which cost less there.
    """
    rows, order, values = a, _series_order(a.shape[1]), a[:, 0].tolist()
    if kind == "pow":
        pows = [_pow_terms(r, order) for r in exponents]
        if len(values) == 1:  # one series: Python's products, floats for one exponent and columns for many
            (a0,) = values
            if a0 <= 0.0:
                _require_pow_domain(a0, [r for r, _ in pows])
            coeffs = [[binom * a0 ** power for binom, power in terms] for _, terms in pows]
            coeffs = coeffs[0] if len(coeffs) == 1 else np.array(coeffs).T
        else:
            domain = _in_pow_domain(values, [r for r, _ in pows])
            powers = [a0 ** power for a0 in domain for _, terms in pows for _, power in terms]
            binoms = [binom for _, terms in pows for binom, _ in terms]
            with np.errstate(over="ignore"):  # as a float product overflows: silently, to inf
                coeffs = (np.reshape(powers, (len(values), -1)) * binoms).reshape(-1, order + 1).T
    else:
        one = len(values) * len(exponents) == 1
        coeffs = _univariate_coeffs(kind, values[0] if one else [a0 for a0 in values for _ in exponents], order)
    # an order-0 series takes no Horner step; a finite a(0) makes b(0) exactly 0.0
    if order and all(map(math.isfinite, values)) and not np.count_nonzero(rows[..., 3:]):
        with np.errstate(all="ignore"):  # a non-finite result is rerun densely, warnings included
            r = _horner(coeffs, rows, _stacked_pairs(order, len(exponents), True))
        if np.isfinite(r).all():
            return r
    b = rows.copy()
    b[..., 0] -= rows[..., 0]  # zero constant term, so b**k has minimum degree k
    return _horner(coeffs, b, _stacked_pairs(order, len(exponents), False))


def analytic(kind, a, exponent=None):
    """Compose an analytic map with a series: exact Taylor re-expansion (:func:`_compose`).

    Parameters
    ----------
    kind : str
        ``pow`` or ``sech``.
    a : TruncatedSeries
        Inner series; for ``pow`` its constant term must be positive under a
        non-integer exponent and non-zero under a negative one.
    exponent : float, optional
        Exponent for ``pow``, a finite real number; ignored otherwise.
    """
    return TruncatedSeries._wrap(a.order, _compose(kind, a.coeffs[None], (exponent,)))


def series_pow(a, exponent):
    return analytic("pow", a, exponent)


def series_sech(a):
    return analytic("sech", a)


def series_recip(a):
    return analytic("pow", a, -1)
