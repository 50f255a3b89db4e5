import math
import warnings

import numpy as np
import pytest

import jetframe
from jetframe import taylor
from jetframe.errors import DomainError, UsageError
from jetframe.jets import MAX_ORDER, Jet, multi_indices
from jetframe.solutions import Rational, jet_of_solution
from jetframe.taylor import (
    TruncatedSeries,
    _pos,
    _row_products,
    _series_order,
    analytic,
    series_pow,
    series_recip,
    series_sech,
    triangle_size,
)


def random_series(rng, order, bound=1.5):
    return TruncatedSeries(order, rng.uniform(-bound, bound, size=triangle_size(order)))


def test_storage_size():
    for order in range(7):
        assert len(TruncatedSeries(order).coeffs) == (order + 1) * (order + 2) // 2


def test_difference_of_squares():
    a = TruncatedSeries.affine(1.0, 0.0, 1.0, 2)   # 1 + dx
    b = TruncatedSeries.affine(1.0, 0.0, -1.0, 2)  # 1 - dx
    prod = a * b
    assert prod.coeff(0, 0) == 1.0
    assert prod.coeff(0, 1) == 0.0
    assert prod.coeff(0, 2) == -1.0
    assert prod.coeff(1, 0) == prod.coeff(1, 1) == prod.coeff(2, 0) == 0.0


@pytest.mark.parametrize("i", [1.5, "a", None, -1], ids=repr)
def test_coeff_index_must_be_a_pair_of_non_negative_integers(i):
    s = TruncatedSeries.affine(1.0, 2.0, 3.0, 2)
    with pytest.raises(UsageError, match="multi-index"):
        s.coeff(i, 0)
    assert s.coeff(np.int64(1), np.uint8(0)) == s.coeff(1, 0) == 2.0


def test_multiplicative_identity():
    rng = np.random.default_rng(3)
    a = random_series(rng, 5)
    one = TruncatedSeries.constant(1.0, 5)
    np.testing.assert_array_equal((a * one).coeffs, a.coeffs)


def test_truncation_kills_high_degree():
    a = TruncatedSeries.affine(0.0, 1.0, 1.0, 1)  # dt + dx at order 1
    prod = a * a
    assert np.all(prod.coeffs == 0.0)


def test_order_mismatch_rejected():
    with pytest.raises(UsageError):
        TruncatedSeries.constant(1.0, 2) * TruncatedSeries.constant(1.0, 3)
    with pytest.raises(UsageError):
        TruncatedSeries.constant(1.0, 2) + TruncatedSeries.constant(1.0, 3)


def test_mul_commutative_associative():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b, c = (random_series(rng, 6) for _ in range(3))
        np.testing.assert_allclose((a * b).coeffs, (b * a).coeffs, rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            ((a * b) * c).coeffs, (a * (b * c)).coeffs, rtol=1e-12, atol=1e-12
        )


def test_mul_bilinear():
    rng = np.random.default_rng(4)
    a, b, c = (random_series(rng, 4) for _ in range(3))
    lhs = a * (b + 2.5 * c)
    rhs = a * b + 2.5 * (a * c)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-13, atol=1e-13)


def test_sqrt_of_constant():
    for order in (0, 2, 5):
        s = series_pow(TruncatedSeries.constant(4.0, order), 0.5)
        assert s.value == pytest.approx(2.0)
        assert np.all(s.coeffs[1:] == 0.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        series_pow(TruncatedSeries.constant(-2.0, 2), 0.5)
    with pytest.raises(DomainError):
        series_recip(TruncatedSeries.affine(0.0, 1.0, 0.0, 2))
    with pytest.raises(UsageError):
        analytic("pow", TruncatedSeries.constant(1.0, 2))
    with pytest.raises(UsageError):
        analytic("sinh", TruncatedSeries.constant(1.0, 2))


def evaluate(series, dt, dx):
    """The polynomial `series` at the offsets (dt, dx)."""
    return sum(c * dt**i * dx**j for c, (i, j) in zip(series.coeffs, multi_indices(series.order)))


@pytest.mark.parametrize(
    "kind, exponent",
    [
        pytest.param("sech", None, id="sech"),
        pytest.param("pow", -0.6, id="pow-fractional"),
        pytest.param("pow", 3, id="pow-integer"),
    ],
)
def test_analytic_matches_pointwise(kind, exponent):
    # evaluate the composed series at small offsets and compare with the
    # scalar function; truncation error at order 6 is far below the tolerance
    fn = {
        "sech": lambda z: 1.0 / math.cosh(z),
        "pow": lambda z: z**exponent,
    }[kind]
    inner = TruncatedSeries.affine(0.7, 0.4, -0.3, 6)
    composed = analytic(kind, inner, exponent)
    for dt, dx in [(0.03, 0.02), (-0.04, 0.01), (0.02, -0.05)]:
        want = fn(evaluate(inner, dt, dx))
        assert evaluate(composed, dt, dx) == pytest.approx(want, abs=1e-10)


def test_sech_is_total_beyond_the_range_of_cosh():
    # cosh overflows past |a0| ~ 710.5; sech is then 2 exp(-|a0|), subnormal or zero
    for a0 in (711.0, -800.0, 745.0, 1e5, -1e300):
        with pytest.raises(OverflowError):
            math.cosh(a0)
        s = series_sech(TruncatedSeries.affine(a0, 0.4, -0.3, 3))
        assert s.value == 2.0 * math.exp(-abs(a0)) < 1e-300
        assert np.isfinite(s.coeffs).all()
    # up to there it keeps its bits
    for a0 in (0.0, -3.0, 709.0, -710.0):
        assert series_sech(TruncatedSeries.constant(a0, 2)).value == 1.0 / math.cosh(a0)


def test_public_api():
    assert all(hasattr(jetframe, name) for name in jetframe.__all__)
    assert len(set(jetframe.__all__)) == len(jetframe.__all__)
    # the composition kinds that no program path runs are gone, with their wrappers and table
    for kind in ("exp", "ln", "tanh"):
        assert not hasattr(jetframe, f"series_{kind}") and not hasattr(taylor, f"series_{kind}")
        with pytest.raises(UsageError):
            analytic(kind, TruncatedSeries.constant(1.0, 2))
    assert not [name for name in dir(taylor) if name.endswith("_KINDS")]
    assert not hasattr(TruncatedSeries, "truncated")
    with pytest.raises(TypeError):
        TruncatedSeries.constant(1.0, 2) ** 2


def test_recip_times_self_is_one():
    rng = np.random.default_rng(8)
    a = random_series(rng, 5)
    a.coeffs[0] = 2.0 + rng.uniform()  # keep the constant term away from zero
    prod = a * series_recip(a)
    assert prod.value == pytest.approx(1.0)
    np.testing.assert_allclose(prod.coeffs[1:], 0.0, atol=1e-13)


def test_derivatives_of_exponential():
    # u = exp(dt + 2 dx): the (i, j) derivative is 2^j at the base point, and
    # its series is 2^j times the series of u itself
    s = TruncatedSeries(6, [2.0**j / (math.factorial(i) * math.factorial(j)) for i, j in multi_indices(6)])
    values = s.derivatives(6, 0)[:, 0]
    for (i, j), value in zip(multi_indices(6), values):
        assert value == pytest.approx(2.0**j, rel=1e-12)
    for (i, j), row in zip(multi_indices(3), s.derivatives(3, 3)):
        np.testing.assert_allclose(row, 2.0**j * s.coeffs[: triangle_size(3)], rtol=1e-12)


def test_derivatives_match_the_factorial_formula():
    # row alpha, coefficient (i, j): (i+a1)!/i! (j+a2)!/j! c_(i+a1, j+a2)
    rng = np.random.default_rng(23)
    a = random_series(rng, 7)
    for jet_order, order in [(0, 0), (0, 7), (7, 0), (3, 4), (2, 2)]:
        rows = a.derivatives(jet_order, order)
        assert rows.shape == (triangle_size(jet_order), triangle_size(order))
        for (a1, a2), row in zip(multi_indices(jet_order), rows):
            for (i, j), got in zip(multi_indices(order), row):
                factor = math.perm(i + a1, a1) * math.perm(j + a2, a2)
                assert got == factor * a.coeff(i + a1, j + a2)
        assert not np.shares_memory(rows, a.coeffs)


def test_derivatives_reject_negative_or_too_high_orders():
    a = random_series(np.random.default_rng(24), 4)
    for jet_order, order in [(-1, 0), (0, -1), (-1, 5), (5, 0), (0, 5), (3, 2)]:
        with pytest.raises(UsageError):
            a.derivatives(jet_order, order)


def naive_product(a, b):
    # schoolbook double loop over (i, j) exponents, kept to the common order
    M = a.order
    out = np.zeros(triangle_size(M))
    for i1, j1 in multi_indices(M):
        for i2, j2 in multi_indices(M - i1 - j1):
            out[_pos(i1 + i2, j1 + j2)] += a.coeffs[_pos(i1, j1)] * b.coeffs[_pos(i2, j2)]
    return out


@pytest.mark.parametrize("order", [0, 1, 2, 5, 12])
def test_row_products_are_single_products_bit_for_bit(order):
    rng = np.random.default_rng(200 + order)
    a, b = (rng.uniform(-2, 2, (7, triangle_size(order))) for _ in range(2))
    a[rng.uniform(size=a.shape) < 0.3] = -0.0  # zeros of either sign keep their sign
    b[rng.uniform(size=b.shape) < 0.3] = 0.0
    rows = _row_products(a, b)
    for r in range(len(a)):
        single = TruncatedSeries(order, a[r]) * TruncatedSeries(order, b[r])
        assert rows[r].tobytes() == single.coeffs.tobytes()


@pytest.mark.parametrize("order", range(9))
def test_mul_matches_naive_loop(order):
    rng = np.random.default_rng(100 + order)
    dense = [random_series(rng, order) for _ in range(2)]
    affine = [TruncatedSeries.affine(*rng.uniform(-2, 2, 3), order) for _ in range(2)]
    for a, b in [dense, affine, (dense[0], affine[1]), (affine[0], dense[1])]:
        np.testing.assert_array_equal((a * b).coeffs, naive_product(a, b))


def test_order_cap():
    TruncatedSeries(MAX_ORDER)
    with pytest.raises(UsageError):
        TruncatedSeries(MAX_ORDER + 1)
    with pytest.raises(UsageError):
        Jet(order=MAX_ORDER + 1, t=0.0, x=0.0, u={a: 0.0 for a in multi_indices(MAX_ORDER + 1)})


def test_jet_rejects_entries_beyond_its_order():
    Jet(order=0, t=0, x=0, u={(0, 0): 1.0})
    with pytest.raises(UsageError, match="beyond"):
        Jet(order=0, t=0, x=0, u={(0, 0): 1.0, (0, 1): 2.0})


def test_jet_rejects_non_finite_real_entries():
    u = {(0, 0): 1.0, (1, 0): 2.0, (0, 1): 3.0}
    for bad in ({"t": math.nan}, {"x": math.inf}, {"u": {**u, (1, 0): -math.inf}}):
        with pytest.raises(UsageError, match="finite"):
            Jet(**{"order": 1, "t": 0.0, "x": 0.0, "u": u, **bad})
    # series entries are exempt: they carry a flow or an expansion, not a value
    lifted = TruncatedSeries.affine(0.5, math.inf, 0.0, 1)
    Jet(order=1, t=lifted, x=0.0, u=np.array([lifted.coeffs, [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
    with pytest.raises(UsageError, match="'x': nan"):
        Jet(order=1, t=lifted, x=math.nan, u=u)


@pytest.mark.parametrize("point", [{"t": "a"}, {"x": None}, {"x": 1j}, {"t": [0.0]}], ids=repr)
def test_jet_base_point_is_a_real_number_or_a_series(point):
    with pytest.raises(UsageError, match="base point"):
        Jet(**{"order": 0, "t": 0.0, "x": 0.0, "u": np.zeros(1), **point})
    # an integer is a real number
    Jet(0, 1, 0.5, np.zeros(1))


@pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf, "a", None, 1j], ids=repr)
def test_pow_exponent_is_a_finite_real_number(exponent):
    with pytest.raises(UsageError, match="finite real exponent"):
        series_pow(TruncatedSeries.constant(1.0, 2), exponent)


def test_jet_of_solution_entry_overflow_is_domain_error():
    # every coefficient of x/t at t0 = 1e-23 is finite, but 12! * c_(12,0) is not
    jet_of_solution(Rational(), 1e-23, 10.0, 11)
    with pytest.raises(DomainError, match=r"u_\(12, 0\)"):
        jet_of_solution(Rational(), 1e-23, 10.0, 12)


def test_subtraction_is_the_sum_of_the_negation_bit_for_bit():
    # IEEE a - b is a + (-b), signed zeros and infinities included
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    values = st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, math.inf, -math.inf]))

    def same(x, y):
        return x.order == y.order and x.coeffs.tobytes() == y.coeffs.tobytes()

    def pairs(size):
        row = st.lists(values, min_size=size, max_size=size)
        return st.tuples(row, row)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, 3).map(triangle_size).flatmap(pairs), values)
    def check(rows, c):
        a, b = (TruncatedSeries(_series_order(len(row)), row) for row in rows)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is nan either way
            assert same(a - b, a + (-b))
            assert same(a - c, a + (-c))
            assert same(c - a, (-a) + c)

    check()


def test_kernel_results_own_their_coefficients():
    # kernels wrap their fresh arrays without a copy; none may alias an operand
    rng = np.random.default_rng(9)
    a, b = random_series(rng, 4), random_series(rng, 4)
    # analytic reads an affine inner series' own coefficients, and wraps its result
    c = TruncatedSeries.affine(0.3, 1.0, -2.0, 4)
    results = (a + b, a + 2.0, 2.0 + a, -a, a - b, a * b, a * 3.0, series_sech(a), series_sech(c))
    for result in results:
        assert not np.shares_memory(result.coeffs, a.coeffs)
        assert not np.shares_memory(result.coeffs, b.coeffs)
        assert not np.shares_memory(result.coeffs, c.coeffs)
    # the public constructor still copies and checks what it is given
    coeffs = np.ones(triangle_size(2))
    series = TruncatedSeries(2, coeffs)
    assert not np.shares_memory(series.coeffs, coeffs)
    coeffs[0] = 5.0
    assert series.value == 1.0
    with pytest.raises(UsageError):
        TruncatedSeries(2, np.ones(triangle_size(3)))


# -- stacked composition -------------------------------------------------------


def _alone(kind, a, exponents):
    """The rows of _compose on each series of the stack `a` and each exponent alone, end to end."""
    return np.concatenate([taylor._compose(kind, row[None], (r,)) for row in a for r in exponents])


def _stack(order, a0s, rng, dense=False):
    """Series of `order` with the constant terms `a0s`: affine with random slopes, or with every coefficient drawn."""
    a = np.zeros((len(a0s), triangle_size(order)))
    top = triangle_size(order) if dense else triangle_size(min(order, 1))
    a[:, 1:top] = rng.uniform(-1.5, 1.5, size=(len(a0s), top - 1))
    a[:, 0] = a0s
    return a


# signed zeros, cosh overflowing (|a0| > ~710.5) and ordinary points
SECH_POINTS = (0.0, -0.0, 800.0, -800.0, -750.0, 710.6, 709.0, 0.3, -1.7, 25.0)


@pytest.mark.parametrize("order", (0, 1, 2, 6, 12))
def test_a_stacks_sech_composition_is_each_rows_own_bit_for_bit(order):
    rng = np.random.default_rng(order)
    # the recurrence on columns gives each point's floats, signed zeros included
    columns = taylor._univariate_coeffs("sech", list(SECH_POINTS), order)
    for p, a0 in enumerate(SECH_POINTS):
        alone = taylor._univariate_coeffs("sech", a0, order)
        assert np.array([c[p] for c in columns]).tobytes() == np.array(alone).tobytes(), a0
    for dense in (False, True):
        a = _stack(order, SECH_POINTS, rng, dense)
        assert taylor._compose("sech", a, (None,)).tobytes() == _alone("sech", a, (None,)).tobytes(), dense


# integers r >= 0 (whose terms past k = r are zero), negative integers, fractions
POW_EXPONENTS = (0, 1, 2, 3, 3.0, -1, -2, -0.6, 0.5, -1 / 3, -14 / 5, 2.5)


@pytest.mark.parametrize("order", (0, 1, 2, 5, 12))
def test_a_stacks_pow_composition_is_each_rows_own_bit_for_bit(order):
    rng = np.random.default_rng(10 + order)
    for dense in (False, True):
        a = _stack(order, (0.7, 1e-3, 3.1, 1e5, 1.0, 0.05), rng, dense)
        for exponents in ([r] for r in POW_EXPONENTS):
            assert taylor._compose("pow", a, exponents).tobytes() == _alone("pow", a, exponents).tobytes(), exponents
        # many exponents at once, as a frame's prefactors
        assert taylor._compose("pow", a, POW_EXPONENTS).tobytes() == _alone("pow", a, POW_EXPONENTS).tobytes()
        # a negative or zero constant term under integer exponents
        a = _stack(order, (-1.9, 0.4, -0.0, 0.0, -3.3), rng, dense)
        integers = (0, 1, 2, 3, 3.0)
        assert taylor._compose("pow", a, integers).tobytes() == _alone("pow", a, integers).tobytes()


def test_a_stack_with_a_non_finite_slope_pair_row_reruns_every_row_densely(monkeypatch):
    # the affine rows' slope pairs give the dense products bit for bit, so a
    # stack that reruns densely still gives each row its own call
    rng = np.random.default_rng(5)
    a = _stack(2, (0.7, 1.0, 2.2), rng)
    a[1, 1:3] = 1.2e154  # coefficient (1, 1) of 1/a sums two finite products past the double range
    tables = []
    horner = taylor._horner
    monkeypatch.setattr(taylor, "_horner", lambda coeffs, b, pairs: tables.append(pairs) or horner(coeffs, b, pairs))
    got = taylor._compose("pow", a, (-1, 2))
    assert tables == [taylor._stacked_pairs(2, 2, True), taylor._stacked_pairs(2, 2, False)]
    assert not np.isfinite(got).all()
    assert got.tobytes() == _alone("pow", a, (-1, 2)).tobytes()


def test_a_stack_raises_the_error_of_its_first_failing_row():
    rng = np.random.default_rng(6)
    for order in (0, 3):
        a = _stack(order, (0.7, 1.2, -0.5, 0.0), rng)
        with pytest.raises(DomainError, match=r"positive constant term, got -0\.5$"):
            taylor._compose("pow", a, (2, -0.6))
        with pytest.raises(DomainError, match="negative power"):
            taylor._compose("pow", a[[0, 3, 2]], (2, -1))
    # a power that leaves the double range raises Python's OverflowError at its
    # row, before a later row's domain error, and after an earlier one's
    a = _stack(4, (0.7, 1e-300, -0.5), rng)
    with pytest.raises(OverflowError):
        taylor._compose("pow", a, (-0.6,))
    with pytest.raises(DomainError, match="positive constant term"):
        taylor._compose("pow", a[[0, 2, 1]], (-0.6,))
    # a binomial times a power just inside the double range can leave it: as a
    # float product that is inf without a warning, so the stack warns only
    # where the row alone does, in the dense rerun
    a = _stack(2, (10 ** -64.2, 1.0), rng)
    for stack in (a[:1], a):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="invalid value encountered in multiply"):
                taylor._compose("pow", stack, (-14 / 5,))


def test_a_stacks_composition_takes_no_numpy_transcendental(monkeypatch):
    # the seeds and powers are math's and Python's on each point, whose bits
    # numpy's vectorized kernels need not keep
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy transcendental ran")

    a = _stack(6, (0.3, -1.7, 800.0, 0.9), np.random.default_rng(7))
    sech, powers = taylor._compose("sech", a, (None,)), taylor._compose("pow", abs(a), (-1 / 3, -2, 0.5))
    for name in ("power", "exp", "log", "cosh", "tanh"):
        monkeypatch.setattr(np, name, refuse)
    assert taylor._compose("sech", a, (None,)).tobytes() == sech.tobytes()
    assert taylor._compose("pow", abs(a), (-1 / 3, -2, 0.5)).tobytes() == powers.tobytes()


def test_the_sech_recurrence_adds_plainly_left_to_right(monkeypatch):
    # the builtin sum compensates a sum of floats from Python 3.12 on, and
    # adds arrays plainly: a row's floats and its column entries agree bit for
    # bit only if the recurrence adds plainly on both, as this loop does
    def plain(a0, n):
        s, t = [1.0 / math.cosh(a0)], [math.tanh(a0)]
        for k in range(n):
            ds = dt = 0
            for m in range(k + 1):
                ds, dt = ds + s[m] * t[k - m], dt + s[m] * s[k - m]
            t.append(dt / (k + 1))
            s.append(-ds / (k + 1))
        return s

    def refuse(*args, **kwargs):
        raise AssertionError("the builtin sum ran")

    monkeypatch.setattr(taylor, "sum", refuse, raising=False)
    points = [a0 for a0 in SECH_POINTS if abs(a0) < 710.0]
    columns = taylor._univariate_coeffs("sech", points, 12)
    for p, a0 in enumerate(points):
        expected = np.array(plain(a0, 12)).tobytes()
        assert np.array(taylor._univariate_coeffs("sech", a0, 12)).tobytes() == expected, a0
        assert np.array([c[p] for c in columns]).tobytes() == expected, a0
