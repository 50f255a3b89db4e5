import math

import numpy as np
import pytest

from jetframe.errors import DomainError, UsageError
from jetframe.jets import MAX_ORDER, Jet, multi_indices
from jetframe.solutions import Rational, jet_of_solution
from jetframe.taylor import (
    TruncatedSeries,
    _pos,
    _row_products,
    analytic,
    series_exp,
    series_ln,
    series_pow,
    series_recip,
    series_sech,
    series_tanh,
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


def test_exp_of_dt():
    s = series_exp(TruncatedSeries.affine(0.0, 1.0, 0.0, 3))
    assert s.coeff(0, 0) == 1.0
    assert s.coeff(1, 0) == 1.0
    assert s.coeff(2, 0) == pytest.approx(0.5)
    assert s.coeff(3, 0) == pytest.approx(1.0 / 6.0)
    assert s.coeff(0, 1) == 0.0


def test_ln_of_one_plus_dx():
    s = series_ln(TruncatedSeries.affine(1.0, 0.0, 1.0, 2))
    assert s.coeff(0, 0) == 0.0
    assert s.coeff(0, 1) == 1.0
    assert s.coeff(0, 2) == pytest.approx(-0.5)


def test_sqrt_of_constant():
    for order in (0, 2, 5):
        s = series_pow(TruncatedSeries.constant(4.0, order), 0.5)
        assert s.value == pytest.approx(2.0)
        assert np.all(s.coeffs[1:] == 0.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        series_ln(TruncatedSeries.constant(-1.0, 2))
    with pytest.raises(DomainError):
        series_ln(TruncatedSeries.constant(0.0, 2))
    with pytest.raises(DomainError):
        series_pow(TruncatedSeries.constant(-2.0, 2), 0.5)
    with pytest.raises(DomainError):
        series_recip(TruncatedSeries.affine(0.0, 1.0, 0.0, 2))
    with pytest.raises(UsageError):
        analytic("pow", TruncatedSeries.constant(1.0, 2))
    with pytest.raises(UsageError):
        analytic("sinh", TruncatedSeries.constant(1.0, 2))


@pytest.mark.parametrize("kind", ["exp", "ln", "sech", "tanh"])
def test_analytic_matches_pointwise(kind):
    # evaluate the composed series at small offsets and compare with the
    # scalar function; truncation error at order 6 is far below the tolerance
    fn = {
        "exp": math.exp,
        "ln": math.log,
        "sech": lambda z: 1.0 / math.cosh(z),
        "tanh": math.tanh,
    }[kind]
    inner = TruncatedSeries.affine(0.7, 0.4, -0.3, 6)
    composed = analytic(kind, inner)
    for dt, dx in [(0.03, 0.02), (-0.04, 0.01), (0.02, -0.05)]:
        want = fn(inner.evaluate(dt, dx))
        assert composed.evaluate(dt, dx) == pytest.approx(want, abs=1e-10)


def test_recip_times_self_is_one():
    rng = np.random.default_rng(8)
    a = random_series(rng, 5)
    a.coeffs[0] = 2.0 + rng.uniform()  # keep the constant term away from zero
    prod = a * series_recip(a)
    assert prod.value == pytest.approx(1.0)
    np.testing.assert_allclose(prod.coeffs[1:], 0.0, atol=1e-13)


def test_tanh_sech_pythagorean_identity():
    inner = TruncatedSeries.affine(0.4, 1.0, -0.5, 6)
    t, s = series_tanh(inner), series_sech(inner)
    total = t * t + s * s
    assert total.value == pytest.approx(1.0)
    np.testing.assert_allclose(total.coeffs[1:], 0.0, atol=1e-12)


def test_derivatives_of_exponential():
    # u = exp(dt + 2 dx): the (i, j) derivative is 2^j at the base point, and
    # its series is 2^j times the series of u itself
    s = series_exp(TruncatedSeries.affine(0.0, 1.0, 2.0, 6))
    values = s.derivatives(6, 0)[:, 0]
    for (i, j), value in zip(multi_indices(6), values):
        assert value == pytest.approx(2.0**j, rel=1e-12)
    for (i, j), row in zip(multi_indices(3), s.derivatives(3, 3)):
        np.testing.assert_allclose(row, 2.0**j * s.truncated(3).coeffs, rtol=1e-12)


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


def test_formal_derivatives_shift_coefficients():
    rng = np.random.default_rng(21)
    for order in range(1, 7):
        a = random_series(rng, order)
        dt, dx = a.dt(), a.dx()
        assert dt.order == dx.order == order - 1
        for i, j in multi_indices(order - 1):
            assert dt.coeff(i, j) == (i + 1) * a.coeff(i + 1, j)
            assert dx.coeff(i, j) == (j + 1) * a.coeff(i, j + 1)
    with pytest.raises(UsageError):
        TruncatedSeries.constant(1.0, 0).dt()


def test_truncated_is_prefix():
    rng = np.random.default_rng(5)
    a = random_series(rng, 6)
    b = a.truncated(3)
    assert b.order == 3
    np.testing.assert_array_equal(b.coeffs, a.coeffs[: triangle_size(3)])
    with pytest.raises(UsageError):
        b.truncated(4)


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
    Jet(order=1, t=lifted, x=0.0, u={**u, (0, 0): lifted})
    with pytest.raises(UsageError, match="'x': nan"):
        Jet(order=1, t=lifted, x=math.nan, u=u)


def test_jet_of_solution_entry_overflow_is_domain_error():
    # every coefficient of x/t at t0 = 1e-23 is finite, but 12! * c_(12,0) is not
    jet_of_solution(Rational(), 1e-23, 10.0, 11)
    with pytest.raises(DomainError, match=r"u_\(12, 0\)"):
        jet_of_solution(Rational(), 1e-23, 10.0, 12)


def test_kernel_results_own_their_coefficients():
    # kernels wrap their fresh arrays without a copy; none may alias an operand
    rng = np.random.default_rng(9)
    a, b = random_series(rng, 4), random_series(rng, 4)
    results = (a + b, a + 2.0, 2.0 + a, -a, a - b, a * b, a * 3.0, a.dt(), a.dx(), a.truncated(4))
    for result in results:
        assert not np.shares_memory(result.coeffs, a.coeffs)
        assert not np.shares_memory(result.coeffs, b.coeffs)
    # the public constructor still copies and checks what it is given
    coeffs = np.ones(triangle_size(2))
    series = TruncatedSeries(2, coeffs)
    assert not np.shares_memory(series.coeffs, coeffs)
    coeffs[0] = 5.0
    assert series.value == 1.0
    with pytest.raises(UsageError):
        TruncatedSeries(2, np.ones(triangle_size(3)))
