import math

import numpy as np
import pytest
from mpmath import mp, mpf, sech, diff

from jetframe.errors import DomainError, UsageError
from jetframe.invariants import SolutionGerm
from jetframe.jets import multi_indices
from jetframe.solutions import (
    Constant,
    Custom,
    Rational,
    Soliton,
    Solution,
    _expansions,
    jet_of_solution,
    kdv_residual,
    make_solution,
)
from jetframe.taylor import TruncatedSeries, series_sech

# hand differentiation of u = x/t at (t, x) = (1, 2)
RATIONAL_JET_12 = {
    (0, 0): 2.0,
    (1, 0): -2.0,
    (0, 1): 1.0,
    (2, 0): 4.0,
    (1, 1): -1.0,
    (0, 2): 0.0,
    (3, 0): -12.0,
    (2, 1): 2.0,
    (1, 2): 0.0,
    (0, 3): 0.0,
}


def test_constant_jet():
    jet = jet_of_solution(Constant(u0=5.0), 0.7, -1.3, 2)
    assert jet.u[(0, 0)] == 5.0
    assert all(jet.u[a] == 0.0 for a in multi_indices(2) if a != (0, 0))


def test_rational_jet_hand_values():
    jet = jet_of_solution(Rational(), 1.0, 2.0, 3)
    for alpha, want in RATIONAL_JET_12.items():
        assert jet.u[alpha] == pytest.approx(want, abs=1e-13), alpha


def test_rational_undefined_at_t0():
    with pytest.raises(DomainError):
        jet_of_solution(Rational(), 0.0, 1.0, 2)


def test_soliton_crest_values():
    jet = jet_of_solution(Soliton(c=1.0), 0.0, 0.0, 3)
    assert jet.u[(0, 0)] == pytest.approx(3.0, rel=1e-14)
    assert jet.u[(1, 0)] == pytest.approx(0.0, abs=1e-14)
    assert jet.u[(0, 1)] == pytest.approx(0.0, abs=1e-14)
    assert jet.u[(0, 2)] == pytest.approx(-1.5, rel=1e-13)


def test_soliton_requires_positive_speed():
    with pytest.raises(UsageError):
        Soliton(c=-1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Soliton(c="1"),
        lambda: Soliton(phase=1j),
        lambda: Constant(u0=None),
        lambda: make_solution("soliton", c=[1]),
    ],
    ids=["c-str", "phase-complex", "u0-none", "factory-c-list"],
)
def test_non_numeric_catalog_parameter_is_a_usage_error(build):
    with pytest.raises(UsageError, match="must be a real number"):
        build()


def test_soliton_derivatives_against_high_precision_oracle():
    # independent oracle: central finite differences run at 40-digit precision
    mp.dps = 40
    rng = np.random.default_rng(17)
    for _ in range(20):
        c = float(rng.uniform(0.5, 2.0))
        phase = float(rng.uniform(-1.0, 1.0))
        t0, x0 = (float(v) for v in rng.uniform(-1.5, 1.5, size=2))
        jet = jet_of_solution(Soliton(c=c, phase=phase), t0, x0, 3)

        def u_exact(t, x):
            return 3 * c * sech(mp.sqrt(c) / 2 * (x - c * t - phase)) ** 2

        for a1, a2 in multi_indices(3):
            want = float(diff(u_exact, (mpf(t0), mpf(x0)), (a1, a2)))
            assert jet.u[(a1, a2)] == pytest.approx(want, rel=1e-6, abs=1e-9), (a1, a2)


def test_kdv_residual_direct_readoff():
    values = {a: 0.0 for a in multi_indices(3)}
    values[(1, 0)] = 1.0
    from jetframe.jets import Jet

    assert kdv_residual(Jet(order=3, t=0.0, x=0.0, u=values)) == 1.0


def test_kdv_residual_requires_order_3():
    with pytest.raises(UsageError):
        kdv_residual(jet_of_solution(Constant(1.0), 0.0, 0.0, 2))


def test_rational_residual_exact_at_simple_point():
    assert kdv_residual(jet_of_solution(Rational(), 1.0, 2.0, 3)) == 0.0


@pytest.mark.parametrize("order", [3, 4, 6])
def test_catalog_solutions_satisfy_equation(order):
    rng = np.random.default_rng(order)
    for _ in range(20):
        t0, x0 = (float(v) for v in rng.uniform(-1.5, 1.5, size=2))
        solutions = [
            Soliton(c=float(rng.uniform(0.5, 2.0)), phase=float(rng.uniform(-1, 1))),
            Rational(),
            Constant(u0=float(rng.uniform(-2, 2))),
        ]
        for sol in solutions:
            if isinstance(sol, Rational):
                t0 = t0 if abs(t0) > 0.3 else 1.1
            jet = jet_of_solution(sol, t0, x0, order)
            scale = abs(jet.u[(1, 0)]) + abs(jet.u[(0, 0)] * jet.u[(0, 1)]) + abs(jet.u[(0, 3)])
            assert abs(kdv_residual(jet)) <= 1e-10 * max(1.0, scale)


def test_custom_solution_closure():
    blob = Custom(fn=lambda t, x: x * x + t, label="xx_plus_t")
    jet = jet_of_solution(blob, 0.5, 2.0, 2)
    assert jet.u[(0, 0)] == pytest.approx(4.5)
    assert jet.u[(0, 1)] == pytest.approx(4.0)
    assert jet.u[(0, 2)] == pytest.approx(2.0)
    assert jet.u[(1, 0)] == pytest.approx(1.0)
    assert blob.name == "xx_plus_t"


class _FloatSolution(Solution):
    name = "float"

    def series(self, t, x):
        return 1.0


@pytest.mark.parametrize(
    "solution",
    [Custom(fn=lambda t, x: TruncatedSeries.constant(1.0, 1), label="bad"), _FloatSolution(), Solution()],
    ids=["custom-wrong-order", "subclass-returns-float", "bare-base-class"],
)
@pytest.mark.parametrize(
    "expand", [jet_of_solution, SolutionGerm], ids=["jet_of_solution", "SolutionGerm"]
)
def test_solution_must_return_series_of_input_order(expand, solution):
    with pytest.raises(UsageError, match="series"):
        expand(solution, 0.0, 0.0, 3)


def test_make_solution_factory():
    assert make_solution("soliton", c=2.0).c == 2.0
    assert make_solution("constant", u0=3.0).u0 == 3.0
    assert isinstance(make_solution("rational"), Rational)
    # each class takes only its own fields from the parameters
    assert make_solution("rational", c=2.0) == Rational()
    assert make_solution("soliton", u0=1.0) == Soliton()
    with pytest.raises(UsageError):
        make_solution("constant", u0=math.inf)
    with pytest.raises(UsageError):
        make_solution("nosuch")


@pytest.mark.parametrize("sol", [Soliton(c=1.3, phase=0.1), Rational()], ids=lambda s: s.name)
def test_jet_independent_of_truncation_order(sol):
    # the order-3 jet is expanded to order 3 only; every entry must equal the
    # one read off the order-5 expansion bit for bit
    low = jet_of_solution(sol, 0.7, 0.4, 3)
    high = jet_of_solution(sol, 0.7, 0.4, 5)
    assert low.u == {a: high.u[a] for a in multi_indices(3)}


@pytest.mark.parametrize(
    "solution, t0, x0",
    [
        (Soliton(), "a", 0.0),
        (Soliton(), 0.0, "1.5"),
        (Soliton(), None, 0.0),
        (Soliton(), 0.0, 1j),
        ("soliton", 0.0, 0.0),
        (None, 0.0, 0.0),
    ],
    ids=["t0-str", "x0-numeric-str", "t0-none", "x0-complex", "solution-name", "solution-none"],
)
@pytest.mark.parametrize(
    "expand", [jet_of_solution, SolutionGerm], ids=["jet_of_solution", "SolutionGerm"]
)
def test_expansion_inputs_are_typed(expand, solution, t0, x0):
    with pytest.raises(UsageError, match="real numbers|Solution"):
        expand(solution, t0, x0, 2)


# -- stacked expansions ----------------------------------------------------------


def _one_point(solution, t0, x0, order):
    """solution.series on the input series t0 + dt and x0 + dx of one point."""
    return solution.series(TruncatedSeries.affine(t0, 1.0, 0.0, order), TruncatedSeries.affine(x0, 0.0, 1.0, order))


def _soliton_by_series_arithmetic(sol, t, x):
    """The soliton profile in TruncatedSeries arithmetic, in the order of operations its rows keep."""
    k = 0.5 * math.sqrt(sol.c)
    s = series_sech(k * (x - sol.c * t - sol.phase))
    return (3.0 * sol.c) * s * s


_BOOSTED = Custom(fn=lambda t, x: Soliton(c=1.1, phase=0.2).series(t, x - 0.7 * t) + 0.7, label="boosted")
# x + t*x has a degree-2 term, so the soliton's phase is not affine in it
_BENT = Custom(fn=lambda t, x: Soliton(c=0.8).series(t, x + t * x), label="bent")


def test_a_stack_expands_each_point_as_its_own_series_bit_for_bit():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coordinate = st.floats(-3.0, 3.0)
    solitons = st.builds(Soliton, c=st.floats(0.2, 3.0), phase=st.floats(-2.0, 2.0))
    solutions = st.one_of(
        solitons, solitons, st.just(Rational()), st.builds(Constant, u0=coordinate), st.sampled_from([_BOOSTED, _BENT])
    )
    # the rational solution is expanded away from its pole at t = 0
    points = st.tuples(solutions, coordinate, coordinate).map(
        lambda p: (p[0], math.copysign(max(abs(p[1]), 0.2), p[1]), p[2]) if isinstance(p[0], Rational) else p
    )

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(points, min_size=1, max_size=9), st.sampled_from([*range(13), 30]))
    def check(stack, order):
        rows = _expansions(stack, order)
        assert rows.shape == (len(stack), (order + 1) * (order + 2) // 2)
        for row, (solution, t0, x0) in zip(rows, stack):
            want = _one_point(solution, t0, x0, order)
            assert row.tobytes() == want.coeffs.tobytes(), (solution, t0, x0)
            if isinstance(solution, Soliton):
                t, x = TruncatedSeries.affine(t0, 1.0, 0.0, order), TruncatedSeries.affine(x0, 0.0, 1.0, order)
                assert row.tobytes() == _soliton_by_series_arithmetic(solution, t, x).coeffs.tobytes()

    check()


def test_soliton_series_on_general_rows_is_the_series_arithmetic_bit_for_bit():
    # Custom closures and the group tests call Soliton.series on transformed,
    # not only affine, input series
    rng = np.random.default_rng(4)
    for order in (0, 1, 4, 12):
        for _ in range(5):
            sol = Soliton(c=float(rng.uniform(0.2, 3.0)), phase=float(rng.uniform(-1.0, 1.0)))
            t, x = (TruncatedSeries(order, rng.uniform(-1.0, 1.0, (order + 1) * (order + 2) // 2)) for _ in "tx")
            assert sol.series(t, x).coeffs.tobytes() == _soliton_by_series_arithmetic(sol, t, x).coeffs.tobytes()
    with pytest.raises(UsageError, match="series order mismatch"):
        Soliton().series(TruncatedSeries(2), TruncatedSeries(3))


_FAR_SOLITON = (Soliton(c=1e200), 0.0, 0.0)  # its phase slopes square past the double range
_NEAR_POLE = (Rational(), 1e-300, 1.0)  # 1/t has no double coefficients there


def _domain_message(point, order):
    with pytest.raises(DomainError, match="leaves double-precision range") as info:
        _expansions([point], order)
    return str(info.value)


@pytest.mark.parametrize("far", [_FAR_SOLITON, _NEAR_POLE], ids=["soliton", "rational"])
def test_a_stack_names_the_first_point_that_leaves_double_range(far):
    fine = [(Soliton(c=1.2), 0.3, -0.4), (Rational(), 1.3, 0.4), (Soliton(), -0.2, 0.9), (Constant(2.0), 0.0, 0.0)]
    message = _domain_message(far, 4)
    assert f"at ({far[1]}, {far[2]})" in message
    for at in (0, 2, 4):
        with pytest.raises(DomainError) as info:
            _expansions(fine[:at] + [far] + fine[at:], 4)
        assert str(info.value) == message
    # the first of two such points in stack order, whatever their classes
    other = _NEAR_POLE if far is _FAR_SOLITON else _FAR_SOLITON
    with pytest.raises(DomainError) as info:
        _expansions([fine[0], far, fine[2], other], 4)
    assert str(info.value) == message


def test_a_stack_raises_the_usage_errors_of_one_point():
    fine = (Soliton(), 0.1, 0.2)
    wrong_order = Custom(fn=lambda t, x: TruncatedSeries.constant(1.0, 1), label="bad")
    for point, match in (
        (("soliton", 0.0, 0.0), "Solution"),
        ((Soliton(), math.nan, 0.0), "real numbers"),
        ((Rational(), 1.0, "2"), "real numbers"),
        ((wrong_order, 0.0, 0.0), "series"),
    ):
        with pytest.raises(UsageError, match=match):
            _expansions([point], 3)
        with pytest.raises(UsageError, match=match):
            _expansions([fine, point, fine, fine], 3)
    for order in (-1, 31, 2.5, None):
        with pytest.raises(UsageError, match="expansion order"):
            _expansions([fine, fine], order)
    # a point that leaves double range before the wrong series is reported first
    with pytest.raises(DomainError):
        _expansions([fine, _FAR_SOLITON, fine, (wrong_order, 0.0, 0.0)], 3)
    with pytest.raises(UsageError, match="series"):
        _expansions([fine, (wrong_order, 0.0, 0.0), fine, _FAR_SOLITON], 3)


_TIMES_TWO = Custom(fn=lambda t, x: Rational().series(t, x) * 2.0, label="twice-rational")


def _catalog_point(rng, cls):
    t0, x0 = (float(v) for v in rng.uniform(-3.0, 3.0, 2))
    if cls is Soliton:
        return Soliton(c=float(rng.uniform(0.2, 3.0)), phase=float(rng.uniform(-2.0, 2.0))), t0, x0
    if cls is Rational:  # away from its pole at t = 0, with a signed zero for x0 now and then
        return Rational(), math.copysign(max(abs(t0), 0.2), t0), x0 if rng.uniform() < 0.8 else -0.0
    if cls is Constant:  # an int u0 goes through the same float conversion in a row pass
        return Constant(u0=float(rng.uniform(-2.0, 2.0)) if rng.uniform() < 0.7 else int(rng.integers(-3, 4))), t0, x0
    return _TIMES_TWO if rng.uniform() < 0.5 else _BOOSTED, t0, x0


@pytest.mark.parametrize("order", (0, 1, 4, 12))
@pytest.mark.parametrize("count", (1, 2, 7))
def test_a_shuffled_catalog_stack_expands_each_point_as_its_own_series_bit_for_bit(monkeypatch, order, count):
    rng = np.random.default_rng(100 * order + count)
    points = [_catalog_point(rng, cls) for cls in (Soliton, Rational, Constant, Custom) for _ in range(count)]
    points = [points[i] for i in rng.permutation(len(points))]
    own = {id(solution) for solution, _, _ in points}
    calls = dict.fromkeys((Soliton, Rational, Constant), 0)  # series(t, x) calls on the stack's own catalog points

    def counted(real):
        def series(self, t, x):
            calls[type(self)] += id(self) in own  # not the calls the Custom closures make
            return real(self, t, x)

        return series

    for cls in calls:
        monkeypatch.setattr(cls, "series", counted(cls.series))
    rows = _expansions(points, order)
    # two or more points of a catalog class take its row pass; a lone one its own series
    assert calls == dict.fromkeys(calls, 1 if count == 1 else 0)
    monkeypatch.undo()
    for row, (solution, t0, x0) in zip(rows, points):
        assert row.tobytes() == _one_point(solution, t0, x0, order).coeffs.tobytes(), (solution, t0, x0)


def test_a_rational_row_pass_that_fails_leaves_each_point_its_own_error_in_stack_order():
    near = (Rational(), -1e-300, 0.5)  # its row pass overflows Python's ** at order 4
    rationals = [(Rational(), 1.3, 0.4), (Rational(), -0.7, 1.1)]
    solitons = [_FAR_SOLITON, (Soliton(), 0.1, 0.2)]
    for stack, first in (
        ([rationals[0], near, *solitons, rationals[1]], near),
        ([*solitons, rationals[0], near, rationals[1]], _FAR_SOLITON),
        ([rationals[0], solitons[1], near, solitons[0]], near),
    ):
        with pytest.raises(DomainError) as info:
            _expansions(stack, 4)
        assert str(info.value) == _domain_message(first, 4)
    # x/t at t = 0 is its own error only where it is the first failing point
    pole = (Rational(), 0.0, 1.0)
    with pytest.raises(DomainError, match=r"^rational solution x/t is undefined at t = 0$"):
        _expansions([rationals[0], pole, *solitons, rationals[1]], 4)
    with pytest.raises(DomainError) as info:
        _expansions([*solitons, rationals[0], pole, rationals[1]], 4)
    assert str(info.value) == _domain_message(_FAR_SOLITON, 4)
