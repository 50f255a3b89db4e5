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
    jet_of_solution,
    kdv_residual,
    make_solution,
)
from jetframe.taylor import TruncatedSeries

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
