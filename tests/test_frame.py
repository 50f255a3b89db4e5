import math

import numpy as np
import pytest

from jetframe.errors import SingularFrameError, UsageError
from jetframe.frame import (
    FrameKind,
    equivariance_defect,
    moving_frame,
    pivot_value,
    require_regular_pivot,
)
from jetframe.group import GroupElement, prolong_act
from jetframe.invariants import SolutionGerm, invariant_table, normalized_invariant
from jetframe.jets import Jet, multi_indices
from jetframe.solutions import Rational, Soliton, jet_of_solution
from jetframe.verify import random_free_jet, random_group_element

KINDS = (FrameKind.T_NORMALIZED, FrameKind.X_NORMALIZED)


def make_jet(order=1, t=0.0, x=0.0, **entries):
    values = {a: 0.0 for a in multi_indices(order)}
    for key, val in entries.items():
        a1, a2 = int(key[1]), int(key[2])
        values[(a1, a2)] = val
    return Jet(order=order, t=t, x=x, u=values)


def test_unit_jet_gives_identity_frame():
    jet = make_jet(u10=1.0, u01=1.0)
    for kind in KINDS:
        result = moving_frame(jet, kind)
        assert result.rho.params() == pytest.approx((0.0, 0.0, 0.0, 0.0))
        assert result.branch == 1


def test_rational_solution_frames():
    jet = jet_of_solution(Rational(), 1.0, 2.0, 1)
    with pytest.raises(SingularFrameError) as err:
        moving_frame(jet, FrameKind.T_NORMALIZED)
    assert "u_t + u*u_x" in str(err.value)
    result = moving_frame(jet, FrameKind.X_NORMALIZED)
    assert result.rho.params() == pytest.approx((-1.0, -2.0, -2.0, 0.0))
    assert result.branch == 1


def test_negative_branch_scaling_parameter():
    jet = make_jet(u01=-math.exp(3.0), u10=0.25)
    result = moving_frame(jet, FrameKind.X_NORMALIZED)
    assert result.rho.eps4 == pytest.approx(1.0)
    assert result.branch == -1


def test_zero_pivot_raises_with_name():
    jet = make_jet(u10=0.0, u01=0.0)
    for kind in KINDS:
        with pytest.raises(SingularFrameError) as err:
            moving_frame(jet, kind)
        assert err.value.pivot_name == kind.pivot_name


def test_frame_requires_first_order_jet():
    jet = Jet(order=0, t=0.0, x=0.0, u={(0, 0): 1.0})
    with pytest.raises(UsageError):
        moving_frame(jet, FrameKind.T_NORMALIZED)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("branch", [1, -1])
def test_frame_lands_on_cross_section(kind, branch):
    rng = np.random.default_rng(23 if branch > 0 else 24)
    for _ in range(40):
        jet = random_free_jet(
            rng,
            3,
            t_branch=branch if kind is FrameKind.T_NORMALIZED else None,
            x_branch=branch if kind is FrameKind.X_NORMALIZED else None,
        )
        result = moving_frame(jet, kind)
        moved = prolong_act(result.rho, jet)
        assert abs(moved.t) < 1e-12
        assert abs(moved.x) < 1e-12
        assert abs(moved.u[(0, 0)]) < 1e-12
        pinned = moved.u[(1, 0)] if kind is FrameKind.T_NORMALIZED else moved.u[(0, 1)]
        assert pinned == pytest.approx(result.branch, abs=1e-12)


def test_equivariance_identity_is_exact():
    rng = np.random.default_rng(31)
    jet = random_free_jet(rng, 2)
    for kind in KINDS:
        assert equivariance_defect(jet, GroupElement.identity(), kind) == 0.0


@pytest.mark.parametrize("kind", KINDS)
def test_equivariance_random_elements(kind):
    rng = np.random.default_rng(37)
    for i in range(200):
        branch = 1 if i % 2 else -1
        jet = random_free_jet(
            rng,
            2,
            t_branch=branch if kind is FrameKind.T_NORMALIZED else None,
            x_branch=branch if kind is FrameKind.X_NORMALIZED else None,
        )
        g = random_group_element(rng)
        assert equivariance_defect(jet, g, kind) <= 1e-9


def test_equivariance_pure_scaling_tight():
    rng = np.random.default_rng(41)
    for _ in range(50):
        jet = random_free_jet(rng, 2)
        g = GroupElement(0.0, 0.0, 0.0, float(rng.uniform(-1, 1)))
        for kind in KINDS:
            assert equivariance_defect(jet, g, kind) <= 1e-12


def test_branch_stable_under_group():
    rng = np.random.default_rng(43)
    for _ in range(50):
        jet = random_free_jet(rng, 2)
        g = random_group_element(rng)
        moved = prolong_act(g, jet)
        for kind in KINDS:
            assert moving_frame(jet, kind).branch == moving_frame(moved, kind).branch


def test_pivot_values():
    jet = make_jet(u00=2.0, u10=-1.0, u01=3.0)
    assert pivot_value(jet, FrameKind.T_NORMALIZED) == pytest.approx(5.0)
    assert pivot_value(jet, FrameKind.X_NORMALIZED) == pytest.approx(3.0)


def test_cancellation_test_scale():
    # a time pivot about 1e-12 of its terms is a real value, not a
    # cancellation artifact; one a few ulps of its terms is not
    u, u_x = 1.5, 1.0
    regular = make_jet(order=2, u00=u, u01=u_x, u10=-u * u_x + 2e-12 * abs(u * u_x))
    assert abs(pivot_value(regular, FrameKind.T_NORMALIZED)) == pytest.approx(3e-12, rel=1e-3)
    assert moving_frame(regular, FrameKind.T_NORMALIZED).branch == 1
    cancelled = make_jet(order=2, u00=u, u01=u_x, u10=-u * u_x + 4 * np.spacing(u * u_x))
    assert 0.0 < pivot_value(cancelled, FrameKind.T_NORMALIZED) <= 4 * np.spacing(u * u_x)
    with pytest.raises(SingularFrameError):
        moving_frame(cancelled, FrameKind.T_NORMALIZED)


def test_a_frame_kind_must_be_a_frame_kind():
    # the kinds' values "t" and "x" are not kinds: "t" used to read the space
    # pivot u_x, and the frame itself died with an untyped AttributeError
    jet = jet_of_solution(Soliton(), 0.3, -0.9, 3)
    germ = SolutionGerm(Soliton(), 0.3, -0.9, 3)
    series = germ.invariant_series((0, 2), FrameKind.X_NORMALIZED, 1)
    calls = (
        lambda kind: pivot_value(jet, kind),
        lambda kind: require_regular_pivot(jet, kind),
        lambda kind: moving_frame(jet, kind),
        lambda kind: invariant_table(jet, kind, 3),
        lambda kind: normalized_invariant(jet, (1, 1), kind),
        lambda kind: germ.invariant_series((1, 1), kind, 1),
        lambda kind: germ.differentiate(series, kind),
    )
    for kind in ("t", "x", None, 0):
        for call in calls:
            with pytest.raises(UsageError, match="FrameKind"):
                call(kind)
