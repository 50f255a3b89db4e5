import numpy as np
import pytest

from jetframe.errors import (
    DegeneratePointError,
    DomainError,
    SingularFrameError,
    UsageError,
)
from jetframe.frame import FrameKind, moving_frame, pivot_value
from jetframe.group import VectorField, eta_alpha, prolong_act
from jetframe.invariants import (
    InvariantTable,
    SolutionGerm,
    commutator_coefficients,
    invariant_commutator,
    invariant_derivative,
    invariant_table,
    normalized_invariant,
    reconstruct_generators,
    recurrence_rhs,
)
from jetframe.jets import Jet, multi_indices
from jetframe.solutions import Constant, Rational, Soliton, jet_of_solution
from jetframe.taylor import TruncatedSeries
from jetframe.verify import (
    random_free_jet,
    random_group_element,
    random_soliton_point,
)

KINDS = (FrameKind.T_NORMALIZED, FrameKind.X_NORMALIZED)


def rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def unit_jet():
    values = {a: 0.0 for a in multi_indices(2)}
    values[(1, 0)] = 1.0
    values[(0, 1)] = 1.0
    values[(0, 2)] = 2.0
    return Jet(order=2, t=0.0, x=0.0, u=values)


def test_closed_form_spot_values():
    jet = unit_jet()
    assert normalized_invariant(jet, (0, 1), FrameKind.T_NORMALIZED) == pytest.approx(1.0)
    assert normalized_invariant(jet, (0, 2), FrameKind.T_NORMALIZED) == pytest.approx(2.0)
    assert normalized_invariant(jet, (1, 0), FrameKind.X_NORMALIZED) == pytest.approx(1.0)
    assert normalized_invariant(jet, (0, 2), FrameKind.X_NORMALIZED) == pytest.approx(2.0)


def test_invariantized_u_vanishes_and_pivot_entry_is_branch():
    rng = np.random.default_rng(3)
    for branch in (1, -1):
        for kind in KINDS:
            jet = random_free_jet(
                rng,
                3,
                t_branch=branch if kind is FrameKind.T_NORMALIZED else None,
                x_branch=branch if kind is FrameKind.X_NORMALIZED else None,
            )
            assert normalized_invariant(jet, (0, 0), kind) == 0.0
            assert normalized_invariant(jet, kind.pivot_alpha, kind) == pytest.approx(branch)


def test_alpha_beyond_jet_order_rejected():
    with pytest.raises(UsageError):
        normalized_invariant(unit_jet(), (0, 3), FrameKind.X_NORMALIZED)


def test_invariance_under_random_group_elements():
    rng = np.random.default_rng(5)
    for i in range(60):
        if i % 2:
            jet = random_free_jet(rng, 6)
        else:
            sol, t0, x0 = random_soliton_point(rng)
            jet = jet_of_solution(sol, t0, x0, 6)
        moved = prolong_act(random_group_element(rng), jet)
        for kind in KINDS:
            for alpha in multi_indices(6):
                a = normalized_invariant(jet, alpha, kind)
                b = normalized_invariant(moved, alpha, kind)
                assert rel(a, b) <= 1e-8, (alpha, kind)


def test_closed_form_equals_invariantization_by_frame():
    rng = np.random.default_rng(6)
    for _ in range(30):
        jet = random_free_jet(rng, 6)
        for kind in KINDS:
            moved = prolong_act(moving_frame(jet, kind).rho, jet)
            for alpha in multi_indices(6):
                want = moved.u[alpha] if alpha != (0, 0) else 0.0
                got = normalized_invariant(jet, alpha, kind)
                assert rel(got, want) <= 1e-13, (alpha, kind)


def test_table_phantoms_and_invariantized_equation():
    rng = np.random.default_rng(7)
    for _ in range(25):
        sol, t0, x0 = random_soliton_point(rng)
        jet = jet_of_solution(sol, t0, x0, 3)
        t_table = invariant_table(jet, FrameKind.T_NORMALIZED, 3)
        x_table = invariant_table(jet, FrameKind.X_NORMALIZED, 3)
        for table, pivot_key in ((t_table, "u_t"), (x_table, "u_x")):
            assert table.phantoms["t"] == 0.0
            assert table.phantoms["x"] == 0.0
            assert table.phantoms["u"] == 0.0
            assert table.phantoms[pivot_key] == table.branch
        assert abs(t_table.branch + t_table.value((0, 3))) <= 1e-9
        assert abs(x_table.value((1, 0)) + x_table.value((0, 3))) <= 1e-9


def test_constant_solution_is_singular_for_both_frames():
    jet = jet_of_solution(Constant(u0=5.0), 0.0, 0.0, 3)
    for kind in KINDS:
        with pytest.raises(SingularFrameError):
            invariant_table(jet, kind, 3)


def test_table_missing_entry_rejected():
    jet = unit_jet()
    table = invariant_table(jet, FrameKind.X_NORMALIZED, 2)
    with pytest.raises(UsageError):
        table.value((0, 3))


def test_table_mappings_are_read_only_copies():
    jet = jet_of_solution(Soliton(), 0.3, -0.9, 4)
    table = invariant_table(jet, FrameKind.X_NORMALIZED, 4)
    for mapping, key in ((table.values, (1, 1)), (table.phantoms, "t")):
        with pytest.raises(TypeError):
            mapping[key] = 7.0
    # the recurrence reads the table's cached corrections, which must match its values
    values = dict(table.values)
    built = InvariantTable(table.kind, table.order, table.branch, values, {})
    before = recurrence_rhs(built, (1, 0))[0]
    values[(1, 1)] = 7.0
    assert built.value((1, 1)) == table.value((1, 1))
    assert recurrence_rhs(built, (1, 0))[0] == before
    fresh = InvariantTable(table.kind, table.order, table.branch, values, {})
    assert recurrence_rhs(fresh, (1, 0))[0] != before


def test_table_from_a_dense_row_equals_the_table_from_its_mapping():
    jet = jet_of_solution(Soliton(), 0.3, -0.9, 4)
    for kind in KINDS:
        table = invariant_table(jet, kind, 4)
        row = np.array(list(table.values.values()))
        mapping = dict(table.values)
        from_row = InvariantTable(kind, 4, table.branch, row, {})
        from_mapping = InvariantTable(kind, 4, table.branch, mapping, {})
        alphas = [a for a in multi_indices(3) if a not in ((0, 0), kind.pivot_alpha)]
        for built in (from_row, from_mapping):
            assert [v.hex() for v in built.values.values()] == [v.hex() for v in table.values.values()]
            assert [v.hex() for a in alphas for v in recurrence_rhs(built, a)] == [
                v.hex() for a in alphas for v in recurrence_rhs(table, a)
            ]
            assert [c.hex() for c in commutator_coefficients(built)] == [
                c.hex() for c in commutator_coefficients(table)
            ]
        # the table keeps its own copy of either input
        before = [recurrence_rhs(built, (1, 1))[1] for built in (from_row, from_mapping)]
        row[:] = 7.0
        mapping.update(dict.fromkeys(mapping, 7.0))
        for built, rhs in zip((from_row, from_mapping), before):
            assert built.values == table.values
            assert recurrence_rhs(built, (1, 1))[1] == rhs


def test_table_with_a_missing_or_non_finite_entry_is_rejected():
    table = invariant_table(jet_of_solution(Soliton(), 0.3, -0.9, 2), FrameKind.X_NORMALIZED, 2)
    missing = {a: v for a, v in table.values.items() if a != (1, 1)}
    series = {**table.values, (1, 1): TruncatedSeries.constant(1.0, 2)}
    for bad in (missing, {**table.values, (1, 1): float("nan")}, {**table.values, (2, 0): float("inf")}, series):
        with pytest.raises(UsageError):
            InvariantTable(table.kind, 2, table.branch, bad, {})


def test_invariantized_u_of_a_series_jet_is_a_zero_series():
    germ = SolutionGerm(Soliton(), 0.3, 0.8, 5)
    for kind in KINDS:
        zero = normalized_invariant(germ.series_jet(2, 3), (0, 0), kind)
        assert isinstance(zero, TruncatedSeries) and zero.order == 3
        assert not zero.coeffs.any()


def test_table_order_must_lie_between_zero_and_the_jet_order():
    jet = jet_of_solution(Soliton(), 0.3, 1.7, 4)
    for kind in KINDS:
        for order in (-1, -5, 5):
            with pytest.raises(UsageError, match="order"):
                invariant_table(jet, kind, order)
        assert invariant_table(jet, kind, 0).values == {(0, 0): 0.0}


def fd_invariant_derivative(sol, t0, x0, alpha, kind, h=1e-5):
    # independent oracle: finite differences of the closed-form invariant
    # along the solution, then each operator's total-derivative combination
    order = alpha[0] + alpha[1]

    def F(t, x):
        return normalized_invariant(jet_of_solution(sol, t, x, order), alpha, kind)

    jet = jet_of_solution(sol, t0, x0, 1)
    p = abs(pivot_value(jet, kind))
    dFdx = (F(t0, x0 + h) - F(t0, x0 - h)) / (2 * h)
    dFdt = (F(t0 + h, x0) - F(t0 - h, x0)) / (2 * h)
    prefactor = p ** (-3.0 / 5.0) if kind is FrameKind.T_NORMALIZED else 1.0 / p
    exponent = -1.0 / 5.0 if kind is FrameKind.T_NORMALIZED else -1.0 / 3.0
    return prefactor * (dFdt + jet.u[(0, 0)] * dFdx), p**exponent * dFdx


@pytest.mark.parametrize("kind", KINDS)
def test_invariant_derivative_against_finite_differences(kind):
    rng = np.random.default_rng(11)
    for _ in range(8):
        sol, t0, x0 = random_soliton_point(rng, kind)
        for alpha in [(0, 1), (1, 0), (0, 2)]:
            got = invariant_derivative(sol, t0, x0, alpha, kind)
            want = fd_invariant_derivative(sol, t0, x0, alpha, kind)
            for j in (0, 1):
                assert rel(got[j], want[j]) <= 1e-6, (alpha, j, kind)


def test_derivative_of_phantom_is_zero():
    sol = Soliton(c=1.2)
    for kind in KINDS:
        assert invariant_derivative(sol, 0.4, 1.1, (0, 0), kind) == (0.0, 0.0)


def test_time_frame_generator_derivative_relation():
    # on the positive branch the derivative of the generating invariant
    # collapses onto three table entries
    rng = np.random.default_rng(13)
    for _ in range(10):
        sol, t0, x0 = random_soliton_point(rng, FrameKind.T_NORMALIZED, +1)
        table = invariant_table(jet_of_solution(sol, t0, x0, 2), FrameKind.T_NORMALIZED, 2)
        assert table.branch == 1
        i01, i11, i20 = table.value((0, 1)), table.value((1, 1)), table.value((2, 0))
        lhs, _ = invariant_derivative(sol, t0, x0, (0, 1), FrameKind.T_NORMALIZED)
        assert rel(lhs, -0.6 * i01**2 + i11 - 0.6 * i01 * i20) <= 1e-6


def test_time_frame_relation_branch_aware():
    # typed oracle: the derivative of the time frame's generating invariant
    # collapses onto three table entries, with the branch sign on the last
    rng = np.random.default_rng(14)
    for branch in (1, -1):
        for _ in range(10):
            sol, t0, x0 = random_soliton_point(rng, FrameKind.T_NORMALIZED, branch)
            table = invariant_table(jet_of_solution(sol, t0, x0, 2), FrameKind.T_NORMALIZED, 2)
            assert table.branch == branch
            i01, i11, i20 = table.value((0, 1)), table.value((1, 1)), table.value((2, 0))
            want = -0.6 * i01**2 + i11 - 0.6 * branch * i01 * i20
            assert rel(recurrence_rhs(table, (0, 1))[0], want) <= 1e-14


def x_frame_recurrence(table, alpha):
    # typed oracle: the space-normalized split recurrences (D_t^i, D_x^i),
    # with s the branch sign and w = (3*a1 + a2 + 2)/3
    a1, a2 = alpha
    s = table.branch
    w = (3 * a1 + a2 + 2) / 3.0
    i_alpha = table.value(alpha)
    d_t = table.value((a1 + 1, a2)) - s * w * table.value((1, 1)) * i_alpha
    d_x = table.value((a1, a2 + 1)) - s * w * table.value((0, 2)) * i_alpha
    if a1 > 0:
        d_t += a1 * table.value((1, 0)) * table.value((a1 - 1, a2 + 1))
        d_x += s * a1 * table.value((a1 - 1, a2 + 1))
    return d_t, d_x


def test_recurrence_rhs_frozen_instance():
    rng = np.random.default_rng(15)
    sol, t0, x0 = random_soliton_point(rng, FrameKind.X_NORMALIZED, +1)
    table = invariant_table(jet_of_solution(sol, t0, x0, 4), FrameKind.X_NORMALIZED, 4)
    got = recurrence_rhs(table, (0, 2))[1]
    want = table.value((0, 3)) - (4.0 / 3.0) * table.value((0, 2)) ** 2
    assert got == pytest.approx(want, rel=1e-13)
    got_t = recurrence_rhs(table, (1, 0))[0]
    want_t = (
        table.value((2, 0))
        - (5.0 / 3.0) * table.value((1, 1)) * table.value((1, 0))
        + table.value((1, 0)) * table.value((0, 1))
    )
    assert got_t == pytest.approx(want_t, rel=1e-13)
    for branch in (1, -1):
        sol, t0, x0 = random_soliton_point(rng, FrameKind.X_NORMALIZED, branch)
        table = invariant_table(jet_of_solution(sol, t0, x0, 4), FrameKind.X_NORMALIZED, 4)
        for alpha in multi_indices(3):
            if alpha in ((0, 0), (0, 1)):
                continue
            for got, want in zip(recurrence_rhs(table, alpha), x_frame_recurrence(table, alpha)):
                assert rel(got, want) <= 1e-13, (alpha, branch)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("branch", [1, -1])
def test_recurrences_match_derivatives(kind, branch):
    rng = np.random.default_rng(16 + branch)
    alphas = [a for a in multi_indices(3) if a not in ((0, 0), kind.pivot_alpha)]
    for _ in range(10):
        sol, t0, x0 = random_soliton_point(rng, kind, branch)
        table = invariant_table(jet_of_solution(sol, t0, x0, 4), kind, 4)
        assert table.branch == branch
        for alpha in alphas:
            pairs = zip(invariant_derivative(sol, t0, x0, alpha, kind), recurrence_rhs(table, alpha))
            for j, (lhs, rhs) in enumerate(pairs):
                assert rel(lhs, rhs) <= 1e-12, (alpha, j, branch)


def test_recurrence_usage_errors():
    rng = np.random.default_rng(19)
    sol, t0, x0 = random_soliton_point(rng)
    for kind, phantom in ((FrameKind.X_NORMALIZED, (0, 1)), (FrameKind.T_NORMALIZED, (1, 0))):
        table = invariant_table(jet_of_solution(sol, t0, x0, 2), kind, 2)
        for alpha in ((0, 0), phantom):
            with pytest.raises(UsageError):
                recurrence_rhs(table, alpha)
        with pytest.raises(UsageError):
            recurrence_rhs(table, (0, 2))  # needs order 3 entries


def test_commutator_coefficients_from_table():
    # typed oracle: the classical coefficients, with the branch sign s
    rng = np.random.default_rng(21)
    for branch in (1, -1):
        for kind in KINDS:
            sol, t0, x0 = random_soliton_point(rng, kind, branch)
            table = invariant_table(jet_of_solution(sol, t0, x0, 2), kind, 2)
            s = table.branch
            assert s == branch
            a_t, a_x = commutator_coefficients(table)
            if kind is FrameKind.T_NORMALIZED:
                i01, i11, i20 = (table.value(a) for a in ((0, 1), (1, 1), (2, 0)))
                want_t, want_x = 0.6 * s * (i11 + i01**2), -0.2 * (s * i20 + 6 * i01)
            else:
                want_t, want_x = -s * table.value((0, 2)), s * (1 + table.value((1, 1)) / 3)
            assert rel(a_t, want_t) <= 1e-14, (kind, branch)
            assert rel(a_x, want_x) <= 1e-14, (kind, branch)


def test_commutator_coefficients_need_order_two():
    rng = np.random.default_rng(22)
    sol, t0, x0 = random_soliton_point(rng)
    table = invariant_table(jet_of_solution(sol, t0, x0, 1), FrameKind.X_NORMALIZED, 1)
    with pytest.raises(UsageError):
        commutator_coefficients(table)


@pytest.mark.parametrize("kind", KINDS)
def test_commutator_reproduces_nested_derivatives(kind):
    rng = np.random.default_rng(23)
    for _ in range(8):
        sol, t0, x0 = random_soliton_point(rng, kind)
        table = invariant_table(jet_of_solution(sol, t0, x0, 2), kind, 2)
        a_t, a_x = commutator_coefficients(table)
        for alpha in [(0, 1), (0, 2), (1, 0)]:
            i_alpha, dt, dx, bracket = invariant_commutator(sol, t0, x0, alpha, kind)
            assert rel(i_alpha, table.value(alpha)) <= 1e-13, (alpha, kind)
            assert (dt, dx) == invariant_derivative(sol, t0, x0, alpha, kind)
            assert rel(bracket, a_t * dt + a_x * dx) <= 1e-12, (alpha, kind)


def typed_reconstruction(solution, t0, x0, kind):
    # typed oracle: each frame's relations eliminated by hand down to I[2,0],
    # with s the branch sign
    s = float(moving_frame(jet_of_solution(solution, t0, x0, 1), kind).branch)
    if kind is FrameKind.T_NORMALIZED:
        i01, dt, dx, bracket = invariant_commutator(solution, t0, x0, (0, 1), kind)
        num = bracket - (3.0 / 5.0) * s * (dt + (8.0 / 5.0) * i01**2) * dt + (6.0 / 5.0) * i01 * dx
        return num / ((9.0 / 25.0) * i01 * dt - (1.0 / 5.0) * s * dx)
    i10, dt, dx, bracket = invariant_commutator(solution, t0, x0, (1, 0), kind)
    i02 = (bracket - (1.0 / 3.0) * s * (dx + 2.0) * dx) / ((5.0 / 9.0) * i10 * dx - s * dt)
    i11 = dx + (5.0 / 3.0) * s * i10 * i02 - 1.0
    return dt + (5.0 / 3.0) * s * i11 * i10 - s * i10


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("branch", [1, -1])
def test_reconstruction_matches_direct_value(kind, branch):
    rng = np.random.default_rng(29)
    done = 0
    while done < 10:
        sol, t0, x0 = random_soliton_point(rng, kind, branch)
        try:
            rec, direct = reconstruct_generators(sol, t0, x0, kind)
        except DegeneratePointError:
            continue
        assert rel(rec, direct) <= 1e-12
        assert rel(rec, typed_reconstruction(sol, t0, x0, kind)) <= 1e-13
        done += 1


def test_second_generator_identity():
    # the mixed second invariant is one derivative of the generator plus a
    # product correction; branch-aware form, literal on the positive branch
    rng = np.random.default_rng(31)
    for branch in (1, -1):
        for _ in range(10):
            sol, t0, x0 = random_soliton_point(rng, FrameKind.X_NORMALIZED, branch)
            table = invariant_table(jet_of_solution(sol, t0, x0, 2), FrameKind.X_NORMALIZED, 2)
            _, dx10 = invariant_derivative(sol, t0, x0, (1, 0), FrameKind.X_NORMALIZED)
            i11 = dx10 + (5.0 / 3.0) * branch * table.value((1, 0)) * table.value((0, 2)) - 1.0
            assert rel(i11, table.value((1, 1))) <= 1e-6


def test_degenerate_point_on_soliton():
    # on the default soliton (c = 1, phase 0) the space frame's reconstruction
    # system is singular where x - t = +-x_star; a point just off them is regular
    x_star = 2.2924316695611773
    for x0 in (x_star, -x_star):
        with pytest.raises(DegeneratePointError):
            reconstruct_generators(Soliton(), 0.0, x0, FrameKind.X_NORMALIZED)
    rec, direct = reconstruct_generators(Soliton(), 0.0, x_star + 1e-3, FrameKind.X_NORMALIZED)
    assert rel(rec, direct) <= 1e-12


def test_singular_set_inclusion_on_rational_family():
    # the time-normalized pivot vanishes identically on u = x/t while the
    # space-normalized frame stays regular away from t = 0
    rng = np.random.default_rng(33)
    for _ in range(20):
        t0 = float(rng.uniform(0.4, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
        x0 = float(rng.uniform(-2.0, 2.0))
        jet = jet_of_solution(Rational(), t0, x0, 3)
        with pytest.raises(SingularFrameError):
            invariant_table(jet, FrameKind.T_NORMALIZED, 3)
        table = invariant_table(jet, FrameKind.X_NORMALIZED, 3)
        assert table.branch == (1 if t0 > 0 else -1)


def test_germ_orders_are_validated():
    germ = SolutionGerm(Soliton(), 0.3, 0.8, 2)
    with pytest.raises(UsageError):
        germ.invariant_series((1, 0), FrameKind.X_NORMALIZED, 2)
    series = germ.invariant_series((1, 0), FrameKind.X_NORMALIZED, 1)
    with pytest.raises(UsageError):
        germ.differentiate(TruncatedSeries.constant(series.value, 0), FrameKind.X_NORMALIZED)


def test_germ_rejects_negative_or_too_high_orders():
    # a negative index is a usage error, never an endless recursion
    germ = SolutionGerm(Soliton(), 0.3, 0.8, 3)
    for jet_order, order in [(-1, 0), (0, -1), (4, 0), (2, 2)]:
        with pytest.raises(UsageError):
            germ.series_jet(jet_order, order)
    for alpha in [(-1, 0), (0, -1), (-1, 2), (-1, 1)]:
        with pytest.raises(UsageError):
            germ.invariant_series(alpha, FrameKind.X_NORMALIZED, 1)


def test_germ_series_do_not_share_the_master_coefficients():
    germ = SolutionGerm(Soliton(), 0.3, 0.8, 6)
    master = germ._master.coeffs
    for jet_order, order in [(0, 6), (3, 3), (6, 0)]:
        for entry in germ.series_jet(jet_order, order).u.values():
            assert not np.shares_memory(entry.coeffs, master)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("branch", [1, -1])
def test_germ_invariant_series_is_the_closed_form(kind, branch):
    rng = np.random.default_rng(41 + branch)
    alphas = [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (2, 1), (3, 0)]
    for _ in range(4):
        sol, t0, x0 = random_soliton_point(rng, kind, branch)
        germ = SolutionGerm(sol, t0, x0, 5)
        jet = jet_of_solution(sol, t0, x0, 3)
        for alpha in alphas:
            want = normalized_invariant(jet, alpha, kind)
            for order in (0, 2):
                got = germ.invariant_series(alpha, kind, order).value
                assert rel(got, want) <= 1e-12, (alpha, kind, branch, order)


def test_rational_germ_is_singular_in_time_frame():
    # u = x/t: the time-normalized pivot u_t + u*u_x is zero only up to
    # cancellation at these points, so only the cancellation test catches it
    for t0, x0 in ((1.3, 0.7), (0.7, -1.9), (-0.9, 0.4)):
        germ = SolutionGerm(Rational(), t0, x0, 3)
        assert pivot_value(germ.series_jet(1, 0), FrameKind.T_NORMALIZED).value != 0.0
        with pytest.raises(SingularFrameError):
            germ.invariant_series((0, 1), FrameKind.T_NORMALIZED, 1)
        series = germ.invariant_series((0, 2), FrameKind.X_NORMALIZED, 1)
        with pytest.raises(SingularFrameError):
            germ.differentiate(series, FrameKind.T_NORMALIZED)


def test_non_finite_invariant_is_domain_error():
    # the prefactor |u_x|^(-8/3) ~ 1e53 is finite and so is u[(0, 6)], but
    # their product is not
    values = {alpha: 0.5 for alpha in multi_indices(6)}
    values[(0, 1)] = 1e-20
    values[(0, 6)] = 1e300
    jet = Jet(order=6, t=0.5, x=0.5, u=values)
    # far out on the soliton tail the series prefactor of a high weight has
    # finite coefficients, but a product of series rows overflows to nan
    for compute in (
        lambda: normalized_invariant(jet, (0, 6), FrameKind.X_NORMALIZED),
        lambda: invariant_derivative(Soliton(), 0.0, 60.0, (10, 2), FrameKind.X_NORMALIZED),
        lambda: SolutionGerm(Soliton(), 0.0, 65.0, 13).invariant_series((9, 2), FrameKind.X_NORMALIZED, 1),
    ):
        with pytest.raises(DomainError) as info:
            compute()
        assert not isinstance(info.value, SingularFrameError)


def test_prefactor_overflow_is_domain_error():
    # far out on the soliton tail u_x ~ 1e-25 is regular, but its -38/3
    # power at alpha = (12, 0) exceeds the double range
    sol, x0 = Soliton(), 60.0
    jet = jet_of_solution(sol, 0.0, x0, 12)
    germ = SolutionGerm(sol, 0.0, x0, 13)
    for compute in (
        lambda: normalized_invariant(jet, (12, 0), FrameKind.X_NORMALIZED),
        lambda: germ.invariant_series((12, 0), FrameKind.X_NORMALIZED, 1),
    ):
        with pytest.raises(DomainError) as info:
            compute()
        assert not isinstance(info.value, SingularFrameError)
        assert "overflows" in str(info.value)


# -- sequence forms: one call for many alphas, each element bit-identical ------


def _same_series(a, b):
    return a.order == b.order and a.coeffs.tobytes() == b.coeffs.tobytes()


def _free_or_soliton(rng, i, order, kind, branch):
    if i % 2 == 0:
        forced = {"t_branch" if kind is FrameKind.T_NORMALIZED else "x_branch": branch}
        return random_free_jet(rng, order, **forced)
    return jet_of_solution(*random_soliton_point(rng, kind, branch), order)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("branch", [1, -1])
def test_normalized_invariant_sequence_matches_scalar_calls(kind, branch):
    rng = np.random.default_rng(53 + branch)
    for i, order in enumerate((1, 2, 4, 7, 12, 12)):
        jet = _free_or_soliton(rng, i, order, kind, branch)
        alphas = multi_indices(order)
        expected = [normalized_invariant(jet, alpha, kind) for alpha in alphas]
        got = normalized_invariant(jet, alphas, kind)
        assert type(got) is list and got == expected
        assert all(type(value) is float for value in got)
        # any order, repeats and a list of lists read the same
        picks = [list(alphas[k]) for k in rng.integers(0, len(alphas), size=9)]
        assert normalized_invariant(jet, picks, kind) == [
            normalized_invariant(jet, tuple(alpha), kind) for alpha in picks
        ]
    assert normalized_invariant(jet, [], kind) == []
    assert normalized_invariant(jet, [(0, 0)], kind) == [0.0]


def test_numpy_integer_multi_index_is_one_alpha():
    rng = np.random.default_rng(59)
    kind = FrameKind.X_NORMALIZED
    sol, t0, x0 = random_soliton_point(rng, kind, 1)
    jet = jet_of_solution(sol, t0, x0, 3)
    germ = SolutionGerm(sol, t0, x0, 3)
    for alpha in ((np.int64(1), np.int64(2)), np.array([1, 2]), (np.int32(1), 2)):
        assert normalized_invariant(jet, alpha, kind) == normalized_invariant(jet, (1, 2), kind)
        assert _same_series(germ.invariant_series(alpha, kind, 0), germ.invariant_series((1, 2), kind, 0))
        assert invariant_derivative(sol, t0, x0, alpha, kind) == invariant_derivative(sol, t0, x0, (1, 2), kind)
        assert invariant_commutator(sol, t0, x0, alpha, kind) == invariant_commutator(
            sol, t0, x0, (1, 2), kind
        )
    # a 2-d array is a sequence of multi-indices
    many = normalized_invariant(jet, np.array([[1, 2], [0, 3]]), kind)
    assert many == [normalized_invariant(jet, alpha, kind) for alpha in ((1, 2), (0, 3))]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("branch", [1, -1])
def test_germ_sequence_forms_match_scalar_calls(kind, branch):
    rng = np.random.default_rng(61 + branch)
    alphas = multi_indices(3)
    for _ in range(3):
        sol, t0, x0 = random_soliton_point(rng, kind, branch)
        germ = SolutionGerm(sol, t0, x0, 5)
        for order in (0, 2):
            got = germ.invariant_series(alphas, kind, order)
            want = [germ.invariant_series(alpha, kind, order) for alpha in alphas]
            assert type(got) is list and len(got) == len(want)
            assert all(map(_same_series, got, want))
        # a list of series of one order, read off one series jet
        for order in (1, 2):
            series = germ.invariant_series(alphas, kind, order)
            got = germ.differentiate(series, kind)
            want = [germ.differentiate(s, kind) for s in series]
            assert all(type(half) is list and len(half) == len(series) for half in got)
            for j in (0, 1):  # D_t^i, then D_x^i
                assert all(map(_same_series, got[j], [pair[j] for pair in want]))
        assert germ.differentiate([], kind) == ([], [])


def test_differentiate_takes_series_of_one_order():
    germ = SolutionGerm(Soliton(), 0.3, 0.8, 5)
    kind = FrameKind.X_NORMALIZED
    series = germ.invariant_series([(0, 1), (1, 0)], kind, 2) + germ.invariant_series([(0, 2)], kind, 1)
    with pytest.raises(UsageError, match=r"one order, got \[1, 2\]"):
        germ.differentiate(series, kind)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("branch", [1, -1])
def test_invariant_derivative_and_commutator_sequences_match_scalar_calls(kind, branch):
    # one germ, sized for the highest alpha, serves every alpha bit for bit
    rng = np.random.default_rng(67 + branch)
    alphas = multi_indices(3)
    for _ in range(3):
        sol, t0, x0 = random_soliton_point(rng, kind, branch)
        assert invariant_derivative(sol, t0, x0, alphas, kind) == [
            invariant_derivative(sol, t0, x0, alpha, kind) for alpha in alphas
        ]
        assert invariant_commutator(sol, t0, x0, alphas, kind) == [
            invariant_commutator(sol, t0, x0, alpha, kind) for alpha in alphas
        ]
        assert invariant_derivative(sol, t0, x0, [(0, 0)], kind) == [(0.0, 0.0)]


def test_sequence_forms_raise_what_a_scalar_call_raises():
    kind = FrameKind.X_NORMALIZED
    jet = jet_of_solution(Soliton(), 0.3, 0.8, 2)
    for alphas in ([(1, 0), (-1, 1)], [(1, 0), (2, 1)]):
        with pytest.raises(UsageError):
            normalized_invariant(jet, alphas, kind)
    singular = jet_of_solution(Rational(), 1.3, 0.7, 2)
    with pytest.raises(SingularFrameError):
        normalized_invariant(singular, [(0, 0), (0, 1)], FrameKind.T_NORMALIZED)
    # no derivative coordinate asked for, so no pivot is needed
    assert normalized_invariant(singular, [(0, 0)], FrameKind.T_NORMALIZED) == [0.0]


def _multi_index_entry_points():
    # every public call that takes a multi-index, as a function of it alone
    kind, (sol, t0, x0) = FrameKind.X_NORMALIZED, (Soliton(), 0.3, 0.8)
    jet = jet_of_solution(sol, t0, x0, 4)
    table = invariant_table(jet, kind, 4)
    germ = SolutionGerm(sol, t0, x0, 4)
    return {
        "normalized_invariant": lambda a: normalized_invariant(jet, a, kind),
        "eta_alpha": lambda a: eta_alpha(VectorField.galilean_boost(), a, jet),
        "invariant_series": lambda a: germ.invariant_series(a, kind, 1).coeffs.tolist(),
        "invariant_derivative": lambda a: invariant_derivative(sol, t0, x0, a, kind),
        "invariant_commutator": lambda a: invariant_commutator(sol, t0, x0, a, kind),
        "recurrence_rhs": lambda a: recurrence_rhs(table, a),
        "Jet.value": jet.value,
        "InvariantTable.value": table.value,
    }


MULTI_INDEX_ENTRY_POINTS = _multi_index_entry_points()


@pytest.mark.parametrize("alpha", [(1, 2, 3), (1.5, 0), "ab", (-1, 2), None, 1, [(1, 0), (0, 1.5)]], ids=repr)
@pytest.mark.parametrize("entry", sorted(MULTI_INDEX_ENTRY_POINTS))
def test_malformed_multi_index_is_usage_error(entry, alpha):
    with pytest.raises(UsageError, match="multi-index"):
        MULTI_INDEX_ENTRY_POINTS[entry](alpha)


@pytest.mark.parametrize("alpha", [[1, 2], (np.int64(1), np.uint8(2)), np.array([1, 2])], ids=repr)
@pytest.mark.parametrize("entry", sorted(MULTI_INDEX_ENTRY_POINTS))
def test_any_pair_of_integers_is_a_multi_index(entry, alpha):
    call = MULTI_INDEX_ENTRY_POINTS[entry]
    assert call(alpha) == call((1, 2))
