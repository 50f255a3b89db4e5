import numpy as np
import pytest

from jetframe import invariants
from jetframe.errors import (
    DegeneratePointError,
    DomainError,
    SingularFrameError,
    UsageError,
)
from jetframe.frame import FrameKind, equivariance_defect, moving_frame, pivot_value
from jetframe.group import GroupElement, VectorField, eta_alpha, pr_v_apply, prolong_act
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
from jetframe.solutions import Constant, Rational, Soliton, jet_of_solution, kdv_residual
from jetframe.taylor import TruncatedSeries, _pos, _series_order, series_pow, triangle_size
from jetframe.verify import (
    _jets,
    _draw_jet,
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
            jet = random_free_jet(rng, 3, kind, branch)
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


@pytest.mark.parametrize(
    "kind, branch, phantoms",
    [
        ("x", 1, {}),
        (None, 1, {}),
        (FrameKind.X_NORMALIZED, 0, {}),
        (FrameKind.X_NORMALIZED, 2, {}),
        (FrameKind.X_NORMALIZED, 1, None),
        (FrameKind.X_NORMALIZED, 1, "u"),
    ],
    ids=repr,
)
def test_table_kind_branch_and_phantoms_are_checked(kind, branch, phantoms):
    with pytest.raises(UsageError):
        InvariantTable(kind, 2, branch, [0.0] * 6, phantoms)


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
        germ = SolutionGerm(sol, t0, x0, 3)
        for alpha in [(0, 1), (1, 0), (0, 2)]:
            got = invariant_derivative(germ, alpha, kind)
            want = fd_invariant_derivative(sol, t0, x0, alpha, kind)
            for j in (0, 1):
                assert rel(got[j], want[j]) <= 1e-6, (alpha, j, kind)


def test_derivative_of_phantom_is_zero():
    sol = Soliton(c=1.2)
    for kind in KINDS:
        assert invariant_derivative(SolutionGerm(sol, 0.4, 1.1, 1), (0, 0), kind) == (0.0, 0.0)


def test_time_frame_generator_derivative_relation():
    # on the positive branch the derivative of the generating invariant
    # collapses onto three table entries
    rng = np.random.default_rng(13)
    for _ in range(10):
        sol, t0, x0 = random_soliton_point(rng, FrameKind.T_NORMALIZED, +1)
        table = invariant_table(jet_of_solution(sol, t0, x0, 2), FrameKind.T_NORMALIZED, 2)
        assert table.branch == 1
        i01, i11, i20 = table.value((0, 1)), table.value((1, 1)), table.value((2, 0))
        lhs, _ = invariant_derivative(SolutionGerm(sol, t0, x0, 2), (0, 1), FrameKind.T_NORMALIZED)
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
        germ = SolutionGerm(sol, t0, x0, 4)
        for alpha in alphas:
            pairs = zip(invariant_derivative(germ, alpha, kind), recurrence_rhs(table, alpha))
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
        germ = SolutionGerm(sol, t0, x0, 4)
        for alpha in [(0, 1), (0, 2), (1, 0)]:
            i_alpha, dt, dx, bracket = invariant_commutator(germ, alpha, kind)
            assert rel(i_alpha, table.value(alpha)) <= 1e-13, (alpha, kind)
            assert (dt, dx) == invariant_derivative(germ, alpha, kind)
            assert rel(bracket, a_t * dt + a_x * dx) <= 1e-12, (alpha, kind)


def typed_reconstruction(germ, kind):
    # typed oracle: each frame's relations eliminated by hand down to I[2,0],
    # with s the branch sign
    s = float(moving_frame(germ.jet(1), kind).branch)
    if kind is FrameKind.T_NORMALIZED:
        i01, dt, dx, bracket = invariant_commutator(germ, (0, 1), kind)
        num = bracket - (3.0 / 5.0) * s * (dt + (8.0 / 5.0) * i01**2) * dt + (6.0 / 5.0) * i01 * dx
        return num / ((9.0 / 25.0) * i01 * dt - (1.0 / 5.0) * s * dx)
    i10, dt, dx, bracket = invariant_commutator(germ, (1, 0), kind)
    i02 = (bracket - (1.0 / 3.0) * s * (dx + 2.0) * dx) / ((5.0 / 9.0) * i10 * dx - s * dt)
    i11 = dx + (5.0 / 3.0) * s * i10 * i02 - 1.0
    return dt + (5.0 / 3.0) * s * i11 * i10 - s * i10


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("branch", [1, -1])
def test_reconstruction_matches_direct_value(kind, branch):
    rng = np.random.default_rng(29)
    done = 0
    while done < 10:
        germ = SolutionGerm(*random_soliton_point(rng, kind, branch), 3)
        try:
            rec, direct = reconstruct_generators(germ, kind)
        except DegeneratePointError:
            continue
        assert rel(rec, direct) <= 1e-12
        assert rel(rec, typed_reconstruction(germ, kind)) <= 1e-13
        done += 1


def four_table_reconstruction(germ, kind):
    # the reconstruction as first written: each probe table solves its own R
    # through the public recurrence and commutator of one table
    jet = germ.jet(2)
    branch = moving_frame(jet, kind).branch
    g = next(e for e in ((1, 0), (0, 1)) if e != kind.pivot_alpha)
    i_g, dt, dx, bracket = invariant_commutator(germ, g, kind)
    known = np.zeros(3)
    known[_pos(*g)], known[_pos(*kind.pivot_alpha)] = i_g, branch

    def residuals(entries):
        table = InvariantTable(kind, 2, branch, np.concatenate((known, entries)), {})
        a_t, a_x = commutator_coefficients(table)
        rhs_t, rhs_x = recurrence_rhs(table, g)
        return np.array([rhs_t - dt, rhs_x - dx, a_t * dt + a_x * dx - bracket])

    at_zero = residuals(np.zeros(3))
    A = np.column_stack([residuals(e) - at_zero for e in np.eye(3)])
    if not np.linalg.cond(A) <= 1e8:
        raise DegeneratePointError("degenerate")
    return float(np.linalg.solve(A, -at_zero)[2]), normalized_invariant(jet, (2, 0), kind)


@pytest.mark.parametrize("kind", KINDS)
def test_reconstruction_is_the_four_table_algorithm_bit_for_bit(kind):
    rng = np.random.default_rng(37)
    for branch in (1, -1):
        for _ in range(100):
            germ = SolutionGerm(*random_soliton_point(rng, kind, branch), 3)
            try:
                want = four_table_reconstruction(germ, kind)
            except DegeneratePointError:
                with pytest.raises(DegeneratePointError):
                    reconstruct_generators(germ, kind)
                continue
            assert np.array(reconstruct_generators(germ, kind)).tobytes() == np.array(want).tobytes()
    germ = SolutionGerm(Soliton(), 0.0, 2.2924316695611773, 3)  # on the space frame's degenerate set
    for compute in (four_table_reconstruction, reconstruct_generators):
        with pytest.raises(DegeneratePointError):
            compute(germ, FrameKind.X_NORMALIZED)


def test_reconstruction_solves_R_once_and_tests_the_pivot_once(monkeypatch):
    # the probe tables share one correction solve, and the direct value
    # reads the pivot of the germ's frame: no float jet is tested
    real_solve, real_pivot = np.linalg.solve, invariants.require_regular_pivots
    solves, pivots = [], []

    def solve(a, b):
        solves.append(np.shape(a))
        return real_solve(a, b)

    def pivot(data, kind, at):
        if data.ndim == 2:  # float rows; series rows belong to the germ calculus
            pivots.append(kind)
        return real_pivot(data, kind, at)

    monkeypatch.setattr(np.linalg, "solve", solve)
    monkeypatch.setattr(invariants, "require_regular_pivots", pivot)
    rng = np.random.default_rng(41)
    for kind in KINDS:
        for branch in (1, -1):
            germ = SolutionGerm(*random_soliton_point(rng, kind, branch), 3)
            solves.clear(), pivots.clear()
            reconstruct_generators(germ, kind)
            # the matrices carry the germ's point axis (and the 4x4 one the probes'): one of each
            assert [shape[-2:] for shape in solves] == [(4, 4), (3, 3)], solves
            assert all(np.prod(shape[:-2]) == 1 for shape in solves), solves
            assert pivots == []


def test_second_generator_identity():
    # the mixed second invariant is one derivative of the generator plus a
    # product correction; branch-aware form, literal on the positive branch
    rng = np.random.default_rng(31)
    for branch in (1, -1):
        for _ in range(10):
            sol, t0, x0 = random_soliton_point(rng, FrameKind.X_NORMALIZED, branch)
            table = invariant_table(jet_of_solution(sol, t0, x0, 2), FrameKind.X_NORMALIZED, 2)
            _, dx10 = invariant_derivative(SolutionGerm(sol, t0, x0, 2), (1, 0), FrameKind.X_NORMALIZED)
            i11 = dx10 + (5.0 / 3.0) * branch * table.value((1, 0)) * table.value((0, 2)) - 1.0
            assert rel(i11, table.value((1, 1))) <= 1e-6


def test_degenerate_point_on_soliton():
    # on the default soliton (c = 1, phase 0) the space frame's reconstruction
    # system is singular where x - t = +-x_star; a point just off them is regular
    x_star = 2.2924316695611773
    for x0 in (x_star, -x_star):
        with pytest.raises(DegeneratePointError):
            reconstruct_generators(SolutionGerm(Soliton(), 0.0, x0, 3), FrameKind.X_NORMALIZED)
    germ = SolutionGerm(Soliton(), 0.0, x_star + 1e-3, 3)
    rec, direct = reconstruct_generators(germ, FrameKind.X_NORMALIZED)
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
    # a negative index is a usage error, never an endless recursion, and a
    # non-integer order one too, never a bare TypeError
    germ = SolutionGerm(Soliton(), 0.3, 0.8, 3)
    for jet_order, order in [(-1, 0), (0, -1), (4, 0), (2, 2), (1, 1.0), (1, "1"), (1.0, 1), ("1", 1)]:
        with pytest.raises(UsageError):
            germ.series_jet(jet_order, order)
    for alpha in [(-1, 0), (0, -1), (-1, 2), (-1, 1)]:
        with pytest.raises(UsageError):
            germ.invariant_series(alpha, FrameKind.X_NORMALIZED, 1)
    for kind in KINDS:
        for order in (1.0, "1"):
            with pytest.raises(UsageError, match="must be an integer"):
                germ.invariant_series((0, 1), kind, order)


def test_germ_series_do_not_share_the_master_coefficients():
    germ = SolutionGerm(Soliton(), 0.3, 0.8, 6)
    master = germ._coeffs
    for jet_order, order in [(0, 6), (3, 3), (6, 0)]:
        for entry in germ.series_jet(jet_order, order).u.values():
            assert not np.shares_memory(entry.coeffs, master)


# the calls that take only real jets, each as a function of the jet alone
_REAL_JET_CALLS = {
    "moving_frame": lambda jet: moving_frame(jet, FrameKind.X_NORMALIZED),
    "invariant_table": lambda jet: invariant_table(jet, FrameKind.X_NORMALIZED, 2),
    "equivariance_defect": lambda jet: equivariance_defect(jet, GroupElement(0.1, -0.2, 0.3, 0.05), FrameKind.X_NORMALIZED),
    "prolong_act": lambda jet: prolong_act(GroupElement(0.1, -0.2, 0.3, 0.05), jet),
    "pr_v_apply": lambda jet: pr_v_apply(VectorField.scaling(), lambda j: j.u[(0, 1)], jet),
}


@pytest.mark.parametrize("call", sorted(_REAL_JET_CALLS))
def test_a_series_jet_is_a_usage_error_where_only_real_jets_work(call):
    germ = SolutionGerm(Soliton(), 0.3, -0.9, 4)
    with pytest.raises(UsageError, match="real numbers, not series"):
        _REAL_JET_CALLS[call](germ.series_jet(2, 1))
    _REAL_JET_CALLS[call](germ.jet(2))


def test_the_closed_forms_keep_taking_series_jets():
    # the pivot, the invariants, eta and the residual are series arithmetic
    germ, kind = SolutionGerm(Soliton(), 0.3, -0.9, 4), FrameKind.X_NORMALIZED
    jet = germ.series_jet(3, 1)
    for value in (
        normalized_invariant(jet, (0, 2), kind),
        pivot_value(jet, kind),
        eta_alpha(VectorField.scaling(), (0, 2), jet),
        kdv_residual(jet),
    ):
        assert isinstance(value, TruncatedSeries) and value.order == 1


# soliton points on branch -1 and +1 of both frames, and two rational points
_GERM_POINTS = {
    "soliton-neg": (Soliton(), 0.3, 1.7),
    "soliton-pos": (Soliton(), 0.3, -0.9),
    "rational-pos": (Rational(), 1.3, 0.4),
    "rational-neg": (Rational(), -0.8, 1.1),
}


@pytest.mark.parametrize("sol, t0, x0", _GERM_POINTS.values(), ids=_GERM_POINTS)
@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_germ_jet_is_the_jet_of_the_solution_bit_for_bit(sol, t0, x0, n):
    want = jet_of_solution(sol, t0, x0, n)
    for order in range(n, n + 4):
        got = SolutionGerm(sol, t0, x0, order).jet(n)
        assert (got.order, got.t, got.x) == (want.order, want.t, want.x)
        assert got.data.tobytes() == want.data.tobytes(), (n, order)


def test_germ_jet_raises_what_jet_of_solution_raises():
    germ = SolutionGerm(Soliton(), 0.3, 0.8, 3)
    for order in (4, -1, 2.0, None):
        with pytest.raises(UsageError, match="jet order"):
            germ.jet(order)
    # u = x/t near its pole: the expansion is finite, an order-12 entry overflows
    with pytest.raises(DomainError, match=r"jet entry u_\(\d+, \d+\)") as want:
        jet_of_solution(Rational(), 1e-23, 10.0, 12)
    with pytest.raises(DomainError) as got:
        SolutionGerm(Rational(), 1e-23, 10.0, 12).jet(12)
    assert str(got.value) == str(want.value)


def test_a_stack_names_the_point_of_an_overflowing_jet_entry():
    far = SolutionGerm(Rational(), 1e-23, 10.0, 12)
    stack = SolutionGerm.stack([SolutionGerm(Soliton(), 0.3, 0.8, 12), far])
    with pytest.raises(DomainError) as want:
        far.jet(12)
    with pytest.raises(DomainError) as got:
        stack.jet(12)
    assert "(1e-23, 10.0)" in str(got.value) and str(got.value) == str(want.value)


def test_differentiate_takes_series_or_lists_of_series_only():
    kind = FrameKind.X_NORMALIZED
    germ = SolutionGerm(Soliton(), 0.3, -0.9, 4)
    with pytest.raises(UsageError, match="got float"):
        germ.differentiate(1.0, kind)
    with pytest.raises(UsageError, match="got float"):
        germ.differentiate([1.0], kind)
    # a stack takes a float array (points[, series], coefficients) and nothing else
    stack = SolutionGerm.stack([germ, SolutionGerm(Soliton(), 0.3, 0.8, 4)])
    rows = stack.invariant_series([(0, 1), (1, 0)], kind, 2)
    for bad, got in (
        ([None, None], "got list"),
        (list(rows), "got list"),
        (TruncatedSeries(2), "got TruncatedSeries"),
        (rows[0, 0], r"got float64 array of shape \(6,\)"),  # one series row, no point axis
        (rows[None], r"got float64 array of shape \(1, 2, 2, 6\)"),
        (np.ones((2, 6), int), "got int64 array"),
        (rows.astype(object), "got object array"),
        (rows[:1], r"shape \(1, 2, 6\)"),
        (np.concatenate([rows, rows]), r"shape \(4, 2, 6\)"),
        (rows[..., :4], r"shape \(2, 2, 4\)"),  # 4 coefficients are no series order
        (rows[..., :0], r"shape \(2, 2, 0\)"),
    ):
        with pytest.raises(UsageError, match=f"a stack of 2 points .*{got}"):
            stack.differentiate(bad, kind)
    with pytest.raises(UsageError):  # an order-0 series has no derivative
        stack.differentiate(rows[..., :1], kind)


def test_series_calculus_takes_a_germ():
    sol, t0, x0 = Soliton(), 0.3, 0.8
    kind = FrameKind.X_NORMALIZED
    for not_a_germ in (sol, jet_of_solution(sol, t0, x0, 3), None):
        for call in (
            lambda: invariant_derivative(not_a_germ, (1, 0), kind),
            lambda: invariant_commutator(not_a_germ, (1, 0), kind),
            lambda: reconstruct_generators(not_a_germ, kind),
        ):
            with pytest.raises(UsageError, match="SolutionGerm"):
                call()
    # a germ too short for the alpha is a usage error too, naming the germ's
    # order and the one the call needs: |alpha| + 1, |alpha| + 2 or 3
    germ = SolutionGerm(sol, t0, x0, 2)
    for call, need in (
        (lambda: invariant_derivative(germ, (1, 1), kind), 3),
        (lambda: invariant_derivative(germ, (2, 1), kind), 4),
        (lambda: invariant_commutator(germ, (0, 1), kind), 3),
        (lambda: invariant_commutator(germ, (1, 1), kind), 4),
        (lambda: reconstruct_generators(germ, kind), 3),
    ):
        with pytest.raises(UsageError, match=f"need a germ of order {need}, got order 2"):
            call()


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
        lambda: invariant_derivative(SolutionGerm(Soliton(), 0.0, 60.0, 13), (10, 2), FrameKind.X_NORMALIZED),
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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("branch", [1, -1])
def test_normalized_invariant_sequence_matches_scalar_calls(kind, branch):
    rng = np.random.default_rng(53 + branch)
    for i, order in enumerate((1, 2, 4, 7, 12, 12)):
        (jet,) = _jets([_draw_jet(rng, i % 2 == 0, order, kind, branch)], order)
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
    germ = SolutionGerm(sol, t0, x0, 5)
    # unsigned numpy integers too: a weight computed from them would wrap when negated
    for alpha in ((np.int64(1), np.int64(2)), np.array([1, 2]), (np.int32(1), 2), (np.uint8(1), np.uint8(2))):
        assert normalized_invariant(jet, alpha, kind) == normalized_invariant(jet, (1, 2), kind)
        assert _same_series(germ.invariant_series(alpha, kind, 0), germ.invariant_series((1, 2), kind, 0))
        assert invariant_derivative(germ, alpha, kind) == invariant_derivative(germ, (1, 2), kind)
        assert invariant_commutator(germ, alpha, kind) == invariant_commutator(germ, (1, 2), kind)
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


def per_series_derivatives(germ, s, kind):
    # the germ calculus as first written: per series, its own series jet,
    # pivot and prefactors, and three TruncatedSeries products
    order = s.order - 1
    jet = germ.series_jet(1, order)
    p = pivot_value(jet, kind)
    branch = 1 if p.value > 0 else -1
    scale_t, scale_x = (series_pow(branch * p, -w / kind.weight_denominator) for w in (3, 1))
    rows = s.derivatives(1, order)
    dt, dx = (TruncatedSeries(order, rows[_pos(*e)]) for e in ((1, 0), (0, 1)))
    return scale_t * (dt + jet.u[(0, 0)] * dx), scale_x * dx


# the orders of successive differentiate calls on one germ; "series first"
# computes the frame in invariant_series, at an order between the others
_CALL_ORDERS = {"high-low": (4, 3, 2, 1, 0), "low-high": (0, 1, 2, 3, 4), "series-first": (2, 4, 0, 3, 1)}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("branch", [1, -1])
@pytest.mark.parametrize("calls", sorted(_CALL_ORDERS))
def test_stacked_differentiate_is_the_per_series_calculus_bit_for_bit(kind, branch, calls):
    rng = np.random.default_rng(sum(map(ord, calls)) + 3 * branch)
    for _ in range(3):
        sol, t0, x0 = random_soliton_point(rng, kind, branch)
        germ = SolutionGerm(sol, t0, x0, 5)
        assert moving_frame(germ.jet(1), kind).branch == branch
        if calls == "series-first":
            got = germ.invariant_series(multi_indices(2), kind, 3)
            want = SolutionGerm(sol, t0, x0, 5).invariant_series(multi_indices(2), kind, 3)
            assert all(map(_same_series, got, want))
        for order in _CALL_ORDERS[calls]:
            size = triangle_size(order + 1)
            items = [TruncatedSeries(order + 1, rng.normal(size=size)) for _ in range(rng.integers(1, 9))]
            got = germ.differentiate(items, kind)
            for k, s in enumerate(items):
                want = per_series_derivatives(germ, s, kind)
                for j in (0, 1):
                    assert _same_series(got[j][k], want[j]), (order, k, j)
        # a frame kept at order 4 serves a lower order of invariant_series as a fresh germ does
        got = germ.invariant_series(multi_indices(3), kind, 1)
        want = SolutionGerm(sol, t0, x0, 5).invariant_series(multi_indices(3), kind, 1)
        assert all(map(_same_series, got, want))


def test_germ_frame_errors_hold_on_every_call():
    kind = FrameKind.X_NORMALIZED
    germ = SolutionGerm(Soliton(), 0.3, 0.8, 3)
    for _ in range(2):  # before and after the frame is kept
        with pytest.raises(UsageError, match="one order"):
            germ.differentiate([TruncatedSeries(2), TruncatedSeries(1)], kind)
        with pytest.raises(UsageError):  # an order-0 series has no derivative
            germ.differentiate(TruncatedSeries.constant(1.0, 0), kind)
        with pytest.raises(UsageError):  # a germ of order 3 is too short for order-3 derivatives
            germ.differentiate(TruncatedSeries(4), kind)
        with pytest.raises(UsageError):  # an unhashable kind
            germ.differentiate(TruncatedSeries(2), ["x"])
        with pytest.raises(UsageError):  # no series, but still a kind to check
            germ.differentiate([], ["x"])
        with pytest.raises(UsageError):
            germ.invariant_series((0, 1), ["x"], 1)
        germ.differentiate(germ.invariant_series((0, 1), kind, 2), kind)
    singular = SolutionGerm(Rational(), 1.3, 0.7, 3)
    series = singular.invariant_series((0, 2), FrameKind.X_NORMALIZED, 1)
    for _ in range(2):  # a singular frame is never kept
        with pytest.raises(SingularFrameError):
            singular.invariant_series((0, 1), FrameKind.T_NORMALIZED, 1)
        with pytest.raises(SingularFrameError):
            singular.differentiate(series, FrameKind.T_NORMALIZED)


def test_germ_tests_each_frame_pivot_once(monkeypatch):
    # one frame record per (germ, kind): the commutator's invariant series,
    # both of its differentiate calls, any later lower-order call and a
    # reconstruction's direct value read the pivot test and the D_t^i, D_x^i
    # prefactors made once, and reconstruction builds no InvariantTable
    real_pivot, tested = invariants.require_regular_pivots, []
    real_prefactors, computed = invariants._prefactors, []

    def pivot(rows, kind, at):
        tested.append(kind)
        return real_pivot(rows, kind, at)

    def prefactors(p, branch, weights, w_den):
        if tuple(weights) == (3, 1):
            computed.append(w_den)
        return real_prefactors(p, branch, weights, w_den)

    def no_table(*args, **kwargs):
        raise AssertionError("an InvariantTable was built")

    monkeypatch.setattr(invariants, "require_regular_pivots", pivot)
    monkeypatch.setattr(invariants, "_prefactors", prefactors)
    monkeypatch.setattr(invariants, "InvariantTable", no_table)
    germ = SolutionGerm(Soliton(), 0.3, -0.9, 4)
    for kind in KINDS:
        invariant_commutator(germ, [(0, 1), (0, 2), (1, 0)], kind)
        invariant_commutator(germ, (1, 1), kind)
        invariant_derivative(germ, (2, 0), kind)
        reconstruct_generators(germ, kind)
    assert tested == list(KINDS)
    assert computed == [kind.weight_denominator for kind in KINDS]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("branch", [1, -1])
def test_invariant_derivative_and_commutator_sequences_match_scalar_calls(kind, branch):
    # one germ, sized for the highest alpha, serves every alpha bit for bit
    rng = np.random.default_rng(67 + branch)
    alphas = multi_indices(3)
    for _ in range(3):
        germ = SolutionGerm(*random_soliton_point(rng, kind, branch), 5)
        assert invariant_derivative(germ, alphas, kind) == [
            invariant_derivative(germ, alpha, kind) for alpha in alphas
        ]
        assert invariant_commutator(germ, alphas, kind) == [
            invariant_commutator(germ, alpha, kind) for alpha in alphas
        ]
        assert invariant_derivative(germ, [(0, 0)], kind) == [(0.0, 0.0)]


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
    germ = SolutionGerm(sol, t0, x0, 5)
    return {
        "normalized_invariant": lambda a: normalized_invariant(jet, a, kind),
        "eta_alpha": lambda a: eta_alpha(VectorField.galilean_boost(), a, jet),
        "invariant_series": lambda a: germ.invariant_series(a, kind, 1).coeffs.tolist(),
        "invariant_derivative": lambda a: invariant_derivative(germ, a, kind),
        "invariant_commutator": lambda a: invariant_commutator(germ, a, kind),
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


# -- stacks: one germ over many points, each point bit for bit its own germ ------


def _same_bits(got, want):
    """Equal types and bit patterns, through lists and tuples of floats and series."""
    if type(got) is not type(want):
        return False
    if isinstance(want, TruncatedSeries):
        return got.order == want.order and got.coeffs.tobytes() == want.coeffs.tobytes()
    if isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(map(_same_bits, got, want))
    return np.float64(got).tobytes() == np.float64(want).tobytes()


def _germ_at(rng, kind, order):
    """A germ where the frame `kind` is regular: a soliton point, or in the x frame maybe a rational one."""
    if kind is FrameKind.X_NORMALIZED and rng.uniform() < 0.4:  # x/t: the t frame is singular everywhere
        t0 = float(rng.uniform(0.5, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
        return SolutionGerm(Rational(), t0, float(rng.uniform(-2.0, 2.0)), order)
    return SolutionGerm(*random_soliton_point(rng, kind, 1 if rng.uniform() < 0.5 else -1), order)


def _rows(answer):
    """A one-germ answer as a float array: floats as they are, series as their coefficient rows."""
    if isinstance(answer, TruncatedSeries):
        return answer.coeffs
    if isinstance(answer, (list, tuple)):
        return np.array([_rows(item) for item in answer])
    assert type(answer) is float
    return np.float64(answer)


def _same_rows(got, want):
    """A stack's float array holds the one-germ answers `want`, one per point, bit for bit."""
    want = np.array([_rows(answer) for answer in want])
    return type(got) is np.ndarray and got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_stack_is_its_germs_bit_for_bit():
    # every germ entry point on a stack of 1-9 points gives a float array with a
    # leading point axis, each row the coefficients or floats of that point's own call
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.sampled_from(KINDS), st.integers(1, 9), st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
    def check(kind, points, seed, count, order):
        rng = np.random.default_rng(seed)
        germs = [_germ_at(rng, kind, 5) for _ in range(points)]
        stack = SolutionGerm.stack(germs)
        assert stack.t0 == tuple(g.t0 for g in germs) and stack.x0 == tuple(g.x0 for g in germs)
        assert [jet.data.tobytes() for jet in stack.jet(3)] == [g.jet(3).data.tobytes() for g in germs]
        alphas = multi_indices(3)
        for series_order in (0, 2):
            got = stack.invariant_series(alphas, kind, series_order)  # (points, alphas, coefficients)
            assert _same_rows(got, [g.invariant_series(alphas, kind, series_order) for g in germs])
        got = stack.invariant_series((1, 1), kind, 1)  # (points, coefficients)
        assert _same_rows(got, [g.invariant_series((1, 1), kind, 1) for g in germs])
        # `count` series per point, or one series per point
        rows = rng.normal(size=(points, count, triangle_size(order)))
        for per_point in (rows, rows[:, 0]):
            got = stack.differentiate(per_point, kind)
            assert type(got) is tuple and len(got) == 2
            want = [g.differentiate(_series(item), kind) for g, item in zip(germs, per_point)]
            for j in (0, 1):
                assert _same_rows(got[j], [pair[j] for pair in want])
        for alpha in (alphas, (1, 2)):
            got = invariant_derivative(stack, alpha, kind)
            assert _same_rows(got, [invariant_derivative(g, alpha, kind) for g in germs])
        for alpha in (multi_indices(2), (0, 2)):
            got = invariant_commutator(stack, alpha, kind)
            assert _same_rows(got, [invariant_commutator(g, alpha, kind) for g in germs])
        try:
            want = [reconstruct_generators(g, kind) for g in germs]
        except DegeneratePointError:
            with pytest.raises(DegeneratePointError):
                reconstruct_generators(stack, kind)
        else:
            assert _same_rows(reconstruct_generators(stack, kind), want)

    check()


def _series(rows):
    """One germ's differentiate argument for coefficient `rows`: one series, or a list of them."""
    if rows.ndim == 1:
        return TruncatedSeries(_series_order(len(rows)), rows)
    return [_series(row) for row in rows]


def test_a_stacks_series_calculus_constructs_no_series(monkeypatch):
    # on a stack, the series calculus passes coefficient arrays from call to
    # call: a TruncatedSeries appears only where a one-germ call returns one
    rng = np.random.default_rng(29)
    stack = SolutionGerm.stack([SolutionGerm(*random_soliton_point(rng), 4) for _ in range(5)])
    germ = SolutionGerm(Soliton(), 0.3, 0.8, 3)
    made = []
    real_wrap, real_init = TruncatedSeries._wrap.__func__, TruncatedSeries.__init__

    def wrap(cls, order, coeffs):
        made.append("_wrap")
        return real_wrap(cls, order, coeffs)

    def init(self, *args, **kwargs):
        made.append("__init__")
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(TruncatedSeries, "_wrap", classmethod(wrap))
    monkeypatch.setattr(TruncatedSeries, "__init__", init)
    shapes = []
    for kind in KINDS:
        series = stack.invariant_series(multi_indices(2), kind, 2)
        results = (
            stack.invariant_series((0, 2), kind, 1),
            series,
            *stack.differentiate(series, kind),
            invariant_derivative(stack, [(0, 2), (2, 0)], kind),
            invariant_commutator(stack, (1, 1), kind),
            reconstruct_generators(stack, kind),
        )
        shapes.append([np.shape(result) for result in results])
    assert made == []
    assert shapes == [[(5, 3), (5, 6, 6), (5, 6, 3), (5, 6, 3), (5, 2, 2), (5, 4), (5, 2)]] * 2
    # the counters do count: a one-germ call returns series
    germ.invariant_series([(0, 1), (0, 2)], FrameKind.X_NORMALIZED, 1)
    assert made == ["_wrap"] * 2


@pytest.mark.parametrize("kind", KINDS)
def test_a_stacks_relations_are_each_tables_own(kind):
    # the germ suites read R, the recurrences and the bracket off the stacked
    # table rows; each point is bit for bit the public call on its own table
    rng = np.random.default_rng(53)
    germs = [SolutionGerm(*random_soliton_point(rng, kind, branch), 5) for branch in (1, -1, 1, -1)]
    if kind is FrameKind.X_NORMALIZED:  # x/t: the t frame is singular everywhere
        germs += [SolutionGerm(Rational(), t0, x0, 5) for t0, x0 in ((1.3, 0.4), (-0.8, 1.1))]
    stack = SolutionGerm.stack(germs)
    for n in (2, 4):
        rows = stack._tables(kind, n)
        R, etas = invariants._relations(kind, rows, n)
        tables = [invariant_table(g.jet(n), kind, n) for g in germs]
        assert {t.branch for t in tables} == {1, -1}
        got = list(zip(*(c.tolist() for c in invariants._bracket(kind, R))))  # one pair per point
        assert _same_bits(got, [commutator_coefficients(t) for t in tables])
        for alpha in multi_indices(n - 1):
            if alpha in ((0, 0), kind.pivot_alpha):
                continue
            got = list(zip(*(d.tolist() for d in invariants._recurrence(rows, alpha, R, etas))))
            assert _same_bits(got, [recurrence_rhs(t, alpha) for t in tables])


def test_a_stack_holds_germs_of_one_order():
    kind = FrameKind.X_NORMALIZED
    germ = SolutionGerm(Soliton(), 0.3, 0.8, 4)
    with pytest.raises(UsageError, match=r"one order, got \[4, 5\]"):
        SolutionGerm.stack([germ, SolutionGerm(Soliton(), 0.3, -0.9, 5)])
    with pytest.raises(UsageError, match="one order"):
        SolutionGerm.stack([])
    with pytest.raises(UsageError, match="SolutionGerm"):
        SolutionGerm.stack([germ, Soliton()])
    stack = SolutionGerm.stack([germ, SolutionGerm(Rational(), 1.3, 0.4, 4)])
    assert (stack.t0, stack.x0, stack.order) == ((0.3, 1.3), (0.8, 0.4), 4)
    # a stack of stacks is the stack of their points
    twice = SolutionGerm.stack([stack, germ])
    assert twice.t0 == (0.3, 1.3, 0.3)
    # a stack differentiates arrays of one series order, with or without a series axis
    with pytest.raises(UsageError, match="a stack of 2 points"):
        stack.differentiate([TruncatedSeries(2), TruncatedSeries(2)], kind)
    with pytest.raises(UsageError, match="a stack of 2 points"):
        stack.differentiate(np.zeros((2, 3, 2)), kind)  # 2 coefficients are no series order
    empty = stack.differentiate(np.zeros((2, 0, 6)), kind)
    assert [half.shape for half in empty] == [(2, 0, 3)] * 2
    # no series reads no frame, as on one germ: the t frame is singular at the rational point
    singular = FrameKind.T_NORMALIZED
    assert invariant_derivative(stack, [], singular).shape == (2, 0, 2)
    assert invariant_derivative(SolutionGerm(Rational(), 1.3, 0.4, 4), [], singular) == []
    # a stack of one point still answers with a point axis
    one = SolutionGerm.stack([germ]).invariant_series([(0, 1)], kind, 1)
    assert one.shape == (1, 1, 3) and one.tobytes() == germ.invariant_series((0, 1), kind, 1).coeffs.tobytes()
    (pair,) = invariant_derivative(SolutionGerm.stack([germ]), (0, 1), kind).tolist()
    assert tuple(pair) == invariant_derivative(germ, (0, 1), kind)


def test_a_singular_point_raises_for_its_whole_stack():
    kind = FrameKind.T_NORMALIZED
    points = [(Soliton(), 0.3, -0.9), (Rational(), 1.3, 0.7), (Soliton(), 0.3, 1.7)]
    stack = SolutionGerm.stack(SolutionGerm(*point, 4) for point in points)
    for call in (
        lambda: stack.invariant_series((0, 1), kind, 1),
        lambda: invariant_derivative(stack, (0, 1), kind),
        lambda: reconstruct_generators(stack, kind),
    ):
        with pytest.raises(SingularFrameError, match=r"at \(t, x\) = \(1.3, 0.7\)"):
            call()
    # the other frame is regular at every point
    assert len(invariant_derivative(stack, (1, 1), FrameKind.X_NORMALIZED)) == 3
