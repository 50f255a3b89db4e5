import math

import numpy as np
import pytest

from jetframe.errors import DomainError, UsageError
from jetframe.group import (
    GroupElement,
    VectorField,
    act_point,
    compose,
    determining_equation_residuals,
    eta_alpha,
    inverse,
    pr_v_apply,
    prolong_act,
)
from jetframe.invariants import normalized_invariant
from jetframe.frame import FrameKind
from jetframe.jets import Jet, _entries, multi_indices
from jetframe.solutions import Custom, Soliton, jet_of_solution
from jetframe.taylor import TruncatedSeries
from jetframe import verify
from jetframe.verify import random_free_jet, random_group_element, random_soliton_point


def rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_identity_acts_trivially():
    e = GroupElement.identity()
    p = (0.3, -1.2, 2.5)
    assert act_point(e, p) == p


def test_normalizing_element_sends_point_to_origin():
    t, x, u = 0.8, -0.4, 1.7
    for eps4 in (0.0, 0.5, -1.2):
        g = GroupElement(-t, -x, -u, eps4)
        T, X, U = act_point(g, (t, x, u))
        assert T == pytest.approx(0.0, abs=1e-15)
        assert X == pytest.approx(0.0, abs=1e-15)
        assert U == pytest.approx(0.0, abs=1e-15)


def test_pure_boost_closed_form():
    v = 0.7
    g = GroupElement(0.0, 0.0, v, 0.0)
    t, x, u = 1.2, -0.5, 0.9
    T, X, U = act_point(g, (t, x, u))
    assert (T, X, U) == pytest.approx((t, x + v * t, u + v))


def test_compose_identity_and_inverse_laws():
    rng = np.random.default_rng(2)
    e = GroupElement.identity()
    for _ in range(50):
        g = random_group_element(rng)
        assert compose(e, g).params() == pytest.approx(g.params(), abs=1e-15)
        assert compose(g, e).params() == pytest.approx(g.params(), abs=1e-15)
        for h in (compose(g, inverse(g)), compose(inverse(g), g)):
            assert max(abs(p) for p in h.params()) < 1e-13


def test_inverse_of_pure_scaling():
    g = inverse(GroupElement(0.0, 0.0, 0.0, 0.8))
    assert g.params() == pytest.approx((0.0, 0.0, 0.0, -0.8))


def test_compose_matches_pointwise_action():
    rng = np.random.default_rng(7)
    for _ in range(100):
        g1, g2 = random_group_element(rng), random_group_element(rng)
        p = tuple(map(float, rng.uniform(-2, 2, size=3)))
        lhs = act_point(compose(g2, g1), p)
        rhs = act_point(g2, act_point(g1, p))
        assert max(rel(a, b) for a, b in zip(lhs, rhs)) < 1e-12


def test_inverse_roundtrip_on_points():
    rng = np.random.default_rng(8)
    for _ in range(100):
        g = random_group_element(rng)
        p = tuple(map(float, rng.uniform(-2, 2, size=3)))
        q = act_point(inverse(g), act_point(g, p))
        assert max(rel(a, b) for a, b in zip(p, q)) < 1e-12


def test_compose_associative():
    rng = np.random.default_rng(9)
    for _ in range(100):
        g1, g2, g3 = (random_group_element(rng) for _ in range(3))
        lhs = compose(compose(g1, g2), g3)
        rhs = compose(g1, compose(g2, g3))
        assert max(rel(a, b) for a, b in zip(lhs.params(), rhs.params())) < 1e-12


def test_prolong_identity():
    rng = np.random.default_rng(4)
    jet = random_free_jet(rng, 4)
    out = prolong_act(GroupElement.identity(), jet)
    assert out.u == pytest.approx(jet.u)
    assert (out.t, out.x) == (jet.t, jet.x)


def test_prolong_pure_scaling_weights():
    rng = np.random.default_rng(5)
    jet = random_free_jet(rng, 5)
    s = 0.37
    out = prolong_act(GroupElement(0.0, 0.0, 0.0, s), jet)
    for a1, a2 in multi_indices(5):
        if (a1, a2) == (0, 0):
            continue
        weight = 3 * a1 + a2 + 2
        assert out.u[(a1, a2)] == pytest.approx(math.exp(-weight * s) * jet.u[(a1, a2)])


def test_prolong_pure_boost_first_order():
    rng = np.random.default_rng(6)
    jet = random_free_jet(rng, 3)
    v = 0.9
    out = prolong_act(GroupElement(0.0, 0.0, v, 0.0), jet)
    assert out.u[(1, 0)] == pytest.approx(jet.u[(1, 0)] - v * jet.u[(0, 1)])
    assert out.u[(0, 1)] == pytest.approx(jet.u[(0, 1)])


def test_prolong_shares_its_boost_powers_bit_for_bit():
    # one table of (-eps3)**k serves every entry; each equals the closed form written out
    rng = np.random.default_rng(8)
    for _ in range(20):
        jet = random_free_jet(rng, 6)
        g = random_group_element(rng)
        out = prolong_act(g, jet)
        for a1, a2 in multi_indices(6)[1:]:
            acc = 0.0
            for k in range(a1 + 1):
                acc += math.comb(a1, k) * (-g.eps3) ** k * jet.u[(a1 - k, a2 + k)]
            assert out.u[(a1, a2)] == math.exp(-(3 * a1 + a2 + 2) * g.eps4) * acc


def test_prolong_homomorphism():
    rng = np.random.default_rng(10)
    for _ in range(30):
        jet = random_free_jet(rng, 6)
        g1, g2 = random_group_element(rng), random_group_element(rng)
        lhs = prolong_act(compose(g2, g1), jet)
        rhs = prolong_act(g2, prolong_act(g1, jet))
        worst = max(rel(lhs.u[a], rhs.u[a]) for a in multi_indices(6))
        worst = max(worst, rel(lhs.t, rhs.t), rel(lhs.x, rhs.x))
        assert worst < 1e-9


def _boosted_soliton(sol, v):
    # the graph transform of a boost turns a speed-c soliton into a speed-(c+v)
    # soliton riding on the constant v
    return Custom(fn=lambda t, x: sol.series(t, x - v * t) + v, label="boosted-soliton")


def _scaled_soliton(sol, s):
    e = math.exp(-s)
    return Custom(fn=lambda t, x: e**2 * sol.series(e**3 * t, e * x), label="scaled-soliton")


@pytest.mark.parametrize("which", ["time", "space", "boost", "scaling"])
def test_prolong_matches_transformed_solution(which):
    # chain-rule oracle: push the soliton through one-parameter subgroups
    # analytically and compare jets at the transformed base point
    sol = Soliton(c=1.3, phase=0.2)
    t0, x0, order = 0.4, 0.9, 4
    jet = jet_of_solution(sol, t0, x0, order)
    if which == "time":
        a = 0.6
        g = GroupElement(a, 0.0, 0.0, 0.0)
        moved_sol = Soliton(c=sol.c, phase=sol.phase - sol.c * a)
        # u(t - a, x) shifts the crest trajectory by a in time
    elif which == "space":
        b = -0.8
        g = GroupElement(0.0, b, 0.0, 0.0)
        moved_sol = Soliton(c=sol.c, phase=sol.phase + b)
    elif which == "boost":
        g = GroupElement(0.0, 0.0, 0.7, 0.0)
        moved_sol = _boosted_soliton(sol, 0.7)
    else:
        g = GroupElement(0.0, 0.0, 0.0, 0.45)
        moved_sol = _scaled_soliton(sol, 0.45)
    lhs = prolong_act(g, jet)
    rhs = jet_of_solution(moved_sol, lhs.t, lhs.x, order)
    for alpha in multi_indices(order):
        assert rel(lhs.u[alpha], rhs.u[alpha]) < 1e-8, alpha


def test_sign_invariants_preserved():
    rng = np.random.default_rng(12)
    for _ in range(50):
        jet = random_free_jet(rng, 2)
        g = random_group_element(rng)
        out = prolong_act(g, jet)
        pivot_in = jet.u[(1, 0)] + jet.u[(0, 0)] * jet.u[(0, 1)]
        pivot_out = out.u[(1, 0)] + out.u[(0, 0)] * out.u[(0, 1)]
        assert math.copysign(1, pivot_in) == math.copysign(1, pivot_out)
        assert math.copysign(1, jet.u[(0, 1)]) == math.copysign(1, out.u[(0, 1)])


def test_eta_alpha_basis_values():
    rng = np.random.default_rng(13)
    jet = random_free_jet(rng, 3)
    time = VectorField.time_translation()
    boost = VectorField.galilean_boost()
    scale = VectorField.scaling()
    for alpha in multi_indices(3):
        assert eta_alpha(time, alpha, jet) == 0.0
    assert eta_alpha(scale, (0, 1), jet) == pytest.approx(-3.0 * jet.u[(0, 1)])
    assert eta_alpha(boost, (1, 0), jet) == pytest.approx(-jet.u[(0, 1)])
    # order zero carries the field's own u-coefficient
    assert eta_alpha(boost, (0, 0), jet) == 1.0
    assert eta_alpha(scale, (0, 0), jet) == pytest.approx(-2.0 * jet.u[(0, 0)])


def test_eta_alpha_out_of_order_rejected():
    rng = np.random.default_rng(14)
    jet = random_free_jet(rng, 2)
    with pytest.raises(UsageError):
        eta_alpha(VectorField.scaling(), (0, 3), jet)


def test_pr_v_constant_function_vanishes():
    rng = np.random.default_rng(15)
    jet = random_free_jet(rng, 3)
    for v in VectorField.basis():
        assert pr_v_apply(v, lambda j: 4.25, jet) == 0.0


def test_pr_v_on_coordinate_u():
    rng = np.random.default_rng(16)
    jet = random_free_jet(rng, 2)
    got = pr_v_apply(VectorField.scaling(), lambda j: j.u[(0, 0)], jet)
    assert got == pytest.approx(-2.0 * jet.u[(0, 0)], rel=1e-9)


def test_pr_v_annihilates_low_order_invariant():
    rng = np.random.default_rng(17)
    for _ in range(10):
        jet = random_free_jet(rng, 2)

        def F(j):
            return normalized_invariant(j, (0, 1), FrameKind.T_NORMALIZED)

        value = abs(F(jet))
        for v in VectorField.basis():
            assert abs(pr_v_apply(v, F, jet)) <= 1e-12 * (1.0 + value)


def test_pr_v_on_coordinates_is_exact():
    # the lift carries each coordinate's coefficient as its eps term, so
    # applying the field to a coordinate returns that coefficient bit for bit
    rng = np.random.default_rng(19)
    jet = random_free_jet(rng, 4)
    t, x, u = jet.t, jet.x, jet.u[(0, 0)]
    for v in VectorField.basis():
        assert pr_v_apply(v, lambda j: j.t, jet) == v.tau(t, x, u)
        assert pr_v_apply(v, lambda j: j.x, jet) == v.xi(t, x, u)
        for alpha in multi_indices(4):
            assert pr_v_apply(v, lambda j: j.u[alpha], jet) == eta_alpha(v, alpha, jet)


def test_pr_v_sequence_matches_scalar_calls():
    # one lift serves every output: each element equals its own scalar call bit for bit
    rng = np.random.default_rng(23)
    kinds = (FrameKind.T_NORMALIZED, FrameKind.X_NORMALIZED)
    for order in (1, 3):
        jet = random_free_jet(rng, order)
        scalars = [lambda j: j.t, lambda j: j.x, lambda j: 4.25]
        scalars += [lambda j, a=alpha: j.u[a] for alpha in multi_indices(order)]
        scalars += [
            lambda j, a=alpha, k=kind: normalized_invariant(j, a, k)
            for kind in kinds
            for alpha in multi_indices(order)
        ]
        for v in VectorField.basis() + (VectorField(0.3, -1.1, 0.7, 1.9),):
            expected = [pr_v_apply(v, F, jet) for F in scalars]
            as_list = pr_v_apply(v, lambda j: [F(j) for F in scalars], jet)
            as_tuple = pr_v_apply(v, lambda j: tuple(F(j) for F in scalars), jet)
            assert as_list == as_tuple == expected
            assert all(type(d) is float for d in as_list)
    assert pr_v_apply(VectorField.scaling(), lambda j: [], jet) == []


def test_pr_v_pair_of_fields_matches_two_single_calls():
    # the second field rides in the dx slot; first-order coefficients do not mix,
    # so each half of the pair equals its own call bit for bit
    rng = np.random.default_rng(29)
    kinds = (FrameKind.T_NORMALIZED, FrameKind.X_NORMALIZED)
    fields = VectorField.basis() + (VectorField(0.3, -1.1, 0.7, 1.9),)

    def invariants(j):
        return [normalized_invariant(j, multi_indices(j.order), kind) for kind in kinds]

    for order in (1, 4):
        jet = random_free_jet(rng, order)
        for F in (invariants, lambda j: j.t * j.x + j.u[(0, 1)], lambda j: 4.25):
            for v, w in zip(fields, fields[1:] + fields[:1]):
                assert pr_v_apply((v, w), F, jet) == [pr_v_apply(v, F, jet), pr_v_apply(w, F, jet)]
                assert pr_v_apply([v], F, jet) == [pr_v_apply(v, F, jet)]


def test_pr_v_lifts_at_most_two_fields():
    jet = random_free_jet(np.random.default_rng(31), 2)
    for fields in ((), VectorField.basis()[:3]):
        with pytest.raises(UsageError):
            pr_v_apply(fields, lambda j: j.t, jet)


def test_pr_v_non_finite_result_is_domain_error():
    rng = np.random.default_rng(21)
    jet = random_free_jet(rng, 1)
    blow_up = TruncatedSeries.affine(0.0, math.inf, 0.0, 1)
    with pytest.raises(DomainError):
        pr_v_apply(VectorField.scaling(), lambda j: j.u[(0, 1)] + blow_up, jet)


def test_pr_v_result_must_be_a_series_or_a_real_number():
    # only a real number is a constant; None, a string, a dict or a raw row of
    # series coefficients is a UsageError, never a silent "invariant" 0.0
    jet = random_free_jet(np.random.default_rng(37), 2)
    v = VectorField.scaling()
    for constant in (4.25, 3, np.float64(-0.5), True):
        assert pr_v_apply(v, lambda j: constant, jet) == 0.0
    for F in (lambda j: None, lambda j: "x", lambda j: {"u": j.u[(0, 0)]}, lambda j: j.data[1]):
        with pytest.raises(UsageError, match="real numbers"):
            pr_v_apply(v, F, jet)
        with pytest.raises(UsageError, match="real numbers"):
            pr_v_apply(v, lambda j: [j.t, F(j)], jet)


def test_pr_v_list_of_series_is_read_in_one_pass_as_element_calls():
    # a list of lifted series is read element by element: each float is the
    # element's own call, a non-finite one is the DomainError, and an order-0
    # series stays a UsageError
    jet = random_free_jet(np.random.default_rng(39), 3)
    v = VectorField.galilean_boost()
    entries = [lambda j, a=a: j.u[a] * j.u[(0, 1)] for a in multi_indices(3)]
    got = pr_v_apply(v, lambda j: [F(j) for F in entries], jet)
    assert all(type(d) is float for d in got)
    assert got == [pr_v_apply(v, F, jet) for F in entries]
    blow_up = TruncatedSeries.affine(0.0, math.inf, 0.0, 1)
    with pytest.raises(DomainError, match="not finite"):
        pr_v_apply(v, lambda j: [j.t, j.u[(0, 1)] + blow_up, j.x], jet)
    with pytest.raises(UsageError):
        pr_v_apply(v, lambda j: [j.t, TruncatedSeries.constant(1.0, 0)], jet)


def _stack_of_jets(rng, free, order):
    """One jet per flag of `free`: a free jet where it is set, else a soliton jet, all of `order`."""
    return [random_free_jet(rng, order) if f else jet_of_solution(*random_soliton_point(rng), order) for f in free]


def test_pr_v_on_a_stack_matches_each_jet_alone():
    # one eta pass lifts the whole stack and F runs once on it; every jet's
    # result is its own call bit for bit (repr tells the signs of zeros apart)
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    fields = st.sampled_from(VectorField.basis() + (VectorField(0.3, -1.1, 0.7, 1.9),))
    kinds = tuple(FrameKind)

    def invariants(j):
        return [value for kind in kinds for value in normalized_invariant(j, multi_indices(j.order), kind)]

    def mixed(j):
        return (j.t * j.x + j.u[(0, 1)], 4.25, j.u[(j.order, 0)] * j.u[(0, 0)])

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(0, 2**32 - 1),
        st.lists(st.booleans(), min_size=1, max_size=9),
        st.integers(1, 6),
        st.one_of(fields, st.tuples(fields, fields)),
        st.sampled_from((invariants, mixed)),
    )
    def check(seed, free, order, v, F):
        jets = _stack_of_jets(np.random.default_rng(seed), free, order)
        stacked = pr_v_apply(v, lambda lifted: [F(j) for j in lifted], jets)
        assert repr(stacked) == repr([pr_v_apply(v, F, jet) for jet in jets])
        assert repr(pr_v_apply(v, lambda lifted: tuple(F(j) for j in lifted), tuple(jets))) == repr(stacked)

    check()


def test_pr_v_stack_takes_real_jets_of_one_order():
    rng = np.random.default_rng(43)
    v = VectorField.scaling()
    jets = [random_free_jet(rng, 2), random_free_jet(rng, 3)]

    def F(lifted):
        return [j.u[(0, 1)] for j in lifted]

    with pytest.raises(UsageError, match=r"one order, got \[2, 3\]"):
        pr_v_apply(v, F, jets)
    with pytest.raises(UsageError, match=r"one order, got \[\]"):
        pr_v_apply(v, F, [])
    series = Jet(2, 0.0, 0.0, np.zeros((6, 3)))
    with pytest.raises(UsageError, match="not series"):
        pr_v_apply(v, F, [jets[0], series])
    with pytest.raises(UsageError, match="a jet or a list or tuple of jets"):
        pr_v_apply(v, F, [jets[0], jets[0].data])
    with pytest.raises(UsageError, match="one item per jet"):
        pr_v_apply(v, lambda lifted: F(lifted)[:1], [jets[0]] * 2)


def test_pr_v_reads_lifted_invariant_rows_as_their_series():
    # F may hand back the lifted invariants as rows, a float array whose last
    # axis holds the 3 coefficients of the lift: the same floats as the
    # TruncatedSeries of those rows, on stacks and pairs alike; the lifted
    # entries themselves, whose eps coefficients are the etas, tell the slots apart
    rng = np.random.default_rng(53)
    fields = VectorField.basis() + (VectorField(0.3, -1.1, 0.7, 1.9),)

    def as_series(lifted):
        return list(map(_entries, verify._invariants(lifted)))  # one TruncatedSeries per invariant

    def entries(lifted):
        return np.stack([j.data for j in lifted])

    for order in range(1, 7):
        for free in ((True,), (False,), (True, False, True), (False, True, False, False)):
            jets = _stack_of_jets(rng, free, order)
            for v in fields + tuple(zip(fields, fields[1:] + fields[:1])):
                rows = pr_v_apply(v, verify._invariants, jets)
                assert repr(rows) == repr(pr_v_apply(v, as_series, jets))
                assert repr(rows[0]) == repr(pr_v_apply(v, lambda j: verify._invariants([j])[0], jets[0]))
                etas = pr_v_apply(v, entries, jets)
                assert repr(etas) == repr(pr_v_apply(v, lambda lifted: [_entries(j.data) for j in lifted], jets))


def test_pr_v_rows_are_float_arrays_of_the_lifts_coefficients():
    jet = random_free_jet(np.random.default_rng(59), 2)
    v = VectorField.scaling()
    with pytest.raises(DomainError, match="not finite"):
        pr_v_apply(v, lambda j: j.data + np.array([0.0, math.inf, math.inf]), jet)
    rows = np.zeros((2, 3))
    bad = (rows[0], np.array(1.5), rows.astype(int), rows.astype(object), np.zeros((2, 2)), np.zeros((2, 4)))
    for value in bad:
        with pytest.raises(UsageError, match="real numbers"):
            pr_v_apply(v, lambda j: value, jet)
        with pytest.raises(UsageError, match="real numbers"):
            pr_v_apply(v, lambda lifted: [value] * len(lifted), [jet] * 2)
    for value in (np.array(1.5), verify._invariants([jet, jet])[:1]):
        with pytest.raises(UsageError, match="one item per jet"):
            pr_v_apply(v, lambda lifted: value, [jet] * 2)


def test_stacked_prolongation_is_each_jets_own_prolong_act():
    rng = np.random.default_rng(47)
    for order in (1, 4, 9):
        jets = _stack_of_jets(rng, [True, False] * 4, order)
        elements = [random_group_element(rng) for _ in jets]
        moved = prolong_act(elements, jets)
        for g, jet, out in zip(elements, jets, moved):
            one = prolong_act(g, jet)
            assert repr((out.order, out.t, out.x, out.data.tolist())) == repr((one.order, one.t, one.x, one.data.tolist()))
    # the first point whose image leaves range is the error, or else the first
    # whose transformed coordinate does, each as its own call names it
    elements[2] = GroupElement(eps4=-36.0)  # exp(20 * 36) scales u_(6, 0)
    errors = []
    for j in (2, 5):
        with pytest.raises(DomainError) as stacked:
            prolong_act(elements, jets)
        with pytest.raises(DomainError) as alone:
            prolong_act(elements[j], jets[j])
        errors.append(str(alone.value))
        assert str(stacked.value) == errors[-1]
        elements[5] = GroupElement(eps4=300.0)  # exp(300)**3
    assert errors[0].startswith("transformed u_(") and "eps4=-36.0" in errors[0]
    assert errors[1].startswith("image of the point") and "eps4=300.0" in errors[1]


def test_prolongation_of_an_order_zero_jet_moves_its_point():
    # an order-0 jet has no derivative coordinate and so no weight to scale by:
    # act_point moves all of it, alone or in a stack
    def moved(jet):
        return jet.order, jet.t, jet.x, jet.u[(0, 0)]

    g = GroupElement(0.1, 0.2, 0.3, 0.4)
    jet = Jet(0, 0.5, 0.6, [1.5])
    assert moved(prolong_act(g, jet)) == (0, *act_point(g, (0.5, 0.6, 1.5)))
    rng = np.random.default_rng(29)
    elements = [g, random_group_element(rng), GroupElement.identity()]
    jets = [jet, Jet(0, -1.0, 2.0, [3.0]), Jet(0, 0.7, -0.2, [0.0])]
    assert list(map(moved, prolong_act(elements, jets))) == [
        (0, *act_point(e, (j.t, j.x, j.u[(0, 0)]))) for e, j in zip(elements, jets)
    ]
    with pytest.raises(DomainError, match="image of the point"):
        prolong_act([g, GroupElement(eps4=300.0)], [jet, jet])


def test_determining_equations_hold():
    rng = np.random.default_rng(18)
    fields = list(VectorField.basis())
    for i in range(100):
        v = fields[i % 4] if i % 2 else VectorField(*map(float, rng.uniform(-2, 2, 4)))
        t, x, u = map(float, rng.uniform(-2, 2, 3))
        assert max(abs(r) for r in determining_equation_residuals(v, t, x, u)) < 1e-12


def test_incomplete_jet_rejected():
    with pytest.raises(UsageError):
        Jet(order=1, t=0.0, x=0.0, u={(0, 0): 1.0})


def test_group_action_out_of_double_range_is_domain_error():
    rng = np.random.default_rng(24)
    with pytest.raises(DomainError):
        act_point(GroupElement(eps4=300.0), (1.0, 1.0, 1.0))  # exp(300)**3 overflows
    with pytest.raises(DomainError):
        act_point(GroupElement(eps4=-800.0), (1.0, 1.0, 1.0))  # exp(-800) underflows to 0
    with pytest.raises(DomainError):
        act_point(GroupElement(eps4=1.0), (1e308, 0.0, 0.0))  # a finite factor, an inf image
    with pytest.raises(DomainError):
        prolong_act(GroupElement(eps4=-36.0), random_free_jet(rng, 6))  # exp(20 * 36)
    jet = random_free_jet(rng, 2)
    huge = Jet(2, jet.t, jet.x, {**jet.u, (2, 0): 1e308})
    with pytest.raises(DomainError, match=r"u_\(2, 0\)"):
        prolong_act(GroupElement(eps4=-1.0), huge)  # exp(8) * 1e308 is inf


def test_group_product_out_of_double_range_is_domain_error():
    with pytest.raises(DomainError, match="product"):
        compose(GroupElement(eps1=1.0), GroupElement(eps4=-300.0))  # exp(900) overflows
    with pytest.raises(DomainError, match="inverse"):
        inverse(GroupElement(eps1=1.0, eps4=300.0))
    with pytest.raises(DomainError):
        compose(GroupElement(eps2=1e308), GroupElement(eps2=1e308))  # finite factors, an inf sum


def test_zero_parameter_is_not_scaled_out_of_range():
    # exp(900) overflows, but it would only multiply a zero parameter
    product = compose(GroupElement.identity(), GroupElement(eps4=-300.0))
    assert product == GroupElement(eps4=-300.0)
    assert [math.copysign(1.0, e) for e in product.params()] == [1.0, 1.0, 1.0, -1.0]
    inv = inverse(GroupElement(eps4=300.0))
    assert inv == GroupElement(eps4=-300.0)
    # the zeros carry the sign of the in-range product -exp(...) * (+0.0)
    assert [math.copysign(1.0, e) for e in inv.params()] == [-1.0, -1.0, -1.0, -1.0]
    assert compose(inv, GroupElement(eps4=300.0)) == GroupElement.identity()


def test_group_product_in_range_is_unchanged():
    # the closed-form law, written out with math.exp: every in-range result is bit-identical
    # (signed zeros included, so the parameters are compared through repr)
    rng = np.random.default_rng(37)
    for _ in range(400):
        # about a third of the parameters are zeros of either sign
        e1, e2, e3, e4, f1, f2, f3, f4 = (
            float(p) if keep else math.copysign(0.0, p)
            for p, keep in zip(rng.uniform(-2.0, 2.0, 8), rng.uniform(size=8) > 0.3)
        )
        g1, g2 = GroupElement(e1, e2, e3, e4), GroupElement(f1, f2, f3, f4)
        assert repr(compose(g2, g1).params()) == repr((
            e1 + math.exp(-3.0 * e4) * f1,
            e2 + math.exp(-e4) * f2 - math.exp(-3.0 * e4) * f1 * e3,
            e3 + math.exp(2.0 * e4) * f3,
            e4 + f4,
        ))
        assert repr(inverse(g1).params()) == repr((
            -math.exp(3.0 * e4) * e1,
            -math.exp(e4) * (e2 + e1 * e3),
            -math.exp(-2.0 * e4) * e3,
            -e4,
        ))
