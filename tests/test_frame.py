import math

import numpy as np
import pytest

from jetframe.errors import DomainError, SingularFrameError, UsageError
from jetframe.frame import (
    FrameKind,
    equivariance_defect,
    moving_frame,
    pivot_value,
    require_regular_pivots,
)
from jetframe.group import GroupElement, VectorField, compose, inverse, pr_v_apply, prolong_act
from jetframe.invariants import (
    SolutionGerm,
    invariant_commutator,
    invariant_derivative,
    invariant_table,
    normalized_invariant,
    reconstruct_generators,
)
from jetframe.jets import Jet, multi_indices
from jetframe.solutions import Constant, Rational, Soliton, jet_of_solution
from jetframe.taylor import _pos
from jetframe.verify import random_free_jet, random_group_element, random_soliton_point

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
    # the group moves an order-0 jet, so equivariance meets the frame's own error
    for kind in KINDS:
        with pytest.raises(UsageError, match="frames need a jet of order >= 1"):
            equivariance_defect(Jet(0, 0.5, 0.6, [1.5]), GroupElement(0.1, 0.2, 0.3, 0.4), kind)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("branch", [1, -1])
def test_frame_lands_on_cross_section(kind, branch):
    rng = np.random.default_rng(23 if branch > 0 else 24)
    for _ in range(40):
        jet = random_free_jet(rng, 3, kind, branch)
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
        jet = random_free_jet(rng, 2, kind, branch)
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
        lambda kind: require_regular_pivots(jet.data[None], kind, None),
        lambda kind: moving_frame(jet, kind),
        lambda kind: invariant_table(jet, kind, 3),
        lambda kind: normalized_invariant(jet, (1, 1), kind),
        lambda kind: germ.invariant_series((1, 1), kind, 1),
        lambda kind: germ.differentiate(series, kind),
        lambda kind: invariant_derivative(germ, (1, 1), kind),
        lambda kind: invariant_commutator(germ, (0, 1), kind),
        lambda kind: reconstruct_generators(germ, kind),
        lambda kind: equivariance_defect(jet, GroupElement(0.1, -0.2, 0.3, 0.05), kind),
        # a request for only the invariantized u reads no pivot
        lambda kind: normalized_invariant(jet, (0, 0), kind),
        lambda kind: normalized_invariant(jet, [(0, 0)], kind),
        lambda kind: germ.invariant_series((0, 0), kind, 1),
        # a forced branch names the pivot of a kind
        lambda kind: random_free_jet(np.random.default_rng(0), 3, kind, 1),
        lambda kind: random_soliton_point(np.random.default_rng(0), kind, 1),
    )
    for kind in ("t", "x", "zzz", None, 0):
        for call in calls:
            with pytest.raises(UsageError, match="FrameKind"):
                call(kind)


# -- stacks ---------------------------------------------------------------------


def _stack(rng, free, order):
    """One jet per flag of `free`: a free jet where it is set, else a soliton jet, all of `order`."""
    return [random_free_jet(rng, order) if f else jet_of_solution(*random_soliton_point(rng), order) for f in free]


def _bits(value):
    """A result as exact text: a jet or an array by its bytes, anything else by repr, which tells -0.0 from 0.0."""
    if isinstance(value, Jet):
        return value.order, value.t.hex(), value.x.hex(), value.data.tobytes()
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    return repr(value)


def _scalar_equivariance_defect(jet, g, kind):
    """frame(g . jet) against frame(jet) * g^-1, each from the public one-jet calls of prolong_act and moving_frame."""
    lhs = moving_frame(prolong_act(g, jet), kind).rho
    rhs = compose(moving_frame(jet, kind).rho, inverse(g))
    return max(abs(a - b) for a, b in zip(lhs.params(), rhs.params()))


def test_a_stack_is_each_points_own_call_bit_for_bit():
    # mixed free and soliton jets: every stacked result is its point's one-jet call
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(0, 2**32 - 1),
        st.lists(st.booleans(), min_size=1, max_size=9),
        st.integers(1, 12),
        st.sampled_from(KINDS),
        st.data(),
    )
    def check(seed, free, order, kind, data):
        rng = np.random.default_rng(seed)
        jets = _stack(rng, free, order)
        elements = [random_group_element(rng) for _ in jets]
        alpha = data.draw(st.sampled_from(multi_indices(order)))
        some = st.lists(st.sampled_from(multi_indices(order)), min_size=1, max_size=5)
        alphas = data.draw(st.one_of(st.just(multi_indices(order)), some))  # the whole table, or a subset
        table_order = data.draw(st.integers(0, order))
        pairs = (
            (prolong_act(elements, jets), [prolong_act(g, j) for g, j in zip(elements, jets)]),
            (moving_frame(jets, kind), [moving_frame(j, kind) for j in jets]),
            (moving_frame(tuple(jets), kind), [moving_frame(j, kind) for j in jets]),
            (equivariance_defect(jets, elements, kind), [_scalar_equivariance_defect(j, g, kind) for j, g in zip(jets, elements)]),
            (equivariance_defect(jets, elements, kind), [equivariance_defect(j, g, kind) for j, g in zip(jets, elements)]),
            (normalized_invariant(jets, alpha, kind), [normalized_invariant(j, alpha, kind) for j in jets]),
            (normalized_invariant(jets, alphas, kind), [normalized_invariant(j, alphas, kind) for j in jets]),
            (
                list(normalized_invariant(jets, alphas, kind, _dense=True)),
                [normalized_invariant(j, alphas, kind, _dense=True) for j in jets],
            ),
            (invariant_table(jets, kind, table_order), [invariant_table(j, kind, table_order) for j in jets]),
        )
        for stacked, alone in pairs:
            assert list(map(_bits, stacked)) == list(map(_bits, alone))

    check()


@pytest.mark.parametrize("kind", KINDS)
def test_a_stack_of_series_jets_is_each_jets_own_call_bit_for_bit(kind):
    # the lifted jets that pr_v_apply hands its F, and a germ's series jets:
    # each row of the stack is its jet's one-jet call, as are the series
    # without _dense; real jets among series jets, or series of two sizes,
    # are no stack
    rng = np.random.default_rng(67)
    some = ((0, 1), [(1, 0), (0, 0)])

    def coefficients(result):
        return [series.coeffs.tobytes() for series in (result if isinstance(result, list) else [result])]

    def check(stack):
        alphas = multi_indices(stack[0].order)
        for alpha in (alphas, *some):
            stacked = normalized_invariant(stack, alpha, kind, _dense=True)
            assert list(map(_bits, stacked)) == [_bits(normalized_invariant(j, alpha, kind, _dense=True)) for j in stack]
            stacked = normalized_invariant(stack, alpha, kind)
            assert list(map(coefficients, stacked)) == [coefficients(normalized_invariant(j, alpha, kind)) for j in stack]
        return [0.0] * len(stack)

    for order in range(1, 7):
        jets = _stack(rng, [True, False, True, False], order)
        lifted = []
        pr_v_apply(VectorField.basis()[:2], lambda js: lifted.extend(js) or check(js), jets)
        germ = SolutionGerm._expanded([random_soliton_point(rng) for _ in range(3)], order + 2)
        series = germ.series_jet(order, 2)
        check(series)
        for stack, layout in (
            ([*series, jets[0]], r"\['real', 'series of size 6'\]"),
            ([*series, *lifted], r"\['series of size 3', 'series of size 6'\]"),
        ):
            with pytest.raises(UsageError, match=f"^a stack of jets holds real entries or series rows of one size, got {layout}"):
                normalized_invariant(stack, (0, 1), kind)


def _base(c):
    """A float, or the constant term of a series."""
    return c if isinstance(c, float) else c.value


def _reference_pivots(jets, kind):
    """Each jet's (pivot, branch) of `kind`, or the SingularFrameError text of the first singular jet.

    Point by point: the pivot of pivot_value, and the singular test and the
    branch written out on its base-point values as Python floats.
    """
    pivots = []
    for jet in jets:
        with np.errstate(over="ignore", invalid="ignore"):  # u * u_x of entries near 1e200
            p = pivot_value(jet, kind)
        p0, u, u_t, u_x = _base(p), *(_base(jet.u[a]) for a in ((0, 0), (1, 0), (0, 1)))
        scale = abs(u_t) + abs(u * u_x) if kind is FrameKind.T_NORMALIZED else 0.0
        if abs(p0) < 1e-30 or abs(p0) <= 32.0 * np.finfo(float).eps * scale:
            return f"singular frame: pivot {kind.pivot_name} = {p0!r} (at (t, x) = ({_base(jet.t)}, {_base(jet.x)}))"
        pivots.append((p, 1 if p0 > 0 else -1))
    return pivots


def _pivot_points(rng):
    """The order-2 jets of one list of points, in three layouts.

    The points: soliton jets, u = x/t on either side of t = 0, the 1e-13
    near miss of the singular-sets suite, a constant, and entries near 1e200,
    where u * u_x overflows.  The layouts: float jets, the series jets of
    germs (the near miss and the 1e200 entries edited into constant terms of
    the series rows), and the lifted jets of pr_v_apply on the float jets.
    """
    solutions = [
        random_soliton_point(rng),
        (Rational(), 1.3, 0.4),
        (Rational(), 1.3, 0.4),  # the near miss
        (Constant(0.5), 0.2, -0.7),
        random_soliton_point(rng),  # the 1e200 entries
        (Rational(), -0.8, 1.1),
        random_soliton_point(rng, FrameKind.X_NORMALIZED, -1),
    ]
    floats = [jet_of_solution(*point, 2) for point in solutions]
    series = [SolutionGerm(*point, 3).series_jet(2, 1) for point in solutions]

    def near_miss(jet):
        data = jet.data.copy()
        u, u_t, u_x = (_base(jet.u[a]) for a in ((0, 0), (1, 0), (0, 1)))
        data[(_pos(1, 0),) + (0,) * (data.ndim - 1)] = u_t + 1e-13 * (abs(u_t) + abs(u * u_x))
        return Jet(2, jet.t, jet.x, data)

    def huge(jet):
        data = jet.data.copy()
        for alpha in ((0, 0), (0, 1)):
            data[(_pos(*alpha),) + (0,) * (data.ndim - 1)] = 1e200
        return Jet(2, jet.t, jet.x, data)

    for jets in (floats, series):
        jets[2], jets[4] = near_miss(jets[2]), huge(jets[4])
    lifted = []
    pr_v_apply(VectorField.basis()[:2], lambda js: lifted.extend(js) or [0.0] * len(js), floats)
    return floats, series, lifted


@pytest.mark.parametrize("kind", KINDS)
def test_the_pivot_test_of_a_stack_is_each_points_own_test(kind):
    # stacks of 1, 2 and 7 points, from each start of the rotated list of
    # points and from its regular points alone, in float rows and in the
    # series rows of a germ and of a lift: the pivots and branches of an
    # in-test reference point by point, or its message for the first
    # singular point
    met = set()
    for layout, jets in enumerate(_pivot_points(np.random.default_rng(71))):
        regular = [j for j in jets if not isinstance(_reference_pivots([j], kind), str)]
        for size in (1, 2, 7):
            for points in [jets[start:] + jets[:start] for start in range(len(jets))] + [regular]:
                stack = [points[k % len(points)] for k in range(size)]
                want = _reference_pivots(stack, kind)
                data = np.stack([j.data for j in stack])
                at = lambda i: (stack[i].t, stack[i].x)  # noqa: E731
                met.add((layout, size, isinstance(want, str)))
                if isinstance(want, str):
                    with pytest.raises(SingularFrameError) as err:
                        require_regular_pivots(data, kind, at)
                    assert str(err.value) == want
                    continue
                p, branch = require_regular_pivots(data, kind, at)
                assert list(branch) == [b for _, b in want]
                if data.ndim == 2:  # float rows give lists of Python numbers
                    assert (type(p), type(branch)) == (list, list)
                    assert list(map(repr, p)) == [repr(q) for q, _ in want]
                else:
                    assert [row.tobytes() for row in p] == [q.coeffs.tobytes() for q, _ in want]
    # every layout and size meets a regular stack and a singular one
    assert met == {(layout, size, singular) for layout in range(3) for size in (1, 2, 7) for singular in (False, True)}


def _with(jet, **entries):
    """`jet` with the entries named like u01 (u_x) replaced."""
    data = jet.data.copy()
    for key, value in entries.items():
        data[_pos(int(key[1]), int(key[2]))] = value
    return Jet(jet.order, jet.t, jet.x, data)


def _first_failing_point(jets, elements, spoil, calls, error):
    """Spoil points 2 and 5 of a stack: each call raises point 2's own error, whose text differs from point 5's."""
    jets, elements = list(jets), list(elements)
    for at in (2, 5):
        jets[at], elements[at] = spoil(jets[at], elements[at], at)
    for call in calls:
        with pytest.raises(error) as stacked:
            call(jets, elements)
        messages = []
        for at in (2, 5):
            with pytest.raises(error) as alone:
                call(jets[at], elements[at])
            messages.append(str(alone.value))
        assert str(stacked.value) == messages[0] != messages[1]


def test_a_stack_raises_the_one_jet_error_of_its_first_failing_point():
    rng = np.random.default_rng(59)
    jets = _stack(rng, [True, False] * 4, 4)
    elements = [random_group_element(rng) for _ in jets]
    for kind in KINDS:
        frames = (
            lambda js, gs: moving_frame(js, kind),
            lambda js, gs: equivariance_defect(js, gs, kind),
            lambda js, gs: normalized_invariant(js, multi_indices(4), kind),
            lambda js, gs: invariant_table(js, kind, 3),
        )
        # both pivots vanish: the moved jet's too, so equivariance meets it first
        _first_failing_point(jets, elements, lambda j, g, at: (_with(j, u01=0.0, u10=0.0), g), frames, SingularFrameError)
        # exp(14 * 60) scales u_(4, 0) out of range; each point's own element is named
        moved = (lambda js, gs: prolong_act(gs, js), frames[1])
        far = {2: GroupElement(eps4=-60.0), 5: GroupElement(eps3=0.5, eps4=-60.0)}
        _first_failing_point(jets, elements, lambda j, g, at: (j, far[at]), moved, DomainError)
        # with |pivot| < 1 a boost sum of 1e308 leaves range: I_(0, 4) at point 2, I_(0, 2) at point 5
        tables = (frames[2], lambda js, gs: invariant_table(js, kind, 4))

        def huge(j, g, at):
            j = _with(j, u00=0.25, u01=0.25, u10=0.25)
            return (_with(j, u04=1e308) if at == 2 else Jet(4, j.t, j.x, np.r_[j.data[:3], [1e308] * 12])), g

        _first_failing_point(jets, elements, huge, tables, DomainError)
        # a boost power of u leaves range, named by its point's u
        _first_failing_point(jets, elements, lambda j, g, at: (_with(j, u00=10.0 ** (100 + at)), g), tables, DomainError)


def test_a_stack_is_real_jets_of_one_order_with_one_element_each():
    rng = np.random.default_rng(61)
    jets = _stack(rng, [True, False, True], 3)
    elements = [random_group_element(rng) for _ in jets]
    series = SolutionGerm(Soliton(), 0.3, -0.9, 4).series_jet(3, 1)
    kind = FrameKind.X_NORMALIZED
    calls = {
        "prolong_act": lambda js, gs: prolong_act(gs, js),
        "equivariance_defect": lambda js, gs: equivariance_defect(js, gs, kind),
        "moving_frame": lambda js, gs: moving_frame(js, kind),
        "normalized_invariant": lambda js, gs: normalized_invariant(js, (0, 1), kind),
        "invariant_table": lambda js, gs: invariant_table(js, kind, 2),
    }
    one_more = [*elements, elements[0]]
    # each error names the function called, not one it calls; only
    # normalized_invariant takes series jets, and a real one among them is
    # a mixed layout
    for name, call in calls.items():
        mixed = (
            r"^a stack of jets holds real entries or series rows of one size, got \['real', 'series of size 3'\]"
            if name == "normalized_invariant"
            else f"^{name} takes a jet of real numbers, not series"
        )
        bad = (
            ([*jets, random_free_jet(rng, 2)], one_more, r"^a stack of jets holds one order, got \[2, 3\]"),
            ([*jets, series], one_more, mixed),
            ([*jets, jets[0].data], one_more, f"^{name} takes a jet or a list or tuple of jets"),
            ((jet for jet in jets), elements, f"^{name} takes a jet or a list or tuple of jets"),
            ([], [], r"^a stack of jets holds one order, got \[\]"),
        )
        for js, gs, message in bad:
            with pytest.raises(UsageError, match=message):
                call(js, gs)
    for name in ("prolong_act", "equivariance_defect"):
        call = calls[name]
        with pytest.raises(UsageError, match=f"^{name} pairs each jet with one element, got 2 for 3 jets"):
            call(jets, elements[:2])
        for js, gs in ((jets, elements[0]), (jets, [*elements[:2], jets[0]]), (jets[0], elements)):
            with pytest.raises(UsageError, match=f"^{name} takes a group element and a jet"):
                call(js, gs)
        with pytest.raises(UsageError, match=f"^{name} takes a jet or a list or tuple of jets"):
            call(jets[0].data, elements[0])
