"""Dense jets against the per-entry reference.

The reference below is the dict-walking code that the dense layout replaced:
a Python loop over alpha for the boost sum, one prefactor per alpha and one
series product per boost term.  The dense kernels must reproduce it exactly,
signed zeros included, so values are compared through their bit patterns.
Analytic composition with an affine inner series is held to the same
standard against Horner's rule with one dense series product per step.
"""

import abc
import contextlib
import io
import math
import numbers
import re
import struct
import warnings
from collections.abc import Mapping, Sized

import numpy as np
import pytest

from jetframe import cli, taylor, verify
from jetframe.errors import DomainError, UsageError
from jetframe.frame import FrameKind, pivot_value
from jetframe.group import (
    GroupElement,
    VectorField,
    act_point,
    determining_equation_residuals,
    eta_alpha,
    pr_v_apply,
    prolong_act,
)
from jetframe.invariants import (
    SolutionGerm,
    _prefactors,
    invariant_derivative,
    invariant_table,
    normalized_invariant,
)
from jetframe.jets import Jet, multi_indices
from jetframe.solutions import Soliton, _expansions, jet_of_solution
from jetframe.taylor import (
    TruncatedSeries,
    _pos,
    _stacked_pairs,
    _univariate_coeffs,
    analytic,
    series_pow,
)
from jetframe.verify import random_free_jet, random_group_element, random_soliton_point

KINDS = (FrameKind.T_NORMALIZED, FrameKind.X_NORMALIZED)


# -- the reference: one entry at a time ------------------------------------------


def ref_powers(b, n):
    if isinstance(b, TruncatedSeries):
        powers = [TruncatedSeries.constant(1.0, b.order)]
        for _ in range(n):
            powers.append(powers[-1] * b)
        return powers
    return [b**k for k in range(n + 1)]


def ref_boosted(u, alpha, powers):
    a1, a2 = alpha
    acc = 0.0
    for k in range(a1 + 1):
        acc += math.comb(a1, k) * powers[k] * u[(a1 - k, a2 + k)]
    return acc


def ref_invariants(jet, alphas, kind):
    u = dict(jet.u)
    derived = [alpha for alpha in alphas if sum(alpha) > 0]
    weights = {3 * a1 + a2 + 2 for a1, a2 in derived}
    p = pivot_value(jet, kind)
    branch = 1 if (p.value if isinstance(p, TruncatedSeries) else p) > 0 else -1
    w_den = kind.weight_denominator
    if isinstance(p, TruncatedSeries):
        prefactors = {w: series_pow(branch * p, -w / w_den) for w in weights}
    else:
        log_p = math.log(abs(p))
        prefactors = {w: math.exp(-w * log_p / w_den) for w in weights}
    powers = ref_powers(u[(0, 0)], max(a1 for a1, _ in derived))
    # the invariantized u is the jet's own zero: 0.0, or a zero series
    zero = TruncatedSeries.constant(0.0, p.order) if isinstance(p, TruncatedSeries) else 0.0
    return [
        zero if sum(alpha) == 0 else prefactors[3 * alpha[0] + alpha[1] + 2] * ref_boosted(u, alpha, powers)
        for alpha in alphas
    ]


def ref_prolong(g, jet):
    u = dict(jet.u)
    T, X, U0 = act_point(g, (jet.t, jet.x, u[(0, 0)]))
    values = {(0, 0): U0}
    powers = ref_powers(-g.eps3, jet.order)
    for a1, a2 in multi_indices(jet.order)[1:]:
        values[(a1, a2)] = math.exp(-(3 * a1 + a2 + 2) * g.eps4) * ref_boosted(u, (a1, a2), powers)
    return T, X, values


def bits(value):
    """The exact bit pattern of a float, or of every coefficient of a series."""
    if isinstance(value, TruncatedSeries):
        return (value.order, value.coeffs.tobytes())
    return struct.pack("<d", value)


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert type(a) is type(b), i
        assert bits(a) == bits(b), (i, a, b)


# -- jets with zeros of either sign --------------------------------------------


def signed_zero_jet(rng, jet):
    """`jet` with about a quarter of its entries above order 1 set to +0.0 or -0.0."""
    values = dict(jet.u)
    for alpha in multi_indices(jet.order)[3:]:
        if rng.uniform() < 0.25:
            values[alpha] = math.copysign(0.0, rng.uniform(-1.0, 1.0))
    return Jet(jet.order, jet.t, jet.x, values)


def float_jets(seed, orders):
    """Free and soliton jets of both frames and branches at each order, some with signed zeros."""
    rng = np.random.default_rng(seed)
    for order in orders:
        for kind in KINDS:
            for branch in (1, -1):
                free = random_free_jet(rng, order, kind, branch)
                sol, t0, x0 = random_soliton_point(rng, kind, branch)
                soliton = jet_of_solution(sol, t0, x0, order)
                for jet in (free, soliton, signed_zero_jet(rng, free), signed_zero_jet(rng, soliton)):
                    yield kind, jet


# -- floats ----------------------------------------------------------------------


def test_float_invariants_match_the_reference_bit_for_bit():
    for kind, jet in float_jets(3, (1, 2, 4, 7, 12, 16)):
        alphas = multi_indices(jet.order)
        assert_bit_identical(normalized_invariant(jet, alphas, kind), ref_invariants(jet, alphas, kind))
        table = invariant_table(jet, kind, jet.order)
        assert_bit_identical(list(table.values.values()), ref_invariants(jet, alphas, kind))
        assert list(table.values) == list(alphas)
        # a subset, out of order and with a repeat, reads the same values
        subset = [alphas[-1], (0, 0), alphas[1], alphas[-1]]
        assert_bit_identical(normalized_invariant(jet, subset, kind), ref_invariants(jet, subset, kind))
        one = normalized_invariant(jet, alphas[-1], kind)
        assert_bit_identical([one], ref_invariants(jet, alphas[-1:], kind))


def test_lower_table_of_a_higher_jet_matches_the_reference():
    for kind, jet in float_jets(4, (9,)):
        for order in (1, 3, 8):
            want = ref_invariants(jet, multi_indices(order), kind)
            assert_bit_identical(list(invariant_table(jet, kind, order).values.values()), want)


def test_prolong_act_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    for _, jet in float_jets(6, (1, 3, 8, 16)):
        g = random_group_element(rng)
        if rng.uniform() < 0.3:
            g = GroupElement(g.eps1, g.eps2, math.copysign(0.0, g.eps3), g.eps4)
        T, X, values = ref_prolong(g, jet)
        out = prolong_act(g, jet)
        assert (bits(out.t), bits(out.x)) == (bits(T), bits(X))
        assert_bit_identical(list(out.u.values()), list(values.values()))


# -- series ------------------------------------------------------------------------


def test_series_invariants_on_a_germ_match_the_reference():
    rng = np.random.default_rng(7)
    for kind in KINDS:
        for branch in (1, -1):
            sol, t0, x0 = random_soliton_point(rng, kind, branch)
            germ = SolutionGerm(sol, t0, x0, 8)
            for jet_order, order in ((1, 1), (3, 2), (4, 4), (6, 2)):
                jet = germ.series_jet(jet_order, order)
                alphas = multi_indices(jet_order)
                for request in (alphas, [alphas[-1], (0, 1), alphas[-1]]):
                    want = ref_invariants(jet, request, kind)
                    assert_bit_identical(normalized_invariant(jet, request, kind), want)
                # the germ's rows are the series of every u_alpha, read straight off the expansion
                rows = TruncatedSeries(8, _expansions([(sol, t0, x0)], 8)[0]).derivatives(jet_order, order)
                assert all(np.array_equal(jet.u[a].coeffs, row) for a, row in zip(alphas, rows))


def ref_eta(v, alpha, u, t=0.0, x=0.0):
    a1, a2 = alpha
    if a1 + a2 == 0:
        return v.eta(t, x, u[(0, 0)])
    out = -(3 * a1 + a2 + 2) * v.c4 * u[alpha]
    if a1 > 0:
        out -= a1 * v.c3 * u[(a1 - 1, a2 + 1)]
    return out


def ref_lift(fields, jet):
    """Order-1 lift of every entry, one TruncatedSeries.affine per alpha."""
    u = dict(jet.u)
    slopes = [[ref_eta(w, alpha, u) for w in fields] for alpha in multi_indices(jet.order)]
    return {alpha: TruncatedSeries.affine(c, *s, *([0.0] * (2 - len(s))), 1)
            for (alpha, c), s in zip(u.items(), slopes)}


def test_eta_alpha_matches_the_reference_on_floats_and_series():
    rng = np.random.default_rng(9)
    fields = [*VectorField.basis(), VectorField(*map(float, rng.uniform(-2.0, 2.0, 4)))]
    germ = SolutionGerm(Soliton(1.3, 0.2), 0.4, -0.3, 6)
    jets = [jet for _, jet in float_jets(10, (1, 5))] + [germ.series_jet(3, 2), germ.series_jet(4, 0)]
    for jet in jets:
        u, alphas = dict(jet.u), multi_indices(jet.order)
        for v in fields:
            want = [ref_eta(v, alpha, u, jet.t, jet.x) for alpha in alphas]
            assert_bit_identical(eta_alpha(v, alphas, jet), want)
            assert_bit_identical([eta_alpha(v, alphas[-1], jet)], want[-1:])


def test_series_invariants_on_a_lift_match_the_reference():
    basis = VectorField.basis()
    pairs = [basis[:2], basis[2:], (VectorField(0.3, -1.1, 0.7, 0.2),)]
    for kind, jet in float_jets(8, (1, 2, 4)):
        for fields in pairs:
            seen = []

            def F(lifted, kind=kind):
                seen.append(lifted)
                return normalized_invariant(lifted, multi_indices(lifted.order), kind)

            pr_v_apply(fields if len(fields) > 1 else fields[0], F, jet)
            (lifted,) = seen
            want_u = ref_lift(fields, jet)
            assert_bit_identical(list(lifted.u.values()), list(want_u.values()))
            got = normalized_invariant(lifted, multi_indices(jet.order), kind)
            assert_bit_identical(got, ref_invariants(lifted, multi_indices(jet.order), kind))


# -- analytic composition with an affine inner series ---------------------------


def ref_sech_coeffs(a0, n):
    """The sech recurrence with the generator sums it was first written with."""
    s = [1.0 / math.cosh(a0)]
    t = [math.tanh(a0)]
    for k in range(n):
        s.append(-sum(s[m] * t[k - m] for m in range(k + 1)) / (k + 1))
        t.append(sum(s[m] * s[k - m] for m in range(k + 1)) / (k + 1))
    return s


def ref_pow_coeffs(a0, n, r):
    """C(r, k) a0^(r - k), k = 0..n, with the binomial run point by point; a domain error as DomainError."""
    if r == int(r):
        r = int(r)
        if r < 0 and a0 == 0.0:
            raise DomainError("negative power of a series with zero constant term")
    elif a0 <= 0.0:
        raise DomainError(f"non-integer power requires a positive constant term, got {a0!r}")
    out, binom = [], 1.0
    for k in range(n + 1):
        if isinstance(r, int) and k > r >= 0:
            out.append(0.0)
            continue
        out.append(binom * a0 ** (r - k))
        binom *= (r - k) / (k + 1)
    return out


def ref_analytic(kind, a, exponent=None):
    """Horner's rule in b = a - a(0) with one dense series product per step."""
    if kind == "sech":
        coeffs = ref_sech_coeffs(a.value, a.order)
    else:
        coeffs = ref_pow_coeffs(a.value, a.order, exponent)
    b = a - a.value
    result = TruncatedSeries.constant(coeffs[-1], a.order)
    for f in reversed(coeffs[:-1]):
        result = result * b + f
    return result


def test_sech_recurrence_matches_the_generator_sums():
    for a0 in (0.0, -0.0, 0.3, -1.7, 25.0, -700.0):
        assert_bit_identical(_univariate_coeffs("sech", a0, 30), ref_sech_coeffs(a0, 30))


def test_pow_coefficients_take_each_exponents_binomials_once_per_call():
    # _compose builds each exponent's binomial row once, and a numpy exponent
    # keeps numpy's powers; every point's coefficients, and the first point's
    # domain error, stay those of the running binomial taken point by point.
    # The inner series a0 + y puts the coefficient of y^k at _pos(0, k).
    exponents = (0, 1, 2, 3.0, 7, -1, -2, -0.6, 0.5, -1 / 3, -14 / 5, 2.5, np.float64(-0.6), np.float64(2.0))
    points = (0.0, -0.0, 0.7, -1.9, 1e-200, 3.1, 1e5)
    for n in (0, 1, 2, 5, 12, 30):
        for r in exponents:
            for a0 in points:
                row = np.zeros(taylor.triangle_size(n))
                row[0] = a0
                if n:
                    row[_pos(0, 1)] = 1.0
                try:
                    want = ref_pow_coeffs(a0, n, r)
                except (DomainError, OverflowError, RuntimeWarning) as exc:  # 1e-200 ** -2 overflows
                    with pytest.raises(type(exc), match=re.escape(str(exc))):
                        taylor._compose("pow", row[None], (r,))
                    continue
                got = taylor._compose("pow", row[None], (r,))
                assert got.tobytes() == ref_analytic("pow", TruncatedSeries(n, row), r).coeffs.tobytes(), (n, r, a0)
                assert [got[_pos(0, k)] for k in range(n + 1)] == want, (n, r, a0)  # signed zeros aside
    rng = np.random.default_rng(53)
    for order in (0, 1, 3, 6):
        stack = rng.uniform(0.2, 2.0, size=(5, taylor.triangle_size(order)))
        rows = taylor._compose("pow", stack, exponents).reshape(len(stack), len(exponents), -1)
        for a, point in zip(stack, rows):
            for r, row in zip(exponents, point):
                want = ref_analytic("pow", TruncatedSeries(order, a), r).coeffs
                assert row.tobytes() == want.tobytes(), (order, r)
    stack[2, 0] = 0.0  # a zero constant term under a negative power
    with pytest.raises(DomainError, match="negative power"):
        taylor._compose("pow", stack, (2, -1))
    with pytest.raises(UsageError, match="finite real exponent"):
        taylor._compose("pow", stack, (2, math.nan))


# signed zero, negative, tiny and ordinary slopes (ct, cx) of the inner series
AFFINE_SLOPES = ((0.0, -0.0), (-0.0, 0.37), (-0.37, 1.1), (1e-200, -0.8), (0.6, 1e-200), (-1.3, -0.0))
ANALYTIC_KINDS = (("sech", None), ("pow", 2), ("pow", 3), ("pow", 0), ("pow", -1), ("pow", -0.6))


@pytest.mark.parametrize("order", (0, 1, 2, 3, 5, 12, 16, 30))
def test_affine_composition_matches_the_dense_products_bit_for_bit(monkeypatch, order):
    cases = []
    for kind, exponent in ANALYTIC_KINDS:
        for a0 in (0.0, 0.7, -1.9):
            if kind == "pow" and (exponent < 0 and a0 == 0.0 or exponent != int(exponent) and a0 <= 0.0):
                continue  # a DomainError, the same on either path
            for ct, cx in AFFINE_SLOPES:
                a = TruncatedSeries.affine(a0, ct, cx, order)
                cases.append((kind, exponent, a, ref_analytic(kind, a, exponent)))

    tables = []  # the pair table of each Horner loop that ran

    def recording_horner(coeffs, b, pairs):
        tables.append(pairs)
        return horner(coeffs, b, pairs)

    horner = taylor._horner
    monkeypatch.setattr(taylor, "_horner", recording_horner)
    # an affine inner series of order >= 1 takes the slope pairs alone, with no dense rerun
    expected = _stacked_pairs(order, 1, order > 0)
    for kind, exponent, a, want in cases:
        tables.clear()
        assert bits(analytic(kind, a, exponent)) == bits(want), (kind, exponent, a.coeffs[:3])
        assert len(tables) == 1 and tables[0] is expected, (kind, exponent, a.coeffs[:3])


def test_affine_overflow_matches_the_dense_products_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # both products of coefficient (1, 1) are finite and their sum is not:
        # the bincount adds them silently, and so must the shift
        a = TruncatedSeries.affine(1.0, 1.2e154, 1.2e154, 2)
        got = analytic("pow", a, -1)
        assert math.isinf(got.coeffs[_pos(1, 1)]) and bits(got) == bits(ref_analytic("pow", a, -1))
        # far out on the soliton tail the order-1 pivot's prefactor overflows;
        # the dense products turn that into the NaN the error names
        with pytest.raises(DomainError, match=r"I_\(10, 2\) = nan"):
            invariant_derivative(SolutionGerm(Soliton(), 0.0, 60.0, 13), (10, 2), FrameKind.X_NORMALIZED)


# -- stacked Horner rows -------------------------------------------------------


def test_stacked_horner_rows_are_the_single_rows_bit_for_bit():
    # every row of one loop over 1-17 stacked polynomials is that polynomial's loop alone,
    # on the dense pairs and on the slope pairs; alone on the dense pairs, it is Horner's
    # rule with one series product per step
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entries = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0]))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, 8), st.integers(1, 17), st.booleans(), st.data())
    def check(order, rows, slopes, data):
        slopes = slopes and order > 0
        size = taylor.triangle_size(order)
        b = np.array(data.draw(st.lists(entries, min_size=size, max_size=size)))
        coeffs = data.draw(st.lists(st.lists(entries, min_size=order + 1, max_size=order + 1),
                                    min_size=rows, max_size=rows))
        # many rows give _horner their coefficients as columns, one row alone as floats
        stacked = taylor._horner(np.array(coeffs).T, b, _stacked_pairs(order, rows, slopes))
        assert stacked.shape == (rows * size,)
        for k, c in enumerate(coeffs):
            alone = taylor._horner(c, b, _stacked_pairs(order, 1, slopes))
            assert stacked[k * size:(k + 1) * size].tobytes() == alone.tobytes(), (order, rows, slopes, k)
            if not slopes:
                want = TruncatedSeries.constant(c[-1], order)
                for f in reversed(c[:-1]):
                    want = want * TruncatedSeries(order, b) + f
                assert alone.tobytes() == want.coeffs.tobytes(), (order, k)

    check()


def test_stacked_prefactor_rows_are_the_series_powers_bit_for_bit(monkeypatch):
    # every weight's row of one Horner loop is that weight's own series_pow;
    # an affine pivot's rows take the slope pairs, with no dense rerun
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entries = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0]))
    tables = []  # the pair table of each Horner loop that ran
    horner = taylor._horner
    monkeypatch.setattr(taylor, "_horner", lambda coeffs, b, pairs: tables.append(pairs) or horner(coeffs, b, pairs))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(0, 8),
        st.booleans(),
        st.floats(0.05, 5.0),
        st.sampled_from([1, -1]),
        st.sets(st.integers(1, 40), min_size=1, max_size=17),
        st.sampled_from([3, 5]),
        st.data(),
    )
    def check(order, affine, magnitude, branch, weights, w_den, data):
        size = taylor.triangle_size(order if not affine else min(order, 1))
        coeffs = [branch * magnitude] + data.draw(st.lists(entries, min_size=size - 1, max_size=size - 1))
        p = TruncatedSeries(order, coeffs + [0.0] * (taylor.triangle_size(order) - size))
        weights = sorted(weights)
        slopes = order > 0 and not np.count_nonzero(p.coeffs[3:])
        tables.clear()
        exponents = [-w / w_den for w in weights]
        rows = taylor._compose("pow", (branch * p).coeffs[None], exponents).reshape(len(weights), -1)
        assert len(tables) == 1 and tables[0] is _stacked_pairs(order, len(weights), slopes), (order, affine)
        assert not affine or slopes or order == 0
        (scales,) = _prefactors(p.coeffs[None], np.array([branch]), weights, w_den)  # a stack of one pivot
        assert len(scales) == len(weights)
        for w, row in zip(weights, scales):
            want = series_pow(branch * p, -w / w_den).coeffs
            assert row.tobytes() == want.tobytes(), (w, order, affine)
            assert rows[weights.index(w)].tobytes() == want.tobytes(), (w, order, affine)

    check()


def test_series_prefactor_overflow_is_a_domain_error_without_a_warning():
    # far out on the soliton tail u_x ~ -1e-25 is regular, but the order-12
    # coefficient of |u_x|^(-w/3) is about 1e25^(12 + w/3), past the double range
    pivot = SolutionGerm(Soliton(), 0.0, 60.0, 13).series_jet(1, 12).u[(0, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="overflows a double for a weight w <= 13"):
            _prefactors(pivot.coeffs[None], np.array([-1]), [1, 3, 13], 3)
        germ = SolutionGerm(Soliton(), 0.0, 60.0, 14)
        with pytest.raises(DomainError, match="overflows"):
            germ.differentiate(TruncatedSeries.constant(1.0, 13), FrameKind.X_NORMALIZED)


# -- the Jet type ----------------------------------------------------------------


def test_jet_entries_are_read_only_and_detached():
    values = {a: float(i) + 0.5 for i, a in enumerate(multi_indices(2))}
    jet = Jet(2, 0.1, 0.2, values)
    values[(0, 0)] = 99.0
    assert jet.u[(0, 0)] == 0.5
    with pytest.raises(TypeError):
        jet.u[(0, 0)] = 1.0
    with pytest.raises(ValueError):
        jet.data[0] = 1.0
    with pytest.raises(AttributeError):
        jet.order = 3
    array = np.arange(6.0)
    jet = Jet(2, 0.0, 0.0, array)
    array[0] = 99.0
    assert jet.u[(0, 0)] == 0.0
    assert type(jet.u[(1, 1)]) is float
    assert list(jet.u) == list(multi_indices(2))
    with pytest.raises(KeyError):
        jet.u[(3, 0)]
    with pytest.raises(UsageError):
        jet.value((3, 0))


def test_series_jet_rows_are_read_only():
    jet = SolutionGerm(Soliton(), 0.3, 0.8, 4).series_jet(2, 2)
    entry = jet.u[(1, 0)]
    assert isinstance(entry, TruncatedSeries) and entry.order == 2
    with pytest.raises(ValueError):
        entry.coeffs[0] = 1.0


def _checked_sites():
    """Every site that builds jets on rows it has checked, with the jets it builds: one jet and a stack each."""
    rng = np.random.default_rng(61)
    points = [random_soliton_point(rng) for _ in range(3)]
    free = [random_free_jet(rng, 4) for _ in range(3)]
    elements = [random_group_element(rng) for _ in free]
    germ, stack = SolutionGerm(*points[0], 5), SolutionGerm._expanded(points, 5)
    lifted = []  # the lifted jets F receives, alone and in a stack
    pr_v_apply(VectorField.scaling(), lambda j: lifted.append(j) or 0.0, free[0])
    pr_v_apply(VectorField.basis()[:2], lambda js: lifted.extend(js) or [0.0] * len(js), free)
    return {
        "prolong_act": [prolong_act(elements[0], free[0]), *prolong_act(elements, free)],
        "SolutionGerm.jet": [germ.jet(4), *stack.jet(4)],
        "SolutionGerm.series_jet": [germ.series_jet(2, 3), *stack.series_jet(2, 3)],
        "jet_of_solution": [jet_of_solution(*points[1], 4)],
        "random_free_jet": [random_free_jet(verify._suite_rng(0, "free"), 4), random_free_jet(rng, 4)],
        "pr_v_apply": lifted,
    }


def test_checked_jets_are_the_validated_jets_and_read_only_all_the_way_down():
    # a jet built on rows the program has checked shares them, unvalidated:
    # it must be the jet the public constructor builds on a copy, and no write
    # may reach its entries, through the jet or through the array it views
    def fields(jet):
        t, x = (c.coeffs.tolist() if isinstance(c, TruncatedSeries) else c for c in (jet.t, jet.x))
        return repr((jet.order, type(jet.order), t, x, jet.data.tolist()))

    for site, jets in _checked_sites().items():
        assert len(jets) >= 1, site
        for jet in jets:
            assert fields(jet) == fields(Jet(jet.order, jet.t, jet.x, jet.data.copy())), site
            assert not jet.data.flags.writeable, site
            for array in (jet.data, jet.data.base):
                if array is not None:
                    with pytest.raises(ValueError, match="read-only"):
                        array.flat[0] = array.flat[0]


def test_only_the_jets_from_outside_are_validated(monkeypatch):
    # the jets built on checked rows skip Jet.__init__: a seed-0 battery
    # validates only its 200 invariant tables' jets and its 100 singular-sets
    # near misses, and an eval only its invariant table's jet
    validated = [0]
    real = Jet.__init__

    def counted(self, *args, **kwargs):
        validated[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(Jet, "__init__", counted)
    assert all(r.passed for r in verify.run_suite(("all",), seed=0, samples=100, order=6))
    assert validated == [300]
    for argv in (
        ["--solution", "soliton", "--t0", "0.3", "--x0", "-0.9", "--frame", "x", "--order", "12"],
        ["--solution", "rational", "--t0", "1.5", "--x0", "0.4", "--frame", "x", "--order", "4"],
        ["--solution", "soliton", "--t0", "-0.2", "--x0", "0.1", "--frame", "t", "--order", "4"],
    ):
        validated[0] = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["eval", *argv]) == 0
        assert validated == [1], argv


def test_jet_equality_compares_order_base_point_and_entries():
    rng = np.random.default_rng(11)
    jet = random_free_jet(rng, 3)
    same = Jet(3, jet.t, jet.x, dict(jet.u))
    assert jet == same and not jet != same
    assert jet != Jet(3, jet.t + 1.0, jet.x, dict(jet.u))
    assert jet != Jet(3, jet.t, jet.x, {**jet.u, (3, 0): jet.u[(3, 0)] + 1.0})
    assert jet != Jet(2, jet.t, jet.x, {a: jet.u[a] for a in multi_indices(2)})
    # entries compare as numbers: 0.0 == -0.0
    zero = Jet(0, 0.0, 0.0, {(0, 0): 0.0})
    assert zero == Jet(0, 0.0, 0.0, {(0, 0): -0.0})
    assert jet != "not a jet"
    with pytest.raises(TypeError):
        hash(jet)
    germ = SolutionGerm(Soliton(), 0.3, 0.8, 4)
    assert germ.series_jet(2, 2) == germ.series_jet(2, 2)
    assert germ.series_jet(2, 2) != germ.series_jet(2, 1)


def test_jets_and_multi_indices_take_the_abstract_types_after_the_concrete_ones(monkeypatch):
    # the program's own dicts, arrays, tuples and ints take no abstract-base-class
    # check; any other mapping, integer or index is still accepted through one
    class Entries(Mapping):
        def __init__(self, values):
            self._values = dict(values)

        def __getitem__(self, key):
            return self._values[key]

        def __iter__(self):
            return iter(self._values)

        def __len__(self):
            return len(self._values)

    checked = []
    real_check = abc.ABCMeta.__instancecheck__
    monkeypatch.setattr(abc.ABCMeta, "__instancecheck__", lambda cls, obj: checked.append(cls) or real_check(cls, obj))
    rng = np.random.default_rng(13)
    kind = FrameKind.X_NORMALIZED
    jet = random_free_jet(rng, 3)
    germ = SolutionGerm(*random_soliton_point(rng, kind, 1), 4)
    invariant_table(Jet(3, jet.t, jet.x, dict(jet.u)), kind, 3)
    invariant_derivative(germ, [(0, 1), (1, 2)], kind)
    assert pr_v_apply(VectorField.basis()[:2], lambda lifted: [0.5, lifted.u[(0, 0)], -1.5], jet)[0][0] == 0.0
    for v in VectorField.basis():
        determining_equation_residuals(v, 0.3, -0.7, 1.1)
    assert not {Mapping, Sized, numbers.Integral, numbers.Real} & set(checked)
    assert Jet(3, jet.t, jet.x, Entries(jet.u)) == jet
    with pytest.raises(UsageError, match="incomplete jet"):
        Jet(3, jet.t, jet.x, Entries({(0, 0): 1.0}))
    want = normalized_invariant(jet, (1, 2), kind)
    for alpha in ((np.int64(1), np.int64(2)), (np.uint8(1), 2), np.array([1, 2]), [1, 2]):
        assert normalized_invariant(jet, alpha, kind) == want
    assert normalized_invariant(jet, np.array([[1, 2]]), kind) == [want]


def test_jet_rejects_malformed_arrays():
    with pytest.raises(UsageError, match="shape"):
        Jet(1, 0.0, 0.0, np.zeros(4))
    with pytest.raises(UsageError, match="shape"):
        Jet(1, 0.0, 0.0, np.zeros((3, 4)))  # 4 is no coefficient count of a series
    with pytest.raises(UsageError, match="finite"):
        Jet(1, 0.0, 0.0, np.array([0.0, math.nan, 1.0]))
    Jet(1, 0.0, 0.0, np.array([[0.0, math.inf, 1.0]] * 3))  # series entries are exempt


def test_series_entries_in_a_mapping_are_usage_errors():
    # a mapping holds real entries; a series jet is an array of coefficient rows
    lifted = TruncatedSeries.affine(0.5, 2.0, 0.0, 1)
    for u in (
        {(0, 0): lifted, (1, 0): 2.0, (0, 1): 3.0},
        {(0, 0): lifted.coeffs, (1, 0): 2.0, (0, 1): 3.0},
        {alpha: lifted.coeffs for alpha in multi_indices(1)},
    ):
        with pytest.raises(UsageError, match="array of coefficient rows"):
            Jet(1, 0.0, 0.0, u)
    jet = Jet(1, 0.0, 0.0, np.array([lifted.coeffs, [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
    assert np.array_equal(jet.u[(0, 0)].coeffs, lifted.coeffs)


def test_float_overflow_is_a_domain_error_without_a_warning():
    # with |u_x| = 1 every prefactor is 1; the boost sum of I[2,0] overflows to inf
    values = {(0, 0): 0.5, (0, 1): 1.0, (1, 0): 0.0, (0, 2): 1e308, (1, 1): 1e308, (2, 0): 1e308}
    jet = Jet(2, 0.0, 0.0, values)
    assert normalized_invariant(jet, (1, 1), FrameKind.X_NORMALIZED) == 1.5e308
    with pytest.raises(DomainError, match=r"I_\(2, 0\) = inf"):
        normalized_invariant(jet, multi_indices(2), FrameKind.X_NORMALIZED)
    with pytest.raises(DomainError, match=r"I_\(2, 0\) = inf"):
        invariant_table(jet, FrameKind.X_NORMALIZED, 2)
