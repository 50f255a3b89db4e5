import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import jetframe.frame as frame
import jetframe.group as group
import jetframe.invariants as invariants
import jetframe.solutions as solutions
import jetframe.taylor as taylor
import jetframe.verify as verify
from jetframe.errors import DegeneratePointError, JetFrameError, UsageError
from jetframe.frame import FrameKind, moving_frame
from jetframe.group import VectorField, compose, inverse, pr_v_apply, prolong_act
from jetframe.invariants import SolutionGerm, invariant_table, normalized_invariant
from jetframe.jets import Jet, multi_indices
from jetframe.solutions import Constant, Rational, Soliton, jet_of_solution
from jetframe.taylor import TruncatedSeries
from jetframe.verify import DEFAULT_TOLERANCES, SUITES, run_suite


def test_group_axioms_suite():
    (report,) = run_suite(suites=("group-axioms",), seed=42, samples=100)
    assert report.passed
    assert report.max_defect < 1e-12
    assert report.samples == 100
    assert report.seed == 42


def test_all_suites_pass_quickly():
    reports = run_suite(suites=("all",), seed=3, samples=12, order=6)
    assert [r.name for r in reports] == list(SUITES)
    failed = [r.name for r in reports if not r.passed]
    assert failed == []


def test_determinism_bit_for_bit():
    a = run_suite(suites=("invariance", "phantom"), seed=9, samples=10, order=4)
    b = run_suite(suites=("invariance", "phantom"), seed=9, samples=10, order=4)
    assert a == b  # dataclass equality covers every float field


def test_seed_changes_reports():
    a = run_suite(suites=("invariance",), seed=1, samples=10, order=4)
    b = run_suite(suites=("invariance",), seed=2, samples=10, order=4)
    assert a[0].max_defect != b[0].max_defect


def test_unknown_suite_rejected():
    with pytest.raises(UsageError):
        run_suite(suites=("nosuch",), seed=0)
    # next to "all" too, and the message names it
    with pytest.raises(UsageError, match="bogus"):
        run_suite(suites=("all", "bogus"), seed=0, samples=1)


def test_reconstruction_report_is_independent_of_order():
    # the suite rebuilds I[2,0] from order-2 jets and order-3 germs at any --order
    reports = [run_suite(suites=("reconstruction",), seed=0, samples=5, order=n) for n in (1, 3, 6)]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0][0].passed


def test_tolerance_override(monkeypatch):
    suite, _ = verify._SUITES["group-axioms"]
    monkeypatch.setitem(verify._SUITES, "group-axioms", (suite, 1e-20))
    (report,) = run_suite(suites=("group-axioms",), seed=0, samples=5)
    assert report.tolerance == 1e-20
    assert not report.passed  # roundoff alone exceeds an impossible tolerance


def test_report_invariant_passed_iff_within_tolerance():
    for name in SUITES:
        assert name in DEFAULT_TOLERANCES
    reports = run_suite(suites=("all",), seed=5, samples=6, order=6)
    # one count per sample checked: reconstruction checks each frame kind
    # that found a nondegenerate point, singular-sets at least 5 points
    expected = {"reconstruction": 12, "singular-sets": max(6, 5)}
    for r in reports:
        assert r.samples == expected.get(r.name, 6)
        assert r.passed == (r.max_defect <= r.tolerance)
        assert dataclasses.asdict(r).keys() == {
            "name",
            "samples",
            "max_defect",
            "tolerance",
            "passed",
            "seed",
        }


def test_singular_sets_suite_is_exact():
    (report,) = run_suite(suites=("singular-sets",), seed=0, samples=8)
    assert report.passed
    assert report.max_defect == 0.0
    assert report.tolerance == 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: TruncatedSeries(2.5),
        lambda: Jet(2.0, 0.0, 0.0, np.zeros(6)),
        lambda: jet_of_solution(Soliton(), 0.1, 0.2, 2.5),
        lambda: SolutionGerm(Soliton(), 0.1, 0.2, 2.5),
        lambda: invariant_table(jet_of_solution(Soliton(), 0.1, 0.2, 2), FrameKind.X_NORMALIZED, 2.0),
        lambda: run_suite(("phantom",), samples=2.5),
        lambda: run_suite(("phantom",), seed=1.5, samples=1),
        lambda: run_suite(("phantom",), samples=1, order=3.0),
    ],
    ids=["series", "jet", "jet_of_solution", "germ", "table", "samples", "seed", "verify-order"],
)
def test_orders_sample_counts_and_seeds_must_be_integers(call):
    with pytest.raises(UsageError, match="must be an integer, got"):
        call()


def test_numpy_integer_orders_sample_counts_and_seeds_are_integers():
    assert TruncatedSeries(np.int64(2)).order == 2 and type(TruncatedSeries(np.int64(2)).order) is int
    assert Jet(np.int32(1), 0.0, 0.0, np.zeros(3)) == Jet(1, 0.0, 0.0, np.zeros(3))
    jet = jet_of_solution(Soliton(), 0.1, 0.2, np.int64(2))
    assert jet == jet_of_solution(Soliton(), 0.1, 0.2, 2)
    assert invariant_table(jet, FrameKind.X_NORMALIZED, np.int8(2)) == invariant_table(jet, FrameKind.X_NORMALIZED, 2)
    reports = run_suite(("phantom",), seed=np.int64(3), samples=np.int32(2), order=np.uint8(3))
    assert reports == run_suite(("phantom",), seed=3, samples=2, order=3)


def test_suite_name_order_is_canonical():
    reports = run_suite(suites=("phantom", "group-axioms"), seed=0, samples=5)
    assert [r.name for r in reports] == ["group-axioms", "phantom"]


_REAL_ROWS = invariants._invariant_rows


def _nan_invariants(at=None):
    """The suites' invariant rows with NaN at the multi-index `at`, or at every one, in rows of floats.

    The rows of a lift stay real: a NaN there would be a DomainError of the
    derivative along the flow, not a NaN defect.
    """

    def rows(data, kind, alphas, jet_order, pivot):
        values = _REAL_ROWS(data, kind, alphas, jet_order, pivot)
        if data.ndim == 2:
            values[:, [j for j, alpha in enumerate(alphas) if at in (None, alpha)]] = math.nan
        return values

    return rows


@pytest.mark.parametrize(
    "module, formula, patched, suites",
    [
        # the suites read every alpha of a frame at every jet of a stack in one normalized_invariant call
        (invariants, "_invariant_rows", _nan_invariants(), ("invariance", "infinitesimal")),
        # NaN among finite defects
        (invariants, "_invariant_rows", _nan_invariants((1, 1)), ("invariance", "infinitesimal")),
        (verify, "_bracket", lambda *args: (math.nan, math.nan), ("commutators",)),  # the commutator coefficients
    ],
    ids=["invariant-everywhere", "invariant-at-one-alpha", "commutator-coefficients"],
)
def test_nan_formula_fails_its_suites(monkeypatch, module, formula, patched, suites):
    monkeypatch.setattr(module, formula, patched)
    reports = run_suite(suites, seed=0, samples=3, order=3)
    assert [r.name for r in reports] == list(suites)
    for r in reports:
        assert not r.passed
        assert r.max_defect == math.inf


def test_suite_without_samples_fails(monkeypatch):
    def degenerate(*args):
        raise DegeneratePointError("every draw is degenerate")

    monkeypatch.setattr(verify, "reconstruct_generators", degenerate)
    (report,) = run_suite(("reconstruction",), seed=0, samples=1, order=4)
    assert report.samples == 0
    assert report.max_defect == math.inf
    assert report.passed is False


def test_phantom_suite_fails_when_the_frame_misses_the_cross_section(monkeypatch):
    real_frames = invariants._frames

    def off(frame, jet):
        return dataclasses.replace(frame, rho=dataclasses.replace(frame.rho, eps2=-jet.x + 0.5))

    def off_section(jets, data, kind):
        # a table reads the frames of its stack through the kernel it shares with moving_frame
        frames, pivots = real_frames(jets, data, kind)
        return [off(f, j) for f, j in zip(frames, jets)], pivots

    (healthy,) = run_suite(("phantom",), seed=0, samples=5)
    assert healthy.passed
    monkeypatch.setattr(invariants, "_frames", off_section)
    (report,) = run_suite(("phantom",), seed=0, samples=5)
    assert report.passed is False
    assert report.max_defect > 0.1


def test_infinitesimal_fails_when_a_prolongation_coefficient_is_off(monkeypatch):
    real_eta_stack = group._eta_stack

    def skewed(fields, data, order):
        # the weight term -(3*a1 + a2 + 2)*c4*u_alpha of every derivative
        # coordinate, scaled by 1.000001; u itself keeps the field's own -2*c4*u
        # (skewing u too would only rescale the field on the u-coordinates,
        # under which every invariant is still invariant)
        etas = real_eta_stack([dataclasses.replace(v, c4=v.c4 * 1.000001) for v in fields], data, order)
        etas[:, :, 0] = real_eta_stack(fields, data, order)[:, :, 0]
        return etas

    (healthy,) = run_suite(("infinitesimal",), seed=0, samples=10, order=4)
    assert healthy.passed
    monkeypatch.setattr(group, "_eta_stack", skewed)
    (report,) = run_suite(("infinitesimal",), seed=0, samples=10, order=4)
    assert report.passed is False
    assert report.max_defect > 1e-7


def test_infinitesimal_lifts_each_jet_once_per_basis_field(monkeypatch):
    # one lift carries two basis fields, one in each first-order slot, at
    # every jet of a stack; 130 samples are a stack of _STACK and one of the rest
    calls = []

    def counted(v, F, jets):
        calls.append((len(v), len(jets)))
        return group.pr_v_apply(v, F, jets)

    monkeypatch.setattr(verify, "pr_v_apply", counted)
    (report,) = run_suite(("infinitesimal",), seed=0, samples=130, order=6)
    assert report.samples == 130
    assert calls == [(2, verify._STACK)] * 2 + [(2, 130 - verify._STACK)] * 2


def test_infinitesimal_reads_lifted_invariants_as_rows(monkeypatch):
    # pr_v_apply reads the eps coefficients off the rows of _invariants, so no
    # order-1 TruncatedSeries is wrapped, and the 50 soliton jets come from one
    # row pass of the profile, which wraps no order-4 series either
    counts = {}
    wrap = TruncatedSeries._wrap.__func__

    def counted(cls, order, coeffs):
        counts[order] = counts.get(order, 0) + 1
        return wrap(cls, order, coeffs)

    monkeypatch.setattr(TruncatedSeries, "_wrap", classmethod(counted))
    (report,) = run_suite(("infinitesimal",), seed=0, samples=100)
    assert report.passed
    assert counts == {}


def test_series_calculus_suites_fail_when_the_correction_matrix_is_off(monkeypatch):
    # recurrences, commutators and reconstruction all read R; a relative error
    # of 1e-9 in it must show in each, far above their 1e-11 and 1e-12 tolerances
    suites = ("recurrences", "commutators", "reconstruction")
    real_corrections = invariants._corrections
    assert all(r.passed for r in run_suite(suites, seed=0, samples=20))
    monkeypatch.setattr(invariants, "_corrections", lambda *args: real_corrections(*args) * (1 + 1e-9))
    reports = run_suite(suites, seed=0, samples=20)
    assert [r.name for r in reports] == list(suites)
    for r in reports:
        assert r.passed is False, r


def test_solution_jet_suites_fail_when_the_soliton_amplitude_is_off(monkeypatch):
    # phantom and kdv-residual read float jets of solutions; a relative error
    # of 1e-10 in the soliton's amplitude breaks the equation by about 1e-10,
    # above their 1e-12 tolerances and below the 1e-9 they had before.  The
    # profile is written once, for a stack's row pass and Soliton.series alike
    suites = ("phantom", "kdv-residual")
    real_profile = solutions._soliton
    assert all(r.passed for r in run_suite(suites, seed=0, samples=20))
    monkeypatch.setattr(solutions, "_soliton", lambda *args: real_profile(*args) * (1 + 1e-10))
    reports = run_suite(suites, seed=0, samples=20)
    assert [r.name for r in reports] == list(suites)
    for r in reports:
        assert r.passed is False and r.max_defect < 1e-9, r


_PAIR_SUITES = ("recurrences", "commutators", "reconstruction")


def test_series_calculus_suites_fail_when_the_germ_derivative_pair_is_swapped(monkeypatch):
    # D_t^i and D_x^i come as one (t, x) pair; handing them out as (x, t) must
    # show in every suite that reads the germ's derivatives
    real = invariants.SolutionGerm.differentiate
    assert all(r.passed for r in run_suite(_PAIR_SUITES, seed=0, samples=20))
    monkeypatch.setattr(invariants.SolutionGerm, "differentiate", lambda self, s, kind: real(self, s, kind)[::-1])
    reports = run_suite(_PAIR_SUITES, seed=0, samples=20)
    assert [r.name for r in reports] == list(_PAIR_SUITES)
    for r in reports:
        assert r.passed is False and r.max_defect > 0.1, r


def test_recurrence_suites_fail_when_the_recurrence_pair_is_swapped(monkeypatch):
    suites = ("recurrences", "reconstruction")
    real = invariants._recurrence
    assert all(r.passed for r in run_suite(suites, seed=0, samples=20))

    def swapped(entries, alpha, R, etas):
        return real(entries, alpha, R, etas)[::-1]

    # read by the recurrences suite and by reconstruct_generators
    monkeypatch.setattr(verify, "_recurrence", swapped)
    monkeypatch.setattr(invariants, "_recurrence", swapped)
    reports = run_suite(suites, seed=0, samples=20)
    assert [r.name for r in reports] == list(suites)
    for r in reports:
        assert r.passed is False and r.max_defect > 0.1, r


def test_germ_calculus_differentiates_once_per_derivative_and_twice_per_commutator(monkeypatch):
    # each differentiate call gives both directions: one per invariant derivative,
    # two per commutator (the second one on D_t^i F and D_x^i F together); a
    # suite makes one call per frame kind on a stack of all its samples
    counts = {"differentiate": 0, "invariant_derivative": 0, "invariant_commutator": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def call(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, call)

    counted(invariants.SolutionGerm, "differentiate")
    counted(verify, "invariant_derivative")
    counted(verify, "invariant_commutator")
    (report,) = run_suite(("recurrences",), seed=0, samples=6)
    assert report.samples == 6
    assert counts == {"differentiate": 2, "invariant_derivative": 2, "invariant_commutator": 0}
    counts.update(dict.fromkeys(counts, 0))
    (report,) = run_suite(("commutators",), seed=0, samples=3)
    assert report.samples == 3
    assert counts == {"differentiate": 4, "invariant_derivative": 0, "invariant_commutator": 2}


def test_germ_suites_decide_each_pivot_once_per_frame(monkeypatch):
    # the float tables of recurrences and commutators read the pivots of the
    # frame record that the germ calculus builds: one stacked pivot test per
    # frame kind, as in reconstruction; the series prefactors of the record
    # and of the invariant series, and the float ones of the tables, stay
    tested, prefactors = [], []
    real_pivots, real_prefactors = invariants.require_regular_pivots, invariants._prefactors

    def pivots(rows, kind, at):
        tested.append(len(rows))
        return real_pivots(rows, kind, at)

    def counted_prefactors(p, branch, weights, w_den):
        prefactors.append("series" if isinstance(p, np.ndarray) else "float")
        return real_prefactors(p, branch, weights, w_den)

    monkeypatch.setattr(invariants, "require_regular_pivots", pivots)
    monkeypatch.setattr(invariants, "_prefactors", counted_prefactors)
    points = {"recurrences": 100, "commutators": 200, "reconstruction": 200}
    for suite, total in points.items():
        tested.clear()
        prefactors.clear()
        (report,) = run_suite((suite,), seed=0, samples=100, order=6)
        assert report.passed
        assert (len(tested), sum(tested)) == (2, total), suite
        assert sorted(prefactors) == ["float"] * 2 + ["series"] * 4, suite


def test_series_calculus_suites_expand_each_sample_point_once(monkeypatch):
    # recurrences and commutators read their float table off the germ they
    # build, and reconstruction its order-2 jet off its germ: one expanded row
    # per drawn point, in one pass per stack, or per stack and frame kind for
    # recurrences and reconstruction
    passes, attempts = [], [0]
    real_expansions, real_point = invariants._expansions, verify.random_soliton_point

    def expansions(points, order):
        passes.append(len(points))
        return real_expansions(points, order)

    def point(*args):
        attempts[0] += 1
        return real_point(*args)

    monkeypatch.setattr(invariants, "_expansions", expansions)
    monkeypatch.setattr(verify, "random_soliton_point", point)
    for suite, stacks in (("recurrences", 2), ("commutators", 1), ("reconstruction", 2)):
        passes.clear()
        attempts[0] = 0
        (report,) = run_suite((suite,), seed=0, samples=10)
        assert report.passed and report.samples >= 10
        assert len(passes) == stacks and sum(passes) == attempts[0] >= report.samples, suite


def test_the_battery_expands_each_stack_of_soliton_points_in_one_row_pass(monkeypatch):
    # no soliton point of a seed-0 battery is expanded alone: each stack's
    # soliton points, or each frame kind's in recurrences and reconstruction,
    # are one call of the profile on their rows, and Soliton.series, its
    # one-row case, is never called; the loop over samples made 734 such calls
    rows, series = {}, [0]
    real_profile, real_series = solutions._soliton, Soliton.series

    def profile(c, phase, t, x):
        rows.setdefault(suite, []).append(len(x) if x.ndim == 2 else None)
        return real_profile(c, phase, t, x)

    def one_row(self, t, x):
        series[0] += 1
        return real_series(self, t, x)

    monkeypatch.setattr(solutions, "_soliton", profile)
    monkeypatch.setattr(Soliton, "series", one_row)
    for suite in SUITES:
        (report,) = run_suite((suite,), seed=0, samples=100, order=6)
        assert report.passed, report
    assert series == [0]
    assert rows == {
        "equivariance": [100],  # half the samples, one soliton jet per frame kind
        "invariance": [50],
        "phantom": [100],
        "kdv-residual": [34],  # beside a row pass of 33 rational and one of 33 constant points
        "recurrences": [50, 50],
        "commutators": [100],
        "reconstruction": [100, 100],
        "infinitesimal": [50],
    }
    assert sum(map(sum, rows.values())) == 734


def test_the_battery_expands_rational_and_constant_stacks_in_row_passes_and_runs_sech_once_per_composition(monkeypatch):
    # a seed-0 battery runs Rational.series only for the points singular-sets
    # expands one at a time (133 calls before, 33 of them in kdv-residual) and
    # Constant.series never (33 before); the sech recurrence runs once per
    # composition on the columns of all its rows, where it ran once per row
    series, recurrences, compositions = Counter(), [0], []
    for cls in (Rational, Constant):
        monkeypatch.setattr(cls, "series", lambda self, t, x, real=cls.series: series.update([(suite, self.name)]) or real(self, t, x))
    real_coeffs, real_compose = taylor._univariate_coeffs, solutions._compose

    def coeffs(kind, a0, n):
        recurrences[0] += 1
        return real_coeffs(kind, a0, n)

    def compose(kind, a, exponents):
        if kind == "sech":
            compositions.append(len(a))
        return real_compose(kind, a, exponents)

    monkeypatch.setattr(taylor, "_univariate_coeffs", coeffs)
    monkeypatch.setattr(solutions, "_compose", compose)
    for suite in SUITES:
        (report,) = run_suite((suite,), seed=0, samples=100, order=6)
        assert report.passed, report
    assert series == {("singular-sets", "rational"): 100}
    assert recurrences[0] == len(compositions) == 10
    assert sum(compositions) == 734


def test_a_degenerate_point_replays_its_stack_as_the_loop_over_samples(monkeypatch):
    # with the conditioning bound lowered, some seed-0 points are degenerate: a
    # stack that holds one raises, and the suite replays that stack one sample
    # at a time from the random state before its draws, retries included; the
    # report is the one the loop over samples gives, and later stacks run whole
    monkeypatch.setattr(invariants, "_MAX_CONDITION", 40.0)
    monkeypatch.setattr(verify, "_STACK", 3)
    samples, rng = 12, verify._suite_rng(0, "reconstruction")
    defects, degenerate = [], [0]

    def attempt(kind):
        try:
            return invariants.reconstruct_generators(SolutionGerm(*verify.random_soliton_point(rng, kind), 3), kind)
        except DegeneratePointError:
            degenerate[0] += 1
            raise

    for _ in range(samples):
        for kind in verify._KINDS:
            pair = verify._retrying(lambda kind=kind: attempt(kind))
            if pair is not None:
                defects.append(verify._rel(*pair))
    assert degenerate[0] > 0

    stacks = []  # (points, raised) of each call on a stack
    real = verify.reconstruct_generators

    def counted(germ, kind):
        if isinstance(germ.t0, tuple):
            stacks.append([len(germ.t0), True])
            result = real(germ, kind)
            stacks[-1][1] = False
            return result
        return real(germ, kind)

    monkeypatch.setattr(verify, "reconstruct_generators", counted)
    (report,) = run_suite(("reconstruction",), seed=0, samples=samples)
    assert (report.samples, report.max_defect) == (len(defects), max(defects))
    assert [3, True] in stacks and [3, False] in stacks, stacks
    # defect by defect too: a replay from anywhere but the saved state meets other points
    suite, _ = verify._SUITES["reconstruction"]
    assert list(suite(verify._suite_rng(0, "reconstruction"), samples, 6)) == defects


def _loop_invariants(jet):
    return [value for kind in verify._KINDS for value in normalized_invariant(jet, multi_indices(jet.order), kind)]


def _one_jet(rng, free, order, kind=None, branch=None):
    """A free jet, or the jet of a soliton point expanded on its own."""
    draw = verify._draw_jet(rng, free, order, kind, branch)
    return draw if free else jet_of_solution(*draw, order)


def _loop_equivariance_defect(jet, g, kind):
    """frame(g . jet) against frame(jet) * g^-1, through the one-jet frame and prolongation."""
    lhs = moving_frame(prolong_act(g, jet), kind).rho
    rhs = compose(moving_frame(jet, kind).rho, inverse(g))
    return max(abs(a - b) for a, b in zip(lhs.params(), rhs.params()))


def _loop_over_samples(name, rng, samples, order):
    """The suite `name` one sample at a time, through the public one-jet calls."""
    basis = VectorField.basis()
    for i in range(samples):
        if name == "equivariance":
            branch = 1 if i % 2 == 0 else -1
            g = verify.random_group_element(rng)
            jets = [_one_jet(rng, i % 4 < 2, order, kind, branch) for kind in verify._KINDS]
            yield verify._worst(_loop_equivariance_defect(jet, g, kind) for jet, kind in zip(jets, verify._KINDS))
        elif name == "phantom":
            jet = jet_of_solution(*verify.random_soliton_point(rng), 3)
            yield verify._worst(d for kind in verify._KINDS for d in verify._phantom_defects(invariant_table(jet, kind, 3)))
        elif name == "invariance":
            jet = _one_jet(rng, i % 2 == 0, order)
            g = verify.random_group_element(rng)
            yield verify._worst(map(verify._rel, _loop_invariants(prolong_act(g, jet)), _loop_invariants(jet)))
        else:
            jet = _one_jet(rng, i % 2 == 0, min(order, 4))
            scales = [1.0 + abs(value) for value in _loop_invariants(jet)]
            yield verify._worst(
                abs(d) / s
                for pair in (basis[:2], basis[2:])
                for derivatives in pr_v_apply(pair, _loop_invariants, jet)
                for d, s in zip(derivatives, scales)
            )


def _outcome(defects):
    """The defects a suite yields, as reprs, up to the typed error that ends it, if one does."""
    seen = []
    try:
        for d in defects:
            seen.append(repr(d))
    except JetFrameError as exc:
        return seen, f"{type(exc).__name__}: {exc}"
    return seen, None


@pytest.mark.parametrize("name", ["invariance", "infinitesimal"])
def test_free_jet_suites_give_the_loop_over_samples_defect_by_defect(monkeypatch, name):
    # uneven stacks of 3: each sample's defect is bit for bit the one-jet calls'
    monkeypatch.setattr(verify, "_STACK", 3)
    suite, _ = verify._SUITES[name]
    for seed, samples, order in ((0, 7, 6), (3, 8, 3), (11, 1, 1)):
        stacked = _outcome(suite(verify._suite_rng(seed, name), samples, order))
        assert stacked == _outcome(_loop_over_samples(name, verify._suite_rng(seed, name), samples, order))
        assert len(stacked[0]) == samples and stacked[1] is None


@pytest.mark.parametrize("name", ["equivariance", "phantom"])
def test_frame_suites_give_the_loop_over_samples_defect_by_defect(monkeypatch, name):
    # uneven stacks of 3: each sample's defect is bit for bit the one-jet
    # frames, prolongations and tables, in the loop's order of frame kinds
    monkeypatch.setattr(verify, "_STACK", 3)
    suite, _ = verify._SUITES[name]
    for seed, samples, order in ((0, 7, 6), (3, 8, 3), (11, 1, 1), (5, 10, 12)):
        stacked = _outcome(suite(verify._suite_rng(seed, name), samples, order))
        assert stacked == _outcome(_loop_over_samples(name, verify._suite_rng(seed, name), samples, order))
        assert len(stacked[0]) == samples and stacked[1] is None


def _spoiled(real, spoil, at):
    """`real` with its `at`-th draw spoiled, and every later draw that starts from the same random state."""
    states, calls = set(), [0]

    def draw(rng, *args):
        state = rng.bit_generator.state["state"]["state"]
        value = real(rng, *args)
        calls[0] += 1
        if calls[0] == at:
            states.add(state)
        return spoil(value) if state in states else value

    return draw


def _overflowing_jet(jet):
    data = jet.data.copy()
    data[3:] = 1e308  # every entry of order >= 2
    return Jet(jet.order, jet.t, jet.x, data)


@pytest.mark.parametrize(
    "name, draw, spoil, at, error",
    [
        # the fifth element: its scaling exp(20 * 40) leaves range
        ("invariance", "random_group_element", lambda g: dataclasses.replace(g, eps4=-40.0), 5, "DomainError"),
        # the third free jet, the fifth sample's: its boost sums leave range
        ("infinitesimal", "random_free_jet", _overflowing_jet, 3, "DomainError"),
        # the fifth element: the moved jets of both frames leave range
        ("equivariance", "random_group_element", lambda g: dataclasses.replace(g, eps4=-40.0), 5, "DomainError"),
        # the fifth point, moved onto u = x/t, where the time-normalized frame is singular
        ("phantom", "random_soliton_point", lambda point: (Rational(), *point[1:]), 5, "SingularFrameError"),
    ],
)
def test_a_draw_that_fails_mid_stack_ends_the_suite_as_the_loop_does(monkeypatch, name, draw, spoil, at, error):
    # the fifth sample, in the middle of the second stack of 3, leaves range or
    # meets a singular frame: the stack replays one sample at a time from the
    # random state its draws began at, so the defects before it and the typed
    # error are the loop's
    monkeypatch.setattr(verify, "_STACK", 3)
    monkeypatch.setattr(verify, draw, _spoiled(getattr(verify, draw), spoil, at))
    suite, _ = verify._SUITES[name]
    stacked = _outcome(suite(verify._suite_rng(0, name), 7, 6))
    loop = _outcome(_loop_over_samples(name, verify._suite_rng(0, name), 7, 6))
    assert stacked == loop
    defects, raised = loop
    assert len(defects) == 4 and raised.startswith(error + ":"), loop


def _counted_calls(monkeypatch, owner, names):
    """The call count of each function `names` of module `owner`, patched in every module that binds it."""
    counts = dict.fromkeys(names, 0)

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return call

    for name in names:
        real = getattr(owner, name)
        for module in (group, frame, invariants, verify):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted(name, real))
    return counts


def test_the_battery_lifts_prolongs_and_tabulates_each_stack_once(monkeypatch):
    # infinitesimal lifts its stack of 100 jets once per pair of basis fields;
    # equivariance moves its stack once per frame kind, through the kernel of
    # prolong_act on the pair it has validated, and invariance once, through
    # prolong_act itself; phantom tabulates its stack once per frame kind;
    # each frame's invariants of a stack, floats or a lift's series, are one
    # normalized_invariant call: one per table, 2 x 2 for invariance's moved
    # and unmoved jets, and 3 x 2 for infinitesimal's scales and two lifts
    lifts = _counted_calls(monkeypatch, group, ("pr_v_apply", "prolong_act", "_prolong"))
    tables = _counted_calls(monkeypatch, invariants, ("invariant_table", "normalized_invariant"))
    reports = run_suite(("all",), seed=0, samples=100, order=6)
    assert all(r.passed for r in reports)
    assert lifts == {"pr_v_apply": 2, "prolong_act": 1, "_prolong": 3}
    assert tables == {"invariant_table": 2, "normalized_invariant": 2 + 4 + 6}


@pytest.mark.parametrize("name, function", [("equivariance", "equivariance_defect"), ("phantom", "invariant_table")])
def test_the_frame_suites_call_their_frame_function_once_per_stack_and_kind(monkeypatch, name, function):
    # 130 samples are a stack of 128 and one of 2, each passed whole, once per frame kind
    stacks = []
    real = getattr(verify, function)

    def counted(jets, *args):
        stacks.append((len(jets), args[-1] if function == "equivariance_defect" else args[0]))
        return real(jets, *args)

    monkeypatch.setattr(verify, function, counted)
    (report,) = run_suite((name,), seed=5, samples=130, order=6)
    assert report.passed and report.samples == 130
    assert stacks == [(size, kind) for size in (128, 2) for kind in verify._KINDS]


def test_a_free_jet_draws_its_entries_in_one_call_as_one_call_each_would():
    # 3, 6, 15, 28 and 45 entries: the same doubles, and the same next draw
    def one_call_per_entry(rng, order):
        values = {alpha: float(rng.uniform(-2.0, 2.0)) for alpha in multi_indices(order)}
        sx, st = (1 if rng.uniform() < 0.5 else -1 for _ in range(2))
        values[(0, 1)] = sx * float(rng.uniform(0.3, 2.0))
        values[(1, 0)] = st * float(rng.uniform(0.3, 2.0)) - values[(0, 0)] * values[(0, 1)]
        t, x = rng.uniform(-1.5, 1.5, size=2)
        return Jet(order, float(t), float(x), values)

    for order in (1, 2, 4, 6, 8):
        rng, ref = np.random.default_rng(order), np.random.default_rng(order)
        for _ in range(3):
            jet, want = verify.random_free_jet(rng, order), one_call_per_entry(ref, order)
            assert repr((jet.t, jet.x, jet.data.tolist())) == repr((want.t, want.x, want.data.tolist()))
        assert rng.uniform() == ref.uniform()
