import dataclasses
import math

import numpy as np
import pytest

import jetframe.group as group
import jetframe.invariants as invariants
import jetframe.verify as verify
from jetframe.errors import DegeneratePointError, UsageError
from jetframe.frame import FrameKind
from jetframe.invariants import SolutionGerm, invariant_table
from jetframe.jets import Jet
from jetframe.solutions import Soliton, jet_of_solution
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


_REAL_INVARIANT = verify.normalized_invariant


@pytest.mark.parametrize(
    "formula, patched, suites",
    [
        # the suites read every alpha of a frame in one call, so the fakes take a sequence
        (
            "normalized_invariant",
            lambda jet, alphas, kind: [math.nan] * len(alphas),
            ("invariance", "infinitesimal"),
        ),
        (
            "normalized_invariant",  # NaN among finite defects of the same sample
            lambda jet, alphas, kind: [
                math.nan if alpha == (1, 1) else value
                for alpha, value in zip(alphas, _REAL_INVARIANT(jet, alphas, kind))
            ],
            ("invariance", "infinitesimal"),
        ),
        ("commutator_coefficients", lambda *args: (math.nan, math.nan), ("commutators",)),
    ],
    ids=["invariant-everywhere", "invariant-at-one-alpha", "commutator-coefficients"],
)
def test_nan_formula_fails_its_suites(monkeypatch, formula, patched, suites):
    monkeypatch.setattr(verify, formula, patched)
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
    real_frame = invariants.moving_frame

    def off_section(jet, kind):
        frame = real_frame(jet, kind)
        rho = dataclasses.replace(frame.rho, eps2=-jet.x + 0.5)
        return dataclasses.replace(frame, rho=rho)

    (healthy,) = run_suite(("phantom",), seed=0, samples=5)
    assert healthy.passed
    monkeypatch.setattr(invariants, "moving_frame", off_section)
    (report,) = run_suite(("phantom",), seed=0, samples=5)
    assert report.passed is False
    assert report.max_defect > 0.1


def test_infinitesimal_fails_when_a_prolongation_coefficient_is_off(monkeypatch):
    real_eta_rows = group._eta_rows

    def skewed(fields, jet):
        # the weight term -(3*a1 + a2 + 2)*c4*u_alpha of every derivative
        # coordinate, scaled by 1.000001; u itself keeps the field's own -2*c4*u
        # (skewing u too would only rescale the field on the u-coordinates,
        # under which every invariant is still invariant)
        etas = real_eta_rows([dataclasses.replace(v, c4=v.c4 * 1.000001) for v in fields], jet)
        etas[:, 0] = real_eta_rows(fields, jet)[:, 0]
        return etas

    (healthy,) = run_suite(("infinitesimal",), seed=0, samples=10, order=4)
    assert healthy.passed
    monkeypatch.setattr(group, "_eta_rows", skewed)
    (report,) = run_suite(("infinitesimal",), seed=0, samples=10, order=4)
    assert report.passed is False
    assert report.max_defect > 1e-7


def test_infinitesimal_lifts_each_jet_once_per_basis_field(monkeypatch):
    # one lift carries two basis fields, one in each first-order slot
    calls = []

    def counted(v, F, jet):
        calls.append(v)
        return group.pr_v_apply(v, F, jet)

    monkeypatch.setattr(verify, "pr_v_apply", counted)
    (report,) = run_suite(("infinitesimal",), seed=0, samples=7, order=6)
    assert report.samples == 7
    assert len(calls) == 2 * 7
    assert all(len(fields) == 2 for fields in calls)


def test_series_calculus_suites_fail_when_the_correction_matrix_is_off(monkeypatch):
    # recurrences, commutators and reconstruction all read R; a relative error
    # of 1e-9 in it must show in each, far above their 1e-11 and 1e-12 tolerances
    suites = ("recurrences", "commutators", "reconstruction")
    real_corrections = invariants._corrections
    assert all(r.passed for r in run_suite(suites, seed=0, samples=20))
    monkeypatch.setattr(invariants, "_corrections", lambda table: real_corrections(table) * (1 + 1e-9))
    reports = run_suite(suites, seed=0, samples=20)
    assert [r.name for r in reports] == list(suites)
    for r in reports:
        assert r.passed is False, r


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
    real = invariants.recurrence_rhs
    assert all(r.passed for r in run_suite(suites, seed=0, samples=20))

    def swapped(table, alpha):
        return real(table, alpha)[::-1]

    monkeypatch.setattr(invariants, "recurrence_rhs", swapped)  # read by reconstruct_generators
    monkeypatch.setattr(verify, "recurrence_rhs", swapped)  # read by the recurrences suite
    reports = run_suite(suites, seed=0, samples=20)
    assert [r.name for r in reports] == list(suites)
    for r in reports:
        assert r.passed is False and r.max_defect > 0.1, r


def test_germ_calculus_differentiates_once_per_derivative_and_twice_per_commutator(monkeypatch):
    # each differentiate call gives both directions: one per invariant derivative,
    # two per commutator (the second one on D_t^i F and D_x^i F together)
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
    assert counts == {"differentiate": 6, "invariant_derivative": 6, "invariant_commutator": 0}
    counts.update(dict.fromkeys(counts, 0))
    (report,) = run_suite(("commutators",), seed=0, samples=3)
    assert report.samples == 3
    assert counts == {"differentiate": 12, "invariant_derivative": 0, "invariant_commutator": 6}
