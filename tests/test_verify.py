import dataclasses
import math

import pytest

import jetframe.group as group
import jetframe.invariants as invariants
import jetframe.verify as verify
from jetframe.errors import DegeneratePointError, UsageError
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


def test_reconstruction_needs_order_four():
    with pytest.raises(UsageError):
        run_suite(suites=("reconstruction",), seed=0, order=3)


def test_tolerance_override():
    (report,) = run_suite(
        suites=("group-axioms",), seed=0, samples=5, tolerances={"group-axioms": 1e-20}
    )
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
    real_eta_alpha = group.eta_alpha

    def skewed(v, alpha, jet):
        # the weight term -(3*a1 + a2 + 2)*c4*u_alpha of every derivative
        # coordinate, scaled by 1.000001; u itself keeps the field's own -2*c4*u
        # (skewing u too would only rescale the field on the u-coordinates,
        # under which every invariant is still invariant)
        off = dataclasses.replace(v, c4=v.c4 * 1.000001)

        def one(a):
            return real_eta_alpha(v if tuple(a) == (0, 0) else off, a, jet)

        return one(alpha) if isinstance(alpha[0], int) else [one(a) for a in alpha]

    (healthy,) = run_suite(("infinitesimal",), seed=0, samples=10, order=4)
    assert healthy.passed
    monkeypatch.setattr(group, "eta_alpha", skewed)
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
