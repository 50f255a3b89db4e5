"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.  Every tolerance is pinned here as a literal, and each defect is
judged against it: a suite's own tolerance in jetframe.verify may be tighter
than the literal, never looser.
"""

import numpy as np

from jetframe.frame import FrameKind, moving_frame
from jetframe.group import prolong_act
from jetframe.invariants import (
    invariant_derivative,
    invariant_table,
    normalized_invariant,
)
from jetframe.jets import multi_indices
from jetframe.solutions import jet_of_solution
from jetframe.verify import (
    random_free_jet,
    random_soliton_point,
    run_suite,
)

SEED = 20260811
KINDS = (FrameKind.T_NORMALIZED, FrameKind.X_NORMALIZED)


def report(number, label, max_defect, tolerance):
    ok = max_defect <= tolerance
    print(
        f"criterion {number:2d} ({label}): {'PASS' if ok else 'FAIL'} "
        f"max_defect={max_defect:.3e} tolerance={tolerance:.1e}"
    )
    assert ok, f"criterion {number} ({label}) defect {max_defect} > {tolerance}"


def from_report(number, label, r, tolerance):
    assert r.tolerance <= tolerance, f"suite {r.name} tolerance {r.tolerance} is looser than {tolerance}"
    report(number, label, r.max_defect, tolerance)


def from_suite(number, label, name, tolerance, **config):
    (r,) = run_suite(suites=(name,), seed=SEED, **config)
    from_report(number, label, r, tolerance)


def test_criterion_01_invariance():
    from_suite(1, "invariance of all orders <= 6", "invariance", 1e-8, samples=200, order=6)


def test_criterion_02_definition_consistency():
    rng = np.random.default_rng(SEED)
    tolerance = 1e-10
    worst = 0.0
    for i in range(50):
        if i % 2:
            jet = random_free_jet(rng, 6)
        else:
            sol, t0, x0 = random_soliton_point(rng)
            jet = jet_of_solution(sol, t0, x0, 6)
        for kind in KINDS:
            framed = prolong_act(moving_frame(jet, kind).rho, jet)
            for alpha in multi_indices(6):
                want = framed.u[alpha] if alpha != (0, 0) else 0.0
                got = normalized_invariant(jet, alpha, kind)
                worst = max(worst, abs(got - want) / max(1.0, abs(got), abs(want)))
    report(2, "closed forms equal frame invariantization", worst, tolerance)


def test_criterion_03_equivariance():
    from_suite(3, "right-frame equivariance, both branches", "equivariance", 1e-12, samples=200)


def test_criterion_04_infinitesimal():
    from_suite(
        4, "prolonged generators annihilate invariants", "infinitesimal", 1e-11, samples=20, order=4
    )


def test_criterion_05_invariantized_equation():
    rng = np.random.default_rng(SEED + 5)
    tolerance = 1e-9
    worst = 0.0
    for _ in range(50):
        sol, t0, x0 = random_soliton_point(rng, FrameKind.T_NORMALIZED, +1)
        table = invariant_table(jet_of_solution(sol, t0, x0, 3), FrameKind.T_NORMALIZED, 3)
        assert table.branch == 1
        worst = max(worst, abs(1.0 + table.value((0, 3))))
        sol, t0, x0 = random_soliton_point(rng)
        table = invariant_table(jet_of_solution(sol, t0, x0, 3), FrameKind.X_NORMALIZED, 3)
        worst = max(worst, abs(table.value((1, 0)) + table.value((0, 3))))
    report(5, "invariantized equation on solution jets", worst, tolerance)


def test_criterion_06_recurrences():
    from_suite(6, "split recurrences match derivatives", "recurrences", 1e-11, samples=20)


def test_criterion_07_commutators():
    from_suite(7, "commutation relations", "commutators", 1e-12, samples=20)


def test_criterion_08_reconstruction():
    from_suite(8, "generating-set reconstruction", "reconstruction", 1e-12, samples=20)
    rng = np.random.default_rng(SEED + 8)
    tolerance = 1e-6
    worst = 0.0
    for _ in range(20):
        sol, t0, x0 = random_soliton_point(rng, FrameKind.X_NORMALIZED, +1)
        table = invariant_table(jet_of_solution(sol, t0, x0, 2), FrameKind.X_NORMALIZED, 2)
        assert table.branch == 1
        _, dx10 = invariant_derivative(sol, t0, x0, (1, 0), FrameKind.X_NORMALIZED)
        i11 = dx10 + (5.0 / 3.0) * table.value((1, 0)) * table.value((0, 2)) - 1.0
        want = table.value((1, 1))
        worst = max(worst, abs(i11 - want) / max(1.0, abs(want)))
    report(8, "mixed second invariant from the generator", worst, tolerance)


def test_criterion_09_singular_sets():
    from_suite(9, "singular-set comparison on u = x/t", "singular-sets", 0.0, samples=20)


def test_criterion_10_group_axioms_and_determining_equations():
    (axioms, deteqs) = run_suite(
        suites=("group-axioms", "determining-eqs"), seed=SEED, samples=100
    )
    from_report(10, "group axioms", axioms, 1e-12)
    from_report(10, "determining equations", deteqs, 1e-12)
