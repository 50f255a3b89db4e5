"""Seeded property-check suites binding every identity to a pass/fail report.

Each suite draws its own deterministic random stream from (seed, suite name),
evaluates a battery of sample points and reports the worst defect against a
tolerance.  Two jet generators are used: unconstrained random jets (the
algebraic identities hold on the whole jet space) and jets of exact catalog
solutions (the invariantized-equation identities hold only on solutions).
Singular draws are retried a bounded number of times; a sample that finds no
admissible point is not counted, so the report's sample count shows the
shortfall.  A NaN defect, or a suite that checked nothing, fails.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePointError, SingularFrameError, UsageError
from .frame import FrameKind, equivariance_defect, moving_frame
from .group import (
    GroupElement,
    VectorField,
    act_point,
    compose,
    determining_equation_residuals,
    inverse,
    pr_v_apply,
    prolong_act,
)
from .invariants import (
    commutator_coefficients,
    invariant_commutator,
    invariant_derivative,
    invariant_table,
    normalized_invariant,
    reconstruct_generators,
    recurrence_rhs,
)
from .jets import Jet, multi_indices
from .solutions import Constant, Rational, Soliton, jet_of_solution, kdv_residual
from .taylor import _integer

_KINDS = (FrameKind.T_NORMALIZED, FrameKind.X_NORMALIZED)
_MAX_RETRIES = 400
# free-jet entries lie in [-_JET_BOUND, _JET_BOUND]; both pivots have
# magnitude at least _MIN_PIVOT
_JET_BOUND = 2.0
_MIN_PIVOT = 0.3


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one suite: worst defect over `samples` draws vs tolerance."""

    name: str
    samples: int
    max_defect: float
    tolerance: float
    passed: bool
    seed: int


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _suite_rng(seed, name):
    return np.random.default_rng([seed % 2**32, zlib.crc32(name.encode())])


# -- random generators --------------------------------------------------------


def random_group_element(rng):
    e = rng.uniform(-1.0, 1.0, size=4)
    return GroupElement(*map(float, e))


def random_free_jet(rng, order, t_branch=None, x_branch=None):
    """Unconstrained random jet with both pivots bounded away from zero.

    `t_branch` / `x_branch` force the sign of u_t + u*u_x resp. u_x;
    left as None the signs are random.
    """
    values = {alpha: float(rng.uniform(-_JET_BOUND, _JET_BOUND)) for alpha in multi_indices(order)}
    sx = x_branch if x_branch is not None else (1 if rng.uniform() < 0.5 else -1)
    st = t_branch if t_branch is not None else (1 if rng.uniform() < 0.5 else -1)
    values[(0, 1)] = sx * float(rng.uniform(_MIN_PIVOT, _JET_BOUND))
    pivot = st * float(rng.uniform(_MIN_PIVOT, _JET_BOUND))
    values[(1, 0)] = pivot - values[(0, 0)] * values[(0, 1)]
    t, x = rng.uniform(-1.5, 1.5, size=2)
    return Jet(order=order, t=float(t), x=float(x), u=values)


# the time-normalized pivot of the soliton vanishes where 3*sech(theta)^2 = 1
_THETA_STAR = math.acosh(math.sqrt(3.0))  # ~1.1462


def _draw_theta(rng, kind=None, branch=None):
    # bands of the phase variable with both pivots comfortably non-singular
    lo, hi, cut = 0.25, 2.0, 0.22
    mag = float(rng.uniform(lo, hi))
    while abs(mag - _THETA_STAR) < cut:
        mag = float(rng.uniform(lo, hi))
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    if kind is FrameKind.X_NORMALIZED and branch is not None:
        sign = -float(branch)  # u_x has the opposite sign of theta
    elif kind is FrameKind.T_NORMALIZED and branch is not None:
        # pivot sign = sign(u - c) * sign(u_x) = crest_side * (-sign(theta))
        crest_side = 1.0 if mag < _THETA_STAR else -1.0
        sign = -float(branch) * crest_side
    return sign * mag


def random_soliton_point(rng, kind=None, branch=None):
    """A soliton plus a base point where the requested frame/branch is healthy."""
    sol = Soliton(c=float(rng.uniform(0.6, 1.6)), phase=float(rng.uniform(-1.0, 1.0)))
    theta = _draw_theta(rng, kind, branch)
    t0 = float(rng.uniform(-1.0, 1.0))
    k = 0.5 * math.sqrt(sol.c)
    x0 = theta / k + sol.c * t0 + sol.phase
    return sol, t0, x0


def _retrying(make):
    """Call `make` until it returns without a domain error (bounded retries).

    Returns None when every attempt hit a singular or degenerate point.
    """
    for _ in range(_MAX_RETRIES):
        try:
            return make()
        except (SingularFrameError, DegeneratePointError):
            continue
    return None


def _invariants(jet):
    """Every I_alpha of both frames at `jet` up to its order, frame-major."""
    alphas = multi_indices(jet.order)
    return [value for kind in _KINDS for value in normalized_invariant(jet, alphas, kind)]


def _free_or_soliton_jet(rng, i, order):
    """Sample i's jet: a free jet for even i, a soliton jet for odd i."""
    if i % 2 == 0:
        return random_free_jet(rng, order)
    sol, t0, x0 = random_soliton_point(rng)
    return jet_of_solution(sol, t0, x0, order)


def _worst(defects):
    """Largest of one sample's defects; NaN if any of them is NaN."""
    return float(np.max(np.fromiter(defects, dtype=float)))


# -- individual suites ---------------------------------------------------------
#
# Each suite is a generator yielding one defect per sample it checked (the
# worst over everything that sample compares); run_suite reduces the stream.


def _suite_group_axioms(rng, samples, order):
    ident = GroupElement.identity().params()
    for _ in range(samples):
        g1, g2, g3 = (random_group_element(rng) for _ in range(3))
        p = tuple(map(float, rng.uniform(-2.0, 2.0, size=3)))
        pairs = (
            (compose(compose(g1, g2), g3).params(), compose(g1, compose(g2, g3)).params()),
            (compose(g1, inverse(g1)).params(), ident),
            (compose(inverse(g1), g1).params(), ident),
            (act_point(compose(g1, g2), p), act_point(g1, act_point(g2, p))),
        )
        yield _worst(_rel(a, b) for lhs, rhs in pairs for a, b in zip(lhs, rhs))


def _suite_determining_eqs(rng, samples, order):
    fields = list(VectorField.basis())
    for i in range(samples):
        v = fields[i % 4] if i % 2 == 0 else VectorField(*map(float, rng.uniform(-2, 2, size=4)))
        t, x, u = map(float, rng.uniform(-2.0, 2.0, size=3))
        yield _worst(abs(r) for r in determining_equation_residuals(v, t, x, u))


def _suite_equivariance(rng, samples, order):
    for i in range(samples):
        branch = 1 if i % 2 == 0 else -1
        g = random_group_element(rng)
        defects = []
        for kind in _KINDS:
            if i % 4 < 2:
                jet = random_free_jet(
                    rng,
                    order,
                    t_branch=branch if kind is FrameKind.T_NORMALIZED else None,
                    x_branch=branch if kind is FrameKind.X_NORMALIZED else None,
                )
            else:
                sol, t0, x0 = random_soliton_point(rng, kind, branch)
                jet = jet_of_solution(sol, t0, x0, order)
            defects.append(equivariance_defect(jet, g, kind))
        yield _worst(defects)


def _suite_invariance(rng, samples, order):
    for i in range(samples):
        jet = _free_or_soliton_jet(rng, i, order)
        g = random_group_element(rng)
        yield _worst(map(_rel, _invariants(prolong_act(g, jet)), _invariants(jet)))


def _suite_phantom(rng, samples, order):
    for _ in range(samples):
        sol, t0, x0 = random_soliton_point(rng)
        jet = jet_of_solution(sol, t0, x0, 3)
        defects = []
        for kind in _KINDS:
            table = invariant_table(jet, kind, 3)
            defects += [abs(table.phantoms[name]) for name in ("t", "x", "u")]
            if kind is FrameKind.T_NORMALIZED:
                pivot, equation = table.value((1, 0)), table.branch + table.value((0, 3))
            else:
                pivot, equation = table.value((0, 1)), table.value((1, 0)) + table.value((0, 3))
            defects += [abs(pivot - table.branch), abs(equation)]
        yield _worst(defects)


def _suite_kdv_residual(rng, samples, order):
    for i in range(samples):
        pick = i % 3
        if pick == 0:
            sol, t0, x0 = random_soliton_point(rng)
        elif pick == 1:
            sol = Rational()
            t0 = float(rng.uniform(0.5, 2.0) * (1 if rng.uniform() < 0.5 else -1))
            x0 = float(rng.uniform(-2.0, 2.0))
        else:
            sol = Constant(u0=float(rng.uniform(-2.0, 2.0)))
            t0, x0 = map(float, rng.uniform(-2.0, 2.0, size=2))
        yield abs(kdv_residual(jet_of_solution(sol, t0, x0, 3)))


def _suite_recurrences(rng, samples, order):
    for i in range(samples):
        kind = _KINDS[i % 2]
        branch = 1 if i % 4 < 2 else -1
        sol, t0, x0 = random_soliton_point(rng, kind, branch)
        table = invariant_table(jet_of_solution(sol, t0, x0, 4), kind, 4)
        alphas = [alpha for alpha in multi_indices(3) if alpha not in ((0, 0), kind.pivot_alpha)]
        lhs = invariant_derivative(sol, t0, x0, alphas, kind)  # one germ for all, (t, x) pairs
        yield _worst(
            _rel(value, rhs)
            for alpha, pair in zip(alphas, lhs)
            for value, rhs in zip(pair, recurrence_rhs(table, alpha))
        )


def _suite_commutators(rng, samples, order):
    targets = ((0, 1), (0, 2), (1, 0))
    for _ in range(samples):
        sol, t0, x0 = random_soliton_point(rng)
        jet = jet_of_solution(sol, t0, x0, 2)
        defects = []
        for kind in _KINDS:
            table = invariant_table(jet, kind, 2)
            a_t, a_x = commutator_coefficients(table)
            for _, dt, dx, bracket in invariant_commutator(sol, t0, x0, targets, kind):
                defects.append(_rel(bracket, a_t * dt + a_x * dx))
        yield _worst(defects)


def _suite_reconstruction(rng, samples, order):
    # one sample per frame kind that finds a nondegenerate point
    for _ in range(samples):
        for kind in _KINDS:
            def attempt(kind=kind):
                sol, t0, x0 = random_soliton_point(rng, kind)
                return reconstruct_generators(sol, t0, x0, kind)

            pair = _retrying(attempt)
            if pair is not None:
                yield _rel(*pair)


def _suite_infinitesimal(rng, samples, order):
    # one lift per pair of basis fields gives pr v(I_alpha) for every alpha and both frames
    basis = VectorField.basis()
    for i in range(samples):
        jet = _free_or_soliton_jet(rng, i, min(order, 4))
        scales = [1.0 + abs(value) for value in _invariants(jet)]
        yield _worst(
            abs(d) / s
            for pair in (basis[:2], basis[2:])
            for derivatives in pr_v_apply(pair, _invariants, jet)
            for d, s in zip(derivatives, scales)
        )


def _suite_singular_sets(rng, samples, order):
    # u = x/t: the time-normalized pivot vanishes identically, the
    # space-normalized one equals 1/t and is regular with branch +1 for t > 0.
    # A near miss moves u_t by 1e-13 of the pivot's terms (~450 ulps): a real,
    # if small, pivot that the cancellation test must not call singular.
    sol = Rational()
    for i in range(max(samples, 5)):
        t0 = float(rng.uniform(0.3, 2.5)) * (1 if i % 3 else -1)
        x0 = float(rng.uniform(-2.0, 2.0))
        jet = jet_of_solution(sol, t0, x0, 1)
        defect = 0.0
        try:
            moving_frame(jet, FrameKind.T_NORMALIZED)
            defect = 1.0  # must be singular everywhere on this family
        except SingularFrameError:
            pass
        u, u_t, u_x = jet.u[(0, 0)], jet.u[(1, 0)], jet.u[(0, 1)]
        near_miss = Jet(1, t0, x0, {**jet.u, (1, 0): u_t + 1e-13 * (abs(u_t) + abs(u * u_x))})
        try:
            moving_frame(near_miss, FrameKind.T_NORMALIZED)
        except SingularFrameError:
            defect = 1.0
        if t0 > 0:
            try:
                if moving_frame(jet, FrameKind.X_NORMALIZED).branch != 1:
                    defect = 1.0
            except SingularFrameError:
                defect = 1.0
        yield defect


# the suites in report order, each with its default tolerance
_SUITES = {
    "group-axioms": (_suite_group_axioms, 1e-12),
    "determining-eqs": (_suite_determining_eqs, 1e-12),
    "equivariance": (_suite_equivariance, 1e-12),
    "invariance": (_suite_invariance, 1e-8),
    "phantom": (_suite_phantom, 1e-9),
    "kdv-residual": (_suite_kdv_residual, 1e-9),
    "recurrences": (_suite_recurrences, 1e-11),
    "commutators": (_suite_commutators, 1e-12),
    "reconstruction": (_suite_reconstruction, 1e-12),
    "infinitesimal": (_suite_infinitesimal, 1e-11),
    "singular-sets": (_suite_singular_sets, 0.0),
}
SUITES = tuple(_SUITES)
DEFAULT_TOLERANCES = {name: tolerance for name, (_, tolerance) in _SUITES.items()}


def run_suite(suites=("all",), seed=0, samples=100, order=6):
    """Run the requested suites and return one :class:`CheckReport` each.

    Deterministic: each suite derives its random stream from (seed, name),
    so identical configuration reproduces identical reports bit-for-bit.
    `samples` counts the defects a suite yielded and `max_defect` is their
    maximum.  No evidence is no pass: a NaN defect counts as inf, and a suite
    that yielded nothing reports inf, so either fails.
    """
    if isinstance(suites, str):
        suites = (suites,)
    names = list(SUITES) if "all" in suites else list(suites)
    if not names:
        raise UsageError(f"no suite requested; valid names: {list(SUITES)}")
    seed = _integer(seed, "seed", -math.inf, math.inf)
    samples = _integer(samples, "samples", 1, math.inf)
    order = _integer(order, "order", low=1)
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise UsageError(f"unknown suite(s) {unknown}; valid names: {list(SUITES)}")
    reports = []
    for name, (suite, tolerance) in _SUITES.items():  # canonical, deterministic ordering
        if name not in names:
            continue
        defects = [math.inf if math.isnan(d) else d for d in suite(_suite_rng(seed, name), samples, order)]
        max_defect = float(max(defects, default=math.inf))
        reports.append(
            CheckReport(
                name=name,
                samples=len(defects),
                max_defect=max_defect,
                tolerance=tolerance,
                passed=math.isfinite(max_defect) and max_defect <= tolerance,
                seed=seed,
            )
        )
    return reports
