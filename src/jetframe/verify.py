"""Seeded property-check suites binding every identity to a pass/fail report.

Each suite draws its own deterministic random stream from (seed, suite name),
evaluates a battery of sample points and reports the worst defect against a
tolerance.  Two jet generators are used: unconstrained random jets (the
algebraic identities hold on the whole jet space) and jets of exact catalog
solutions (the invariantized-equation identities hold only on solutions).
Only reconstruction retries a draw: a singular or degenerate point is
drawn again a bounded number of times (:func:`_retrying`), and a sample
that finds no admissible point is not counted, so the report's sample
count shows the shortfall.  Every other suite draws away from the singular
sets, and a typed error there is not retried: it ends the run.  A NaN
defect, or a suite that checked nothing, fails.

Every suite that reads solution points (equivariance, invariance, phantom,
kdv-residual, recurrences, commutators, reconstruction and infinitesimal)
draws first and evaluates second, in stacks of at most :data:`_STACK`
samples (:func:`_stacked`).  The draw pass makes the random calls of the
loop over samples: it draws each solution point (solution, t0, x0), free
jet and group element.  The evaluate pass expands the stack's points of
each kind of use in one pass (:func:`_solution_jets`,
or a germ stack of each frame kind), then runs the germ calculus on the
stack, or moves the stack's jets in one
:func:`~jetframe.group.prolong_act`, lifts them in one
:func:`~jetframe.group.pr_v_apply` per pair of basis fields and takes each
frame's invariants of them, floats or a lift's series, in one
:func:`~jetframe.invariants.normalized_invariant` call on the stack
(:func:`_invariants`).  Equivariance and phantom pass each stack to the public
:func:`~jetframe.frame.equivariance_defect` and
:func:`~jetframe.invariants.invariant_table` once per frame kind, the
time-normalized frame first, as a sample takes them; every point is bit
for bit its own call.  Only kdv-residual still evaluates each sample's jet
through :func:`~jetframe.solutions.kdv_residual`.  A typed error anywhere
in a stack replays it one sample at a time from the generator state its
draws began at, retries included, so no report depends on the stacking.
Only singular-sets stays a loop over samples, through
:func:`~jetframe.solutions.jet_of_solution`.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePointError, JetFrameError, SingularFrameError, UsageError
from .frame import FrameKind, _require_kind, equivariance_defect, moving_frame
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
    SolutionGerm,
    _bracket,
    _recurrence,
    _relations,
    invariant_commutator,
    invariant_derivative,
    invariant_table,
    normalized_invariant,
    reconstruct_generators,
)
from .jets import Jet, multi_indices
from .solutions import Constant, Rational, Soliton, jet_of_solution, kdv_residual
from .taylor import _integer, _pos

_KINDS = tuple(FrameKind)
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


def random_free_jet(rng, order, kind=None, branch=None):
    """Unconstrained random jet with both pivots bounded away from zero.

    A `branch` forces the sign of the pivot of `kind` (u_t + u*u_x or u_x);
    every other pivot sign is random.
    """
    if branch is not None:
        _require_kind(kind)
    values = rng.uniform(-_JET_BOUND, _JET_BOUND, size=len(multi_indices(order)))  # in storage order
    sx, st = (
        branch if k is kind and branch is not None else (1 if rng.uniform() < 0.5 else -1)
        for k in (FrameKind.X_NORMALIZED, FrameKind.T_NORMALIZED)
    )
    u, u_x, u_t = (_pos(*alpha) for alpha in ((0, 0), (0, 1), (1, 0)))
    values[u_x] = sx * float(rng.uniform(_MIN_PIVOT, _JET_BOUND))
    pivot = st * float(rng.uniform(_MIN_PIVOT, _JET_BOUND))
    values[u_t] = pivot - values[u] * values[u_x]
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
    if branch is not None:
        _require_kind(kind)
        # u_x has the opposite sign of theta; the time pivot's sign is
        # sign(u - c) * sign(u_x) = crest_side * (-sign(theta))
        crest_side = 1.0 if kind is FrameKind.X_NORMALIZED or mag < _THETA_STAR else -1.0
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


def _invariants(jets):
    """Every I_alpha of both frames up to the jets' order at each of `jets`, frame-major: one row per jet.

    The jets share one order, and their entries are floats or the series of
    a lift (:func:`~jetframe.group.pr_v_apply`).  Each frame's invariants of
    them all are one :func:`~jetframe.invariants.normalized_invariant` call
    on the stack, whose rows are floats or the coefficient rows of a lift's
    series, each bit for bit that function's call at that jet.
    """
    alphas = multi_indices(jets[0].order)
    return np.concatenate([normalized_invariant(jets, alphas, kind, _dense=True) for kind in _KINDS], axis=1)


def _draw_jet(rng, free, order, kind=None, branch=None):
    """A free jet, or a soliton point (solution, t0, x0) to expand (:func:`_jets`).

    A `branch` of `kind` is forced as in :func:`random_free_jet`.
    """
    if free:
        return random_free_jet(rng, order, kind, branch)
    return random_soliton_point(rng, kind, branch)


def _solution_jets(points, order):
    """The float jets of order `order` at the (solution, t0, x0) `points`, read off one stack of germs."""
    return SolutionGerm._expanded(points, order).jet(order) if points else []


def _jets(draws, order):
    """The jets of `draws`: each free jet as it is, and the jets of order `order` at the solution points.

    The points are expanded in one pass (:func:`_solution_jets`).
    """
    jets = iter(_solution_jets([d for d in draws if not isinstance(d, Jet)], order))
    return [d if isinstance(d, Jet) else next(jets) for d in draws]


def _branch(jet, kind):
    """The branch of the frame of `kind` at `jet`, or None where that frame is singular."""
    try:
        return moving_frame(jet, kind).branch
    except SingularFrameError:
        return None


def _worst(defects):
    """Largest of one sample's defects; NaN if any of them is NaN."""
    return float(np.max(np.fromiter(defects, dtype=float)))


def _rels(a, b):
    """:func:`_rel` of arrays of floats, entry by entry, as silent as on Python floats."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(a - b) / np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))


# the most samples one stack draws and evaluates: a constant, so that the
# memory of an evaluate pass does not grow with the sample count
_STACK = 128


def _stacked(rng, samples, draw, evaluate, replay=None):
    """The defects of `samples` samples, drawn and evaluated a stack at a time.

    A stack draws its samples first, ``draw(rng, i)`` for each sample i in
    order, then ``evaluate(draws)`` gives their defects, all at once.  A
    typed error anywhere in a stack rewinds `rng` to where its draws began
    and replays the stack one sample at a time: ``replay(rng, i)`` yields
    sample i's defects, by default those of a stack of that sample alone.
    The replay meets each sample as the loop over samples does, and yields
    each sample's defects before the next sample is drawn, so neither the
    defects nor a typed error that ends them depend on the stacking.
    """
    if replay is None:
        def replay(rng, i):
            return evaluate([draw(rng, i)])

    for start in range(0, samples, _STACK):
        stack = range(start, min(start + _STACK, samples))
        state = rng.bit_generator.state
        try:
            defects = evaluate([draw(rng, i) for i in stack])
        except JetFrameError:
            rng.bit_generator.state = state
            defects = (defect for i in stack for defect in replay(rng, i))
        yield from defects


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
    def draw(rng, i):
        branch = 1 if i % 2 == 0 else -1
        g = random_group_element(rng)
        return g, [_draw_jet(rng, i % 4 < 2, order, kind, branch) for kind in _KINDS]

    def evaluate(draws):
        elements = [g for g, _ in draws]
        jets = _jets([d for _, pair in draws for d in pair], order)  # sample-major, one per kind
        defects = [equivariance_defect(jets[k :: len(_KINDS)], elements, kind) for k, kind in enumerate(_KINDS)]
        return [_worst(pair) for pair in zip(*defects)]

    return _stacked(rng, samples, draw, evaluate)


def _suite_invariance(rng, samples, order):
    def draw(rng, i):
        return _draw_jet(rng, i % 2 == 0, order), random_group_element(rng)

    def evaluate(draws):
        jets, elements = zip(*draws)
        jets = _jets(jets, order)
        return np.max(_rels(_invariants(prolong_act(elements, jets)), _invariants(jets)), axis=1).tolist()

    return _stacked(rng, samples, draw, evaluate)


def _phantom_defects(table):
    """The phantom, pivot and invariantized-equation defects of one frame's order-3 table."""
    kind = table.kind
    lhs = table.branch if kind is FrameKind.T_NORMALIZED else table.value((1, 0))
    equation = lhs + table.value((0, 3))
    return [abs(table.phantoms[name]) for name in ("t", "x", "u")] + [
        abs(table.value(kind.pivot_alpha) - table.branch),
        abs(equation),
    ]


def _suite_phantom(rng, samples, order):
    def draw(rng, i):
        return random_soliton_point(rng)

    def evaluate(points):
        jets = _solution_jets(points, 3)
        tables = [invariant_table(jets, kind, 3) for kind in _KINDS]  # one stack per frame kind
        return [_worst(d for table in pair for d in _phantom_defects(table)) for pair in zip(*tables)]

    return _stacked(rng, samples, draw, evaluate)


def _suite_kdv_residual(rng, samples, order):
    def draw(rng, i):
        pick = i % 3
        if pick == 0:
            return random_soliton_point(rng)
        if pick == 1:
            t0 = float(rng.uniform(0.5, 2.0) * (1 if rng.uniform() < 0.5 else -1))
            return Rational(), t0, float(rng.uniform(-2.0, 2.0))
        sol = Constant(u0=float(rng.uniform(-2.0, 2.0)))
        t0, x0 = map(float, rng.uniform(-2.0, 2.0, size=2))
        return sol, t0, x0

    def evaluate(points):
        return [abs(kdv_residual(jet)) for jet in _solution_jets(points, 3)]

    return _stacked(rng, samples, draw, evaluate)


def _suite_recurrences(rng, samples, order):
    def draw(rng, i):
        kind = _KINDS[i % 2]
        branch = 1 if i % 4 < 2 else -1
        return kind, random_soliton_point(rng, kind, branch)

    def evaluate(draws):
        defects = np.empty(len(draws))
        for kind in _KINDS:
            at = [j for j, (k, _) in enumerate(draws) if k is kind]
            if not at:
                continue
            germ = SolutionGerm._expanded([draws[j][1] for j in at], 4)
            alphas = [alpha for alpha in multi_indices(3) if alpha not in ((0, 0), kind.pivot_alpha)]
            # the calculus first: it builds the germ's frame record, whose pivots the table then reads
            lhs = invariant_derivative(germ, alphas, kind)  # (points, alphas, 2)
            rows = germ._tables(kind, 4)
            R, etas = _relations(kind, rows, 4)
            rhs = np.array([_recurrence(rows, alpha, R, etas) for alpha in alphas]).transpose(2, 0, 1)
            defects[at] = np.max(_rels(lhs, rhs), axis=(1, 2))
        return defects.tolist()

    return _stacked(rng, samples, draw, evaluate)


def _suite_commutators(rng, samples, order):
    targets = ((0, 1), (0, 2), (1, 0))

    def draw(rng, i):
        return random_soliton_point(rng)

    def evaluate(points):
        germ = SolutionGerm._expanded(points, 4)  # serves both frames and the jet
        defects = []
        for kind in _KINDS:
            _, dt, dx, bracket = invariant_commutator(germ, targets, kind).T  # one column per point
            a_t, a_x = _bracket(kind, _relations(kind, germ._tables(kind, 2), 2)[0])  # reads the frame record just built
            defects.append(_rels(bracket, a_t * dt + a_x * dx))
        return np.max(np.concatenate(defects), axis=0).tolist()

    return _stacked(rng, samples, draw, evaluate)


def _suite_reconstruction(rng, samples, order):
    # one sample per frame kind that finds a nondegenerate point
    def draw(rng, i):
        return [random_soliton_point(rng) for _ in _KINDS]

    def evaluate(draws):
        stacks = [SolutionGerm._expanded(points, 3) for points in zip(*draws)]  # one per frame kind
        pairs = np.stack([reconstruct_generators(germ, kind) for germ, kind in zip(stacks, _KINDS)], axis=1)
        return _rels(pairs[..., 0], pairs[..., 1]).ravel().tolist()  # point-major, as the loop over samples

    def replay(rng, i):
        for kind in _KINDS:
            def attempt(kind=kind):
                return reconstruct_generators(SolutionGerm(*random_soliton_point(rng), 3), kind)

            pair = _retrying(attempt)
            if pair is not None:
                yield _rel(*pair)

    return _stacked(rng, samples, draw, evaluate, replay)


def _suite_infinitesimal(rng, samples, order):
    # one lift per pair of basis fields gives pr v(I_alpha) for every alpha and both frames
    basis = VectorField.basis()

    def draw(rng, i):
        return _draw_jet(rng, i % 2 == 0, min(order, 4))

    def evaluate(draws):
        jets = _jets(draws, min(order, 4))
        scales = 1.0 + np.abs(_invariants(jets))  # one row per jet
        derivatives = np.array([pr_v_apply(pair, _invariants, jets) for pair in (basis[:2], basis[2:])])
        return np.max(np.abs(derivatives) / scales[:, None], axis=(0, 2, 3)).tolist()

    return _stacked(rng, samples, draw, evaluate)


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
        u, u_t, u_x = jet.u[(0, 0)], jet.u[(1, 0)], jet.u[(0, 1)]
        near_miss = Jet(1, t0, x0, {**jet.u, (1, 0): u_t + 1e-13 * (abs(u_t) + abs(u * u_x))})
        expected = (
            _branch(jet, FrameKind.T_NORMALIZED) is None  # singular everywhere on this family
            and _branch(near_miss, FrameKind.T_NORMALIZED) is not None
            and (t0 <= 0 or _branch(jet, FrameKind.X_NORMALIZED) == 1)
        )
        yield 0.0 if expected else 1.0


# the suites in report order, each with its default tolerance
_SUITES = {
    "group-axioms": (_suite_group_axioms, 1e-12),
    "determining-eqs": (_suite_determining_eqs, 1e-12),
    "equivariance": (_suite_equivariance, 1e-12),
    "invariance": (_suite_invariance, 1e-8),
    "phantom": (_suite_phantom, 1e-12),
    "kdv-residual": (_suite_kdv_residual, 1e-12),
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
    names = list(suites)
    if not names:
        raise UsageError(f"no suite requested; valid names: {list(SUITES)}")
    seed = _integer(seed, "seed", -math.inf, math.inf)
    samples = _integer(samples, "samples", 1, math.inf)
    order = _integer(order, "order", low=1)
    unknown = [n for n in names if n != "all" and n not in _SUITES]
    if unknown:
        raise UsageError(f"unknown suite(s) {unknown}; valid names: {list(SUITES)}")
    if "all" in names:
        names = SUITES
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
