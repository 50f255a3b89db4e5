"""Seeded inputs, operations and correctness checks of the benchmark workloads.

Inputs are drawn here, from the workload seed alone, with the standard
library's generator; the program only ever receives the drawn values.  Every
call into the program goes through a module attribute (``jf.solutions.x``,
never a name bound in this file), so that the tracer's wrappers see it.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("battery", "eval-o12", "eval-o4")
EVAL_ORDER = {"eval-o12": 12, "eval-o4": 4}

# One battery is the end-to-end `jetframe verify --suites all --samples 100 --order 6`.
BATTERY_SAMPLES = 100
BATTERY_ORDER = 6

# The eleven suites and their tolerances as the package defined them when this
# benchmark was written.  They are frozen here so that a later tightening or
# loosening of the package's own tolerances moves neither defect_ratio_max
# nor the correctness gate.
SUITES = (
    "group-axioms",
    "determining-eqs",
    "equivariance",
    "invariance",
    "phantom",
    "kdv-residual",
    "recurrences",
    "commutators",
    "reconstruction",
    "infinitesimal",
    "singular-sets",
)
FROZEN_TOLERANCES = {
    "group-axioms": 1e-12,
    "determining-eqs": 1e-12,
    "equivariance": 1e-9,
    "invariance": 1e-8,
    "phantom": 1e-9,
    "kdv-residual": 1e-9,
    "recurrences": 1e-6,
    "commutators": 1e-5,
    "reconstruction": 1e-5,
    "infinitesimal": 1e-6,
    "singular-sets": 0.0,
}

# The eval identities are the phantom suite's identities, so they share its tolerance.
IDENTITY_TOL = FROZEN_TOLERANCES["phantom"]

SWEEP_SIZE = 64
# (solution, frame, branch) mix of one sweep, repeated SWEEP_SIZE // 16 times
# and shuffled.  The rational solution u = x/t appears with the x frame only:
# its time pivot u_t + u*u_x vanishes identically.
_MIX = (
    [("soliton", f, b) for f in ("t", "x") for b in (1, -1)] * 3
    + [("rational", "x", b) for b in (1, -1)] * 2
)

# The soliton's time pivot vanishes where 3*sech(theta)^2 = 1.
_THETA_STAR = math.acosh(math.sqrt(3.0))


class ProgramMissing(RuntimeError):
    """The checkout holds no importable copy of the program's source."""


def load_program(root):
    """Import ``jetframe`` from ``<root>/src`` and nowhere else."""
    src = Path(root) / "src"
    if not (src / "jetframe" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source at {src / 'jetframe'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    jf = importlib.import_module("jetframe")
    if Path(jf.__file__).resolve().parent != (src / "jetframe").resolve():
        raise ProgramMissing(f"jetframe imported from {jf.__file__}, not from {src}")
    for name in ("taylor", "solutions", "jets", "group", "frame", "invariants", "verify", "cli"):
        try:
            importlib.import_module(f"jetframe.{name}")
        except ModuleNotFoundError:
            pass  # a layer merged away reads 0 in the trace
    return jf


@dataclass(frozen=True)
class EvalInput:
    """One point of an exact solution, with the frame and the branch it must give."""

    solution: str
    c: float
    phase: float
    t0: float
    x0: float
    frame: str
    branch: int


def _soliton_theta(rng, frame, branch):
    # phase-variable bands where both pivots are far from zero
    mag = rng.uniform(0.25, 2.0)
    while abs(mag - _THETA_STAR) < 0.22:
        mag = rng.uniform(0.25, 2.0)
    if frame == "x":
        return -branch * mag  # u_x has the sign of -theta
    crest_side = 1 if mag < _THETA_STAR else -1  # sign of u - c
    return -branch * crest_side * mag


def eval_inputs(seed):
    """The SWEEP_SIZE inputs of one eval sweep, a function of `seed` only."""
    rng = random.Random(f"jetframe-bench-eval:{seed}")
    mix = _MIX * (SWEEP_SIZE // len(_MIX))
    rng.shuffle(mix)
    out = []
    for solution, frame, branch in mix:
        if solution == "soliton":
            c, phase = rng.uniform(0.6, 1.6), rng.uniform(-1.0, 1.0)
            theta = _soliton_theta(rng, frame, branch)
            t0 = rng.uniform(-1.0, 1.0)
            x0 = theta / (0.5 * math.sqrt(c)) + c * t0 + phase
        else:
            c = phase = 0.0
            t0 = branch * rng.uniform(0.5, 2.0)  # u_x = 1/t
            x0 = rng.uniform(-2.0, 2.0)
        out.append(EvalInput(solution, c, phase, t0, x0, frame, branch))
    return out


def eval_records(inp, order, table):
    """The records an eval emits: one meta record and one per invariant."""
    records = [
        {
            "record": "meta",
            "solution": inp.solution,
            "t0": inp.t0,
            "x0": inp.x0,
            "frame": inp.frame,
            "order": order,
            "branch": table.branch,
        }
    ]
    for (a1, a2), value in table.values.items():
        records.append({"record": "invariant", "alpha1": a1, "alpha2": a2, "value": value})
    return records


def eval_op(jf, inp, order):
    """One eval: jet -> moving frame -> invariant table -> records -> JSON round trip."""
    if inp.solution == "soliton":
        sol = jf.solutions.Soliton(c=inp.c, phase=inp.phase)
    else:
        sol = jf.solutions.Rational()
    kind = jf.frame.FrameKind(inp.frame)
    jet = jf.solutions.jet_of_solution(sol, inp.t0, inp.x0, order)
    frame = jf.frame.moving_frame(jet, kind)
    table = jf.invariants.invariant_table(jet, kind, order)
    records = eval_records(inp, order, table)
    parsed = jf.cli.parse_json_lines(jf.cli.format_json_lines(records))
    return frame.branch, records, parsed


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check_eval(inp, order, branch, records, parsed):
    """Raise CheckFailed unless the eval output is right; return its identity defect.

    The defect is the worst of |I10 + I03| (x frame) or |branch + I03|
    (t frame), the invariantized equation on solutions, and of
    |pivot entry - branch|, the normalization itself.  It is read from the
    parsed records, which are what a user of the output sees.
    """
    if parsed != records:
        raise CheckFailed("JSON lines do not round-trip")
    if branch != inp.branch or parsed[0].get("branch") != inp.branch:
        raise CheckFailed(f"branch {branch} for an input drawn on branch {inp.branch}")
    values = {
        (r["alpha1"], r["alpha2"]): r["value"] for r in parsed if r.get("record") == "invariant"
    }
    if len(values) != (order + 1) * (order + 2) // 2:
        raise CheckFailed(f"{len(values)} invariants for order {order}")
    if not all(isinstance(v, float) and math.isfinite(v) for v in values.values()):
        raise CheckFailed("non-finite invariant")
    if values[(0, 0)] != 0.0:
        raise CheckFailed("invariantized u is not zero")
    b = float(inp.branch)
    if inp.frame == "x":
        defect = max(abs(values[(1, 0)] + values[(0, 3)]), abs(values[(0, 1)] - b))
    else:
        defect = max(abs(b + values[(0, 3)]), abs(values[(1, 0)] - b))
    if not defect <= IDENTITY_TOL:
        raise CheckFailed(f"identity defect {defect!r} above {IDENTITY_TOL}")
    return defect


def run_suites(jf, seed, suites):
    """Suites of the battery, as ``run_suite(("all",), ...)`` runs them when `suites` is all."""
    return jf.verify.run_suite(suites, seed=seed, samples=BATTERY_SAMPLES, order=BATTERY_ORDER)


def battery_failures(reports, expected):
    """Number of suites in `expected` that failed, counting a missing suite as failed.

    A suite fails if the package says so, or if its defect exceeds the frozen
    tolerance, or if it checked no sample.
    """
    by_name = {r.name: r for r in reports}
    failed = 0
    for name in expected:
        r = by_name.get(name)
        if r is None or not r.passed or r.samples < 1 or not r.max_defect <= FROZEN_TOLERANCES[name]:
            failed += 1
    return failed


def gate_self_test(jf, seed):
    """Feed the checks outputs known to be wrong; return the ones they let through.

    Run before every measurement so that a check which cannot fail is caught
    at once instead of passing every op.
    """
    inp = eval_inputs(seed)[0]
    order = 4
    branch, records, parsed = eval_op(jf, inp, order)

    def perturbed_invariant(recs, alpha, delta):
        out = [dict(r) for r in recs]
        for r in out:
            if r.get("record") == "invariant" and (r["alpha1"], r["alpha2"]) == alpha:
                r["value"] += delta
        return out

    def lossy_round_trip(recs):
        # what a formatter printing 9 significant digits would give back
        return [
            {k: (float(f"{v:.9g}") if isinstance(v, float) else v) for k, v in r.items()}
            for r in recs
        ]

    bad = perturbed_invariant(parsed, (0, 3), 1e-6)
    cases = {
        "perturbed I03": (branch, bad, bad),
        "lossy JSON round trip": (branch, records, lossy_round_trip(records)),
        "wrong branch": (-branch, records, parsed),
        "missing invariant": (branch, records[:-1], parsed[:-1]),
    }
    let_through = []
    for what, (b, recs, back) in cases.items():
        try:
            check_eval(inp, order, b, recs, back)
            let_through.append(what)
        except CheckFailed:
            pass
    reports = run_suites(jf, seed, ("group-axioms",))
    bad_reports = {
        "failing suite report": [dataclasses.replace(reports[0], passed=False)],
        "suite defect above the frozen tolerance": [dataclasses.replace(reports[0], max_defect=1.0)],
        "missing suite": [],
    }
    for what, bad in bad_reports.items():
        if battery_failures(bad, ("group-axioms",)) != 1:
            let_through.append(what)
    return let_through


def setup(jf, workload, seed):
    """Everything a fresh process does before its first timed op: inputs and warm-up."""
    jf.cli.build_parser()  # a CLI process builds its parser once
    if workload == "battery":
        # one sample per suite runs every code path of the battery once
        jf.verify.run_suite(("all",), seed=seed, samples=1, order=BATTERY_ORDER)
        return None
    order = EVAL_ORDER[workload]
    inputs = eval_inputs(seed)
    seen = set()
    for inp in inputs:
        key = (inp.solution, inp.frame, inp.branch)
        if key not in seen:
            seen.add(key)
            eval_op(jf, inp, order)
    return inputs

