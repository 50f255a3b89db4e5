"""Benchmark of jetframe: one closed-loop workload per run, outputs checked.

    python3 bench/run.py --workload battery --seed 0 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory and from nowhere else.  Each run has one caller in one
single-threaded process: an op starts when the previous one has returned.

* ``--trace 0`` times the workload for ``--seconds`` seconds with tracing off
  and prints the end-to-end metrics.
* ``--trace 1`` runs a fixed unit of the workload twice, untraced and then
  with spans around every public function (see ``tracer.py``), and prints
  the per-layer metrics.  Its counts depend only on the seed.

Lines starting with ``#`` record the host and the per-batch timings; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit codes: 0 measured (even if an output was
wrong, which ``correct`` reports), 1 unexpected error, 2 no program source
in this checkout, 3 a correctness check let a known-wrong output through.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = wl.WORKLOADS
EVALS = ("eval-o12", "eval-o4")

SETUP_PROBES = 7
# calib_ms() on the reference host (Intel Xeon, 2 vCPUs, Python 3.11.7) in its fast state
HOST_REF_MS = 3.7
# start-up time of a bare interpreter on the same host, in seconds
BARE_REF_S = 0.05
# eval ops are scaled in chunks of about this much op time, so that few of
# them share a chunk with a change of host state
PROBE_EVERY_S = 0.03
KERNEL_ORDERS = (4, 8, 12, 16)
# eval sweeps in one traced unit; a battery unit is one battery
TRACE_SWEEPS = {"eval-o12": 2, "eval-o4": 16}

E2E_METRICS = (
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# span -> the workloads that must exercise it (checked by test_bench.py)
SPANS = {
    "taylor.mul": WORKLOADS,
    "taylor.analytic": WORKLOADS,
    "solutions.jet_of_solution": WORKLOADS,
    "solutions.series": WORKLOADS,
    "group.prolong_act": ("battery",),
    "group.pr_v_apply": ("battery",),
    "frame.moving_frame": WORKLOADS,
    "invariants.normalized_invariant": WORKLOADS,
    "invariants.invariant_table": WORKLOADS,
    "invariants.SolutionGerm.invariant_series": ("battery",),
    "invariants.SolutionGerm.differentiate": ("battery",),
    "invariants.invariant_derivative": ("battery",),
    "invariants.invariant_commutator": ("battery",),
    "invariants.reconstruct_generators": ("battery",),
    "cli.format_json_lines": EVALS,
    "cli.parse_json_lines": EVALS,
}
# spans an eval never enters: the prediction for the evals is no change
UNUSED_BY_EVALS = ("group.prolong_act", "group.pr_v_apply", "verify.run_suite")

PER_LAYER_METRICS = (
    tuple((f"{span}.{stat}", unit) for span in SPANS for stat, unit in (("calls", "count"), ("self_s", "s")))
    + (
        ("jets.Jet.constructions", "count"),
        ("jets.Jet.init_s", "s"),
        ("taylor.mul.flops", "count"),
        ("taylor.series.allocs", "count"),
    )
    + tuple((f"taylor.{k}_us.M{m}", "us") for k in ("mul", "sech") for m in KERNEL_ORDERS)
    + tuple((f"verify.{s}.{stat}", unit) for s in wl.SUITES for stat, unit in (("s", "s"), ("max_defect", "abs")))
    + (
        ("verify.retries", "count"),
        ("trace.overhead_s", "s"),
        ("defect_ratio_max", "ratio"),
        ("identity_defect_max", "abs"),
        ("failed_frac", "ratio"),
        ("host.calib_ms", "ms"),
    )
)

clock = time.perf_counter


# -- host record ---------------------------------------------------------------


_CALIB_RECORDS = [
    {"record": "invariant", "alpha1": i, "alpha2": j, "value": 0.1 * i - 0.37 * j + 1e-3}
    for i in range(8)
    for j in range(8)
]


def calib_ms():
    """Time of a fixed pure-Python reference workload, in ms.

    It builds dicts keyed by tuples, takes float powers and round-trips JSON
    records, the same mix of work as the program.  The host of this
    benchmark switches between a fast and a slow state (neighbours sharing
    the core) for spells of one to tens of seconds; in the slow state the
    program and this loop both slow down by about 1.75x, while an
    integer-only loop slows by only 1.45x.
    """
    start = clock()
    for _ in range(20):
        d = {(i, j): float(i * j) + 0.5 for i in range(12) for j in range(12)}
        acc = 0.0
        for (i, j), v in d.items():
            acc += v**1.5 if i > j else -v
        json.loads(json.dumps(_CALIB_RECORDS))
    return (clock() - start) * 1e3


class HostSpeed:
    """Host-speed probes around timed batches, to express their times at reference speed.

    A batch timed between two probes is scaled by HOST_REF_MS over the mean
    of the two probes, so the same work reads the same in the fast and the
    slow host state.  The raw times are recorded next to the scaled ones.
    """

    def __init__(self):
        self.samples_ms = [calib_ms()]

    def factor(self):
        """Probe once more; the scale factor for a batch timed since the previous probe."""
        self.samples_ms.append(calib_ms())
        return HOST_REF_MS / (0.5 * (self.samples_ms[-2] + self.samples_ms[-1]))


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},  # look no higher
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"  # not a git checkout of its own
    return lines[1]


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "jetframe").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_info():
    import numpy

    return {
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


# -- statistics ----------------------------------------------------------------


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def tail_percentile(n):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it, else the median."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100.0 >= 10:
            return p
    return 50


# -- workload runs -------------------------------------------------------------


class Outcome:
    """Counts and defects of the ops one phase ran."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self.identity_defect_max = 0.0
        self.reports = []

    def fail(self, what):
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = what


def _eval_once(jf, inp, order, outcome):
    """Run and check one eval op; return its latency in seconds, or None if it raised."""
    outcome.attempted += 1
    start = clock()
    try:
        branch, records, parsed = wl.eval_op(jf, inp, order)
    except Exception:  # an op that raises is a failed op; the loop goes on
        outcome.fail(f"{inp}: {traceback.format_exc()}")
        return None
    elapsed = clock() - start
    try:
        defect = wl.check_eval(inp, order, branch, records, parsed)
        outcome.identity_defect_max = max(outcome.identity_defect_max, defect)
    except wl.CheckFailed as exc:
        outcome.fail(f"{inp}: {exc}")
    return elapsed


def _suite_once(jf, seed, name, outcome):
    """Run and check one suite of the battery; return its time in seconds."""
    outcome.attempted += 1
    start = clock()
    reports = wl.run_suites(jf, seed, (name,))
    elapsed = clock() - start
    if wl.battery_failures(reports, (name,)):
        outcome.fail(f"suite {name} failed: {reports}")
    outcome.reports.extend(reports)
    return elapsed


def _process_s(cmd):
    start = clock()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr}")
    return clock() - start


def probe_setup(workload, seed):
    """Raw and scaled seconds from a fresh interpreter to ready, for one fresh process.

    Set-up is mostly process start-up and imports, which the host's state
    slows differently from interpreted work: by 1.29x where calib_ms() slows
    by about 1.6x.  So it is scaled instead by the start-up time of a bare
    interpreter, timed just before and just after it.  Over 108 processes
    this cut the spread of set-up times from 28% to 10%.
    """
    bare = [sys.executable, "-c", "pass"]
    before = _process_s(bare)
    elapsed = _process_s([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                          "--workload", workload, "--seed", str(seed)])
    after = _process_s(bare)
    return elapsed, elapsed * BARE_REF_S / (0.5 * (before + after))


def timed_run(jf, workload, seed, seconds):
    """Closed loop for `seconds`: the end-to-end metrics, tracing off.

    A battery is timed one suite call at a time and an eval sweep about
    PROBE_EVERY_S of op time at a time; each such piece is scaled to
    reference host speed by the probes around it.

    The SETUP_PROBES fresh processes that measure set-up are spread evenly
    over the run, between batches, so that each run's median mixes the host
    states of the run instead of taking whichever state it began in.
    """
    setup = []  # (raw, scaled) seconds per set-up process
    inputs = wl.setup(jf, workload, seed)
    outcome = Outcome()
    speed = HostSpeed()
    raw_batches, batches = [], []  # seconds per battery or per sweep
    latencies = []  # scaled seconds per eval op
    start = clock()
    end = start + seconds
    while not batches or clock() < end:
        due = start + len(setup) * seconds / SETUP_PROBES
        if len(setup) < SETUP_PROBES and clock() >= due:
            setup.append(probe_setup(workload, seed))
            speed.factor()  # the probe process ran since the last host-speed probe
        raw = scaled = 0.0
        if workload == "battery":
            for name in wl.SUITES:
                elapsed = _suite_once(jf, seed, name, outcome)
                raw += elapsed
                scaled += elapsed * speed.factor()
        else:
            chunk = []
            for i, inp in enumerate(inputs):
                latency = _eval_once(jf, inp, wl.EVAL_ORDER[workload], outcome)
                if latency is not None:
                    chunk.append(latency)
                if sum(chunk) >= PROBE_EVERY_S or i == len(inputs) - 1:
                    factor = speed.factor()
                    raw += sum(chunk)
                    scaled += sum(chunk) * factor
                    latencies.extend(t * factor for t in chunk)
                    chunk.clear()
        raw_batches.append(raw)
        batches.append(scaled)
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(workload, seed))
    setup_raw = [raw for raw, _ in setup]

    wall = statistics.median(batches)
    if workload == "battery":
        ops_per_batch, unit = 1, "batteries"
        p50 = p99 = wall
        tail_note = f"no tail with {len(batches)} batteries; as op_p50_ms"
        p50_note = f"median of {len(batches)} batteries"
    else:
        ops_per_batch, unit = len(inputs), "sweeps"
        tail = tail_percentile(len(latencies))
        p50, p99 = percentile(latencies, 50), percentile(latencies, tail)
        tail_note = f"p{tail} of n={len(latencies)} ops"
        p50_note = f"n={len(latencies)} ops"
    metrics = {
        "wall_s": wall,
        "ops_per_s": ops_per_batch / wall,
        "op_p50_ms": 1e3 * p50,
        "op_p99_ms": 1e3 * p99,
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "wall_s": f"median of {len(batches)} {unit}; raw median {statistics.median(raw_batches):.6g} s",
        "ops_per_s": f"{ops_per_batch} ops per batch / wall_s",
        "op_p50_ms": p50_note,
        "op_p99_ms": tail_note,
        "setup_s": f"median of {len(setup)} fresh processes spread over the run; raw median {statistics.median(setup_raw):.6g} s",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    record = {
        "raw_batches_s": raw_batches,
        "batches_s": batches,
        "setup_raw_s": setup_raw,
        "calib_ms": speed.samples_ms,
        "identity_defect_max": outcome.identity_defect_max,
    }
    return metrics, notes, outcome, record


def run_unit(jf, workload, seed, inputs, outcome, speed):
    """The fixed unit a traced run measures: its time and its suites' times, scaled."""
    speed.factor()
    suite_s = {}
    if workload == "battery":
        for name in wl.SUITES:
            suite_s[name] = _suite_once(jf, seed, name, outcome) * speed.factor()
        return sum(suite_s.values()), suite_s
    start = clock()
    for _ in range(TRACE_SWEEPS[workload]):
        for inp in inputs:
            _eval_once(jf, inp, wl.EVAL_ORDER[workload], outcome)
    return (clock() - start) * speed.factor(), suite_s


def _median_call_us(fn, budget_s=0.15, min_calls=7):
    times = []
    end = clock() + budget_s
    while len(times) < min_calls or clock() < end:
        start = clock()
        fn()
        times.append(clock() - start)
    return 1e6 * statistics.median(times)


def kernel_sweep(jf, seed):
    """Series product and sech composition alone, at the sizes of the Taylor layer."""
    rng = random.Random(f"jetframe-bench-kernels:{seed}")
    TS = jf.taylor.TruncatedSeries
    out = {}
    for m in KERNEL_ORDERS:
        n = tracing.triangle_size(m)
        a = TS(m, [rng.uniform(-1.0, 1.0) for _ in range(n)])
        b = TS(m, [rng.uniform(-1.0, 1.0) for _ in range(n)])
        out[f"taylor.mul_us.M{m}"] = _median_call_us(lambda: a * b)
        out[f"taylor.sech_us.M{m}"] = _median_call_us(lambda: jf.taylor.series_sech(a))
    return out


def traced_run(jf, workload, seed):
    """One untraced and one traced unit of the workload: the per-layer metrics."""
    inputs = wl.setup(jf, workload, seed)
    speed = HostSpeed()
    metrics = kernel_sweep(jf, seed)
    outcome = Outcome()  # counts both units; their outputs are identical
    untraced_s, suite_s = run_unit(jf, workload, seed, inputs, outcome, speed)
    tracer = tracing.Tracer()
    with tracer:
        traced_s, _ = run_unit(jf, workload, seed, inputs, outcome, speed)

    totals = tracer.totals()
    empty = {"calls": 0, "self_s": 0.0, "raised": 0}
    for span in SPANS:
        t = totals.get(span, empty)
        metrics[f"{span}.calls"] = t["calls"]
        metrics[f"{span}.self_s"] = t["self_s"]
    jet = totals.get("jets.Jet", empty)
    metrics["jets.Jet.constructions"] = jet["calls"]
    metrics["jets.Jet.init_s"] = jet["self_s"]
    metrics["taylor.mul.flops"] = tracer.counters["taylor.mul.flops"]
    metrics["taylor.series.allocs"] = tracer.counters["taylor.series.allocs"]
    by_suite = {r.name: r for r in outcome.reports}
    for name in wl.SUITES:
        metrics[f"verify.{name}.s"] = suite_s.get(name, 0.0)
        metrics[f"verify.{name}.max_defect"] = by_suite[name].max_defect if name in by_suite else 0.0
    metrics["verify.retries"] = totals.get("invariants.reconstruct_generators", empty)["raised"]
    metrics["trace.overhead_s"] = traced_s - untraced_s
    if workload == "battery":
        ratios = [
            r.max_defect / wl.FROZEN_TOLERANCES[r.name]
            for r in outcome.reports
            if wl.FROZEN_TOLERANCES[r.name] > 0
        ]
        metrics["identity_defect_max"] = by_suite["phantom"].max_defect if "phantom" in by_suite else 0.0
        metrics["defect_ratio_max"] = max(ratios, default=0.0)
    else:
        metrics["identity_defect_max"] = outcome.identity_defect_max
        metrics["defect_ratio_max"] = outcome.identity_defect_max / wl.IDENTITY_TOL
    metrics["failed_frac"] = outcome.failed / outcome.attempted
    metrics["host.calib_ms"] = statistics.median(speed.samples_ms)

    notes = {"trace.overhead_s": f"traced {traced_s:.3f} s - untraced {untraced_s:.3f} s"}
    record = {"calib_ms": speed.samples_ms, "spans": tracer.table()}
    return metrics, notes, outcome, record


# -- entry point ---------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        jf = wl.load_program(ROOT)
    except wl.ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        wl.setup(jf, args.workload, args.seed)
        return 0

    let_through = wl.gate_self_test(jf, args.seed)
    if let_through:
        print(f"bench: the correctness checks let through: {let_through}", file=sys.stderr)
        return 3

    host = host_info()
    print("# host " + json.dumps(host))
    print("# run " + json.dumps({k: v for k, v in vars(args).items() if k != "setup_probe"}))
    if args.trace:
        metrics, notes, outcome, record = traced_run(jf, args.workload, args.seed)
        specs = PER_LAYER_METRICS
    else:
        metrics, notes, outcome, record = timed_run(jf, args.workload, args.seed, args.seconds)
        specs = E2E_METRICS
    spans = record.pop("spans", [])
    print("# record " + json.dumps(record))
    for row in spans:
        print("# span " + json.dumps(row))
    if outcome.first_failure:
        print(f"bench: first failure: {outcome.first_failure}", file=sys.stderr)
    for name, unit in specs:
        note = notes.get(name)
        print(f"{name:44s} {metrics[name]:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"{'failed/attempted':44s} {outcome.failed}/{outcome.attempted}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in specs},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
