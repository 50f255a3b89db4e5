"""Command-line front end: evaluate invariant tables and run check suites.

Exit codes: 0 success, 1 verification failure, 2 singular-frame or other
domain error (the message names the vanishing pivot), 64 usage error.
The default seed is 0, overridable by the JETFRAME_SEED environment variable
and by --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .errors import DomainError, SingularFrameError, UsageError
from .frame import FrameKind, moving_frame
from .invariants import invariant_table
from .jets import multi_indices
from .solutions import CATALOG, jet_of_solution, make_solution
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

_FRAME_BY_FLAG = {"t": FrameKind.T_NORMALIZED, "x": FrameKind.X_NORMALIZED}


# A value that starts with a minus sign, as float() reads it.  argparse's own
# pattern takes only -1 and -1.5, and reads -1e-3 or -inf as an unknown flag.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # argparse exits with 2 on bad flags; the contract here is 64, with the reason
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"jetframe: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser():
    parser = _Parser(prog="jetframe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate an invariant table at a point")
    ev.add_argument("--solution", required=True, choices=CATALOG)
    ev.add_argument("--c", type=float, default=1.0, help="soliton speed (> 0)")
    ev.add_argument("--phase", type=float, default=0.0, help="soliton crest offset")
    ev.add_argument("--u0", type=float, default=0.0, help="constant-solution value")
    ev.add_argument("--t0", type=float, default=0.0, help="base point t")
    ev.add_argument("--x0", type=float, default=0.0, help="base point x")
    ev.add_argument("--frame", required=True, choices=sorted(_FRAME_BY_FLAG))
    ev.add_argument("--order", type=int, default=4, help="max invariant order")
    ev.add_argument(
        "--branch-policy",
        choices=("strict-positive", "auto"),
        default="auto",
        help="'strict-positive' rejects negative pivots; 'auto' uses the +-1 branch",
    )
    ev.add_argument("--format", choices=("json-lines", "csv"), default="json-lines")

    vf = sub.add_parser("verify", help="run property-check suites")
    vf.add_argument(
        "--suites",
        default="all",
        help=f"comma-separated subset of {', '.join(SUITES)} (or 'all')",
    )
    vf.add_argument("--seed", type=int, default=None)
    vf.add_argument("--samples", type=int, default=100)
    vf.add_argument("--order", type=int, default=6)
    vf.add_argument("--format", choices=("json-lines", "csv"), default="json-lines")
    return parser


# -- output records ------------------------------------------------------------


def format_json_lines(records):
    """One JSON object per line; floats keep full double precision."""
    return "\n".join(json.dumps(r) for r in records)


def parse_json_lines(text):
    """Inverse of :func:`format_json_lines` (lossless round trip)."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _eval_records(args, table):
    meta = {
        "record": "meta",
        "command": "eval",
        "solution": args.solution,
        "t0": args.t0,
        "x0": args.x0,
        "frame": args.frame,
        "order": args.order,
        "branch": table.branch,
        "branch_policy": args.branch_policy,
    }
    if args.solution == "soliton":
        meta["c"] = args.c
        meta["phase"] = args.phase
    if args.solution == "constant":
        meta["u0"] = args.u0
    records = [meta]
    for name, value in table.phantoms.items():
        records.append({"record": "phantom", "name": name, "value": value})
    for a1, a2 in multi_indices(table.order):
        records.append(
            {"record": "invariant", "alpha1": a1, "alpha2": a2, "value": table.values[(a1, a2)]}
        )
    return records


_CHECK_COLUMNS = ("name", "samples", "max_defect", "tolerance", "passed", "seed")


def _verify_records(reports, seed):
    records = [{"record": "meta", "command": "verify", "seed": seed}]
    for r in reports:
        record = {"record": "check", **{c: getattr(r, c) for c in _CHECK_COLUMNS}}
        if not math.isfinite(r.max_defect):
            record["max_defect"] = None  # strict JSON has no inf or NaN
        records.append(record)
    return records


def _csv(records, row_record, columns):
    """A `#` comment per non-row record, then the header and one line per row record."""
    lines = [
        f"# {r['record']}: " + ", ".join(f"{k}={v}" for k, v in r.items() if k != "record")
        for r in records
        if r["record"] != row_record
    ]
    lines.append(",".join(columns))
    lines += [",".join(str(r[c]) for c in columns) for r in records if r["record"] == row_record]
    return "\n".join(lines)


# -- commands ------------------------------------------------------------------


def _cmd_eval(args):
    params = {"c": args.c, "phase": args.phase, "u0": args.u0}
    solution = make_solution(args.solution, **params)
    jet = jet_of_solution(solution, args.t0, args.x0, args.order)
    kind = _FRAME_BY_FLAG[args.frame]
    frame = moving_frame(jet, kind)
    if args.branch_policy == "strict-positive" and frame.branch < 0:
        raise SingularFrameError(
            kind.pivot_name, frame.pivot, "negative pivot rejected by --branch-policy strict-positive"
        )
    table = invariant_table(jet, kind, args.order)
    records = _eval_records(args, table)
    if args.format == "json-lines":
        print(format_json_lines(records))
    else:
        print(_csv(records, "invariant", ("alpha1", "alpha2", "value")))
    return EXIT_OK


def _default_seed():
    env = os.environ.get("JETFRAME_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise UsageError(f"JETFRAME_SEED must be an integer, got {env!r}") from None


def _cmd_verify(args):
    seed = args.seed if args.seed is not None else _default_seed()
    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    reports = run_suite(suites=suites, seed=seed, samples=args.samples, order=args.order)
    records = _verify_records(reports, seed)
    if args.format == "json-lines":
        print(format_json_lines(records))
    else:
        print(_csv(records, "check", _CHECK_COLUMNS))
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(
            f"{status} {r.name}: max_defect={r.max_defect:.3e} tolerance={r.tolerance:.1e}"
            f" samples={r.samples}",
            file=sys.stderr,
        )
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_verify(args)
    except SystemExit as exc:  # argparse --help or usage failure
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except UsageError as exc:
        print(f"jetframe: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"jetframe: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
