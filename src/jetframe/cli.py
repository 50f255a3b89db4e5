"""Command-line front end: evaluate invariant tables and run check suites.

Exit codes: 0 success, 1 verification failure, 2 singular-frame or other
domain error (the message names the vanishing pivot), 64 usage error, 70
internal error (an unexpected exception: one line on stderr, never a
traceback, and never read as a failed check).
The default seed is 0, overridable by the JETFRAME_SEED environment variable
and by --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys

from .errors import DomainError, SingularFrameError, UsageError
from .frame import FrameKind, pivot_value
from .invariants import invariant_table
from .jets import multi_indices
from .solutions import CATALOG, jet_of_solution, make_solution
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70  # EX_SOFTWARE of sysexits.h, next to 64 = EX_USAGE


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
    ev.add_argument("--frame", required=True, choices=[k.value for k in FrameKind])
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


_INVARIANT_KEYS = ("record", "alpha1", "alpha2", "value")
_scan_value = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"  # what json.loads skips around a value


def format_json_lines(records):
    """One JSON object per line; floats keep full double precision.

    The text equals the records' json.dumps joined by newlines.  An
    invariant record (a dict keyed record, alpha1, alpha2, value in that
    order, with record "invariant", int alphas and a finite float value) is
    written by one template; any other record, bools, numpy scalars, float
    subclasses, NaN and infinities included, goes through json.dumps.
    """
    lines = []
    for r in records:
        if type(r) is dict and tuple(r) == _INVARIANT_KEYS:
            record, a1, a2, value = r.values()
            if record == "invariant" and type(a1) is type(a2) is int and type(value) is float and math.isfinite(value):
                lines.append(f'{{"record": "invariant", "alpha1": {a1}, "alpha2": {a2}, "value": {value!r}}}')
                continue
        lines.append(json.dumps(r))
    return "\n".join(lines)


def parse_json_lines(text):
    """Inverse of :func:`format_json_lines` (lossless round trip).

    One JSON value per non-blank line, read as json.loads reads it; a
    malformed line raises json.JSONDecodeError.

    An ASCII text with no "[", "]" or "\r" is first read in one json.loads,
    each line as one row of an array.  A string that runs across a line
    swallows a row boundary and leaves a row too few, and the other ASCII
    line breaks of splitlines are invalid anywhere in JSON; so when there is
    one row per line and no row holds two values, the rows are the lines.
    Any other text, and any text that read rejects, is read a line at a time.
    """
    if text.isascii() and "[" not in text and "]" not in text and "\r" not in text:
        try:
            rows = json.loads("[[" + text.replace("\n", "],[") + "]]")
        except (ValueError, RecursionError):  # a row nests its line two levels deeper
            pass
        else:
            if len(rows) == text.count("\n") + 1 and max(map(len, rows)) <= 1:
                return [row[0] for row in rows if row]  # an empty row is a blank line
    return _parse_each_line(text)


def _parse_each_line(text):
    values = []
    for line in text.splitlines():
        if not line.strip():
            continue
        start = len(line) - len(line.lstrip(_JSON_SPACE))
        try:
            value, end = _scan_value(line, start)
        except StopIteration as exc:
            raise json.JSONDecodeError("Expecting value", line, exc.value) from None
        if end != len(line.rstrip(_JSON_SPACE)):
            raise json.JSONDecodeError("Extra data", line, end)
        values.append(value)
    return values


def _eval_records(args, solution, table):
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
        **dataclasses.asdict(solution),
    }
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


def _negative_pivot(jet, kind):
    return SingularFrameError(
        kind.pivot_name, pivot_value(jet, kind), "negative pivot rejected by --branch-policy strict-positive"
    )


def _cmd_eval(args):
    solution = make_solution(args.solution, c=args.c, phase=args.phase, u0=args.u0)
    jet = jet_of_solution(solution, args.t0, args.x0, args.order)
    kind = FrameKind(args.frame)
    strict = args.branch_policy == "strict-positive"
    try:
        table = invariant_table(jet, kind, args.order)
    except SingularFrameError:
        raise
    except DomainError:
        # past a regular pivot, the branch policy rejects before the table's own failure
        if strict and pivot_value(jet, kind) < 0:
            raise _negative_pivot(jet, kind) from None
        raise
    if strict and table.branch < 0:
        raise _negative_pivot(jet, kind)
    records = _eval_records(args, solution, table)
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
    except Exception as exc:  # a bug, not a failed check: exit 1 would read as one
        print(f"jetframe: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
