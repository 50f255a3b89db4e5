"""Golden outputs: `cli.main` stdout compared byte for byte with committed files.

The files under tests/data/golden/ were written by the dict-backed jet code
that preceded the dense jet layout; any change to a printed digit fails here.
The `.err` files hold the stderr of evals that exit 2 on a singular frame.
Every invariant an eval file prints is also held to its case's bound
against the 60-digit values of tests/oracle.py.
Regenerate them (only on purpose) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

import oracle

import jetframe.cli as cli
from jetframe.cli import EXIT_DOMAIN, EXIT_OK, format_json_lines, main, parse_json_lines

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

# soliton u = 3 sech^2((x - t)/2): theta = 0.7 gives branch -1 in both
# frames, theta = -0.6 gives +1 in both
_SOLITON_POINTS = {"neg": ("0.3", "1.7"), "pos": ("0.3", "-0.9")}

CASES = {
    **{
        f"eval-soliton-{frame}-{branch}-o{order}": [
            "eval", "--solution", "soliton", "--t0", t0, "--x0", x0,
            "--frame", frame, "--order", str(order),
        ]
        for frame in ("t", "x")
        for branch, (t0, x0) in _SOLITON_POINTS.items()
        for order in (4, 12)
    },
    "eval-rational-x-pos-o6": ["eval", "--solution", "rational", "--frame", "x", "--order", "6",
                               "--t0", "1.3", "--x0", "0.4"],
    "eval-rational-x-neg-o6": ["eval", "--solution", "rational", "--frame", "x", "--order", "6",
                               "--t0", "-0.8", "--x0", "1.1"],
    # the order cap: sech and recip composed by the slope-pair Horner at M = 30
    "eval-soliton-x-pos-o30": ["eval", "--solution", "soliton", "--t0", "0.3", "--x0", "-0.9",
                               "--frame", "x", "--order", "30"],
    "eval-rational-x-pos-o30": ["eval", "--solution", "rational", "--frame", "x", "--order", "30",
                                "--t0", "1.3", "--x0", "0.4"],
    "eval-soliton-t-csv-o5": ["eval", "--solution", "soliton", "--c", "1.3", "--phase", "0.2",
                              "--t0", "-0.4", "--x0", "0.1", "--frame", "t", "--order", "5",
                              "--format", "csv"],
    "verify-all-seed0-s20-o6": ["verify", "--suites", "all", "--seed", "0", "--samples", "20",
                                "--order", "6"],
    # the benchmark's battery (seed 0, 100 samples, order 6); CI runs it too
    "verify-all-seed0-s100-o6": ["verify", "--suites", "all", "--seed", "0", "--samples", "100",
                                 "--order", "6"],
    # the battery at seeds 3 and 11, written before the invariance suites read
    # their invariants through one stack entry into the closed form
    **{
        f"verify-all-seed{seed}-s100-o6": ["verify", "--suites", "all", "--seed", str(seed),
                                           "--samples", "100", "--order", "6"]
        for seed in (3, 11)
    },
    # the battery at 300 samples, written before the suites read their draws
    # off a buffered stream: each stacked suite crosses the stack boundaries
    # at 128 and 256, and every suite many of the stream's blocks
    "verify-all-seed0-s300-o6": ["verify", "--suites", "all", "--seed", "0", "--samples", "300",
                                 "--order", "6"],
    # the battery at order 8, where the series run longer; CI runs it too
    "verify-all-seed0-s100-o8": ["verify", "--suites", "all", "--seed", "0", "--samples", "100",
                                 "--order", "8"],
    # the three suites of the series calculus, written before they read their
    # float jets off the germ they build
    "verify-series-seed3-s100-o6": ["verify", "--suites", "recurrences,commutators,reconstruction",
                                    "--seed", "3", "--samples", "100", "--order", "6"],
    # the same suites at seed 0, written before each germ kept its frames
    "verify-series-seed0-s100-o6": ["verify", "--suites", "recurrences,commutators,reconstruction",
                                    "--seed", "0", "--samples", "100", "--order", "6"],
    # uneven and tiny stacks, written before the suites evaluated a stack of
    # samples at once: 7 samples give recurrences 4 t-frame and 3 x-frame
    # germs, and 1 sample is the benchmark's warm-up
    "verify-series-seed5-s7-o6": ["verify", "--suites", "recurrences,commutators,reconstruction",
                                  "--seed", "5", "--samples", "7", "--order", "6"],
    "verify-series-seed5-s1-o6": ["verify", "--suites", "recurrences,commutators,reconstruction",
                                  "--seed", "5", "--samples", "1", "--order", "6"],
    # a stack of 128 and one of 2, written before a stack's series calculus
    # passed coefficient arrays instead of one series per point
    "verify-series-seed5-s130-o6": ["verify", "--suites", "recurrences,commutators,reconstruction",
                                    "--seed", "5", "--samples", "130", "--order", "6"],
    # the three free-jet suites, written before invariance and infinitesimal
    # evaluated a stack of samples at once: 1 sample, an uneven 7, and 130,
    # a stack of 128 and one of 2
    **{
        f"verify-freejet-seed5-s{samples}-o6": ["verify", "--suites", "equivariance,invariance,infinitesimal",
                                                "--seed", "5", "--samples", str(samples), "--order", "6"]
        for samples in (1, 7, 130)
    },
    # the two float-jet suites of solutions, written before phantom and
    # kdv-residual drew their points first and expanded them a stack at a time
    **{
        f"verify-solutionjet-seed5-s{samples}-o6": ["verify", "--suites", "phantom,kdv-residual",
                                                    "--seed", "5", "--samples", str(samples), "--order", "6"]
        for samples in (1, 7, 130)
    },
    # the two frame suites, written before equivariance and phantom evaluated
    # a stack of samples in one call per frame kind: 1 sample, an uneven 7, and
    # 130, a stack of 128 and one of 2, at order 6 and at order 12
    **{
        f"verify-frames-seed5-s{samples}-o{order}": ["verify", "--suites", "equivariance,phantom",
                                                     "--seed", "5", "--samples", str(samples), "--order", str(order)]
        for samples, order in ((1, 6), (7, 6), (130, 6), (130, 12))
    },
}

# evals whose frame is singular or whose pivot the branch policy rejects,
# written before one jet ran as the stack of one: exit 2, stderr compared
FRAME_ERRORS = {
    "eval-rational-t-singular-o4": ["eval", "--solution", "rational", "--t0", "0.7", "--x0", "0.3",
                                    "--frame", "t", "--order", "4"],
    "eval-constant-x-singular-o4": ["eval", "--solution", "constant", "--u0", "0.5", "--frame", "x",
                                    "--order", "4"],
    "eval-soliton-x-strict-positive-o4": ["eval", "--solution", "soliton", "--x0", "0.9", "--frame", "x",
                                          "--order", "4", "--branch-policy", "strict-positive"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_file(capsys, name):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(FRAME_ERRORS))
def test_frame_error_stderr_matches_golden_file(capsys, name):
    code = main(FRAME_ERRORS[name])
    captured = capsys.readouterr()
    assert code == EXIT_DOMAIN
    assert captured.out == ""
    assert captured.err == (GOLDEN / f"{name}.err").read_text()


_JSON_LINES = sorted(name for name, argv in CASES.items() if "csv" not in argv)


@pytest.mark.parametrize("name", _JSON_LINES)
def test_golden_json_lines_round_trip_through_one_parse_and_the_template(monkeypatch, name):
    # a golden text is ASCII with no bracket or "\r", so parse_json_lines reads
    # it in one json.loads and never line by line
    text = (GOLDEN / f"{name}.out").read_text()
    monkeypatch.setattr(cli, "_parse_each_line", lambda text: pytest.fail("read line by line"))
    records = parse_json_lines(text)
    want = [json.loads(line) for line in text.splitlines() if line.strip()]
    assert json.dumps(records) == json.dumps(want)
    # json.dumps writes every record but the invariants, which the template writes
    dumped, dumps = [], json.dumps

    def counted_dumps(record):
        dumped.append(record)
        return dumps(record)

    monkeypatch.setattr(cli.json, "dumps", counted_dumps)
    assert format_json_lines(records) + "\n" == text
    assert dumped == [r for r in records if r["record"] != "invariant"]


def test_golden_json_lines_hold_every_record_kind():
    records = [r for name in _JSON_LINES for r in parse_json_lines((GOLDEN / f"{name}.out").read_text())]
    assert {r["record"] for r in records} == {"meta", "phantom", "invariant", "check"}
    assert {r["order"] for r in records if r["record"] == "meta" and r["command"] == "eval"} == {4, 6, 12, 30}


# the worst relative error of each golden eval's nonzero invariants against
# the 60-digit oracle of tests/oracle.py, as measured on the committed files
# and rounded up at the second digit.  The closed form sums terms as large
# as (|u| + c)^a1, which amplify the soliton jet's rounding with the order
_ORACLE_BOUNDS = {
    **{f"eval-soliton-{frame}-{branch}-o4": 5.1e-15 for frame in ("t", "x") for branch in _SOLITON_POINTS},
    **{f"eval-soliton-{frame}-{branch}-o12": 5.8e-11 for frame in ("t", "x") for branch in _SOLITON_POINTS},
    "eval-soliton-x-pos-o30": 2.0e-3,
    "eval-soliton-t-csv-o5": 1.7e-15,
    "eval-rational-x-pos-o6": 1.6e-15,
    "eval-rational-x-neg-o6": 1.6e-15,
    "eval-rational-x-pos-o30": 1.6e-15,
}
# an exact zero (every I[a1,0] of u = x/t in the space frame) printed as a
# residue of its cancelling terms: at most this fraction of their size
_ORACLE_ZERO_BOUND = 2.0e-16


def _invariant_values(name):
    """{alpha: value} of the invariant records of the golden eval `name`, JSON lines or CSV."""
    text = (GOLDEN / f"{name}.out").read_text()
    if "csv" in CASES[name]:
        rows = (line.split(",") for line in text.split("alpha1,alpha2,value\n", 1)[1].splitlines())
        return {(int(a1), int(a2)): float(value) for a1, a2, value in rows}
    return {(r["alpha1"], r["alpha2"]): r["value"] for r in parse_json_lines(text) if r["record"] == "invariant"}


def test_every_golden_eval_case_has_an_oracle_bound():
    assert sorted(_ORACLE_BOUNDS) == sorted(name for name, argv in CASES.items() if argv[0] == "eval")


@pytest.mark.parametrize("name", sorted(_ORACLE_BOUNDS))
def test_golden_eval_values_are_within_their_bound_of_the_oracle(name):
    argv = CASES[name]
    args = dict(zip(argv[1::2], argv[2::2]))
    exact = oracle.invariants(
        args["--solution"], float(args.get("--t0", 0.0)), float(args.get("--x0", 0.0)), args["--frame"],
        int(args["--order"]), c=float(args.get("--c", 1.0)), phase=float(args.get("--phase", 0.0)),
    )
    values = _invariant_values(name)
    assert values.keys() == exact.keys()
    for alpha, (value, terms) in exact.items():
        got = values[alpha]
        if abs(value) > terms * 1e-40:
            assert abs(got - value) <= _ORACLE_BOUNDS[name] * abs(value), (alpha, got, value)
        else:  # an exact zero, up to 60-digit roundoff: measured against its terms
            assert abs(got) <= _ORACLE_ZERO_BOUND * terms, (alpha, got, terms)


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(argv) == EXIT_OK, name
        (GOLDEN / f"{name}.out").write_text(buffer.getvalue())
    for name, argv in FRAME_ERRORS.items():
        buffer = io.StringIO()
        with contextlib.redirect_stderr(buffer):
            assert main(argv) == EXIT_DOMAIN, name
        (GOLDEN / f"{name}.err").write_text(buffer.getvalue())
