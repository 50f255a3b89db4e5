"""Golden outputs: `cli.main` stdout compared byte for byte with committed files.

The files under tests/data/golden/ were written by the dict-backed jet code
that preceded the dense jet layout; any change to a printed digit fails here.
The `.err` files hold the stderr of evals that exit 2 on a singular frame.
Regenerate them (only on purpose) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

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
