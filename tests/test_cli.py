import csv
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from jetframe.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    format_json_lines,
    main,
    parse_json_lines,
)
from jetframe.solutions import CATALOG
from jetframe.verify import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_soliton_json_lines(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "--solution", "soliton", "--c", "1", "--t0", "0.3", "--x0", "1.7",
        "--frame", "x", "--order", "3", "--format", "json-lines",
    )
    assert code == EXIT_OK
    records = parse_json_lines(out)
    meta = records[0]
    assert meta["record"] == "meta"
    assert meta["frame"] == "x"
    assert meta["branch"] in (1, -1)
    table = {(r["alpha1"], r["alpha2"]): r["value"] for r in records if r["record"] == "invariant"}
    assert abs(table[(1, 0)] + table[(0, 3)]) < 1e-9  # invariantized equation
    phantoms = {r["name"]: r["value"] for r in records if r["record"] == "phantom"}
    assert phantoms["u"] == 0.0
    assert phantoms["u_x"] == meta["branch"]


def test_json_lines_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--solution", "soliton", "--t0", "0.25", "--x0", "0.8",
        "--frame", "t", "--order", "2",
    )
    assert code == EXIT_OK
    records = parse_json_lines(out)
    assert format_json_lines(records) == out.strip()
    # full double precision survives the round trip
    again = parse_json_lines(format_json_lines(records))
    assert again == records


def test_eval_rational_time_frame_is_singular(capsys):
    code, out, err = run_cli(
        capsys, "eval", "--solution", "rational", "--t0", "1", "--x0", "2", "--frame", "t",
    )
    assert code == EXIT_DOMAIN
    assert "u_t + u*u_x" in err
    assert out == ""


def test_eval_prefactor_overflow_is_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "eval", "--solution", "soliton", "--x0", "60", "--frame", "x", "--order", "12",
    )
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("jetframe: ") and "overflows" in err
    assert "Traceback" not in err


def test_eval_constant_is_singular(capsys):
    code, _, err = run_cli(capsys, "eval", "--solution", "constant", "--u0", "5", "--frame", "x")
    assert code == EXIT_DOMAIN
    assert "u_x" in err


def test_strict_positive_branch_policy(capsys):
    # pick a soliton point on the negative branch of u_x
    code, _, err = run_cli(
        capsys,
        "eval", "--solution", "soliton", "--t0", "0.0", "--x0", "0.9", "--frame", "x",
        "--branch-policy", "strict-positive",
    )
    assert code == EXIT_DOMAIN
    assert "strict-positive" in err
    code, _, _ = run_cli(
        capsys,
        "eval", "--solution", "soliton", "--t0", "0.0", "--x0", "0.9", "--frame", "x",
    )
    assert code == EXIT_OK  # the auto policy takes the negative branch


def test_eval_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "--solution", "soliton", "--t0", "0.3", "--x0", "1.7",
        "--frame", "x", "--order", "2", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert comments, "metadata comments expected"
    header_idx = lines.index("alpha1,alpha2,value")
    rows = [l.split(",") for l in lines[header_idx + 1 :]]
    assert len(rows) == 6  # order 2 table
    assert all(len(r) == 3 for r in rows)
    assert float(rows[0][2]) == 0.0  # invariantized u


def test_verify_phantom_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suites", "phantom", "--seed", "1", "--samples", "20")
    assert code == EXIT_OK
    records = parse_json_lines(out)
    checks = [r for r in records if r["record"] == "check"]
    assert len(checks) == 1
    assert checks[0]["name"] == "phantom"
    assert checks[0]["passed"] is True
    assert checks[0]["seed"] == 1
    assert "pass phantom" in err


def test_verify_multiple_suites_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suites", "group-axioms,kdv-residual", "--seed", "2",
        "--samples", "10", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[1] == "name,samples,max_defect,tolerance,passed,seed"
    assert lines[2].startswith("group-axioms,")
    assert lines[3].startswith("kdv-residual,")


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--suites", "nosuch")
    assert code == EXIT_USAGE
    assert "nosuch" in err


def test_bad_flag_is_usage_error(capsys):
    # every parser exit is 64 and names its reason after the usage line
    cases = [
        (("eval", "--solution", "nosuch", "--frame", "x"), "invalid choice: 'nosuch'"),
        (("eval", "--frame", "x"), "the following arguments are required: --solution"),
        (("frobnicate",), "invalid choice: 'frobnicate'"),
        (("eval", "--solution", "soliton", "--frame", "x", "--x0"), "--x0: expected one argument"),
        (("eval", "--solution", "soliton", "--frame", "x", "--t0", "abc"), "--t0: invalid float value: 'abc'"),
        (("verify", "--samples", "1", "--bogus"), "unrecognized arguments: --bogus"),
    ]
    for argv, reason in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage: jetframe")
        assert any(line.startswith("jetframe: ") and reason in line for line in err.splitlines()), err


@pytest.mark.parametrize("value", ["-1e-3", "-2.5E-1", "-.5e+0", "-1.", "-3"])
def test_negative_numbers_in_any_notation_are_values(capsys, value):
    code, out, err = run_cli(
        capsys, "eval", "--solution", "soliton", "--frame", "x", "--t0", "0.3", "--x0", value, "--phase", value,
    )
    assert code == EXIT_OK, err
    meta = parse_json_lines(out)[0]
    assert meta["x0"] == meta["phase"] == float(value)


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan"])
def test_negative_non_finite_values_reach_the_value_checks(capsys, value):
    for flag in ("--x0", "--c"):
        code, out, err = run_cli(capsys, "eval", "--solution", "soliton", "--frame", "x", flag, value)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("jetframe: ") and "finite" in err


def test_verify_all_suites(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suites", "all", "--seed", "7", "--samples", "8", "--order", "6"
    )
    assert code == EXIT_OK
    checks = [r for r in parse_json_lines(out) if r["record"] == "check"]
    assert len(checks) == 11
    assert all(c["passed"] for c in checks)


def test_verify_failure_exit_code(capsys, monkeypatch):
    import jetframe.cli as cli
    from jetframe.verify import CheckReport

    failing = CheckReport(
        name="invariance", samples=1, max_defect=1.0, tolerance=1e-8, passed=False, seed=0
    )
    monkeypatch.setattr(cli, "run_suite", lambda **kw: [failing])
    code, out, err = run_cli(capsys, "verify", "--suites", "invariance")
    assert code == EXIT_CHECK_FAILED
    assert "FAIL invariance" in err
    assert parse_json_lines(out)[1]["passed"] is False


def test_verify_nan_defect_fails_with_strict_json(capsys, monkeypatch):
    import math

    import jetframe.verify as verify

    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")

    monkeypatch.setattr(verify, "normalized_invariant", lambda jet, alphas, kind: [math.nan] * len(alphas))
    code, out, err = run_cli(capsys, "verify", "--suites", "invariance", "--samples", "3")
    assert code == EXIT_CHECK_FAILED
    records = [json.loads(line, parse_constant=reject) for line in out.splitlines()]
    assert records[1]["max_defect"] is None and records[1]["passed"] is False
    assert parse_json_lines(out) == records
    assert "FAIL invariance" in err


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("JETFRAME_SEED", "77")
    code, out, _ = run_cli(capsys, "verify", "--suites", "group-axioms", "--samples", "5")
    assert code == EXIT_OK
    records = parse_json_lines(out)
    assert records[0]["seed"] == 77
    # explicit --seed beats the environment
    code, out, _ = run_cli(
        capsys, "verify", "--suites", "group-axioms", "--samples", "5", "--seed", "3"
    )
    records = parse_json_lines(out)
    assert records[0]["seed"] == 3


def test_verify_deterministic_output(capsys):
    args = ("verify", "--suites", "invariance", "--seed", "5", "--samples", "10", "--order", "4")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("--solution", "soliton", "--frame", "x", "--x0", "1e5"),
        ("--solution", "soliton", "--frame", "x", "--c", "1e308", "--x0", "0.5"),
        ("--solution", "rational", "--frame", "x", "--t0", "1e-300", "--x0", "1"),
        ("--solution", "rational", "--frame", "x", "--order", "6", "--t0", "1e5", "--x0", "1e155"),
        ("--solution", "rational", "--frame", "x", "--order", "12", "--t0", "1e-23", "--x0", "10"),
    ],
    ids=[
        "soliton-far-tail",
        "soliton-huge-speed",
        "rational-near-pole",
        "rational-boost-overflow",
        "rational-jet-entry-overflow",
    ],
)
def test_eval_arithmetic_failure_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, "eval", *argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("jetframe: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--solution", "soliton", "--c", "nan"),
        ("--solution", "soliton", "--phase", "nan"),
        ("--solution", "soliton", "--t0", "inf"),
        ("--solution", "constant", "--u0", "inf"),
    ],
    ids=["c-nan", "phase-nan", "t0-inf", "u0-inf"],
)
def test_eval_non_finite_input_is_usage_error(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        code, out, err = run_cli(capsys, "eval", "--frame", "x", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "finite" in err


def test_eval_order_cap(capsys):
    argv = ("eval", "--solution", "soliton", "--frame", "x", "--t0", "0.3", "--x0", "0.7")
    code, out, err = run_cli(capsys, *argv, "--order", "31")
    assert code == EXIT_USAGE
    assert out == "" and "Traceback" not in err
    code, out, _ = run_cli(capsys, *argv, "--order", "30")
    assert code == EXIT_OK
    assert len(parse_json_lines(out)) == 1 + 4 + 31 * 32 // 2  # meta, phantoms, invariants


@pytest.mark.parametrize(
    "argv",
    [
        ("--samples", "0"),
        ("--samples", "-3"),
        ("--suites", ","),
        ("--order", "-2"),
        ("--order", "0", "--suites", "invariance,infinitesimal", "--samples", "5"),
    ],
    ids=["zero-samples", "negative-samples", "empty-suite-list", "negative-order", "zero-order"],
)
def test_verify_vacuous_run_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("jetframe: ")


def test_env_seed_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("JETFRAME_SEED", "abc")
    code, out, err = run_cli(capsys, "verify", "--suites", "group-axioms", "--samples", "5")
    assert code == EXIT_USAGE
    assert out == ""
    assert "JETFRAME_SEED" in err


def _eval_argvs():
    st = pytest.importorskip("hypothesis.strategies")
    number = st.one_of(
        st.floats(-3.0, 3.0),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from(["1e-300", "-1e308", "abc", ""]),
    ).map(lambda v: v if isinstance(v, str) else repr(v))
    optional = {
        flag: st.one_of(st.none(), values)
        for flag, values in (
            ("--c", number),
            ("--phase", number),
            ("--u0", number),
            ("--t0", number),
            ("--x0", number),
            ("--order", st.integers(-2, 14).map(str)),
            ("--branch-policy", st.sampled_from(["auto", "strict-positive"])),
        )
    }
    return st.fixed_dictionaries(
        {
            "--solution": st.sampled_from(CATALOG + ("nosuch",)),
            "--frame": st.sampled_from(["t", "x"]),
            **optional,
        }
    ).map(
        lambda flags: ["eval"]
        + [item for flag, value in flags.items() if value is not None for item in (flag, value)]
    )


def test_eval_fuzz_exit_codes_and_strict_json():
    hypothesis = pytest.importorskip("hypothesis")

    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_eval_argvs())
    def check(argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_USAGE), argv
        text = out.getvalue()
        records = [json.loads(line, parse_constant=reject) for line in text.splitlines()]
        assert parse_json_lines(text) == records
        assert bool(records) == (code == EXIT_OK), argv

    check()


def _verify_argvs():
    st = pytest.importorskip("hypothesis.strategies")
    # half clean subsets, half lists with unknown names, blanks and stray commas
    names = st.one_of(
        st.lists(st.sampled_from(SUITES), min_size=1, max_size=3),
        st.lists(st.sampled_from(SUITES + ("all", "nosuch", "", " ")), max_size=4),
    )
    suites = st.tuples(st.sampled_from(["", ","]), names.map(",".join))
    optional = {
        flag: st.one_of(st.none(), values)
        for flag, values in (
            ("--suites", suites.map("".join)),
            ("--order", st.integers(-1, 7).map(str)),
            ("--seed", st.integers().map(str)),
            ("--format", st.sampled_from(["json-lines", "csv"])),
        )
    }
    # --samples is always given: its default of 100 would make each example a full battery
    return st.fixed_dictionaries({"--samples": st.integers(-1, 2).map(str), **optional}).map(
        lambda flags: ["verify"]
        + [item for flag, value in flags.items() if value is not None for item in (flag, value)]
    )


def test_verify_fuzz_exit_codes_and_strict_json():
    hypothesis = pytest.importorskip("hypothesis")

    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_verify_argvs())
    def check(argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE), argv
        text = out.getvalue()
        assert (text == "") == (code == EXIT_USAGE), argv
        if "csv" in argv:
            rows = csv.DictReader(line for line in text.splitlines() if not line.startswith("#"))
            failed = any(row["passed"] == "False" for row in rows)
        else:
            records = [json.loads(line, parse_constant=reject) for line in text.splitlines()]
            assert parse_json_lines(text) == records
            failed = any(r["record"] == "check" and not r["passed"] for r in records)
        assert failed == (code == EXIT_CHECK_FAILED), argv

    check()
