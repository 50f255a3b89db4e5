import csv
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from jetframe.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DOMAIN,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    format_json_lines,
    main,
    parse_json_lines,
)
import jetframe.cli as cli
from jetframe.frame import require_regular_pivots
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


_INVARIANT_KEYS = ("record", "alpha1", "alpha2", "value")


class _Float(float):
    def __repr__(self):  # json.dumps writes float.__repr__, whatever a subclass says
        return "_Float"


class _Dict(dict):
    def items(self):  # json.dumps reads a dict subclass through its items()
        return [(key, 0) for key in self]


def _invariant(a1=2, a2=1, value=0.5, **changes):
    return {"record": "invariant", "alpha1": a1, "alpha2": a2, "value": value, **changes}


# what the invariant template may take and what it must leave to json.dumps:
# bools, numpy scalars, a float subclass, non-finite values, other key orders,
# other key sets and other record names
_INVARIANT_SHAPED = [
    _invariant(),
    _invariant(True, False),
    _invariant(0, True),
    _invariant(np.int64(2)),
    _invariant(2, np.int64(1)),
    _invariant(value=np.float64(0.1)),
    _invariant(value=_Float(0.1)),
    _invariant(value=float("nan")),
    _invariant(value=float("inf")),
    _invariant(value=-float("inf")),
    _invariant(value=-0.0),
    _invariant(value=5e-324),
    _invariant(value=1.7976931348623157e308),
    _invariant(value=3),
    _invariant(value=True),
    _invariant("2", "1"),
    _invariant(-2, -1),
    _invariant(10**30, 0),
    {"alpha1": 2, "record": "invariant", "alpha2": 1, "value": 0.5},
    {"record": "invariant", "alpha2": 1, "alpha1": 2, "value": 0.5},
    {"record": "invariant", "alpha1": 2, "value": 1, "alpha2": 0.5},
    _Dict(_invariant()),
    {"record": "invariant", "alpha1": 2, "alpha2": 1, "value": 0.5, "extra": 1},
    {"record": "invariant", "alpha1": 2, "alpha2": 1},
    _invariant(record="phantom"),
    _invariant(record="Invariant"),
    _invariant(record=1),
]


def _json_values(st, keys):
    """Any JSON-encodable value, NaN and infinities included, with dicts keyed by `keys`."""
    leaves = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(),
        keys,
    )
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3),
        max_leaves=8,
    )


def test_format_json_lines_is_json_dumps_per_record():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # keys and strings that contain the text between two encoded dicts
    keys = st.one_of(st.text(max_size=4), st.sampled_from(["}, {", "a}, {b", "}, {}, {", "é", "\u2028"]))
    values = _json_values(st, keys)
    # invariant-shaped dicts, most in the template's key order, with alphas and
    # values the template must refuse among the ones it takes
    alphas = st.one_of(st.integers(), st.booleans(), st.floats(-2, 40), st.text(max_size=2))

    def invariant_shaped(record, a1, a2, value, keys):
        fields = dict(zip(_INVARIANT_KEYS, (record, a1, a2, value)))
        return {key: fields[key] for key in keys}

    invariants = st.builds(
        invariant_shaped,
        st.sampled_from(["invariant", "invariant", "phantom"]),
        alphas,
        alphas,
        st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(), st.booleans(), st.none()),
        st.one_of(st.just(_INVARIANT_KEYS), st.permutations(_INVARIANT_KEYS)),
    )
    records = st.lists(st.one_of(st.dictionaries(keys, values, max_size=4), invariants, values), max_size=6)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(records)
    def check(records):
        want = "\n".join(json.dumps(r) for r in records)
        assert format_json_lines(records) == want
        assert format_json_lines(r for r in records) == want

    check()


@pytest.mark.parametrize(
    "records",
    [
        [],
        [{}],
        [{}, {}, {}],
        [{"a": "}, {"}, {"b": 1}],
        [{"a": [{"b": 1}, {"c": 2}]}, {"d": {"e": {}}}],
        [{"x": float("nan")}, {"y": float("inf"), "z": -float("inf")}],
        [{"name": "Ωμέγα"}, {"名": "値"}],
        [[{}, {}], {}],
        [{}, 1, "}, {", None],
        # invariant-shaped records beside one the template writes
        *([record, _invariant()] for record in _INVARIANT_SHAPED),
    ],
)
def test_format_json_lines_hostile_records(records):
    # the template must write only what json.dumps writes, and raise what it raises
    try:
        want = "\n".join(json.dumps(r) for r in records)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            format_json_lines(records)
    else:
        assert format_json_lines(records) == want
        assert format_json_lines(iter(records)) == want


def _loads_per_line(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def test_parse_json_lines_reads_each_line_as_json_loads():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    chars = st.sampled_from(
        list('{}[]",:0123456789.-+eEtrufalsnNIiy\\') + [" ", "\t", "\r", "\n", "\x0c", "\x1f", "\xa0", "\ufeff", "\u2028"]
    )
    values = _json_values(st, st.text(max_size=3))
    # values with "\r" between their tokens: splitlines breaks such a line
    # where one json.loads of the whole text would read blank space
    broken_values = values.map(lambda v: json.dumps(v, separators=(",\r", ":\t\r")))
    fragments = st.one_of(values.map(json.dumps), broken_values, st.text(chars, max_size=12))
    texts = st.tuples(st.lists(fragments, max_size=5), st.sampled_from(["\n", "\r\n", ", ", " "])).map(
        lambda parts: parts[1].join(parts[0])
    )

    @hypothesis.settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @hypothesis.given(texts)
    def check(text):
        try:
            want = _loads_per_line(text)
        except json.JSONDecodeError:
            with pytest.raises(json.JSONDecodeError):
                parse_json_lines(text)
        else:
            # json.dumps tells NaN, -0.0, 1 and 1.0 apart where == would not
            assert json.dumps(parse_json_lines(text)) == json.dumps(want)

    check()


@pytest.mark.parametrize(
    "text",
    [
        "1, 2",
        "[1\n2]",
        "{} {}",
        '{"a": [1\n2]}\n{}, {}',
        "{},",
        "\ufeff{}",
        "{}\n\ufeff[]",
        "\xa0{}",
        "nul",
        '1, 2\n"a\nb"',
        '0],[1\n"a\nb"',
        '{"a": 1}, {"b": 2}\n{"c": 1\n"d": 2}',
        "{\r}",
        '{"b":\t\r\r0}',
        '"a\u2028b"',
        '"a\nb"',
    ],
)
def test_parse_json_lines_rejects_what_per_line_loads_rejects(text):
    # one json.loads of the lines joined as one array, or as an array of
    # one-line rows, would accept "1, 2", "[1\n2]", "{} {}", the fourth and
    # the last seven: a line of two values, a string or array across lines, a
    # row boundary inside the text, "\r" (blank to JSON, a line break to
    # splitlines) and U+2028 (a line break to splitlines only)
    with pytest.raises(json.JSONDecodeError):
        _loads_per_line(text)
    with pytest.raises(json.JSONDecodeError):
        parse_json_lines(text)


def test_parse_json_lines_reads_the_deepest_line_json_loads_reads():
    # a line as deep as json.loads goes, which one more array around it breaks
    def nested(depth):
        return '{"a": ' * depth + "1" + "}" * depth

    def loads(depth):
        try:
            json.loads(nested(depth))
        except RecursionError:
            return False
        return True

    shallow, deep = 1, 1 << 17
    assert not loads(deep)
    while shallow + 1 < deep:
        mid = (shallow + deep) // 2
        shallow, deep = (mid, deep) if loads(mid) else (shallow, mid)
    (value,) = parse_json_lines(nested(shallow) + "\n")
    for _ in range(shallow):
        value = value["a"]
    assert value == 1


def test_parse_json_lines_skips_blank_lines():
    text = "\n  \n\t\r\n{}\n \xa0 \n\x1f\n [1, 2] \t\n\n"
    assert parse_json_lines(text) == _loads_per_line(text) == [{}, [1, 2]]
    assert parse_json_lines("") == parse_json_lines(" \n\t") == []


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


def test_strict_positive_policy_rejects_before_the_prefactor_overflows(capsys):
    # u_x < 0 at x0 = 60; the order-12 prefactor of that tiny pivot overflows
    code, out, err = run_cli(
        capsys, "eval", "--solution", "soliton", "--x0", "60", "--frame", "x", "--order", "12",
        "--branch-policy", "strict-positive",
    )
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "negative pivot rejected by --branch-policy strict-positive" in err


def test_eval_tests_the_pivot_once(capsys, monkeypatch):
    calls = []

    def counted(data, kind, at):
        calls.append(kind)
        return require_regular_pivots(data, kind, at)

    for module in ("jetframe.frame", "jetframe.invariants"):
        monkeypatch.setattr(f"{module}.require_regular_pivots", counted)
    for policy in ("auto", "strict-positive"):
        calls.clear()
        code, _, _ = run_cli(
            capsys, "eval", "--solution", "soliton", "--x0", "-0.9", "--frame", "x", "--order", "6",
            "--branch-policy", policy,
        )
        assert code == EXIT_OK
        assert len(calls) == 1


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
    for suites in ("nosuch", "all,nosuch"):
        code, out, err = run_cli(capsys, "verify", "--suites", suites, "--samples", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "nosuch" in err


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    # a crash is exit 70 with one line on stderr, never 1, which means a failed check
    def crash(**kwargs):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setattr(cli, "run_suite", crash)
    code, out, err = run_cli(capsys, "verify", "--suites", "phantom", "--samples", "1")
    assert code == EXIT_INTERNAL == 70
    assert out == ""
    assert err == "jetframe: internal error: IndexError: index 7 is out of bounds\n"


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

    monkeypatch.setattr(  # the invariant kernel the invariance suite calls
        verify, "_invariant_rows", lambda data, kind, alphas, jet_order, pivot: np.full((len(data), len(alphas)), math.nan)
    )
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
        ("--solution", "soliton", "--frame", "x", "--phase", "1.7e308", "--x0", "-1.7e308"),
        ("--solution", "soliton", "--frame", "x", "--c", "1e308", "--x0", "0.5"),
        ("--solution", "rational", "--frame", "x", "--t0", "1e-300", "--x0", "1"),
        ("--solution", "rational", "--frame", "x", "--order", "6", "--t0", "1e5", "--x0", "1e155"),
        ("--solution", "rational", "--frame", "x", "--order", "12", "--t0", "1e-23", "--x0", "10"),
    ],
    ids=[
        "soliton-phase-overflow",
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


def test_eval_far_soliton_tail_is_a_singular_frame(capsys):
    # past |theta| ~ 710 sech underflows to zero instead of overflowing cosh, so
    # the far tail is the flat wave it is, at x0 = 2000 as at x0 = 1000
    for x0 in ("1000", "2000"):
        code, out, err = run_cli(capsys, "eval", "--solution", "soliton", "--frame", "x", "--x0", x0)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("jetframe: singular frame: pivot u_x = 0.0")


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


def test_verify_order_above_the_cap_is_usage_error(capsys):
    # every suite set exits 64, also one that never builds a jet of that order
    for suites, order in (("phantom,kdv-residual,group-axioms", "100000"), ("invariance", "31")):
        code, out, err = run_cli(capsys, "verify", "--suites", suites, "--samples", "1", "--order", order)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"order must lie in [1, 30], got {order}" in err


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
