"""Tests of the benchmark itself: its gate can fail, its traces repeat, its spans fire.

    python3 -m pytest bench -q

A traced battery takes several seconds, so each (workload, seed) is traced
at most twice per test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tracing
import workloads as wl

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def jf():
    return wl.load_program(run.ROOT)


@pytest.fixture(scope="module")
def traced(jf):
    cache = {}

    def get(workload, seed, repeat=0):
        key = (workload, seed, repeat)
        if key not in cache:
            metrics, _notes, outcome, record = run.traced_run(jf, workload, seed)
            cache[key] = (metrics, outcome, {r["name"] for r in record["spans"]})
        return cache[key]

    return get


def _exact_counts(metrics):
    return {
        k: v
        for k, v in metrics.items()
        if k.endswith((".calls", ".max_defect"))
        or k in ("taylor.mul.flops", "taylor.series.allocs", "jets.Jet.constructions", "verify.retries")
    }


def test_gate_rejects_known_wrong_outputs(jf):
    assert wl.gate_self_test(jf, seed=5) == []


def test_perturbed_record_counts_as_failed(jf, monkeypatch):
    inp = wl.eval_inputs(0)[0]
    genuine = wl.eval_op

    def perturbed(jf_, inp_, order):
        branch, records, parsed = genuine(jf_, inp_, order)
        parsed[-1] = {**parsed[-1], "value": parsed[-1]["value"] * (1 + 1e-12)}
        return branch, records, parsed

    outcome = run.Outcome()
    run._eval_once(jf, inp, 4, outcome)
    assert (outcome.attempted, outcome.failed) == (1, 0)
    monkeypatch.setattr(wl, "eval_op", perturbed)
    run._eval_once(jf, inp, 4, outcome)
    assert (outcome.attempted, outcome.failed) == (2, 1)


def test_raising_op_counts_as_failed(jf, monkeypatch):
    def raising(jf_, inp_, order):
        raise jf.errors.SingularFrameError("u_x")

    monkeypatch.setattr(wl, "eval_op", raising)
    outcome = run.Outcome()
    assert run._eval_once(jf, wl.eval_inputs(0)[0], 4, outcome) is None
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_one_suite_per_call_reports_as_one_battery_call(jf):
    whole = jf.verify.run_suite(("all",), seed=4, samples=3, order=wl.BATTERY_ORDER)
    split = [
        report
        for name in wl.SUITES
        for report in jf.verify.run_suite((name,), seed=4, samples=3, order=wl.BATTERY_ORDER)
    ]
    assert whole == split


def test_seed_alone_fixes_the_eval_inputs():
    assert wl.eval_inputs(3) == wl.eval_inputs(3)
    assert wl.eval_inputs(3) != wl.eval_inputs(4)
    inputs = wl.eval_inputs(3)
    assert len(inputs) == wl.SWEEP_SIZE
    assert {(i.solution, i.frame, i.branch) for i in inputs} == {
        ("soliton", "t", 1), ("soliton", "t", -1), ("soliton", "x", 1),
        ("soliton", "x", -1), ("rational", "x", 1), ("rational", "x", -1),
    }


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_runs_of_one_seed_count_the_same(traced, workload):
    first, outcome, _ = traced(workload, 2)
    second, _, _ = traced(workload, 2, repeat=1)
    assert outcome.failed == 0
    assert _exact_counts(first) == _exact_counts(second)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_listed_span_fires_on_its_workload(traced, workload):
    metrics, _, spans = traced(workload, 2)
    silent = [s for s, ws in run.SPANS.items() if workload in ws and metrics[f"{s}.calls"] == 0]
    assert silent == []
    assert metrics["jets.Jet.constructions"] > 0
    assert metrics["taylor.mul.flops"] > 0 and metrics["taylor.series.allocs"] > 0
    if workload == "battery":
        assert all(metrics[f"verify.{s}.s"] > 0 for s in wl.SUITES)
        assert 0 < metrics["defect_ratio_max"] < 1
    else:
        assert [s for s in run.UNUSED_BY_EVALS if s in spans] == []
        assert 0 < metrics["identity_defect_max"] <= wl.IDENTITY_TOL


def test_tracer_restores_every_binding(jf):
    before = (jf.taylor.TruncatedSeries.__mul__, jf.verify.pr_v_apply, jf.invariants.series_pow, jf.jets.Jet.__init__)
    tracer = tracing.Tracer()
    with tracer:
        assert jf.verify.pr_v_apply is not before[1]
        assert jf.invariants.series_pow is jf.taylor.series_pow is not before[2]
        assert jf.taylor.TruncatedSeries.__rmul__ is jf.taylor.TruncatedSeries.__mul__
        jf.taylor.TruncatedSeries.constant(2.0, 3) * 3.0
    after = (jf.taylor.TruncatedSeries.__mul__, jf.verify.pr_v_apply, jf.invariants.series_pow, jf.jets.Jet.__init__)
    assert after == before
    assert tracer.totals()["taylor.mul"]["calls"] == 1
    assert tracer.counters["taylor.mul.flops"] == tracing.triangle_size(3)


def test_tracer_skips_a_method_that_is_gone(jf, monkeypatch):
    monkeypatch.delattr(jf.invariants.SolutionGerm, "differentiate")
    with tracing.Tracer() as tracer:
        jf.taylor.TruncatedSeries.constant(2.0, 1) * 2.0
    assert "invariants.SolutionGerm.differentiate" not in tracer.totals()
    assert tracer.totals()["taylor.mul"]["calls"] == 1


def test_dense_mul_flops_counts_monomial_pairs():
    for m in (0, 1, 4, 7):
        pairs = sum(
            1
            for d1 in range(m + 1) for _ in range(d1 + 1)
            for d2 in range(m - d1 + 1) for _ in range(d2 + 1)
        )
        assert tracing.dense_mul_flops(m) == pairs


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(999) == 95
    assert run.tail_percentile(12) == 50
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER_METRICS)


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, bench / f.name)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "eval-o4", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
