"""Tests of the benchmark itself: every output check can fail, counts repeat.

    python3 -m pytest -q bench/test_bench.py

The tests that start the benchmark in fresh interpreters take about two
minutes together.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from qheis import audit  # noqa: E402


def failed_ratio(checks):
    return sum(not workloads.passed(res, tol) for _, res, tol in checks) / len(checks)


def one_item(name):
    (item,) = workloads.make_inputs(name, seed=5, count=1)
    return item, workloads.run_item(name, item)


def test_reducer_propagates_nan():
    assert math.isnan(workloads.worst([1.0, math.nan, 2.0]))
    assert max(0.0, math.nan) == 0.0  # what Python's max would have reported
    assert not workloads.passed(math.nan, 1.0)
    assert not workloads.passed(math.inf, 1.0)
    assert workloads.passed(0.5, 1.0)


def test_inputs_follow_the_seed():
    for name in workloads.NAMES:
        a = workloads.make_inputs(name, 7, 3)
        b = workloads.make_inputs(name, 7, 3)
        c = workloads.make_inputs(name, 8, 3)
        flat = lambda items: np.concatenate(  # noqa: E731
            [np.ravel(np.asarray(v, dtype=float)) for item in items for v in item.values()])
        assert np.array_equal(flat(a), flat(b))
        assert not np.array_equal(flat(a), flat(c))


def test_recover_checks_fail_on_a_wrong_reference_or_nan():
    item, result = one_item("recover")
    assert failed_ratio(workloads.grade("recover", item, result)) == 0.0

    moved = dict(item, g0=item["g0"] + np.eye(7)[6] * 1e-2)
    assert failed_ratio(workloads.grade("recover", moved, result)) > 0.0
    wider = dict(item, nu=item["nu"] * (1.0 + 1e-5))
    assert failed_ratio(workloads.grade("recover", wider, result)) > 0.0
    center = np.array(result.params.center)
    center[3] = math.nan
    nan_center = dataclasses.replace(
        result, params=dataclasses.replace(result.params, center=center))
    assert failed_ratio(workloads.grade("recover", item, nan_center)) > 0.0


def test_integrate_checks_fail_on_a_wrong_reference_or_nan(monkeypatch):
    item, (record, quotients) = one_item("integrate")
    assert failed_ratio(workloads.grade("integrate", item, (record, quotients))) == 0.0

    nan_variant = [quotients[0], quotients[1], math.nan, quotients[3]]
    assert failed_ratio(workloads.grade("integrate", item, (record, nan_variant))) > 0.0
    for reference in ("GAUGE_CLOSED", "MASS_CLOSED", "QUOTIENT_CLOSED"):
        with monkeypatch.context() as m:
            m.setattr(workloads, reference, getattr(workloads, reference) * (1.0 + 1e-6))
            assert failed_ratio(workloads.grade("integrate", item, (record, quotients))) > 0.0


def test_verify_checks_fail_on_a_wrong_reference_or_nan(monkeypatch):
    item, reports = one_item("verify")
    assert failed_ratio(workloads.grade("verify", item, reports)) == 0.0

    with monkeypatch.context() as m:
        m.setattr(audit, "Q_SPECTRUM", audit.Q_SPECTRUM + 1e-6)
        _, reports = one_item("verify")
        assert failed_ratio(workloads.grade("verify", item, reports)) > 0.0
    with monkeypatch.context() as m:
        m.setattr(audit, "q_spectrum", lambda: np.full(6, math.nan))
        _, reports = one_item("verify")
        assert failed_ratio(workloads.grade("verify", item, reports)) > 0.0


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_untraced_run_reports_the_end_to_end_metrics():
    proc = run_bench(ROOT, "verify", trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_counts_repeat_between_traced_runs(workload):
    results = []
    for _ in range(2):
        proc = run_bench(ROOT, workload, trace=1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
        results.append({k: v["value"] for k, v in result["metrics"].items()
                        if v["unit"] in ("count", "B")})
    assert results[0] == results[1]
    assert results[0]["jets.points_jet"] > 0 and results[0]["extremals.calls"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench(tmp_path, "verify", trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
