"""Self-tests of the benchmark.  From the repository root::

    python3 -m pytest perfbench

They take about half a minute: the count test solves the gate matrix three
times.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

DPOQUBO = run._import_package()

from tracing import Tracer, layer_metrics  # noqa: E402  (imports the package)


@pytest.fixture(scope="module")
def bench():
    return run.Bench(DPOQUBO, "gate-matrix", seed=0)


def test_work_counts_repeat_exactly(bench):
    metrics, reps, mismatches = run.measure_traced(bench, seconds=0)
    again = bench.rep(Tracer())
    assert not mismatches and not again.mismatches
    repeated = layer_metrics(again.tracer, again.wall_s)
    counts = [k for k, unit in run.metric_units("per_layer").items() if unit == "count"]
    counts.remove("harness.feasible_runs")  # taken from the untraced repetition
    assert {k: metrics[k] for k in counts} == {k: repeated[k] for k in counts}
    assert metrics["trace.coverage"] >= 0.95
    # every tuning call, solve and block visit is seen by the tracer
    assert metrics["precision.tune.calls"] == metrics["precision.quantize.calls"]
    assert metrics["backends.tabu.calls"] + metrics["backends.sa.calls"] >= metrics["precision.tune.calls"]
    assert metrics["bcd.visits"] > 0
    # tracing leaves the report byte-identical
    assert len({r.summary_sha256 for r in [*reps, again]}) == 1


def test_output_check_flags_wrong_energy_and_feasibility(bench):
    dpo = bench.dpo
    reports = dpo.run_matrix(
        bench.panel, bench.config, ["tabu"], bench.variants[2:3], runs=1, seed=0
    )
    assert bench.check(reports) == []
    (good,) = reports
    shifted = replace(good, energy=good.energy * (1 + 1e-6))
    flipped = replace(good, feasible=not good.feasible)
    assert len(bench.check([shifted])) == 1
    assert len(bench.check([flipped])) == 1


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in run.ROOT.joinpath("perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gate-matrix",
         "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
