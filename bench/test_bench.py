"""Tests of the benchmark itself, at smoke size (a few seconds per run).

    python3 -m pytest -q bench/test_bench.py

The package's own suite (`tests/`) does not collect this file.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_its_checks(workload):
    result = _result(_run(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _result(_run(workload, 1)), _result(_run(workload, 1))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert first["metrics"]["trace.missing_targets"]["value"] == 0
    for name, m in first["metrics"].items():
        if m["unit"] != "s":
            assert m["value"] == second["metrics"][name]["value"], name


def test_scaled_clock_leaves_kernel_time_out():
    import time

    import hostspeed

    clock = hostspeed.ScaledClock()
    t = time.perf_counter()
    while time.perf_counter() - t < 0.35:   # busy work across 3 alarms
        pass
    mid = time.perf_counter()
    clock.stop()
    raw, scaled = clock.total()
    first, second = clock.span(clock.t0, mid), clock.span(mid, clock.t1)
    assert len(clock._refs) >= 4
    assert 0.0 < raw < clock.t1 - clock.t0 - 2 * hostspeed.NOMINAL_S
    assert scaled > 0.0
    assert first[0] + second[0] == pytest.approx(raw)
    assert first[1] + second[1] == pytest.approx(scaled)


def test_missing_targets_are_skipped_and_listed():
    targets = [("solver.step", ["spidergda.solver:no_such_function",
                                "spidergda.projections:NoSuchSet.project",
                                "no_such_module:step"])]
    tracer = tracing.Tracer().install(span_targets=targets, count_targets=[])
    try:
        assert tracer.missing == targets[0][1]
    finally:
        tracer.uninstall()


def test_wrappers_are_removed_after_a_traced_unit():
    import spidergda.solver

    original = spidergda.solver.step
    tracer = tracing.Tracer().install()
    assert spidergda.solver.step is not original
    tracer.uninstall()
    assert spidergda.solver.step is original


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
