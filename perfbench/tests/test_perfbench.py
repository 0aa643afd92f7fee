"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``.

Each test drives ``run.py`` as a subprocess on a few instances of a pool
(``--limit``), the way the benchmark is run for real.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

# Self times of the layers; together with the request's own self time they
# partition the traced request time.
LAYER_SELF_METRICS = [
    "_kernel.search_s",
    "oracle.enumerate_s",
    "oracle.self_s",
    "engine.replay_s",
    "engine.simulate_s",
    "engine.verify_s",
    "policies.select_s",
    "allocation.allocate_budgeted_s",
    "allocation.run_online_s",
]


def bench(root: Path, workload: str, trace: int, limit: int = 2) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--limit", str(limit)],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def final_line(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = bench(ROOT, workload, trace, limit=1)
    assert done.returncode == 0, done.stderr
    result = final_line(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    report = done.stdout.splitlines()[:-1]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(result["metrics"][metric["name"]]["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"] for line in report)


def _copy_bench(tmp_path: Path, with_program: bool) -> Path:
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_program:
        (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp_path


def test_corrupted_reference_entry_fails_the_run(tmp_path):
    root = _copy_bench(tmp_path, with_program=True)
    path = root / "perfbench" / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    reference["oracle-repair-dominant"]["instances"][1]["optimal_reward"] += 1
    path.write_text(json.dumps(reference), encoding="utf-8")
    done = bench(root, "oracle-repair-dominant", 0, limit=3)
    assert done.returncode == 1
    result = final_line(done)
    assert not result["correct"]
    assert result["failed"] > 0 and result["failed"] / result["attempted"] > 0
    assert "FAILED instance 1: optimal_reward" in done.stdout


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    root = _copy_bench(tmp_path, with_program=False)
    done = bench(root, "oracle-uniform", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("workload", ["oracle-repair-dominant", "solvers-long"])
def test_layer_self_times_sum_to_the_traced_total(workload):
    done = bench(ROOT, workload, 1, limit=3)
    assert done.returncode == 0, done.stderr
    metrics = {name: m["value"] for name, m in final_line(done)["metrics"].items()}
    layers = sum(metrics[name] for name in LAYER_SELF_METRICS)
    total = metrics["trace.total_s"]
    assert layers <= total
    assert layers + metrics["trace.request_self_s"] == pytest.approx(total, rel=1e-9, abs=1e-9)
    assert layers >= 0.9 * total


def test_solvers_long_never_calls_the_kernel():
    done = bench(ROOT, "solvers-long", 1, limit=2)
    assert done.returncode == 0, done.stderr
    metrics = final_line(done)["metrics"]
    assert metrics["_kernel.calls"]["value"] == 0
    assert metrics["engine.verify_s"]["value"] > 0


def test_a_missing_wrapped_name_is_reported_as_an_absent_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    from repairalloc import _kernel

    monkeypatch.delattr(_kernel, "solve_allocation")
    tracer = tracing.Tracer()
    assert tracer.absent == ["_kernel"]
    tracer.install()
    tracer.uninstall()
    assert not hasattr(_kernel, "solve_allocation")


def test_a_request_is_corrected_by_the_chunks_around_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import calibration

    calibrator = calibration.Calibrator()
    calibrator.starts = [float(t) for t in range(40)]
    calibrator.chunks = [0.002] * 20 + [0.0005] * 20
    reference = calibration.REFERENCE_CHUNK_S
    # A short request is corrected by the chunks next to it ...
    assert calibrator.factor(9.5, 0.1) == pytest.approx(reference / 0.002)
    assert calibrator.factor(29.5, 0.1) == pytest.approx(reference / 0.0005)
    # ... a long one by those within its own duration on either side.
    assert calibrator.factor(14.5, 2.0) == pytest.approx(reference / 0.002)
    assert calibrator.factor(16.5, 12.0) == pytest.approx(reference / 0.0005)
    calibrator.run(3)
    assert len(calibrator.chunks) == 43 and all(seconds > 0 for seconds in calibrator.chunks[40:])
