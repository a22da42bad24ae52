"""Smoke runs of every workload at the smallest campaign the executor accepts.

The campaign executor's variance loop needs at least two runs per
scenario, so the smoke uses two (``--runs 2``) and one repetition.
"""

import json
import pathlib
import subprocess
import sys

import pytest

import metrics
import workloads

BENCH = pathlib.Path(__file__).resolve().parents[1]
TIMEOUT_S = 170


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_clean(result: dict, catalogue) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _, _ in catalogue]
    for name, unit, _ in catalogue:
        assert result["metrics"][name]["unit"] == unit


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_smoke_passes_its_output_checks(name):
    result = _run(
        "--workload", name, "--seed", "3", "--seconds", "0", "--trace", "1",
        "--runs", "2", "--min-reps", "1",
    )
    _assert_clean(result, metrics.PER_LAYER)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    scenarios = workloads.WORKLOADS[name].expected_scenarios
    assert values["migration.jobs"] == 2 * scenarios
    assert values["aggregate.samples"] == 2 * 2 * scenarios
    assert values["trace.overhead_x"] > 0
    assert values["memory.advance_calls"] > 0
    assert values["kernels.calls"] > 0
    if name == "table7-2w":
        assert values["io.cache_puts"] == 2 * scenarios
        assert values["queue.lane_busy_frac"] > 0
    if name.startswith("table7"):
        assert values["models.fit_calls"] == 8  # four models x two kinds
        assert values["models.wavm3_nrmse_pct"] > 0


def test_untraced_smoke_emits_the_end_to_end_metrics():
    result = _run(
        "--workload", "memload-serial", "--seed", "3", "--seconds", "0",
        "--trace", "0", "--runs", "2", "--min-reps", "1",
    )
    _assert_clean(result, metrics.END_TO_END)
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert all(v["value"] > 0 for v in result["metrics"].values())


def _coordinator(work: pathlib.Path, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "coordinator.py"), "--workload", "table7-2w",
         "--seed", "5", "--runs", "2", "--work-dir", str(work), *args],
        capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["failed"] == 0 and not report["problems"]
    return report


def test_two_worker_samples_equal_the_serial_campaign(tmp_path):
    distributed = _coordinator(tmp_path / "2w")
    serial = _coordinator(tmp_path / "serial", "--serial")
    assert distributed["samples_sha"] == serial["samples_sha"]


def test_without_program_sources_it_exits_nonzero_and_prints_nothing(tmp_path):
    bench = tmp_path / "campaign_bench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "campaign_bench/run.py", "--workload", "memload-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
