"""Smoke test of the end-to-end benchmark at tiny sizes.

Every workload runs at ``--size smoke`` (well under a second of simulation)
with tracing off and on.  Run from the repository root with::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import hostclock
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_benchmark(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--size", "smoke",
    ]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=120)


def copy_checkout(destination: Path, with_source: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", destination)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, destination / "perfbench", ignore=ignore)
    if with_source:
        shutil.copytree(ROOT / "src", destination / "src", ignore=ignore)
    return destination


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_reports_every_declared_metric(workload: str, trace: int) -> None:
    completed = run_benchmark(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert reported == {metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_layer_map_names_every_layer_metric() -> None:
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    assert list(layer_map) == [metric["name"] for metric in BENCHMARK["per_layer"]]
    end_to_end = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) | set(entry["no_change_on"]) <= set(WORKLOAD_NAMES)


def test_changed_outputs_fail_the_run(tmp_path: Path) -> None:
    root = copy_checkout(tmp_path, with_source=True)
    assert run_benchmark(root, "fluid_scale", 0).returncode == 0
    (record,) = (root / ".perfbench").glob("digests-*.json")
    record.write_text(json.dumps({key: "0" * 64 for key in json.loads(record.read_text())}))
    completed = run_benchmark(root, "fluid_scale", 0)
    assert completed.returncode == 1
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_simulator(tmp_path: Path) -> None:
    root = copy_checkout(tmp_path, with_source=False)
    completed = run_benchmark(root, "packet_fig1", 0)
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_reference_clock_times_an_action_and_restores_the_timer() -> None:
    before = signal.getsignal(signal.SIGALRM)
    seconds, result = hostclock.measure(lambda: sum(hostclock.calibration_loop()
                                                    for _ in range(300)))
    assert result == 300 * hostclock.calibration_loop()
    assert seconds > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
