"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench

Runs every workload untraced and traced through ``run.py --smoke`` and
checks the result line against ``BENCHMARK.json``; also checks that the
benchmark refuses to run without the program, that its output checks
catch a wrong log, and how times are scaled to nominal host speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import checks  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload: str, trace: int) -> None:
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_log_catches_a_wrong_verdict() -> None:
    events = [
        {"action": "msg", "dir": "in", "seq": 0},
        {"action": "ack", "dir": "out", "seq": 1},
        {"action": "msg", "dir": "in", "seq": 2},
        {"action": "msg", "dir": "in", "seq": 3},
    ]
    log = checks.reference_log(checks.RECEIVER, events, error=0.1, warmup=2)
    # R0 --msg--> R1 is unmonitored; then ack (1/1), msg (1/2), msg (2/3).
    assert [(e["action"], e["observed"], e["verdict"]) for e in log] == [
        ("ack", 1.0, "warmup"),
        ("msg", 0.5, "ok"),
        ("msg", 2 / 3, "deviation_high"),
    ]
    assert checks.compare_log(log, log) is None
    tampered = [dict(e) for e in log]
    tampered[1]["verdict"] = "deviation_low"
    assert checks.compare_log(tampered, log) is not None


def test_reference_log_flags_illegal_events() -> None:
    events = [{"action": "ack", "dir": "out", "seq": 0}]
    assert checks.reference_log(checks.RECEIVER, events, 0.1, 0)[0]["verdict"] == "illegal"


def test_scaled_seconds_use_the_kernel_timings_around_each_command() -> None:
    nominal = calibrate.NOMINAL_S
    kernel_s = [nominal, 3 * nominal, 2 * nominal]
    commands = [
        {"seconds": 1.0, "kernel": 0},  # between timings 0 and 1: host at half speed
        {"seconds": 1.0, "kernel": 1},  # between timings 1 and 2
        {"seconds": 1.0, "kernel": 2},  # after the last timing
    ]
    assert calibrate.scaled_seconds(commands, kernel_s) == pytest.approx([0.5, 0.4, 0.5])
