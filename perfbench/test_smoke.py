"""Smoke test: every workload, its output check and its traced run, at
minimum sizes (50 sites, two countries, two epochs, a few hundred
requests).  Run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "2", "--trace", str(trace),
            "--scale", "smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload: str, trace: int) -> None:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("perfbench-detail ")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines[-2]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def run_in_copy(program: str | None) -> subprocess.CompletedProcess:
    """Run the campaign workload in a directory holding only the
    benchmark files and, if given, a ``repro`` package made of
    ``program``."""
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        if program is not None:
            (bare / "src" / "repro").mkdir(parents=True)
            (bare / "src" / "repro" / "__init__.py").write_text(program)
        return subprocess.run(
            [
                sys.executable, "perfbench/run.py", "--workload", "campaign",
                "--seed", "1", "--seconds", "1", "--trace", "0",
                "--scale", "smoke",
            ],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def test_refuses_to_run_without_program_sources() -> None:
    proc = run_in_copy(None)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_crashing_program_counts_as_failed() -> None:
    proc = run_in_copy('raise RuntimeError("broken build")\n')
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "broken build" in lines[-2]
    assert set(result["metrics"]) == {e["name"] for e in SPEC["end_to_end"]}
