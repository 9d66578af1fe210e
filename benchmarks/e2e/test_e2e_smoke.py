"""Smoke test of the end-to-end benchmark: a few minutes on one core.

Runs ``run.py --smoke`` untraced and traced over all four workloads and
checks that the printed metrics are exactly those BENCHMARK.json lists,
that tracing leaves every checked output unchanged, and that nothing
failed.  From the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [row["name"] for row in BENCHMARK["workloads"]]
SECTIONS = {0: "end_to_end", 1: "per_layer"}

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def results() -> dict[int, tuple[int, dict]]:
    """``trace -> (exit code, final JSON line)`` of one smoke run each."""
    runs = {}
    for trace in SECTIONS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", str(trace)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        runs[trace] = (proc.returncode, json.loads(proc.stdout.splitlines()[-1]))
    return runs


@pytest.mark.parametrize("trace", sorted(SECTIONS))
def test_printed_metrics_are_the_listed_ones(results, trace):
    _, summary = results[trace]
    listed = {row["name"]: row["unit"] for row in BENCHMARK[SECTIONS[trace]]}
    expected = {
        f"{workload}.{metric}": unit
        for workload in WORKLOADS
        for metric, unit in listed.items()
    }
    printed = {name: row["unit"] for name, row in summary["metrics"].items()}
    assert printed == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_outputs_unchanged(results, workload):
    outputs = [
        json.loads((HERE / "out" / f"{workload}.trace{trace}.json").read_text())
        for trace in SECTIONS
    ]
    untraced, traced = (artifact["outputs"] for artifact in outputs)
    assert untraced and untraced == traced


@pytest.mark.parametrize("trace", sorted(SECTIONS))
def test_nothing_failed(results, trace):
    code, summary = results[trace]
    assert summary["failed"] == 0 and summary["correct"]
    assert summary["attempted"] > 0 and code == 0
