"""Shared fixtures for the figure/table benchmark harness.

Each ``bench_*.py`` regenerates one table or figure of the paper: it runs
the required simulations through the cached :class:`ExperimentRunner`
(so reruns are nearly free), prints the same rows/series the paper
reports, and asserts the qualitative *shape* — who wins, by roughly what
factor — documented in EXPERIMENTS.md.

Environment knobs:

* ``REPRO_QUAD_MIXES``  — quad-core mixes to simulate (default 60 of the
  330; set to 330 for the paper's full sweep — hours of CPU time on one
  core).
* ``REPRO_DUAL_MIXES``  — dual-core mixes (default: all 36).
* ``REPRO_CACHE_DIR``   — result cache location (default ./.repro_cache).
* ``REPRO_JOBS``        — worker processes for cold simulations (default
  1).  The figure reducers plan their whole spec set up front and execute
  it through one ``run_many`` batch, so a cold-cache regeneration scales
  with the cores you give it.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.mixes import subset_mixes
from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import PlanContext


#: Report blocks emitted by the benches, flushed after capture ends.
_EMITTED: list[str] = []


def emit(text: str) -> None:
    """Queue a benchmark's report for the end-of-run summary.

    pytest's fd-level capture swallows direct writes during the test, so
    the tables are printed from ``pytest_terminal_summary`` instead —
    after capture is torn down, where ``tee``/CI logs can see them.
    """
    _EMITTED.append(text)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print every regenerated table/figure after the test summary."""
    if not _EMITTED:
        return
    terminalreporter.section("regenerated tables and figures")
    for block in _EMITTED:
        terminalreporter.write_line(block)


@pytest.fixture(scope="session")
def ctx() -> PlanContext:
    """The plan defaults every benchmark's figures are planned with."""
    return PlanContext()


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """One cached experiment runner shared by every benchmark."""
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    jobs = int(os.environ.get("REPRO_JOBS", "1"))
    return ExperimentRunner(cache_dir=cache_dir, jobs=jobs)


@pytest.fixture(scope="session")
def dual_mixes() -> list[tuple[str, ...]]:
    """The dual-core mixes to evaluate (paper: all M(8,2) = 36)."""
    limit = int(os.environ.get("REPRO_DUAL_MIXES", "36"))
    return subset_mixes(2, limit)


@pytest.fixture(scope="session")
def quad_mixes() -> list[tuple[str, ...]]:
    """The quad-core mixes to evaluate (paper: all M(8,4) = 330).

    Defaults to a deterministic 60-mix subset so the suite completes in
    minutes on one CPU; set ``REPRO_QUAD_MIXES=330`` for the full sweep.
    """
    limit = int(os.environ.get("REPRO_QUAD_MIXES", "60"))
    return subset_mixes(4, limit)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The figures are regenerations, not micro-benchmarks: a second round
    would only measure the result cache.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
