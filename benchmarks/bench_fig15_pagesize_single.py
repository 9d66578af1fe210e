"""Figure 15: speedup of 64KB/1MB pages over 4KB, single-core."""

from conftest import emit, run_once

from repro.experiments import figures
from repro.experiments.report import format_table
from repro.models import zoo


def test_fig15_pagesize_single(benchmark, ctx, runner):
    data = run_once(benchmark, lambda: figures.fig15_pagesize_single(ctx, runner))
    rows = [
        (name, round(data["per_workload"][name]["64KB"], 3),
         round(data["per_workload"][name]["1MB"], 3))
        for name in zoo.NAMES
    ]
    rows.append(
        ("GEOMEAN", round(data["overall"]["64KB"], 3),
         round(data["overall"]["1MB"], 3))
    )
    emit(format_table(
        ["workload", "64KB/4KB", "1MB/4KB"], rows,
        title="\nFigure 15: page-size speedup over 4KB, single-core",
    ))
    overall = data["overall"]
    # Paper shape: large pages help meaningfully (paper: +17.6% at 64KB)
    # but the 64KB -> 1MB step adds almost nothing (+1.6%).
    assert 1.05 < overall["64KB"] < 1.45
    assert overall["1MB"] >= overall["64KB"] - 0.01
    assert overall["1MB"] - overall["64KB"] < 0.05
    per = data["per_workload"]
    # Sensitivity varies widely per workload (paper: gpt2 <= 5.8%,
    # dlrm up to 30%): recommendation > attention.
    assert per["gpt2"]["64KB"] < 1.10
    assert per["dlrm"]["64KB"] > per["gpt2"]["64KB"] + 0.05
    for name in zoo.NAMES:
        assert per[name]["64KB"] > 0.97, name  # large pages never hurt
