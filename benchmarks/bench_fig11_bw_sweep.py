"""Figure 11: single-core speedup vs DRAM bandwidth."""

from conftest import emit, run_once

from repro.experiments import figures
from repro.experiments.report import format_table
from repro.models import zoo


def test_fig11_bandwidth_sweep(benchmark, ctx, runner):
    data = run_once(benchmark, lambda: figures.fig11_bandwidth_sweep(ctx, runner))
    counts = data["channel_counts"]
    rows = []
    for name in zoo.NAMES:
        series = dict(data["speedup"][name])
        rows.append((name, *(round(series[count], 2) for count in counts)))
    emit(format_table(
        ["workload"] + [f"{count}ch" for count in counts], rows,
        title="\nFigure 11: speedup vs DRAM bandwidth "
        "(normalized to 1 channel = 32 GB/s-equivalent)",
    ))
    for name in zoo.NAMES:
        series = [value for _, value in data["speedup"][name]]
        # Monotone non-decreasing: more bandwidth never hurts.
        for a, b in zip(series, series[1:]):
            assert b >= a - 0.02, name
        # Paper shape: the relationship is sub-linear — 8x the bandwidth
        # gives far less than 8x the performance.
        assert series[-1] < 8.0 * 0.8, name
        assert series[-1] >= 1.0, name
    # Memory-intensive workloads benefit more than compute-bound ones.
    last = {name: data["speedup"][name][-1][1] for name in zoo.NAMES}
    assert last["sfrnn"] > last["gpt2"]
    assert last["dlrm"] > last["yt"]
