"""Figure 9: DRAM-bandwidth partitioning schemes, performance."""

from conftest import emit, run_once

from repro.experiments import figures
from repro.experiments.report import format_table


def test_fig9_bandwidth_partition_performance(benchmark, ctx, runner, dual_mixes):
    data = run_once(
        benchmark,
        lambda: figures.fig9_bandwidth_partition_performance(ctx, runner, dual_mixes),
    )
    rows = [
        (scheme, round(data["overall"][scheme], 3)) for scheme in data["schemes"]
    ]
    emit(format_table(
        ["scheme", "geomean speedup vs Ideal"], rows,
        title="\nFigure 9: bandwidth partitioning (translation disabled)",
    ))
    overall = data["overall"]
    # Paper shape: the equal 4:4 split is the best static ratio; dynamic
    # sharing beats even the per-mix best static scheme.
    static_ratios = ["1:7", "2:6", "4:4", "6:2", "7:1"]
    assert overall["4:4"] == max(overall[s] for s in static_ratios)
    assert overall["Dynamic"] > overall["4:4"]
    assert overall["Dynamic"] >= overall["Static Best"] - 0.01
    # Unequal splits cost real performance (paper: "severe degradation").
    assert overall["1:7"] < overall["4:4"] - 0.02
    # Dynamic sharing recovers a large part of the static loss; the paper
    # reports 84% of Ideal vs 73% for 4:4 (a 1.14x gap).
    assert overall["Dynamic"] / overall["4:4"] > 1.02
