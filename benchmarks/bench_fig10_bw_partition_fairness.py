"""Figure 10: DRAM-bandwidth partitioning schemes, fairness."""

from conftest import emit, run_once

from repro.experiments import figures
from repro.experiments.report import format_table


def test_fig10_bandwidth_partition_fairness(benchmark, ctx, runner, dual_mixes):
    data = run_once(
        benchmark,
        lambda: figures.fig10_bandwidth_partition_fairness(ctx, runner, dual_mixes),
    )
    rows = [
        (scheme, round(data["overall"][scheme], 3)) for scheme in data["schemes"]
    ]
    emit(format_table(
        ["scheme", "geomean fairness"], rows,
        title="\nFigure 10: bandwidth partitioning fairness (translation disabled)",
    ))
    overall = data["overall"]
    # Paper shape: unequal static splits are unfair; dynamic sharing's
    # fairness is comparable to the equal split's (the best static).
    assert overall["4:4"] > overall["1:7"]
    assert overall["4:4"] > overall["7:1"]
    assert overall["Dynamic"] > overall["1:7"]
    assert abs(overall["Dynamic"] - overall["4:4"]) < 0.12
    # The most skewed splits are markedly unfair.
    assert overall["1:7"] < 0.85
