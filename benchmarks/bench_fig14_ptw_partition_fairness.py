"""Figure 14: page-table-walker partitioning schemes, fairness."""

from conftest import emit, run_once

from repro.experiments import figures
from repro.experiments.report import format_table


def test_fig14_ptw_partition_fairness(benchmark, ctx, runner, dual_mixes):
    data = run_once(
        benchmark,
        lambda: figures.fig14_ptw_partition_fairness(ctx, runner, dual_mixes),
    )
    rows = [
        (scheme, round(data["overall"][scheme], 3)) for scheme in data["schemes"]
    ]
    emit(format_table(
        ["scheme", "geomean fairness"], rows,
        title="\nFigure 14: walker partitioning fairness (4-walker pool)",
    ))
    overall = data["overall"]
    # Paper shape: the equal split and dynamic sharing are the fair
    # options; skewed walker splits hurt fairness.
    assert overall["2:2"] > overall["1:3"]
    assert overall["2:2"] > overall["3:1"]
    assert overall["Dynamic"] > overall["1:3"]
    assert abs(overall["Dynamic"] - overall["2:2"]) < 0.12
