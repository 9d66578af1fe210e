"""Figure 13: page-table-walker partitioning schemes, performance."""

from conftest import emit, run_once

from repro.experiments import figures
from repro.experiments.report import format_table


def test_fig13_ptw_partition_performance(benchmark, ctx, runner, dual_mixes):
    data = run_once(
        benchmark,
        lambda: figures.fig13_ptw_partition_performance(ctx, runner, dual_mixes),
    )
    rows = [
        (scheme, round(data["overall"][scheme], 3)) for scheme in data["schemes"]
    ]
    emit(format_table(
        ["scheme", "geomean speedup vs Ideal"], rows,
        title="\nFigure 13: walker partitioning (4-walker dual-core pool)",
    ))
    overall = data["overall"]
    skewed = [s for s in data["schemes"] if s not in ("2:2", "Dynamic")]
    # Paper shape: skewed walker splits lose performance; the equal split
    # and dynamic sharing are the competitive schemes.  (At mini scale
    # a 2-walker-per-core pool is no longer scarce, so dynamic sharing
    # matches rather than beats the equal split — see EXPERIMENTS.md;
    # the dynamic-sharing *win* under the baseline walker-scarce pool is
    # Figure 4's +D -> +DW step.)
    for scheme in skewed:
        assert overall[scheme] < overall["2:2"], scheme
        assert overall["Dynamic"] > overall[scheme] - 0.01, scheme
    assert abs(overall["Dynamic"] - overall["2:2"]) < 0.035
