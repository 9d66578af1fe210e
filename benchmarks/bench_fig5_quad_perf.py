"""Figure 5: quad-core performance CDF per sharing level."""

from conftest import emit, run_once

from repro.experiments import figures
from repro.experiments.report import cdf_summary, format_table


def test_fig5_quad_performance(benchmark, ctx, runner, quad_mixes):
    data = run_once(
        benchmark, lambda: figures.fig5_quad_performance(ctx, runner, quad_mixes)
    )
    levels = ["Static", "+D", "+DW", "+DWT"]
    rows = []
    for level in levels:
        summary = cdf_summary(data["cdf"][level])
        rows.append(
            (level, round(data["overall"][level], 3),
             round(summary["p10"], 3), round(summary["p50"], 3),
             round(summary["p90"], 3))
        )
    emit(format_table(
        ["level", "geomean", "p10", "p50", "p90"], rows,
        title=f"\nFigure 5: quad-core speedup CDF over {len(quad_mixes)} mixes",
    ))
    overall = data["overall"]
    # Paper shape: quad-core contention is heavier than dual-core, the
    # sharing levels keep the same ordering, walker sharing still helps.
    assert overall["+D"] >= overall["Static"] - 0.01
    assert overall["+DW"] > overall["+D"]
    assert abs(overall["+DWT"] - overall["+DW"]) < 0.06
    assert overall["+D"] < 0.95  # well below Ideal, as in the paper's 63%
