"""Figure 7: quad-core fairness CDF per sharing level."""

from conftest import emit, run_once

from repro.experiments import figures
from repro.experiments.report import cdf_summary, format_table


def test_fig7_shape(benchmark, ctx, runner, quad_mixes):
    data = run_once(
        benchmark,
        lambda: figures.run_figures(ctx, runner, ["fig7"], {4: quad_mixes})["fig7"],
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
        title=f"\nFigure 7: quad-core fairness CDF over {len(quad_mixes)} mixes",
    ))
    overall = data["overall"]
    # Paper shape: fairness degradation from sharing stays minor, and
    # quad-core fairness sits below the dual-core values (more
    # co-runners, more interference).
    for level in levels:
        assert overall[level] > 0.75
    assert abs(overall["+DWT"] - overall["+DW"]) < 0.06
