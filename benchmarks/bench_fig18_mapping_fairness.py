"""Figure 18: workload-mapping fairness CDF (4 dual-core NPUs)."""

import os

from conftest import emit, run_once

from repro.experiments import figures
from repro.experiments.mixes import subset_mixes
from repro.experiments.report import cdf_summary, format_table


def test_fig18_shape(benchmark, ctx, runner):
    limit = int(os.environ.get("REPRO_MAPPING_SETS", "6435"))
    sets = subset_mixes(8, limit)
    data = run_once(
        benchmark,
        lambda: figures.run_figures(ctx, runner, ["fig18"], {8: sets})["fig18"],
    )
    rows = []
    for policy in ("oracle", "model", "random", "worst"):
        summary = cdf_summary(data["cdf"][policy])
        rows.append(
            (policy, round(summary["p10"], 3), round(summary["p50"], 3),
             round(summary["p90"], 3))
        )
    emit(format_table(
        ["policy", "p10", "p50", "p90"], rows,
        title=(f"\nFigure 18: mapping fairness over {len(sets)} "
               "eight-workload sets, normalized to random placement"),
    ))
    emit(
        "model improves fairness over random placement in "
        f"{data['model_improved_fraction']:.1%} of scenarios "
        "(paper: 60.90%)"
    )
    norm = data["normalized"]
    for i in range(len(norm["model"])):
        assert norm["oracle"][i] >= norm["model"][i] - 1e-9
        assert norm["model"][i] >= norm["worst"][i] - 1e-9
    # Paper shape: the model improves fairness in a majority-ish share of
    # scenarios (60.9% in the paper).
    assert data["model_improved_fraction"] > 0.4
