"""Figure 18: workload-mapping fairness CDF (4 dual-core NPUs)."""

import os

import pytest
from conftest import emit, run_once

from repro.experiments.mixes import subset_mixes
from repro.experiments.report import cdf_summary, format_table
from repro.mapping import MappingStudy, fig18_mapping_fairness


@pytest.fixture(scope="module")
def study(ctx, runner):
    return MappingStudy(ctx, runner)


def test_fig18_mapping_fairness(benchmark, study):
    limit = int(os.environ.get("REPRO_MAPPING_SETS", "6435"))
    sets = subset_mixes(8, limit)
    data = run_once(benchmark, lambda: fig18_mapping_fairness(study, sets))
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
