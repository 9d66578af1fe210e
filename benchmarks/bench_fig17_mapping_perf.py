"""Figure 17: workload-mapping performance CDF (4 dual-core NPUs)."""

import os

import pytest
from conftest import emit, run_once

from repro.experiments.mixes import subset_mixes
from repro.experiments.report import cdf_summary, format_table
from repro.mapping import MappingStudy, fig17_mapping_performance


@pytest.fixture(scope="module")
def study(ctx, runner):
    return MappingStudy(ctx, runner)


def _sets():
    """Eight-workload sets to evaluate (paper: all M(8,8) = 6435)."""
    limit = int(os.environ.get("REPRO_MAPPING_SETS", "6435"))
    return subset_mixes(8, limit)


def test_fig17_mapping_performance(benchmark, study):
    sets = _sets()
    data = run_once(benchmark, lambda: fig17_mapping_performance(study, sets))
    rows = []
    for policy in ("oracle", "model", "random", "worst"):
        summary = cdf_summary(data["cdf"][policy])
        rows.append(
            (policy, round(summary["p10"], 3), round(summary["p50"], 3),
             round(summary["p90"], 3))
        )
    emit(format_table(
        ["policy", "p10", "p50", "p90"], rows,
        title=(f"\nFigure 17: mapping performance over {len(sets)} "
               "eight-workload sets, normalized to random placement"),
    ))
    emit(
        "model beats random placement in "
        f"{data['model_improved_fraction']:.1%} of scenarios "
        "(paper: 50.04%)"
    )
    norm = data["normalized"]
    count = len(norm["model"])
    # Paper shape: oracle >= model >= worst everywhere; the model beats
    # random in roughly half the scenarios while avoiding the worst case.
    for i in range(count):
        assert norm["oracle"][i] >= norm["model"][i] - 1e-9
        assert norm["model"][i] >= norm["worst"][i] - 1e-9
    assert 0.3 < data["model_improved_fraction"] <= 1.0
    model_median = cdf_summary(data["cdf"]["model"])["p50"]
    worst_median = cdf_summary(data["cdf"]["worst"])["p50"]
    assert model_median > worst_median
