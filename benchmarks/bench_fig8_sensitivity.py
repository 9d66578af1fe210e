"""Figure 8: per-workload contention sensitivity under +DWT (box plot)."""

from conftest import emit, run_once

from repro.experiments import figures
from repro.experiments.report import format_table


def test_fig8_shape(benchmark, ctx, runner, dual_mixes):
    data = run_once(
        benchmark,
        lambda: figures.run_figures(ctx, runner, ["fig8"], {2: dual_mixes})["fig8"],
    )
    rows = [
        (name, round(box["min"], 3), round(box["q1"], 3),
         round(box["median"], 3), round(box["q3"], 3), round(box["max"], 3),
         round(data["range"][name], 3))
        for name, box in data["boxes"].items()
    ]
    emit(format_table(
        ["workload", "min", "q1", "median", "q3", "max", "range"], rows,
        title="\nFigure 8: +DWT speedup distribution per workload (dual-core)",
    ))
    ranges = data["range"]
    # Paper shape: memory-intensive workloads (sfrnn, dlrm) see wider
    # performance swings across co-runners than the compute-intensive
    # CNNs (yt, res) and gpt2.
    assert ranges["sfrnn"] > ranges["yt"]
    assert ranges["dlrm"] > ranges["gpt2"]
    assert ranges["gpt2"] == min(ranges.values()) or ranges["yt"] < 0.35
    # Every workload is slowed by contention at least sometimes.
    for name, box in data["boxes"].items():
        assert box["min"] < 1.01, name
