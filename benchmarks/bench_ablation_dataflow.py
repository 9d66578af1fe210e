"""Ablation (extension): output- vs weight- vs input-stationary dataflow.

The paper evaluates the OS dataflow and lists WS as future work
(section 4.1.2); this reproduction implements OS, WS, and IS as
registered engines.  This bench compares single-core latency per
workload under each dataflow on the same system, through the
``dataflow_compare`` figure.
"""

from conftest import emit, run_once

from repro.compute.dataflow import registered_dataflows
from repro.experiments import figures
from repro.experiments.report import format_table


def test_ablation_dataflow(benchmark, ctx, runner):
    engines = registered_dataflows()
    reduced = run_once(
        benchmark, lambda: figures.run_figures(ctx, runner, ["dataflow_compare"])
    )
    data = reduced["dataflow_compare"]["cycles"]
    rows = [
        (
            name,
            *(values[engine] for engine in engines),
            round(values["os"] / values["ws"], 2),
            round(values["os"] / values["is"], 2),
        )
        for name, values in data.items()
    ]
    emit(format_table(
        ["workload", *(f"{e.upper()} cycles" for e in engines), "OS/WS", "OS/IS"],
        rows,
        title="\nAblation: dataflow choice (single-core, mini scale)",
    ))
    # Every dataflow must run everything; none dominates universally —
    # WS favors long activation streams, IS favors tall outputs, OS
    # favors deep reductions.
    assert all(
        values[engine] > 0 for values in data.values() for engine in engines
    )
    for alt in ("ws", "is"):
        ratios = [values["os"] / values[alt] for values in data.values()]
        assert max(ratios) > 1.0 or min(ratios) < 1.0
