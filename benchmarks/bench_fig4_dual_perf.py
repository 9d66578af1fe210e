"""Figure 4: dual-core performance per sharing level, normalized to Ideal."""

from conftest import emit, run_once

from repro.experiments import figures
from repro.experiments.report import format_table


def test_fig4_shape(benchmark, ctx, runner, dual_mixes):
    data = run_once(
        benchmark,
        lambda: figures.run_figures(ctx, runner, ["fig4"], {2: dual_mixes})["fig4"],
    )
    levels = ["Static", "+D", "+DW", "+DWT"]
    rows = [
        (mix, *(round(values[level], 3) for level in levels))
        for mix, values in sorted(data["per_mix"].items())
    ]
    rows.append(("GEOMEAN", *(round(data["overall"][level], 3) for level in levels)))
    emit(format_table(
        ["mix"] + levels, rows,
        title="\nFigure 4: dual-core geomean speedup vs Ideal per mix",
    ))
    overall = data["overall"]
    # Paper shape: every sharing level beats the equal static partition;
    # walker sharing adds a further notable gain; TLB sharing is small.
    assert overall["+D"] >= overall["Static"]
    assert overall["+DW"] > overall["+D"]
    assert abs(overall["+DWT"] - overall["+DW"]) < 0.05
    # Magnitudes: +D lands in the paper's 0.6-0.9 band below Ideal.
    assert 0.6 < overall["+D"] < 0.95
