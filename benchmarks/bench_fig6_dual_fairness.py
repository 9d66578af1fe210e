"""Figure 6: dual-core fairness (Equation 1) per sharing level."""

from conftest import emit, run_once

from repro.experiments import figures
from repro.experiments.report import format_table


def test_fig6_dual_fairness(benchmark, ctx, runner, dual_mixes):
    data = run_once(
        benchmark, lambda: figures.fig6_dual_fairness(ctx, runner, dual_mixes)
    )
    levels = ["Static", "+D", "+DW", "+DWT"]
    rows = [
        (mix, *(round(values[level], 3) for level in levels))
        for mix, values in sorted(data["per_mix"].items())
    ]
    rows.append(("GEOMEAN", *(round(data["overall"][level], 3) for level in levels)))
    emit(format_table(
        ["mix"] + levels, rows,
        title="\nFigure 6: dual-core fairness per mix (Equation 1)",
    ))
    overall = data["overall"]
    # Paper shape: fairness stays high (>= ~0.85) at every level — the
    # paper's headline is that sharing costs only *minor* fairness.
    for level in levels:
        assert overall[level] > 0.80
    # TLB sharing has no meaningful fairness effect (section 4.4.2).
    assert abs(overall["+DWT"] - overall["+DW"]) < 0.06
