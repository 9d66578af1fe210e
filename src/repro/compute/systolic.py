"""Systolic-array timing primitives (SCALE-Sim style).

The paper implements the output-stationary (OS) dataflow and lists other
dataflows as future work (section 4.1.2).  This module holds the
per-pass timing formulas those dataflows are built from; the dataflow
*engines* that compose them (tiling policy + tile-level cost model) live
in :mod:`repro.compute.engines`.

**Output stationary**: an ``R x C`` array computes an ``R x C`` block of
outputs per *pass*: A-operand rows stream in from the left, B-operand
columns from the top, partial sums stay in place.  SCALE-Sim's timing for
one pass over a reduction depth ``k`` is::

    pass_cycles = 2*R + C + k - 2

(``k`` cycles of streaming plus the skew/fill/drain of the array).  A
``(m, k, n)`` GEMM needs ``ceil(m/R) * ceil(n/C)`` passes.

**Weight stationary**: the array pre-loads an ``R x C`` block of the
weight matrix A (``R`` reduction rows by ``C`` output features), then
streams all ``n`` activation columns through it::

    pass_cycles = R + (n + R + C - 2)

(``R`` cycles of weight loading, then ``n`` columns with fill/drain
skew).  A GEMM needs ``ceil(k/R) * ceil(m/C)`` weight folds.  WS
amortizes weight loads over large ``n`` and pays per-fold overheads for
deep reductions — the classic OS/WS trade-off SCALE-Sim exposes.

**Input stationary**: the mirror of WS — an ``R x C`` block of the
*input* activations (``R`` reduction rows by ``C`` output columns) stays
resident while the ``m`` weight rows stream through it::

    pass_cycles = R + (m + R + C - 2)

A GEMM needs ``ceil(k/R) * ceil(n/C)`` input folds, so IS amortizes the
input load over large ``m`` the way WS amortizes weights over large
``n``.
"""

from __future__ import annotations

from dataclasses import dataclass


def os_pass_cycles(rows: int, cols: int, k: int) -> int:
    """Cycles for one output-stationary pass over reduction depth ``k``."""
    if rows <= 0 or cols <= 0 or k <= 0:
        raise ValueError("pass dimensions must be positive")
    return 2 * rows + cols + k - 2


@dataclass(frozen=True)
class ComputeEstimate:
    """Timing/utilization of one GEMM (or GEMM tile) on the array."""

    cycles: int
    macs: int
    pe_utilization: float


def ws_pass_cycles(rows: int, cols: int, n: int) -> int:
    """Cycles for one weight-stationary fold streaming ``n`` columns."""
    if rows <= 0 or cols <= 0 or n <= 0:
        raise ValueError("pass dimensions must be positive")
    return rows + n + rows + cols - 2


def is_pass_cycles(rows: int, cols: int, m: int) -> int:
    """Cycles for one input-stationary fold streaming ``m`` weight rows."""
    if rows <= 0 or cols <= 0 or m <= 0:
        raise ValueError("pass dimensions must be positive")
    return rows + m + rows + cols - 2
