"""The dataflow engines: tiling policy plus compute-cycle model.

Each engine owns the two decisions a dataflow actually makes on a
systolic array (see :mod:`repro.compute.dataflow`, which registers them
by name):

* **tiling policy** (:meth:`DataflowEngine.tile_shape` /
  :meth:`DataflowEngine.tiles`): how a GEMM is decomposed under the
  half-SPM double-buffering budget and in which order tiles execute;
* **compute-cycle model** (:meth:`DataflowEngine.estimate`): how many
  array cycles one ``(m, k, n)`` tile costs.

Every engine produces the same per-tile artifacts — flat ``(addr,
count)`` run arrays and
:class:`~repro.compute.systolic.ComputeEstimate` objects flowing through
:class:`~repro.compute.requestgen.RequestGenerator` into the
``CompiledTrace`` path — so the event-loop replay side is completely
indifferent to which engine compiled a trace.

This module loads the tiling policy and the cycle model, so only trace
compilation imports it: :func:`repro.compute.dataflow.get_engine` does
on the first fetch of a stock engine.

The three stock engines:

* ``os`` — output stationary, the paper's dataflow.  Partial sums stay
  in place; ``ceil(m/R) * ceil(n/C)`` passes of
  ``2R + C + k - 2`` cycles.  Byte-identical to the pre-registry
  implementation (pinned by the golden-equivalence suite).
* ``ws`` — weight stationary.  An ``R x C`` weight block is pre-loaded
  and all ``n`` activation columns stream through it:
  ``ceil(k/R) * ceil(m/C)`` folds of ``R + (n + R + C - 2)`` cycles.
  Its slab tiling grows ``Tm`` in ``array_cols`` steps, because ``m``
  maps to array *columns* under WS.
* ``is`` — input stationary, the mirror of WS: an ``R x C`` block of the
  input activations stays resident and the weight columns stream.
  ``ceil(k/R) * ceil(n/C)`` folds of ``R + (m + R + C - 2)`` cycles, so
  IS amortizes the input load over large ``m`` the way WS amortizes the
  weight load over large ``n``.  Its slab tiling aligns ``Tk`` (the
  resident reduction rows) down to an ``array_rows`` multiple so folds
  run full.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Iterator

from repro.compute.systolic import (
    ComputeEstimate,
    is_pass_cycles,
    os_pass_cycles,
    ws_pass_cycles,
)
from repro.compute.tiling import (
    Tile,
    TileShape,
    choose_tile_shape,
    tiles_for_gemm,
)

if TYPE_CHECKING:
    from repro.config.arch import ArchConfig
    from repro.models.layers import GemmOp


def _check_dims(m: int, k: int, n: int) -> None:
    if min(m, k, n) <= 0:
        raise ValueError("GEMM dimensions must be positive")


def _estimate(arch: ArchConfig, cycles: int, m: int, k: int, n: int) -> ComputeEstimate:
    """Package ``cycles`` with the MAC count and PE utilization.

    Utilization is MACs divided by the MAC slots the array offers during
    the computation (``cycles * R * C``) — the under-utilization metric
    that motivates multi-core NPUs in the paper's introduction.
    """
    macs = m * k * n
    return ComputeEstimate(
        cycles=cycles,
        macs=macs,
        pe_utilization=macs / (cycles * arch.num_pes),
    )


class DataflowEngine:
    """One dataflow: a tiling policy and a compute-cycle model.

    Subclasses set ``name`` (the ``ArchConfig.dataflow`` string) and
    implement :meth:`estimate`.  The tiling
    hooks default to the shared slab policy of
    :mod:`repro.compute.tiling`; override them when the dataflow wants
    a different decomposition.
    """

    name: ClassVar[str]

    def tile_shape(self, gemm: GemmOp, arch: ArchConfig) -> TileShape:
        """The tile shape this engine compiles ``gemm`` with."""
        return choose_tile_shape(gemm, arch)

    def tiles(self, gemm: GemmOp, shape: TileShape) -> Iterator[Tile]:
        """Tile execution order (reduction innermost by default)."""
        return tiles_for_gemm(gemm, shape)

    def estimate(self, arch: ArchConfig, m: int, k: int, n: int) -> ComputeEstimate:
        """Array cycles / utilization of one ``(m, k, n)`` GEMM tile."""
        raise NotImplementedError


class OutputStationary(DataflowEngine):
    """The paper's dataflow: outputs accumulate in place."""

    name = "os"

    def estimate(self, arch: ArchConfig, m: int, k: int, n: int) -> ComputeEstimate:
        _check_dims(m, k, n)
        rows, cols = arch.array_rows, arch.array_cols
        passes = -(-m // rows) * (-(-n // cols))
        return _estimate(arch, passes * os_pass_cycles(rows, cols, k), m, k, n)


class WeightStationary(DataflowEngine):
    """Weights resident, activations stream (SCALE-Sim WS timing)."""

    name = "ws"

    def tile_shape(self, gemm: GemmOp, arch: ArchConfig) -> TileShape:
        # Under WS, m maps to array columns: grow the slab's Tm in
        # array-width steps so every fold drives full column groups.
        return choose_tile_shape(gemm, arch, m_step=arch.array_cols)

    def estimate(self, arch: ArchConfig, m: int, k: int, n: int) -> ComputeEstimate:
        _check_dims(m, k, n)
        rows, cols = arch.array_rows, arch.array_cols
        folds = -(-k // rows) * (-(-m // cols))
        return _estimate(arch, folds * ws_pass_cycles(rows, cols, n), m, k, n)


class InputStationary(DataflowEngine):
    """Inputs resident, weights stream — the mirror of WS."""

    name = "is"

    def tile_shape(self, gemm: GemmOp, arch: ArchConfig) -> TileShape:
        # The resident input block spans Tk reduction rows; align Tk
        # down to the array height so every fold loads a full block.
        return choose_tile_shape(gemm, arch, k_align=arch.array_rows)

    def estimate(self, arch: ArchConfig, m: int, k: int, n: int) -> ComputeEstimate:
        _check_dims(m, k, n)
        rows, cols = arch.array_rows, arch.array_cols
        folds = -(-k // rows) * (-(-n // cols))
        return _estimate(arch, folds * is_pass_cycles(rows, cols, m), m, k, n)


#: The stock engines, in registration order.
STOCK_ENGINES: tuple[DataflowEngine, ...] = (
    OutputStationary(),
    WeightStationary(),
    InputStationary(),
)
