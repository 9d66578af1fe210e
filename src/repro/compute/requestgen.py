"""The SW request generator (mNPUsim's "software stack", Figure 3).

From a network topology and a core's arch config this produces, per tile,
the list of DRAM requests (address, size, type) the DMA engine must move
between SPM and off-chip memory.  The HW simulator then replays these
requests against the contended memory system.

Virtual layout: each layer's three operands get their own page-aligned
regions, allocated sequentially in the core's virtual address space (the
artifact's ``intermediate_config`` performs the equivalent "absolute
address translation").  Each tile's reads and its write-back are emitted
as one flat ``array('q')`` of interleaved ``(addr, count)`` pairs — a
*run* is ``count`` back-to-back transactions from ``addr`` — which the
DMA expands lazily; rows that are contiguous in DRAM are merged into
single runs, as a real DMA descriptor would.  A run is a write exactly
when it sits on the tile's ``writes`` side, so no per-run flag is kept.
The arrays are immutable by contract: no consumer may mutate them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator

from repro.compute.dataflow import get_engine
from repro.compute.systolic import ComputeEstimate
from repro.compute.tiling import Tile, TileShape
from repro.config.arch import ArchConfig
from repro.models.layers import GemmOp, Network

#: Virtual regions are aligned to this to keep layouts page-size agnostic
#: (covers the largest supported page, 1 MB).
_REGION_ALIGN = 1 << 20

#: A scattered (gathered-embedding) operand's B rows hash over a span this
#: many times larger than the traffic they produce.  Rows land sparsely
#: enough to defeat small-page TLB reach, while the bounded span models
#: the hot-row subset real recommendation traffic concentrates on.
_SCATTER_SPREAD = 4

#: Knuth's multiplicative-hash constant; spreads gather rows over the
#: table region deterministically.
_HASH_MULT = 0x9E3779B1


@dataclass(frozen=True)
class TileTraffic:
    """Everything the HW simulator needs to execute one tile.

    ``reads`` and ``writes`` are flat ``(addr, count)`` pair arrays; they
    are shared by every replay of a compiled trace and must not be
    mutated.
    """

    layer_index: int
    tile: Tile
    reads: array
    writes: array
    compute: ComputeEstimate

    @property
    def read_txns(self) -> int:
        """Total read transactions of this tile."""
        return sum(self.reads[1::2])

    @property
    def write_txns(self) -> int:
        """Total write transactions of this tile."""
        return sum(self.writes[1::2])


@dataclass(frozen=True)
class _LayerLayout:
    """Resolved virtual base addresses of one layer's operands."""

    gemm: GemmOp
    shape: TileShape
    a_base: int
    b_base: int
    c_base: int
    b_scatter_span: int = 0  #: span gather rows hash over (<= reserved region)


def _align_up(value: int, unit: int) -> int:
    return -(-value // unit) * unit


class RequestGenerator:
    """Generates per-tile memory traffic for one workload on one core.

    The generator is deterministic and cheap to construct; tile traffic is
    produced lazily so multi-gigabyte full-scale workloads do not
    materialize their request lists up front.
    """

    def __init__(self, network: Network, arch: ArchConfig, va_base: int = 0) -> None:
        # Boundary validation: every emitted run has ``addr >= 0`` and
        # ``count > 0`` by these invariants plus the layout construction
        # below (bases start at the aligned va_base and only grow, tile
        # extents are positive), so the hot path appends pairs unchecked.
        if va_base < 0:
            raise ValueError("virtual base cannot be negative")
        if arch.dram_transaction_bytes <= 0 or arch.element_bytes <= 0:
            raise ValueError("transaction and element sizes must be positive")
        self.network = network
        self.arch = arch
        # The dataflow engine owns tiling policy and compute-cycle model;
        # everything else here (layout, run merging) is engine-neutral.
        self._engine = get_engine(arch.dataflow)
        self._txn = arch.dram_transaction_bytes
        self._elem = arch.element_bytes
        self._layouts: list[_LayerLayout] = []
        cursor = _align_up(va_base, _REGION_ALIGN)
        for gemm in network.gemms():
            a_bytes, b_bytes, c_bytes = gemm.operand_bytes(self._elem)
            scatter_span = b_bytes * _SCATTER_SPREAD if gemm.b_scatter else 0
            a_base = cursor
            b_base = a_base + _align_up(a_bytes, _REGION_ALIGN)
            c_base = b_base + _align_up(max(b_bytes, scatter_span), _REGION_ALIGN)
            cursor = c_base + _align_up(c_bytes, _REGION_ALIGN)
            self._layouts.append(
                _LayerLayout(
                    gemm=gemm,
                    shape=self._engine.tile_shape(gemm, arch),
                    a_base=a_base,
                    b_base=b_base,
                    c_base=c_base,
                    b_scatter_span=scatter_span,
                )
            )
        self._va_end = cursor
        self._summary: dict[str, float] | None = None

    # ------------------------------------------------------------------ #
    # Layout / summary queries
    # ------------------------------------------------------------------ #

    @property
    def num_layers(self) -> int:
        """Layers in the workload."""
        return len(self._layouts)

    @property
    def memory_footprint_bytes(self) -> int:
        """Span of the allocated virtual address range."""
        return self._va_end - self._layouts[0].a_base

    def summary(self) -> dict[str, float]:
        """Pre-run statistics (no simulation): traffic, MACs, ideal cycles.

        These are the profiled per-workload features the mapping predictor
        of section 4.6 consumes: PE utilization in the memory-ideal case,
        memory traffic per execution, and the ideal execution length.
        """
        if self._summary is not None:
            return dict(self._summary)
        total_macs = 0
        total_cycles = 0
        read_txns = 0
        write_txns = 0
        for layer_index in range(self.num_layers):
            for traffic in self.layer_tiles(layer_index):
                total_macs += traffic.compute.macs
                total_cycles += traffic.compute.cycles
                read_txns += traffic.read_txns
                write_txns += traffic.write_txns
        traffic_bytes = (read_txns + write_txns) * self._txn
        self._summary = {
            "macs": float(total_macs),
            "ideal_compute_cycles": float(total_cycles),
            "pe_utilization": total_macs / (total_cycles * self.arch.num_pes),
            "read_txns": float(read_txns),
            "write_txns": float(write_txns),
            "traffic_bytes": float(traffic_bytes),
            "bytes_per_cycle": traffic_bytes / total_cycles,
        }
        return dict(self._summary)

    # ------------------------------------------------------------------ #
    # Traffic generation
    # ------------------------------------------------------------------ #

    def layer_tiles(self, layer_index: int) -> Iterator[TileTraffic]:
        """Yield the tile traffic of one layer, in execution order.

        This is the bounded-memory stream-and-discard path: nothing is
        retained between iterations.  Workloads that fit the trace budget
        are compiled once into a :class:`~repro.compute.tracecache.
        CompiledTrace` and replayed from there instead; generation is
        deterministic, so the two are indistinguishable.
        """
        layout = self._layouts[layer_index]
        gemm = layout.gemm
        for tile in self._engine.tiles(gemm, layout.shape):
            reads = array("q")
            # A tile: rows m0..m0+tm, columns k0..k0+tk of an M x K matrix.
            self._matrix_runs(
                reads, layout.a_base, gemm.k, tile.m0, tile.tm, tile.k0, tile.tk
            )
            # B tile: rows k0..k0+tk, columns n0..n0+tn of a K x N matrix
            # (or, for gathers, tk scattered table rows).
            if gemm.b_scatter:
                self._scatter_runs(reads, layout, tile.k0, tile.tk, tile.tn)
            else:
                self._matrix_runs(
                    reads, layout.b_base, gemm.n, tile.k0, tile.tk, tile.n0, tile.tn
                )
            writes = array("q")
            if tile.last_k:
                # C tile: rows m0..m0+tm, columns n0..n0+tn of an M x N matrix.
                self._matrix_runs(
                    writes, layout.c_base, gemm.n, tile.m0, tile.tm, tile.n0, tile.tn
                )
            yield TileTraffic(
                layer_index=layer_index,
                tile=tile,
                reads=reads,
                writes=writes,
                compute=self._engine.estimate(self.arch, tile.tm, tile.tk, tile.tn),
            )

    def all_tiles(self) -> Iterator[TileTraffic]:
        """Yield every tile of every layer, in execution order."""
        for layer_index in range(self.num_layers):
            yield from self.layer_tiles(layer_index)

    def _matrix_runs(
        self,
        out: array,
        base: int,
        row_len: int,
        row0: int,
        nrows: int,
        col0: int,
        ncols: int,
    ) -> None:
        """Append runs covering a ``nrows x ncols`` sub-matrix of a row-major matrix."""
        elem = self._elem
        if ncols == row_len:
            # Full-width rows are contiguous in memory: one merged run.
            self._byte_run(out, base + row0 * row_len * elem, nrows * row_len * elem)
            return
        for row in range(row0, row0 + nrows):
            start = base + (row * row_len + col0) * elem
            self._byte_run(out, start, ncols * elem)

    def _scatter_runs(
        self, out: array, layout: _LayerLayout, row0: int, nrows: int, ncols: int
    ) -> None:
        """Append one run per gathered row, hashed across the table region."""
        row_bytes = ncols * self._elem
        slots = max(1, layout.b_scatter_span // self._txn)
        for row in range(row0, row0 + nrows):
            slot = (row * _HASH_MULT) % slots
            self._byte_run(out, layout.b_base + slot * self._txn, row_bytes)

    def _byte_run(self, out: array, start: int, nbytes: int) -> None:
        """Append the transaction-aligned run covering ``[start, start+nbytes)``."""
        txn = self._txn
        first = start - (start % txn)
        last = _align_up(start + nbytes, txn)
        out.append(first)
        out.append((last - first) // txn)
