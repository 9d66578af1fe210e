"""Per-core NPU architecture configuration (mNPUsim ``arch_config``).

Describes the compute side of one NPU core: the systolic array geometry,
the on-chip scratchpad (SPM), the dataflow, and the core clock.  The paper
evaluates the output-stationary dataflow on a TPUv4-like 128x128 array with
a 36 MB SPM at 1 GHz (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compute.dataflow import registered_dataflows


@dataclass(frozen=True)
class ArchConfig:
    """Compute-side configuration of a single NPU core.

    Attributes:
        name: Human-readable identifier used in result-file names.
        array_rows: Height of the systolic array (PE rows).
        array_cols: Width of the systolic array (PE columns).
        spm_bytes: Capacity of the software-managed scratchpad.  Double
            buffering splits this into two half-sized buffers (paper
            section 2.3), so a tile must fit in ``spm_bytes // 2``.
        freq_mhz: Core clock frequency in MHz.
        dataflow: Name of the dataflow engine that compiles this core's
            traces: ``"os"`` (output stationary, the paper's choice),
            ``"ws"`` (weight stationary) or ``"is"`` (input stationary) —
            the paper's stated future work, implemented as pluggable
            engines.  Validated against the
            :mod:`repro.compute.dataflow` registry, so third-party
            engines registered there are accepted too.
        element_bytes: Size of one tensor element (int8 inference = 1).
        dram_transaction_bytes: Granularity of one DMA/DRAM transaction.
            The paper uses cache-line-sized 64 B transactions; the scaled
            "mini" configurations use coarser transactions to bound the
            event count of pure-Python runs.
        dma_issue_per_cycle: Requests the private DMA engine can inject
            into the memory system per core cycle.
    """

    name: str = "tpu"
    array_rows: int = 128
    array_cols: int = 128
    spm_bytes: int = 36 * 1024 * 1024
    freq_mhz: int = 1000
    dataflow: str = "os"
    element_bytes: int = 1
    dram_transaction_bytes: int = 64
    dma_issue_per_cycle: int = 1

    def __post_init__(self) -> None:
        if self.array_rows <= 0 or self.array_cols <= 0:
            raise ValueError("systolic array dimensions must be positive")
        if self.spm_bytes < 2 * self.dram_transaction_bytes:
            raise ValueError("SPM must hold at least two DRAM transactions")
        if self.freq_mhz <= 0:
            raise ValueError("core frequency must be positive")
        registered = registered_dataflows()
        if self.dataflow not in registered:
            raise ValueError(
                f"unsupported dataflow {self.dataflow!r}; registered engines: "
                + ", ".join(registered)
            )
        if self.element_bytes <= 0:
            raise ValueError("element size must be positive")
        if self.dram_transaction_bytes <= 0 or (
            self.dram_transaction_bytes & (self.dram_transaction_bytes - 1)
        ):
            raise ValueError("DRAM transaction size must be a power of two")
        if self.dma_issue_per_cycle <= 0:
            raise ValueError("DMA issue width must be positive")

    @property
    def half_spm_bytes(self) -> int:
        """Capacity of one double-buffering half (the tile budget)."""
        return self.spm_bytes // 2

    @property
    def num_pes(self) -> int:
        """Total number of processing elements in the array."""
        return self.array_rows * self.array_cols
