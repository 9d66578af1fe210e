"""Whole-system configuration: N cores plus the shared memory system.

mNPUsim takes *N* per-core config files (arch/network/npumem) and single
shared dram/misc configs.  :class:`SystemConfig` is the in-memory
equivalent, extended with the resource-sharing switches that implement the
paper's ``Static`` / ``+D`` / ``+DW`` / ``+DWT`` levels (section 4.1.3):

* ``share_dram`` — when False, each core owns a disjoint channel subset
  (``channel_assignment``); when True all cores interleave over all
  channels, contending dynamically.
* ``share_ptw`` — when False, each core owns ``ptw_assignment[i]``
  walkers; when True all walkers form one FCFS pool.
* ``share_tlb`` — when False, each core has a private TLB per its
  npumem config; when True one TLB with the combined capacity serves all
  cores (entries tagged by core, as with a shared IOMMU TLB).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.arch import ArchConfig
from repro.config.dram import DramConfig
from repro.config.misc import MiscConfig
from repro.config.npumem import NpuMemConfig


def _round_robin_split(items: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """Deal ``items`` indices across ``parts`` bins, round-robin."""
    bins: list[list[int]] = [[] for _ in range(parts)]
    for index in range(items):
        bins[index % parts].append(index)
    return tuple(tuple(b) for b in bins)


@dataclass(frozen=True)
class SystemConfig:
    """Configuration of one multi-core NPU system.

    ``arch`` and ``npumem`` are per-core tuples (heterogeneous cores are
    allowed, as in mNPUsim); ``dram`` and ``misc`` are shared.
    """

    arch: tuple[ArchConfig, ...]
    npumem: tuple[NpuMemConfig, ...]
    dram: DramConfig
    misc: MiscConfig = MiscConfig()
    share_dram: bool = True
    share_ptw: bool = True
    share_tlb: bool = True
    channel_assignment: tuple[tuple[int, ...], ...] | None = None
    ptw_assignment: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.arch:
            raise ValueError("a system needs at least one core")
        if len(self.arch) != len(self.npumem):
            raise ValueError("arch and npumem configs must pair up per core")
        if not self.share_dram:
            assignment = self.channel_assignment or _round_robin_split(
                self.dram.channels, len(self.arch)
            )
            object.__setattr__(self, "channel_assignment", assignment)
            self._validate_channel_assignment(assignment)
        if not self.share_ptw:
            total = sum(cfg.num_ptw for cfg in self.npumem)
            assignment = self.ptw_assignment or tuple(
                cfg.num_ptw for cfg in self.npumem
            )
            object.__setattr__(self, "ptw_assignment", assignment)
            if len(assignment) != len(self.arch):
                raise ValueError("one PTW count per core required")
            if any(count <= 0 for count in assignment):
                raise ValueError("each core needs at least one walker")
            if sum(assignment) > total:
                raise ValueError(
                    f"PTW assignment {assignment} exceeds the {total} "
                    "walkers the system has"
                )

    def _validate_channel_assignment(
        self, assignment: tuple[tuple[int, ...], ...]
    ) -> None:
        if len(assignment) != len(self.arch):
            raise ValueError("one channel set per core required")
        seen: set[int] = set()
        for channels in assignment:
            if not channels:
                raise ValueError("each core needs at least one DRAM channel")
            for channel in channels:
                if not 0 <= channel < self.dram.channels:
                    raise ValueError(f"channel {channel} out of range")
                if channel in seen:
                    raise ValueError(f"channel {channel} assigned to two cores")
                seen.add(channel)

    @property
    def num_cores(self) -> int:
        """Number of NPU cores in the system."""
        return len(self.arch)

    @property
    def total_ptw(self) -> int:
        """Total page-table walkers across the system."""
        return sum(cfg.num_ptw for cfg in self.npumem)

    def channels_for_core(self, core: int) -> tuple[int, ...]:
        """Channels core ``core`` may access under the current sharing."""
        if self.share_dram:
            return tuple(range(self.dram.channels))
        assert self.channel_assignment is not None
        return self.channel_assignment[core]
