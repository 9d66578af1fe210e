"""Ready-made system configurations matching the paper's Table 2.

Two scales are provided:

* ``"full"`` — the paper's cloud-scale NPU: TPUv4-like 128x128 systolic
  array, 36 MB SPM, 1 GHz, 2048-entry 8-way TLB, 8 walkers per core, and
  HBM2 at 128 GB/s per core (4 pseudo-channels of 32 GB/s).
* ``"mini"`` — a proportionally scaled system for fast pure-Python sweeps
  (see DESIGN.md, substitution 2): 32x32 array, 512 KB SPM, coarser 256 B
  DRAM transactions, 64-entry TLB, 1 walker per core, a deep (256-entry)
  DMA window and 16 GB/s channels.  Compute-to-bandwidth,
  TLB-coverage-to-tile and walker-bandwidth-to-burst ratios stay in the
  same operating regime as the full system, so the sharing behaviours
  the paper reports are preserved.

Build a contended multi-core system with :func:`cloud_npu`, and the
uncontended resource slices (Ideal / Static / ratio partitions) with
:func:`solo_slice`.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.core.sharing import SharingLevel

if TYPE_CHECKING:
    # Each builder imports the config classes it makes, so resolving a
    # spec (:func:`per_core_resources`) loads none of them.
    from repro.config.arch import ArchConfig
    from repro.config.dram import DramConfig
    from repro.config.misc import MiscConfig
    from repro.config.npumem import NpuMemConfig
    from repro.config.system import SystemConfig

#: Channels backing one NPU core's 128 GB/s share (Table 2).
CHANNELS_PER_CORE = 4

#: Per-core launch offset used in mix co-simulations (about half a tile
#: period at mini scale): identical workloads launched on the same tick
#: would otherwise burst in artificial lockstep forever.
MIX_STAGGER_CYCLES = 1500

_SCALES = ("full", "mini")


def _check_scale(scale: str) -> None:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}; pick one of {_SCALES}")


def per_core_resources(scale: str = "mini") -> dict[str, int]:
    """Per-core shareable-resource amounts at a scale (Table 2 "per NPU").

    The Ideal configuration for an N-core system owns ``N`` times each of
    these; the equal Static split owns exactly one share.
    """
    _check_scale(scale)
    if scale == "full":
        return {"channels": CHANNELS_PER_CORE, "num_ptw": 8, "tlb_entries": 2048}
    return {"channels": CHANNELS_PER_CORE, "num_ptw": 1, "tlb_entries": 64}


def cloud_arch(
    scale: str = "mini", name: str = "tpu", *, dataflow: str = "os"
) -> ArchConfig:
    """The Table 2 compute configuration at the requested scale.

    ``dataflow`` names the engine that compiles this core's traces
    (default ``"os"``, the paper's choice; see
    :mod:`repro.compute.dataflow` for the registry).
    """
    from repro.config.arch import ArchConfig

    _check_scale(scale)
    if scale == "full":
        return ArchConfig(
            name=name,
            array_rows=128,
            array_cols=128,
            spm_bytes=36 * 1024 * 1024,
            freq_mhz=1000,
            dataflow=dataflow,
            dram_transaction_bytes=64,
        )
    return ArchConfig(
        name=name,
        array_rows=32,
        array_cols=32,
        spm_bytes=512 * 1024,
        freq_mhz=1000,
        dataflow=dataflow,
        dram_transaction_bytes=256,
    )


def cloud_npumem(
    scale: str = "mini",
    *,
    page_bytes: int = 4096,
    translation_enabled: bool = True,
    tlb_entries: int | None = None,
    num_ptw: int | None = None,
) -> NpuMemConfig:
    """The Table 2 per-core MMU configuration at the requested scale."""
    from repro.config.npumem import NpuMemConfig

    _check_scale(scale)
    defaults = {"full": (2048, 8), "mini": (64, 1)}[scale]
    entries = tlb_entries if tlb_entries is not None else defaults[0]
    walkers = num_ptw if num_ptw is not None else defaults[1]
    return NpuMemConfig(
        tlb_entries=entries,
        tlb_assoc=min(8, entries),
        num_ptw=walkers,
        page_bytes=page_bytes,
        translation_enabled=translation_enabled,
    )


def hbm2_dram(scale: str = "mini", *, channels: int = CHANNELS_PER_CORE) -> DramConfig:
    """An HBM2 stack with the given number of pseudo-channels.

    One full-scale channel sustains 32 GB/s, so ``channels=4`` gives the
    single-core 128 GB/s of Table 2 and ``channels=8`` the dual-core
    256 GB/s.  The mini scale uses 8 GB/s channels to track its reduced
    compute throughput.
    """
    from repro.config.dram import DramConfig

    _check_scale(scale)
    bytes_per_cycle = 32 if scale == "full" else 16
    queue_depth = 64 if scale == "full" else 256
    return DramConfig(
        channels=channels,
        channel_bytes_per_cycle=bytes_per_cycle,
        queue_depth=queue_depth,
    )


def cloud_npu(
    num_cores: int,
    sharing: SharingLevel = SharingLevel.DWT,
    *,
    scale: str = "mini",
    page_bytes: int = 4096,
    translation_enabled: bool = True,
    misc: MiscConfig | None = None,
    channel_assignment: tuple[tuple[int, ...], ...] | None = None,
    ptw_assignment: tuple[int, ...] | None = None,
    dataflow: str = "os",
) -> SystemConfig:
    """A homogeneous multi-core cloud NPU under a sharing level.

    The system aggregates per-core resources as in the paper: an N-core
    system has ``N * 4`` channels, ``N * 8`` walkers and ``N * 2048`` TLB
    entries in total (Table 2, "per NPU" amounts).  ``sharing`` selects
    which of those pools contend dynamically.

    Note: for ``SharingLevel.IDEAL`` use :func:`solo_slice` with the full
    multi-core resources instead — Ideal is by definition a workload
    running alone.
    """
    from repro.config.misc import MiscConfig
    from repro.config.system import SystemConfig

    if num_cores <= 0:
        raise ValueError("need at least one core")
    if sharing is SharingLevel.IDEAL and num_cores > 1:
        raise ValueError(
            "Ideal means 'alone on the whole system'; build it with solo_slice()"
        )
    arch = cloud_arch(scale, dataflow=dataflow)
    npumem = cloud_npumem(
        scale, page_bytes=page_bytes, translation_enabled=translation_enabled
    )
    dram = hbm2_dram(scale, channels=CHANNELS_PER_CORE * num_cores)
    return SystemConfig(
        arch=(arch,) * num_cores,
        npumem=(npumem,) * num_cores,
        dram=dram,
        misc=misc or MiscConfig(),
        share_dram=sharing.share_dram,
        share_ptw=sharing.share_ptw,
        share_tlb=sharing.share_tlb,
        channel_assignment=channel_assignment,
        ptw_assignment=ptw_assignment,
    )


def mix_system(
    num_cores: int,
    sharing: SharingLevel,
    *,
    scale: str = "mini",
    page_bytes: int = 4096,
    translation_enabled: bool = True,
    ptw_split: tuple[int, ...] | None = None,
    num_ptw_per_core: int | None = None,
    tlb_entries_per_core: int | None = None,
    dataflow: str = "os",
    misc: MiscConfig | None = None,
) -> SystemConfig:
    """A :func:`cloud_npu` system configured the way mix experiments run.

    The paper launches each mix simultaneously and runs every workload
    once: early finishers go idle and the remaining workloads inherit the
    freed shared resources.  A small per-core launch stagger breaks the
    artificial cycle-exact phase lock of repeated workloads in a mix.

    ``ptw_split`` overrides walker sharing with a static per-core split
    (figure 13's partitioning schemes) while DRAM stays at the given
    sharing level.  ``num_ptw_per_core`` / ``tlb_entries_per_core``
    enlarge the per-core pools (the walker-partitioning study needs
    enough walkers to split at the paper's 1:7..7:1 ratios).
    """
    from repro.config.misc import MiscConfig

    system = cloud_npu(
        num_cores,
        sharing,
        scale=scale,
        page_bytes=page_bytes,
        translation_enabled=translation_enabled,
        dataflow=dataflow,
        misc=misc
        or MiscConfig(iterations=1, start_stagger_cycles=MIX_STAGGER_CYCLES),
    )
    overrides: dict[str, int] = {}
    if num_ptw_per_core is not None:
        overrides["num_ptw"] = num_ptw_per_core
    if tlb_entries_per_core is not None:
        overrides["tlb_entries"] = tlb_entries_per_core
        overrides["tlb_assoc"] = min(8, tlb_entries_per_core)
    if overrides:
        npumem = tuple(
            dataclasses.replace(cfg, **overrides) for cfg in system.npumem
        )
        system = dataclasses.replace(system, npumem=npumem)
    if ptw_split is not None:
        if len(ptw_split) != num_cores:
            raise ValueError("one walker count per core required")
        system = dataclasses.replace(
            system, share_ptw=False, ptw_assignment=tuple(ptw_split)
        )
    return system


def solo_slice(
    *,
    scale: str = "mini",
    channels: int = CHANNELS_PER_CORE,
    num_ptw: int | None = None,
    tlb_entries: int | None = None,
    page_bytes: int = 4096,
    translation_enabled: bool = True,
    dataflow: str = "os",
    misc: MiscConfig | None = None,
) -> SystemConfig:
    """A single-core system owning an explicit resource slice.

    This is how the uncontended configurations are evaluated: ``Ideal`` is
    a slice with the whole N-core resource pool; equal ``Static`` is a
    slice with exactly 1/N of it (the Table 2 per-core amounts); the
    ratio partitions of section 4.3/4.4 are slices with 1..7 channels or
    walkers.
    """
    from repro.config.misc import MiscConfig
    from repro.config.system import SystemConfig

    arch = cloud_arch(scale, dataflow=dataflow)
    npumem = cloud_npumem(
        scale,
        page_bytes=page_bytes,
        translation_enabled=translation_enabled,
        tlb_entries=tlb_entries,
        num_ptw=num_ptw,
    )
    dram = hbm2_dram(scale, channels=channels)
    return SystemConfig(
        arch=(arch,),
        npumem=(npumem,),
        dram=dram,
        misc=misc or MiscConfig(),
        share_dram=True,
        share_ptw=True,
        share_tlb=True,
    )
