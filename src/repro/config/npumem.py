"""Per-core memory-system configuration (mNPUsim ``npumem_config``).

Covers the MMU resources attached to a core: TLB geometry and the number of
page-table walkers, plus the page size.  The paper follows the NeuMMU design
with 2048 TLB entries (8-way) and 8 walkers per NPU core (Table 2), and
studies 4 KB / 64 KB / 1 MB pages (section 4.5, ARM64 page sizes).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Page sizes evaluated in the paper, mapped to the number of page-table
#: levels a walk must traverse (ARM64-style radix tables: larger pages are
#: mapped at a shallower level, so walks are shorter).
PAGE_WALK_LEVELS = {
    4 * 1024: 4,
    64 * 1024: 3,
    1024 * 1024: 2,
}


@dataclass(frozen=True)
class NpuMemConfig:
    """MMU configuration of a single NPU core.

    Attributes:
        tlb_entries: Total TLB entries for this core.
        tlb_assoc: TLB set associativity (8-way in the paper, which it
            reports is needed to avoid inter-NPU conflict misses when the
            TLB is shared, section 4.4.2).
        num_ptw: Page-table walkers owned by this core.
        page_bytes: Page size; must be one of :data:`PAGE_WALK_LEVELS`.
        walk_in_dram: When True (default, NeuMMU-style) each page-walk
            level is a dependent DRAM read issued through the shared
            memory controller, so walks both consume and suffer memory
            bandwidth.  When False, each level costs
            ``walk_level_latency_cycles`` of fixed latency instead.
        walk_level_latency_cycles: Fixed per-level walk latency used only
            when ``walk_in_dram`` is False.
        pwc_entries: Entries of the per-core page-walk cache holding
            upper-level page-table entries (leaf reads always go to
            DRAM).  0 disables it.  Consecutive pages share upper-level
            entries, so a small PWC removes most non-leaf walk reads —
            as in real MMUs.
        translation_enabled: Section 4.3 isolates DRAM-bandwidth effects
            by removing address translation; setting this False makes
            every access bypass the MMU.
    """

    tlb_entries: int = 2048
    tlb_assoc: int = 8
    num_ptw: int = 8
    page_bytes: int = 4 * 1024
    walk_in_dram: bool = True
    walk_level_latency_cycles: int = 100
    pwc_entries: int = 32
    translation_enabled: bool = True

    def __post_init__(self) -> None:
        if self.tlb_entries <= 0:
            raise ValueError("TLB must have at least one entry")
        if self.tlb_assoc <= 0 or self.tlb_entries % self.tlb_assoc:
            raise ValueError("TLB entries must be a positive multiple of associativity")
        if self.num_ptw <= 0:
            raise ValueError("each core needs at least one page-table walker")
        if self.page_bytes not in PAGE_WALK_LEVELS:
            raise ValueError(
                f"page size {self.page_bytes} unsupported; pick one of "
                f"{sorted(PAGE_WALK_LEVELS)} (paper section 4.5)"
            )
        if self.walk_level_latency_cycles <= 0:
            raise ValueError("walk level latency must be positive")
        if self.pwc_entries < 0:
            raise ValueError("page-walk cache size cannot be negative")

    @property
    def walk_levels(self) -> int:
        """Number of page-table levels one walk traverses."""
        return PAGE_WALK_LEVELS[self.page_bytes]

    @property
    def tlb_sets(self) -> int:
        """Number of TLB sets."""
        return self.tlb_entries // self.tlb_assoc
