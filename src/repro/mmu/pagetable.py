"""Per-core page tables and the physical-memory layout.

NPUs with virtually-addressed scratchpads translate *every* off-chip
access (paper section 2.3).  Each core owns a page table mapping its
virtual pages to physical frames inside its slice of DRAM capacity.
Frames are bump-allocated on first touch — inference workloads touch
their tensors deterministically, so this reproduces the sequential/
interleaved physical layouts real drivers produce.

A page-table *walk* reads one entry per radix level.  The entry
addresses returned by :meth:`PageTable.walk_addresses` land in the
core's page-table region with radix-like locality: upper levels hit few
distinct cache lines (high row-buffer locality), leaf levels spread out.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bytes of one page-table entry; a 64 B DRAM transaction covers eight.
PTE_BYTES = 8

#: Radix fan-out per level (512 entries per 4 KB node, as on x86-64/ARM64).
_LEVEL_BITS = 9


@dataclass(frozen=True)
class PhysicalLayout:
    """How DRAM capacity is carved up among cores.

    Each core receives an equal slice; the top 1/16th of every slice is
    reserved for its page tables so walk traffic and data traffic land in
    the same channels the core is entitled to.
    """

    capacity_bytes: int
    num_cores: int

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ValueError("need at least one core")
        if self.capacity_bytes < self.num_cores * (1 << 20):
            raise ValueError("capacity too small to slice among cores")

    @property
    def slice_bytes(self) -> int:
        """Bytes of one core's slice."""
        return self.capacity_bytes // self.num_cores

    def data_region(self, core: int) -> tuple[int, int]:
        """``(base, size)`` of the core's data region."""
        self._check_core(core)
        base = core * self.slice_bytes
        return base, self.slice_bytes - self.pt_region(core)[1]

    def pt_region(self, core: int) -> tuple[int, int]:
        """``(base, size)`` of the core's page-table region."""
        self._check_core(core)
        size = self.slice_bytes // 16
        base = core * self.slice_bytes + self.slice_bytes - size
        return base, size

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise ValueError(f"core {core} out of range")


class PageTable:
    """Lazy virtual-to-physical mapping for one core."""

    def __init__(
        self,
        core: int,
        page_bytes: int,
        walk_levels: int,
        layout: PhysicalLayout,
    ) -> None:
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise ValueError("page size must be a positive power of two")
        if walk_levels <= 0:
            raise ValueError("walks need at least one level")
        self.core = core
        self.page_bytes = page_bytes
        self.walk_levels = walk_levels
        data_base, data_size = layout.data_region(core)
        self._pt_base, self._pt_size = layout.pt_region(core)
        self._frame_base = data_base // page_bytes
        self._num_frames = max(1, data_size // page_bytes)
        self._next_frame = 0
        self._map: dict[int, int] = {}

    def translate(self, vpn: int) -> int:
        """Physical frame number for ``vpn``, allocating on first touch.

        Allocation wraps within the core's data region; inference
        footprints beyond the slice alias old frames, which only recycles
        physical rows (harmless for a timing model).
        """
        frame = self._map.get(vpn)
        if frame is None:
            frame = self._frame_base + (self._next_frame % self._num_frames)
            self._next_frame += 1
            self._map[vpn] = frame
        return frame

    def paddr(self, vaddr: int) -> int:
        """Translate a full virtual address."""
        vpn, offset = divmod(vaddr, self.page_bytes)
        return self.translate(vpn) * self.page_bytes + offset

    def walk_addresses(self, vpn: int) -> tuple[int, ...]:
        """Physical addresses of the page-table entries a walk reads.

        Level 0 is the root (coarsest index), the last level the leaf.
        """
        addresses = []
        for level in range(self.walk_levels):
            shift = _LEVEL_BITS * (self.walk_levels - 1 - level)
            index = vpn >> shift
            offset = (index * PTE_BYTES) % self._pt_size
            addresses.append(self._pt_base + offset)
        return tuple(addresses)
