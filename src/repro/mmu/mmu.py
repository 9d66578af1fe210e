"""The MMU front-end: TLB lookup, miss coalescing, walk orchestration.

Every DMA transaction translates its virtual address here before touching
DRAM.  Hits return synchronously (the caller accounts the TLB's lookup
latency in its own issue pipeline); misses register a callback, coalesce
with any in-flight walk of the same page (NeuMMU's pending-translation
registers — essential, since a 4 KB page spans many transactions), and
complete when the walker pool finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from typing import TYPE_CHECKING

from repro.config.npumem import NpuMemConfig
from repro.mmu.pagetable import PageTable
from repro.mmu.ptw import WalkerPool
from repro.mmu.tlb import Tlb

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.registry import CounterRegistry
    from repro.obs.timeline import TimelineTracer


@dataclass
class TranslationStats:
    """Per-core translation counters."""

    lookups: int = 0
    hits: int = 0
    walks_started: int = 0
    coalesced: int = 0

    @property
    def misses(self) -> int:
        """TLB misses (walks started + coalesced onto in-flight walks)."""
        return self.lookups - self.hits

    @property
    def miss_rate(self) -> float:
        """Misses per lookup."""
        return self.misses / self.lookups if self.lookups else 0.0


class Mmu:
    """Translation front-end for all cores of one simulated system."""

    def __init__(
        self,
        npumem_per_core: dict[int, NpuMemConfig],
        page_tables: dict[int, PageTable],
        walkers: WalkerPool,
        *,
        shared_tlb: bool,
        timeline: "TimelineTracer | None" = None,
    ) -> None:
        if set(npumem_per_core) != set(page_tables):
            raise ValueError("npumem configs and page tables must cover the same cores")
        self.cfg = dict(npumem_per_core)
        self.page_tables = dict(page_tables)
        self.walkers = walkers
        self.shared_tlb = shared_tlb
        self.timeline = timeline
        self.stats = {core: TranslationStats() for core in self.cfg}
        self._tlbs: dict[int, Tlb] = {}
        if shared_tlb:
            # One TLB with the combined capacity; associativity follows the
            # per-core config (the paper keeps 8-way to curb inter-NPU
            # conflict misses, section 4.4.2).
            entries = sum(cfg.tlb_entries for cfg in self.cfg.values())
            assoc = max(cfg.tlb_assoc for cfg in self.cfg.values())
            shared = Tlb(entries, assoc, name="shared-tlb")
            for core in self.cfg:
                self._tlbs[core] = shared
        else:
            for core, cfg in self.cfg.items():
                self._tlbs[core] = Tlb(
                    cfg.tlb_entries, cfg.tlb_assoc, name=f"tlb{core}"
                )
        # (core, vpn) -> callbacks waiting on the in-flight walk.
        self._pending: dict[
            tuple[int, int], list[tuple[int, Callable[[int], None]]]
        ] = {}
        # Per-core hot-path record: one dict lookup in ``probe`` instead
        # of four, with the TLB's set list, set count, and stats pulled
        # out so the lookup runs without a method call.  The set list and
        # stats objects are aliases (shared TLBs share them), mutated in
        # place, so ``Tlb.flush``/``fill`` stay visible here.  Built last
        # so every map above is final.
        self._percore = {
            core: (
                cfg.translation_enabled,
                cfg.page_bytes,
                self.page_tables[core],
                self._tlbs[core]._sets,
                self._tlbs[core].num_sets,
                self._tlbs[core].stats,
                self.stats[core],
            )
            for core, cfg in self.cfg.items()
        }

    def tlb_for(self, core: int) -> Tlb:
        """The TLB instance serving ``core`` (shared or private)."""
        return self._tlbs[core]

    def register_counters(self, registry: "CounterRegistry") -> None:
        """Expose per-core translation stats to the registry (pull-based)."""
        for core in sorted(self.cfg):
            stats = self.stats[core]
            registry.bind_many(
                f"mmu.core{core}.tlb",
                {
                    "lookups": lambda s=stats: s.lookups,
                    "hits": lambda s=stats: s.hits,
                    "misses": lambda s=stats: s.misses,
                },
            )
            registry.bind_counter(
                f"mmu.core{core}.walks_started", lambda s=stats: s.walks_started
            )
            registry.bind_counter(
                f"mmu.core{core}.coalesced", lambda s=stats: s.coalesced
            )
            registry.bind_gauge(
                f"mmu.core{core}.tlb.miss_rate", lambda s=stats: s.miss_rate
            )
        registry.bind_gauge(
            "mmu.pending_walk_pages", lambda: len(self._pending)
        )

    def direct_paddr(self, core: int) -> Callable[[int], int] | None:
        """A bare ``vaddr -> paddr`` function when ``core`` skips the TLB.

        With translation disabled the MMU front-end touches no state at
        all, so issue loops may bind the page table's mapping once and
        bypass :meth:`probe` entirely.  Returns ``None`` when translation
        is enabled.
        """
        if self.cfg[core].translation_enabled:
            return None
        return self.page_tables[core].paddr

    def probe(self, core: int, vaddr: int) -> int | None:
        """TLB-hit fast path: the physical address, or ``None`` on a miss.

        Counts the lookup (MMU and TLB stats) either way.  On ``None``
        the caller must follow up with :meth:`miss` for the same address
        — the pair is exactly :meth:`translate` split so hot issue loops
        only build a miss continuation when one is needed.
        """
        enabled, page_bytes, table, tlb_sets, num_sets, tlb_stats, stats = (
            self._percore[core]
        )
        if not enabled:
            return table.paddr(vaddr)
        stats.lookups += 1
        vpn, offset = divmod(vaddr, page_bytes)
        # Inline of ``Tlb.lookup`` (same counters, same LRU move-to-back)
        # — this runs once per transaction.
        tlb_stats.lookups += 1
        entry_set = tlb_sets[vpn % num_sets]
        key = (core, vpn)
        if key in entry_set:
            del entry_set[key]  # move-to-back = most recent
            entry_set[key] = None
            tlb_stats.hits += 1
            stats.hits += 1
            if self.timeline is not None:
                self.timeline.log_tlb(self.walkers.engine.now, core, vpn, "hit")
            return table.translate(vpn) * page_bytes + offset
        return None

    def miss(self, core: int, vaddr: int, on_miss_done: Callable[[int], None]) -> None:
        """Register the miss continuation after a failed :meth:`probe`.

        Coalesces with any in-flight walk of the same page, otherwise
        starts a walk; ``on_miss_done(paddr)`` fires when it completes.
        """
        page_bytes = self._percore[core][1]
        stats = self._percore[core][6]
        vpn, offset = divmod(vaddr, page_bytes)
        key = (core, vpn)
        waiters = self._pending.get(key)
        if waiters is not None:
            stats.coalesced += 1
            if self.timeline is not None:
                self.timeline.log_tlb(self.walkers.engine.now, core, vpn, "coalesced")
            waiters.append((offset, on_miss_done))
            return
        self._pending[key] = [(offset, on_miss_done)]
        stats.walks_started += 1
        if self.timeline is not None:
            self.timeline.log_tlb(self.walkers.engine.now, core, vpn, "miss")
        self.walkers.walk(core, vpn, lambda: self._walk_done(core, vpn))

    def translate(
        self, core: int, vaddr: int, on_miss_done: Callable[[int], None]
    ) -> int | None:
        """Translate ``vaddr`` for ``core``.

        Returns the physical address on a TLB hit (or when translation is
        disabled).  Returns ``None`` on a miss; ``on_miss_done(paddr)``
        fires when the walk completes.
        """
        paddr = self.probe(core, vaddr)
        if paddr is None:
            self.miss(core, vaddr, on_miss_done)
        return paddr

    def _walk_done(self, core: int, vpn: int) -> None:
        cfg = self.cfg[core]
        table = self.page_tables[core]
        frame_base = table.translate(vpn) * cfg.page_bytes
        self._tlbs[core].fill(core, vpn)
        waiters = self._pending.pop((core, vpn))
        for offset, callback in waiters:
            callback(frame_base + offset)
