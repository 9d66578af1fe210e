"""Unit tests for TLB, page tables, walker pool, and the MMU front-end."""

import pytest

from repro.config.npumem import NpuMemConfig
from repro.core.engine import Engine
from repro.mmu.mmu import Mmu
from repro.mmu.pagetable import PageTable, PhysicalLayout
from repro.mmu.ptw import PageWalkCache, WalkerPool
from repro.mmu.tlb import Tlb

LAYOUT = PhysicalLayout(capacity_bytes=1 << 30, num_cores=2)


class TestTlb:
    def test_hit_after_fill(self):
        tlb = Tlb(entries=16, assoc=4)
        assert not tlb.lookup(0, 5)
        tlb.fill(0, 5)
        assert tlb.lookup(0, 5)

    def test_lru_eviction_within_set(self):
        tlb = Tlb(entries=4, assoc=4)  # one set
        for vpn in range(4):
            tlb.fill(0, vpn)
        tlb.lookup(0, 0)  # refresh vpn 0
        tlb.fill(0, 99)   # evicts vpn 1 (LRU)
        assert tlb.lookup(0, 0)
        assert not tlb.lookup(0, 1)

    def test_capacity_never_exceeded(self):
        tlb = Tlb(entries=8, assoc=2)
        for vpn in range(100):
            tlb.fill(0, vpn)
        assert tlb.occupancy() <= 8

    def test_different_asids_do_not_alias(self):
        tlb = Tlb(entries=8, assoc=2)
        tlb.fill(0, 7)
        assert not tlb.lookup(1, 7)

    def test_shared_set_conflicts_across_asids(self):
        # Same VPN from two cores lands in the same set: inter-NPU
        # conflict misses at low associativity (paper section 4.4.2).
        tlb = Tlb(entries=4, assoc=1)
        tlb.fill(0, 8)
        tlb.fill(1, 8)  # same set, evicts core 0's entry
        assert not tlb.lookup(0, 8)
        assert tlb.lookup(1, 8)

    def test_stats(self):
        tlb = Tlb(entries=8, assoc=2)
        tlb.lookup(0, 1)
        tlb.fill(0, 1)
        tlb.lookup(0, 1)
        assert tlb.stats.lookups == 2
        assert tlb.stats.hits == 1
        assert tlb.stats.misses == 1
        assert tlb.stats.hit_rate == 0.5

    def test_flush(self):
        tlb = Tlb(entries=8, assoc=2)
        tlb.fill(0, 1)
        tlb.flush()
        assert tlb.occupancy() == 0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Tlb(entries=10, assoc=4)


class TestPhysicalLayout:
    def test_slices_disjoint_and_cover(self):
        data0 = LAYOUT.data_region(0)
        data1 = LAYOUT.data_region(1)
        pt0 = LAYOUT.pt_region(0)
        assert data0[0] + LAYOUT.slice_bytes == data1[0]
        assert pt0[0] >= data0[0] + data0[1]

    def test_pt_region_within_slice(self):
        base, size = LAYOUT.pt_region(1)
        assert base + size <= 2 * LAYOUT.slice_bytes

    def test_rejects_bad_core(self):
        with pytest.raises(ValueError):
            LAYOUT.data_region(2)


class TestPageTable:
    def _table(self, page=4096, levels=4):
        return PageTable(0, page, levels, LAYOUT)

    def test_translation_stable(self):
        table = self._table()
        assert table.translate(42) == table.translate(42)

    def test_distinct_vpns_distinct_frames(self):
        table = self._table()
        frames = {table.translate(vpn) for vpn in range(1000)}
        assert len(frames) == 1000

    def test_paddr_preserves_offset(self):
        table = self._table()
        paddr = table.paddr(42 * 4096 + 123)
        assert paddr % 4096 == 123

    def test_frames_inside_core_data_region(self):
        table = self._table()
        base, size = LAYOUT.data_region(0)
        for vpn in range(100):
            addr = table.translate(vpn) * 4096
            assert base <= addr < base + size

    def test_walk_addresses_count_matches_levels(self):
        assert len(self._table(levels=4).walk_addresses(7)) == 4
        assert len(self._table(page=65536, levels=3).walk_addresses(7)) == 3

    def test_walk_addresses_in_pt_region(self):
        table = self._table()
        base, size = LAYOUT.pt_region(0)
        for addr in table.walk_addresses(12345):
            assert base <= addr < base + size

    def test_upper_levels_shared_by_neighbours(self):
        # Adjacent pages share all non-leaf entries (radix locality).
        table = self._table()
        a = table.walk_addresses(1000)
        b = table.walk_addresses(1001)
        assert a[:-1] == b[:-1]
        assert a[-1] != b[-1]

    def test_mapped_pages_counter(self):
        # First touch allocates the next frame; a re-touch allocates none,
        # so the third distinct page lands two frames past the first.
        table = self._table()
        first = table.translate(1)
        second = table.translate(2)
        assert table.translate(1) == first
        assert second == first + 1
        assert table.translate(3) == first + 2


class TestPageWalkCache:
    def test_hit_after_fill(self):
        pwc = PageWalkCache(4)
        assert not pwc.lookup(0, 100)
        pwc.fill(0, 100)
        assert pwc.lookup(0, 100)

    def test_zero_entries_never_hits(self):
        pwc = PageWalkCache(0)
        pwc.fill(0, 100)
        assert not pwc.lookup(0, 100)

    def test_lru_eviction(self):
        pwc = PageWalkCache(2)
        pwc.fill(0, 1)
        pwc.fill(0, 2)
        pwc.lookup(0, 1)
        pwc.fill(0, 3)  # evicts (0,2)
        assert pwc.lookup(0, 1)
        assert not pwc.lookup(0, 2)


def _fixed_pool(engine, capacity, cores=(0, 1), level_ticks=10, **kwargs):
    tables = {core: PageTable(core, 4096, 4, LAYOUT) for core in cores}
    return WalkerPool(
        engine,
        capacity,
        tables,
        dram=None,
        fixed_level_ticks={core: level_ticks for core in cores},
        pwc_entries={core: 0 for core in cores},
        **kwargs,
    )


class TestWalkerPool:
    def test_walk_completes_after_level_latency(self):
        engine = Engine()
        pool = _fixed_pool(engine, capacity=1)
        done = []
        pool.walk(0, 5, lambda: done.append(engine.now))
        engine.run()
        assert done == [40]  # 4 levels x 10 ticks

    def test_capacity_serializes_walks(self):
        engine = Engine()
        pool = _fixed_pool(engine, capacity=1)
        done = []
        pool.walk(0, 1, lambda: done.append(engine.now))
        pool.walk(0, 2, lambda: done.append(engine.now))
        engine.run()
        assert done == [40, 80]

    def test_parallel_walkers(self):
        engine = Engine()
        pool = _fixed_pool(engine, capacity=2)
        done = []
        pool.walk(0, 1, lambda: done.append(engine.now))
        pool.walk(0, 2, lambda: done.append(engine.now))
        engine.run()
        assert done == [40, 40]

    def test_static_partition_blocks_overuse(self):
        engine = Engine()
        pool = _fixed_pool(
            engine, capacity=2,
            max_per_core={0: 1, 1: 1},
            reserved_per_core={0: 1, 1: 1},
        )
        done = []
        pool.walk(0, 1, lambda: done.append(("a", engine.now)))
        pool.walk(0, 2, lambda: done.append(("b", engine.now)))
        engine.run()
        # Core 0 only owns one walker: serialized despite pool of 2.
        assert done == [("a", 40), ("b", 80)]

    def test_skip_ahead_prevents_cross_core_blocking(self):
        engine = Engine()
        pool = _fixed_pool(
            engine, capacity=2,
            max_per_core={0: 1, 1: 1},
            reserved_per_core={0: 1, 1: 1},
        )
        done = []
        pool.walk(0, 1, lambda: done.append(("c0", engine.now)))
        pool.walk(0, 2, lambda: done.append(("c0b", engine.now)))
        pool.walk(1, 3, lambda: done.append(("c1", engine.now)))
        engine.run()
        # Core 1's walk must not wait behind core 0's queued second walk.
        assert ("c1", 40) in done

    def test_reservations_hold_walkers_back(self):
        engine = Engine()
        pool = _fixed_pool(
            engine, capacity=2,
            max_per_core={0: 2, 1: 2},
            reserved_per_core={0: 0, 1: 1},
        )
        done = []
        # Core 0 may take at most one walker: the other is reserved for 1.
        pool.walk(0, 1, lambda: done.append(engine.now))
        pool.walk(0, 2, lambda: done.append(engine.now))
        engine.run()
        assert done == [40, 80]

    def test_stats_capture_queueing(self):
        engine = Engine()
        pool = _fixed_pool(engine, capacity=1)
        pool.walk(0, 1, lambda: None)
        pool.walk(0, 2, lambda: None)
        engine.run()
        stats = pool.stats[0]
        assert stats.walks == 2
        assert stats.avg_walk_ticks() == 40
        assert stats.avg_queue_ticks() == 20  # 0 and 40

    def test_reservations_cannot_exceed_capacity(self):
        engine = Engine()
        with pytest.raises(ValueError):
            _fixed_pool(
                engine, capacity=2,
                reserved_per_core={0: 2, 1: 2},
            )


class TestMmuFrontEnd:
    def _mmu(self, engine, *, shared_tlb=False, translation=True, entries=16):
        cfg = NpuMemConfig(
            tlb_entries=entries, tlb_assoc=min(4, entries), num_ptw=2,
            translation_enabled=translation,
        )
        cores = (0, 1)
        tables = {core: PageTable(core, 4096, 4, LAYOUT) for core in cores}
        pool = WalkerPool(
            engine, 4, tables, dram=None,
            fixed_level_ticks={core: 10 for core in cores},
            pwc_entries={core: 0 for core in cores},
        )
        return Mmu({core: cfg for core in cores}, tables, pool, shared_tlb=shared_tlb)

    def test_disabled_translation_is_synchronous_identity_layout(self):
        engine = Engine()
        mmu = self._mmu(engine, translation=False)
        paddr = mmu.translate(0, 4096 + 5, lambda p: None)
        assert paddr is not None
        assert paddr % 4096 == 5

    def test_miss_then_hit(self):
        engine = Engine()
        mmu = self._mmu(engine)
        results = []
        assert mmu.translate(0, 8192, results.append) is None
        engine.run()
        assert len(results) == 1
        # Second access to the same page hits synchronously.
        assert mmu.translate(0, 8192 + 64, lambda p: None) is not None
        assert mmu.stats[0].hits == 1

    def test_coalescing_same_page(self):
        engine = Engine()
        mmu = self._mmu(engine)
        results = []
        for offset in (0, 64, 128):
            assert mmu.translate(0, 4096 * 3 + offset, results.append) is None
        assert mmu.stats[0].walks_started == 1
        assert mmu.stats[0].coalesced == 2
        engine.run()
        assert len(results) == 3
        # Offsets preserved through the coalesced completion.
        assert sorted(p % 4096 for p in results) == [0, 64, 128]

    def test_shared_tlb_serves_both_cores(self):
        engine = Engine()
        mmu = self._mmu(engine, shared_tlb=True)
        assert mmu.tlb_for(0) is mmu.tlb_for(1)

    def test_private_tlbs_are_distinct(self):
        engine = Engine()
        mmu = self._mmu(engine, shared_tlb=False)
        assert mmu.tlb_for(0) is not mmu.tlb_for(1)

    def test_miss_rate(self):
        engine = Engine()
        mmu = self._mmu(engine)
        mmu.translate(0, 0, lambda p: None)
        engine.run()
        mmu.translate(0, 64, lambda p: None)
        assert mmu.stats[0].miss_rate == 0.5
