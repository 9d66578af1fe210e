"""Unit tests for the DMA engine's pacing, windowing, and completion logic."""

from array import array

import pytest

from repro.config.dram import DramConfig
from repro.config.npumem import NpuMemConfig
from repro.core.clock import ClockDomain
from repro.core.dma import DmaEngine
from repro.core.engine import Engine
from repro.dram.controller import DramController
from repro.mmu.mmu import Mmu
from repro.mmu.pagetable import PageTable, PhysicalLayout
from repro.mmu.ptw import WalkerPool

TXN = 64


def _runs(*pairs):
    """A flat ``(addr, count)`` run array, the DMA's transfer input."""
    return array("q", [value for pair in pairs for value in pair])


def _fixture(*, translation=True, max_outstanding=4, issue_per_cycle=1):
    engine = Engine()
    controller = DramController(
        DramConfig(channels=2, channel_bytes_per_cycle=32, refresh_enabled=False),
        engine,
        transaction_bytes=TXN,
        channels_per_core={0: (0, 1)},
    )
    layout = PhysicalLayout(capacity_bytes=1 << 30, num_cores=1)
    tables = {0: PageTable(0, 4096, 4, layout)}
    walkers = WalkerPool(
        engine, 2, tables, dram=None,
        fixed_level_ticks={0: 5}, pwc_entries={0: 0},
    )
    mmu = Mmu(
        {0: NpuMemConfig(
            tlb_entries=16, tlb_assoc=4, num_ptw=2,
            translation_enabled=translation,
        )},
        tables, walkers, shared_tlb=False,
    )
    dma = DmaEngine(
        engine, 0, mmu, controller, ClockDomain(1000, 1000),
        max_outstanding=max_outstanding,
        issue_per_cycle=issue_per_cycle,
        transaction_bytes=TXN,
    )
    return engine, dma, controller


class TestDmaEngine:
    def test_empty_transfer_completes_immediately(self):
        engine, dma, _ = _fixture()
        done = []
        dma.transfer(array("q"), lambda: done.append(engine.now))
        engine.run()
        assert done == [0]

    def test_single_run_completes_once(self):
        engine, dma, controller = _fixture(translation=False)
        done = []
        dma.transfer(_runs((0, 8)), lambda: done.append(engine.now))
        engine.run()
        assert len(done) == 1
        assert controller.stats.reads == 8
        assert not dma.busy

    def test_issue_pacing_one_per_cycle(self):
        engine, dma, controller = _fixture(translation=False, max_outstanding=64)
        dma.transfer(_runs((0, 10)), lambda: None)
        engine.run()
        # 10 transactions issued 1/cycle: total stats must match.
        assert dma.stats.read_txns == 10

    def test_window_limits_outstanding(self):
        engine, dma, controller = _fixture(translation=False, max_outstanding=2)
        dma.transfer(_runs((0, 20)), lambda: None)
        # Walk the simulation in slices and check the invariant.
        horizon = 0
        while engine.pending:
            horizon += 10
            engine.run(until=horizon)
            assert dma._outstanding <= 2
        assert controller.stats.reads == 20

    def test_transfers_complete_in_fifo_order(self):
        engine, dma, _ = _fixture(translation=False)
        order = []
        dma.transfer(_runs((0, 4)), lambda: order.append("first"))
        dma.write_back(_runs((4096, 4)), lambda: order.append("second"))
        engine.run()
        assert order == ["first", "second"]

    def test_write_and_read_counted(self):
        engine, dma, controller = _fixture(translation=False)
        dma.transfer(_runs((0, 1), (256, 2)), lambda: None)
        dma.write_back(_runs((4096, 2)), lambda: None)
        engine.run()
        assert dma.stats.read_txns == 3
        assert dma.stats.write_txns == 2
        assert controller.stats.writes == 2

    def test_expansion_walks_pairs_with_the_transfer_flag(self):
        _, dma, _ = _fixture(translation=False)
        runs = _runs((0, 2), (4096, 1))
        assert list(dma._expand(runs, True)) == [(0, True), (TXN, True), (4096, True)]
        assert list(runs) == [0, 2, 4096, 1]  # read, never mutated

    def test_translation_misses_do_not_lose_requests(self):
        engine, dma, controller = _fixture(translation=True)
        done = []
        # 32 transactions spanning a fresh page: first access walks.
        dma.transfer(_runs((0, 32)), lambda: done.append(engine.now))
        engine.run()
        assert len(done) == 1
        assert controller.stats.reads == 32

    def test_completion_fires_after_all_data(self):
        engine, dma, controller = _fixture(translation=False)
        completion = []
        dma.transfer(_runs((0, 6)), lambda: completion.append(engine.now))
        engine.run()
        # Completion must coincide with (or follow) the last DRAM burst.
        assert completion[0] == engine.now

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            _fixture(max_outstanding=0)
