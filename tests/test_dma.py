"""Unit tests for the DMA engine's pacing, windowing, and completion logic."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.dram import DramConfig, DramTiming
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


# --------------------------------------------------------------------- #
# Closed-form streaming timing.  A refresh-free channel owned by one
# core, streaming a row-hitting read transfer with ``M`` transactions in
# flight and a DMA issue gap below one burst, settles into a rigid
# cycle: each completion frees a slot, the pump issues the next
# transaction at that tick, and the data bus (booked ``M - 1`` bursts
# ahead) bounds its data start.  These are the exact timing formulas of
# that steady state, checked against the per-event DMA and channel.


def _streaming_fixture(*, burst, gap, max_outstanding, timing, refresh=False):
    engine = Engine()
    cfg = DramConfig(
        channels=1,
        channel_bytes_per_cycle=TXN // burst,
        row_bytes=1 << 16,
        timing=timing,
        refresh_enabled=refresh,
    )
    controller = DramController(
        cfg, engine, transaction_bytes=TXN, channels_per_core={0: (0,)}
    )
    layout = PhysicalLayout(capacity_bytes=1 << 30, num_cores=1)
    tables = {0: PageTable(0, 1 << 21, 4, layout)}
    walkers = WalkerPool(
        engine, 1, tables, dram=None,
        fixed_level_ticks={0: 5}, pwc_entries={0: 0},
    )
    mmu = Mmu(
        {0: NpuMemConfig(tlb_entries=16, tlb_assoc=4, translation_enabled=False)},
        tables, walkers, shared_tlb=False,
    )
    dma = DmaEngine(
        engine, 0, mmu, controller, ClockDomain(1000, 1000 * gap),
        max_outstanding=max_outstanding, transaction_bytes=TXN,
    )
    assert dma._issue_gap == gap
    assert controller.channels[0].burst_ticks == burst
    # Record each transaction's arrival and data-end tick.
    log = []
    submit = dma._dram_submit

    def recording_submit(core, paddr, write, callback):
        entry = [engine.now, None]
        log.append(entry)

        def done():
            entry[1] = engine.now
            callback()

        submit(core, paddr, write, done)

    dma._dram_submit = recording_submit
    return engine, dma, controller, log


@st.composite
def _saturated_streams(draw):
    """``(burst, gap, M, timing)`` of a stream that saturates the bus.

    The DMA issues faster than one burst, and the bus, not bank
    preparation, bounds a row hit issued on a completion: column access
    fits inside the ``M - 1`` booked bursts.
    """
    burst = draw(st.sampled_from([2, 4, 8, 16]))
    gap = draw(st.integers(1, burst - 1))
    m = draw(st.integers(2, 12))
    timing = DramTiming(
        tCL=draw(st.integers(1, min(40, (m - 1) * burst))),
        tRCD=draw(st.integers(1, 34)),
        tCCD=draw(st.integers(1, min(4, burst))),
    )
    return burst, gap, m, timing


class TestStreamingClosedForm:
    @given(stream=_saturated_streams(), count=st.integers(1, 200))
    @settings(max_examples=150, deadline=None)
    def test_saturated_stream_matches_closed_form(self, stream, count):
        burst, gap, m, timing = stream
        engine, dma, controller, log = _streaming_fixture(
            burst=burst, gap=gap, max_outstanding=m, timing=timing
        )
        dma.transfer(_runs((0, count)), lambda: None)
        engine.run()
        assert len(log) == count
        assert controller.stats.row_misses == 1  # one row, opened once
        ends = [end for _, end in log]
        # Once the bus saturates, completions land exactly one burst
        # apart ...
        first = timing.tRCD + timing.tCL + burst
        assert ends == [first + burst * i for i in range(count)]
        # ... and the pump, paced one gap behind its last issue, catches
        # up with them: from then on each transaction issues at the tick
        # of the completion that freed its slot and spends exactly M
        # bursts from arrival to data end.
        steady = [
            k for k in range(m, count) if log[k][0] == ends[k - m]
        ]
        assert steady == list(range(count - len(steady), count))
        catch_up = m + -(-m * gap // (burst - gap))
        assert count - len(steady) <= max(m, catch_up)
        for k in steady:
            assert ends[k] - log[k][0] == m * burst

    @given(
        burst=st.sampled_from([1, 2, 4, 8, 16]),
        gap=st.integers(1, 20),
        max_outstanding=st.integers(1, 16),
        runs=st.lists(
            st.tuples(st.integers(0, 1 << 14), st.integers(1, 40)),
            min_size=1, max_size=6,
        ),
        write=st.booleans(),
        refresh=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_bytes_never_exceed_bus_capacity(
        self, burst, gap, max_outstanding, runs, write, refresh
    ):
        engine, dma, controller, _ = _streaming_fixture(
            burst=burst, gap=gap, max_outstanding=max_outstanding,
            timing=DramTiming(), refresh=refresh,
        )
        flat = _runs(*((addr * TXN, count) for addr, count in runs))
        (dma.write_back if write else dma.transfer)(flat, lambda: None)
        engine.run()
        total = controller.stats.total_bytes
        assert total == sum(count for _, count in runs) * TXN
        assert total <= -(-engine.now // burst) * TXN
