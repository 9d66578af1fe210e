"""Unit tests for the DRAM model: banks, channels, controller, stats."""

import pytest

from repro.config.dram import DramConfig
from repro.core.engine import Engine
from repro.dram.channel import FR_WINDOW
from repro.dram.controller import DramController
from repro.dram.stats import BandwidthTrace, DramStats

TXN = 64


def _controller(engine, *, channels=2, cores=None, trace=None, **cfg_kwargs):
    cfg = DramConfig(channels=channels, channel_bytes_per_cycle=32, **cfg_kwargs)
    cores = cores or {0: tuple(range(channels))}
    return DramController(
        cfg, engine, transaction_bytes=TXN, channels_per_core=cores,
        trace_window_ticks=trace,
    )


def _drain(engine, controller, requests):
    """Submit (core, addr, write) triples; return completion times by index."""
    done = {}
    for index, (core, addr, write) in enumerate(requests):
        controller.submit(
            core, addr, write, callback=lambda i=index: done.setdefault(i, engine.now)
        )
    engine.run()
    return done


class TestAddressDecomposition:
    def test_consecutive_transactions_stripe_channels(self):
        engine = Engine()
        controller = _controller(engine, channels=4, cores={0: (0, 1, 2, 3)})
        channels = [controller.decompose(0, i * TXN)[0] for i in range(8)]
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_partitioned_core_stays_in_its_channels(self):
        engine = Engine()
        controller = _controller(
            engine, channels=4, cores={0: (0, 1), 1: (2, 3)}
        )
        for i in range(64):
            assert controller.decompose(0, i * TXN)[0] in (0, 1)
            assert controller.decompose(1, i * TXN)[0] in (2, 3)

    def test_row_changes_with_high_bits(self):
        engine = Engine()
        controller = _controller(engine)
        cfg = controller.cfg
        span = (
            len(controller.channels_per_core[0])
            * (cfg.row_bytes // TXN)
            * cfg.banks_per_channel
        )
        _, _, row0 = controller.decompose(0, 0)
        _, _, row1 = controller.decompose(0, span * TXN)
        assert row1 == row0 + 1

    def test_decompose_is_deterministic(self):
        engine = Engine()
        controller = _controller(engine)
        assert controller.decompose(0, 12345 * TXN) == controller.decompose(
            0, 12345 * TXN
        )

    def test_bank_in_range(self):
        engine = Engine()
        controller = _controller(engine)
        for i in range(0, 4096, 7):
            _, bank, row = controller.decompose(0, i * TXN)
            assert 0 <= bank < controller.cfg.banks_per_channel
            assert 0 <= row < controller.cfg.rows_per_bank


class TestChannelTiming:
    def test_single_read_latency(self):
        engine = Engine()
        controller = _controller(engine, refresh_enabled=False)
        done = _drain(engine, controller, [(0, 0, False)])
        timing = controller.cfg.timing
        burst = controller.cfg.burst_cycles(TXN)
        # Closed bank: ACT + tRCD + tCL + burst.
        assert done[0] == timing.tRCD + timing.tCL + burst

    def test_row_hits_pipeline_on_data_bus(self):
        engine = Engine()
        controller = _controller(engine, channels=1, refresh_enabled=False)
        # Same row: requests separated by burst length once the pipe fills.
        reqs = [(0, i * TXN, False) for i in range(8)]
        done = _drain(engine, controller, reqs)
        times = [done[i] for i in range(8)]
        burst = controller.cfg.burst_cycles(TXN)
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert deltas[-1] == burst

    def test_row_misses_slower_than_hits(self):
        engine = Engine()
        controller = _controller(engine, channels=1, refresh_enabled=False)
        row_span = (
            (controller.cfg.row_bytes // TXN) * TXN
            * controller.cfg.banks_per_channel
        )
        same_row = [(0, i * TXN, False) for i in range(4)]
        alt_rows = [
            (0, (i % 2) * row_span * controller.cfg.rows_per_bank // 2 + 0, False)
            for i in range(4)
        ]
        t_hit = max(
            _drain(
                Engine(), _controller(Engine(), channels=1, refresh_enabled=False), []
            ).values(),
            default=0,
        )
        engine_a = Engine()
        ctrl_a = _controller(engine_a, channels=1, refresh_enabled=False)
        done_a = _drain(engine_a, ctrl_a, same_row)
        assert ctrl_a.stats.row_hits >= 3

    def test_bandwidth_capped_at_peak(self):
        engine = Engine()
        controller = _controller(engine, channels=1, refresh_enabled=False)
        count = 200
        reqs = [(0, i * TXN, False) for i in range(count)]
        done = _drain(engine, controller, reqs)
        elapsed = max(done.values())
        achieved = count * TXN / elapsed
        peak = controller.cfg.channel_bytes_per_cycle
        assert achieved <= peak + 1e-9
        assert achieved > 0.8 * peak  # streaming reads should come close

    def test_two_channels_double_throughput(self):
        def run(channels):
            engine = Engine()
            controller = _controller(
                engine, channels=channels, cores={0: tuple(range(channels))},
                refresh_enabled=False,
            )
            reqs = [(0, i * TXN, False) for i in range(256)]
            done = _drain(engine, controller, reqs)
            return max(done.values())
        assert run(1) > 1.8 * run(2)

    def test_writes_counted_separately(self):
        engine = Engine()
        controller = _controller(engine, refresh_enabled=False)
        _drain(engine, controller, [(0, 0, False), (0, TXN, True)])
        assert controller.stats.reads == 1
        assert controller.stats.writes == 1

    def test_refresh_fires_periodically(self):
        engine = Engine()
        controller = _controller(engine, channels=1)
        timing = controller.cfg.timing
        # Enough back-to-back traffic to cross several tREFI windows.
        count = 3 * timing.tREFI // controller.cfg.burst_cycles(TXN)
        reqs = [(0, i * TXN, False) for i in range(count)]
        _drain(engine, controller, reqs)
        assert controller.stats.refreshes >= 2

    def test_walk_priority_overtakes_data(self):
        engine = Engine()
        controller = _controller(engine, channels=1, refresh_enabled=False)
        done = []
        for i in range(FR_WINDOW):
            controller.submit(
                0, i * TXN, False, callback=lambda i=i: done.append(f"d{i}")
            )
        controller.submit(
            0, 99 * TXN, False, callback=lambda: done.append("walk"), is_walk=True
        )
        engine.run()
        # The walk entered last but must complete before most data bursts.
        assert done.index("walk") < FR_WINDOW // 2

    @pytest.mark.parametrize("position", [1, FR_WINDOW - 1, FR_WINDOW, FR_WINDOW + 4])
    def test_row_hit_overtakes_older_miss_only_within_window(self, position):
        engine = Engine()
        controller = _controller(engine, channels=1, refresh_enabled=False)
        cfg = controller.cfg

        def addr(bank, row):
            address = (row * cfg.banks_per_channel + bank) * cfg.row_bytes
            assert controller.decompose(0, address) == (0, bank, row)
            return address

        _drain(engine, controller, [(0, addr(0, 0), False)])  # opens bank 0, row 0
        # An older row miss at the head, misses to a closed bank behind
        # it, and a younger hit to the open row at queue index ``position``.
        queue = [(0, addr(0, 1), False)]
        queue += [(0, addr(1, 0), False)] * (position - 1)
        queue.append((0, addr(0, 0), False))
        done = _drain(engine, controller, queue)
        if position < FR_WINDOW:
            assert done[position] < done[0]
        else:
            assert done[position] > done[0]


class TestStats:
    def test_bandwidth_trace_windows(self):
        trace = BandwidthTrace(window_ticks=10)
        trace.record(5, 64)
        trace.record(25, 64)
        series = trace.series()
        assert series == [(0, 64), (10, 0), (20, 64)]

    def test_utilization_normalized(self):
        trace = BandwidthTrace(window_ticks=10)
        trace.record(5, 320)
        series = trace.utilization_series(peak_bytes_per_tick=32.0)
        assert series[0][1] == pytest.approx(1.0)

    def test_empty_trace(self):
        assert BandwidthTrace(window_ticks=10).series() == []

    def test_dram_stats_rates(self):
        stats = DramStats()
        assert stats.row_hit_rate == 0.0
        stats.row_hits = 3
        stats.row_misses = 1
        assert stats.row_hit_rate == 0.75
        assert stats.avg_queueing_ticks() == 0.0


class TestControllerValidation:
    def test_rejects_core_without_channels(self):
        engine = Engine()
        with pytest.raises(ValueError):
            _controller(engine, cores={0: ()})

    def test_rejects_invalid_channel(self):
        engine = Engine()
        with pytest.raises(ValueError):
            _controller(engine, channels=2, cores={0: (5,)})

    def test_peak_bytes_per_tick(self):
        engine = Engine()
        controller = _controller(engine, channels=2, cores={0: (0,), 1: (1,)})
        assert controller.peak_bytes_per_tick() == 64
        assert controller.peak_bytes_per_tick(core=0) == 32
