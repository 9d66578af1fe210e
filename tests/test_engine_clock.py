"""Unit tests for the event kernel and clock-domain translation."""

import pytest

from repro.core.clock import ClockDomain
from repro.core.engine import Engine


class TestEngine:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        order = []
        engine.at(5, lambda: order.append("b"))
        engine.at(3, lambda: order.append("a"))
        engine.at(9, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        engine = Engine()
        order = []
        for tag in "abc":
            engine.at(4, lambda t=tag: order.append(t))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_cannot_schedule_in_past(self):
        engine = Engine()
        engine.at(10, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.at(5, lambda: None)

    def test_after_is_relative(self):
        engine = Engine()
        seen = []
        engine.at(7, lambda: engine.after(3, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [10]

    def test_after_rejects_negative(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.after(-1, lambda: None)

    def test_run_until_stops_before_later_events(self):
        engine = Engine()
        seen = []
        engine.at(5, lambda: seen.append(5))
        engine.at(50, lambda: seen.append(50))
        engine.run(until=10)
        assert seen == [5]
        assert engine.pending == 1
        engine.run()
        assert seen == [5, 50]

    def test_cascading_events(self):
        engine = Engine()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 100:
                engine.after(1, tick)

        engine.at(0, tick)
        engine.run()
        assert count[0] == 100
        assert engine.now == 99

    def test_now_tracks_last_event(self):
        engine = Engine()
        engine.at(42, lambda: None)
        assert engine.run() == 42


class TestClockDomain:
    def test_synchronous_identity(self):
        clock = ClockDomain(1000, 1000)
        assert all(
            clock.to_global(n) == n == clock.to_local(n) for n in range(0, 5000, 7)
        )
        assert clock.to_global(123) == 123
        assert clock.to_local(123) == 123

    def test_slow_core_to_fast_global(self):
        # 500 MHz core, 1 GHz global: one core cycle = 2 ticks.
        clock = ClockDomain(500, 1000)
        assert clock.to_global(10) == 20
        assert clock.to_local(20) == 10

    def test_fast_core_rounds_up(self):
        # 1.5 GHz core, 1 GHz global: 1 core cycle = ceil(2/3 tick) = 1.
        clock = ClockDomain(1500, 1000)
        assert clock.to_global(1) == 1
        assert clock.to_global(3) == 2

    def test_roundtrip_never_shrinks(self):
        for local_mhz in (300, 700, 1000, 1600):
            clock = ClockDomain(local_mhz, 1000)
            for cycles in (1, 7, 100, 999):
                assert clock.to_local(clock.to_global(cycles)) >= cycles

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ClockDomain(0, 1000)
        with pytest.raises(ValueError):
            ClockDomain(1000, 1000).to_global(-1)
