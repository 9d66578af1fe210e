"""Property tests (hypothesis) for the event kernel and channel hot path.

These pin the *contracts* the hot-loop optimizations must preserve:

* same-tick events fire in insertion order, including events inserted
  while the tick is being processed (the engine's fast same-tick path);
* a channel's data bus serializes bursts — no two bursts ever overlap;
* a channel never moves more bytes per tick than its peak bandwidth.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.dram import DramConfig
from repro.core.engine import Engine
from repro.dram.channel import Channel, DramRequest
from repro.dram.stats import DramStats

TXN = 64


class TestEngineOrdering:
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_same_tick_events_fire_in_insertion_order(self, times):
        engine = Engine()
        seen = []
        for index, time in enumerate(times):
            engine.at(time, lambda t=time, i=index: seen.append((t, i)))
        engine.run()
        # Stable by insertion: sorting by time alone must not reorder.
        assert seen == sorted(seen, key=lambda item: item[0])
        assert engine.events_processed == len(times)

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 3)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_nested_same_tick_schedules_append_after_pending(self, events):
        """An event scheduled *at the current tick* runs this tick, after
        everything already pending for it — exactly like a reference
        stable priority queue."""
        engine = Engine()
        seen = []

        def reference(times):
            # (time, seq) stable ordering with children appended live.
            pending = sorted(
                ((t, i, ("root", i)) for i, (t, _) in enumerate(times)),
                key=lambda item: (item[0], item[1]),
            )
            seq = len(times)
            out = []
            while pending:
                time, _, ident = pending.pop(0)
                out.append(ident)
                kind = ident[0]
                if kind == "root":
                    children = times[ident[1]][1]
                    for child in range(children):
                        pending.append((time, seq, ("child", ident[1], child)))
                        seq += 1
                    pending.sort(key=lambda item: (item[0], item[1]))
            return out

        def fire(index):
            seen.append(("root", index))
            for child in range(events[index][1]):
                engine.at(
                    engine.now,
                    lambda i=index, c=child: seen.append(("child", i, c)),
                )

        for index, (time, _) in enumerate(events):
            engine.at(time, lambda i=index: fire(i))
        engine.run()
        assert seen == reference(events)

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=50), st.integers(0, 25))
    @settings(max_examples=40, deadline=None)
    def test_run_until_leaves_future_events_pending(self, times, until):
        engine = Engine()
        seen = []
        for time in times:
            engine.at(time, lambda t=time: seen.append(t))
        engine.run(until=until)
        assert seen == sorted(t for t in times if t <= until)
        assert engine.pending == sum(1 for t in times if t > until)
        engine.run()
        assert sorted(seen) == sorted(times)


def _requests():
    return st.lists(
        st.tuples(
            st.integers(0, 3),     # bank
            st.integers(0, 5),     # row
            st.booleans(),         # write
            st.booleans(),         # is_walk
            st.integers(0, 40),    # inter-arrival gap (ticks)
        ),
        min_size=1,
        max_size=80,
    )


class TestChannelBusInvariants:
    def _drive(self, requests, *, prioritize_walks, refresh_enabled):
        engine = Engine()
        cfg = DramConfig(
            channels=1,
            channel_bytes_per_cycle=32,
            prioritize_walks=prioritize_walks,
            refresh_enabled=refresh_enabled,
        )
        bursts: list[tuple[int, int, int]] = []
        channel = Channel(
            index=0,
            cfg=cfg,
            engine=engine,
            burst_ticks=cfg.burst_cycles(TXN),
            stats=DramStats(),
            trace=lambda end, nbytes, core: bursts.append((end, nbytes, core)),
            transaction_bytes=TXN,
        )
        completions = []
        arrival = 0
        for index, (bank, row, write, is_walk, gap) in enumerate(requests):
            arrival += gap
            request = DramRequest(
                addr=index * TXN,
                write=write,
                core=index % 3,
                callback=lambda i=index: completions.append(i),
                bank=bank,
                row=row,
                is_walk=is_walk,
            )
            engine.at(arrival, lambda r=request: channel.enqueue(r))
        engine.run()
        assert len(completions) == len(requests)
        assert channel.occupancy == 0
        return channel, bursts

    @given(
        _requests(),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_two_bursts_overlap_on_the_bus(
        self, requests, prioritize_walks, refresh_enabled
    ):
        channel, bursts = self._drive(
            requests,
            prioritize_walks=prioritize_walks,
            refresh_enabled=refresh_enabled,
        )
        assert len(bursts) == len(requests)
        intervals = sorted(
            (end - channel.burst_ticks, end) for end, _, _ in bursts
        )
        for (_, first_end), (second_start, _) in zip(intervals, intervals[1:]):
            assert second_start >= first_end, "data bursts overlap on one bus"

    @given(_requests(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_bytes_per_tick_never_exceed_peak_bandwidth(
        self, requests, prioritize_walks
    ):
        channel, bursts = self._drive(
            requests, prioritize_walks=prioritize_walks, refresh_enabled=True
        )
        peak = channel.cfg.channel_bytes_per_cycle
        # Each burst individually respects the pin rate ...
        for _, nbytes, _ in bursts:
            assert nbytes <= channel.burst_ticks * peak
        # ... and (with bursts serialized) so does every busy span.
        intervals = sorted(
            (end - channel.burst_ticks, end) for end, _, _ in bursts
        )
        span_start = intervals[0][0]
        span_end = intervals[-1][1]
        total_bytes = sum(nbytes for _, nbytes, _ in bursts)
        assert total_bytes <= (span_end - span_start) * peak

    @given(_requests())
    @settings(max_examples=40, deadline=None)
    def test_every_request_counted_exactly_once(self, requests):
        channel, _ = self._drive(
            requests, prioritize_walks=True, refresh_enabled=False
        )
        stats = channel.stats
        assert stats.reads + stats.writes == len(requests)
        assert stats.row_hits + stats.row_misses == len(requests)
        assert sum(stats.bytes_per_core.values()) == len(requests) * TXN
