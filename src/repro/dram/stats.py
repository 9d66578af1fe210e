"""DRAM statistics: per-core counters and windowed bandwidth traces.

The windowed trace backs the paper's Figure 2(b) (moving average of
memory requests over 1000-cycle windows) and Figure 12 (DRAM bandwidth
utilization over time, normalized to peak).

Counters are kept *per channel* (each :class:`~repro.dram.channel.Channel`
owns one :class:`DramStats` and increments it exactly as before — the
hot-path cost is one attribute bump either way), and the controller
exposes a :class:`DramStatsView` that aggregates them behind the
identical read API.  That split is what gives the observability layer
its ``dram.ch0.row_hits``-style per-channel registry paths without any
change to simulated behaviour: sums of disjoint integer counters equal
the historical shared counters exactly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class BandwidthTrace:
    """Bytes transferred per fixed-size window of global ticks."""

    window_ticks: int
    _windows: dict[int, int] = field(default_factory=lambda: defaultdict(int))

    def record(self, time: int, nbytes: int) -> None:
        """Account ``nbytes`` of data-bus traffic finishing at ``time``."""
        self._windows[time // self.window_ticks] += nbytes

    def series(self) -> list[tuple[int, int]]:
        """``(window_start_tick, bytes)`` pairs, sorted, gaps filled with 0."""
        if not self._windows:
            return []
        last = max(self._windows)
        return [
            (index * self.window_ticks, self._windows.get(index, 0))
            for index in range(last + 1)
        ]

    def utilization_series(self, peak_bytes_per_tick: float) -> list[tuple[int, float]]:
        """Per-window bandwidth utilization, normalized to the peak."""
        per_window_peak = peak_bytes_per_tick * self.window_ticks
        return [(start, nbytes / per_window_peak) for start, nbytes in self.series()]


@dataclass
class DramStats:
    """Aggregate counters the controller updates as it services requests."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    refreshes: int = 0
    bytes_per_core: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    queueing_ticks_total: int = 0

    @property
    def requests(self) -> int:
        """Total serviced requests."""
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        """Fraction of requests that hit an open row."""
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    @property
    def total_bytes(self) -> int:
        """Total data moved across all cores."""
        return sum(self.bytes_per_core.values())

    def avg_queueing_ticks(self) -> float:
        """Mean ticks a request spent between enqueue and data completion."""
        return self.queueing_ticks_total / self.requests if self.requests else 0.0


class DramStatsView:
    """Aggregate read API over the per-channel :class:`DramStats`.

    Presents exactly the :class:`DramStats` surface (every counter is the
    sum over channels), so code that consumed the controller's historical
    shared stats object — golden metrics, reports —
    works unchanged, while per-channel counters stay addressable for the
    registry.
    """

    __slots__ = ("per_channel",)

    def __init__(self, per_channel: Sequence[DramStats]) -> None:
        self.per_channel = tuple(per_channel)

    @property
    def reads(self) -> int:
        return sum(stats.reads for stats in self.per_channel)

    @property
    def writes(self) -> int:
        return sum(stats.writes for stats in self.per_channel)

    @property
    def row_hits(self) -> int:
        return sum(stats.row_hits for stats in self.per_channel)

    @property
    def row_misses(self) -> int:
        return sum(stats.row_misses for stats in self.per_channel)

    @property
    def refreshes(self) -> int:
        return sum(stats.refreshes for stats in self.per_channel)

    @property
    def queueing_ticks_total(self) -> int:
        return sum(stats.queueing_ticks_total for stats in self.per_channel)

    @property
    def bytes_per_core(self) -> dict[int, int]:
        """Data moved per core, summed over channels (core-sorted keys)."""
        totals: dict[int, int] = {}
        for stats in self.per_channel:
            for core, count in stats.bytes_per_core.items():
                totals[core] = totals.get(core, 0) + count
        return {core: totals[core] for core in sorted(totals)}

    @property
    def requests(self) -> int:
        """Total serviced requests."""
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        """Fraction of requests that hit an open row."""
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    @property
    def total_bytes(self) -> int:
        """Total data moved across all cores."""
        return sum(stats.total_bytes for stats in self.per_channel)

    def avg_queueing_ticks(self) -> float:
        """Mean ticks a request spent between enqueue and data completion."""
        return self.queueing_ticks_total / self.requests if self.requests else 0.0
