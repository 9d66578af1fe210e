"""The shared memory controller: address mapping, routing, partitioning.

The controller decomposes physical addresses into (channel, bank group,
bank, row, column) with a configurable DRAMsim3-style bit order, routes
each transaction to its channel, and implements the paper's bandwidth
*partitioning*: when DRAM is statically partitioned, a core's traffic
interleaves only over its own channel subset (so a 1:7 split of the
dual-core 256 GB/s system is 1 channel vs 7); when DRAM is shared (+D and
up), every core interleaves over all channels and contends in the
channel queues.
"""

from __future__ import annotations

from typing import Callable

from typing import TYPE_CHECKING

from repro.config.dram import DramConfig
from repro.core.engine import Engine
from repro.dram.channel import Channel, DramRequest
from repro.dram.stats import BandwidthTrace, DramStats, DramStatsView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.registry import CounterRegistry
    from repro.obs.timeline import TimelineTracer


class DramController:
    """Routes transactions from cores (and page-table walkers) to channels."""

    def __init__(
        self,
        cfg: DramConfig,
        engine: Engine,
        *,
        transaction_bytes: int,
        channels_per_core: dict[int, tuple[int, ...]],
        trace_window_ticks: int | None = None,
        timeline: "TimelineTracer | None" = None,
    ) -> None:
        """``channels_per_core`` maps core index -> allowed channel tuple.

        Shared DRAM is expressed by giving every core the full channel
        range; static partitions give disjoint subsets.
        """
        if not channels_per_core:
            raise ValueError("at least one core must be wired to the controller")
        for core, channels in channels_per_core.items():
            if not channels:
                raise ValueError(f"core {core} has no DRAM channels")
            for channel in channels:
                if not 0 <= channel < cfg.channels:
                    raise ValueError(f"core {core} assigned invalid channel {channel}")
        self.cfg = cfg
        self.engine = engine
        self.transaction_bytes = transaction_bytes
        self.channels_per_core = dict(channels_per_core)
        channel_stats = [DramStats() for _ in range(cfg.channels)]
        self.stats = DramStatsView(channel_stats)
        self.timeline = timeline
        self.traces: dict[int, BandwidthTrace] | None = None
        self.total_trace: BandwidthTrace | None = None
        trace_fn: Callable[[int, int, int], None] | None = None
        if trace_window_ticks is not None:
            self.traces = {
                core: BandwidthTrace(trace_window_ticks) for core in channels_per_core
            }
            self.total_trace = BandwidthTrace(trace_window_ticks)
            trace_fn = self._record_trace
        burst = cfg.burst_cycles(transaction_bytes)
        self.channels = [
            Channel(
                index=index,
                cfg=cfg,
                engine=engine,
                burst_ticks=burst,
                stats=channel_stats[index],
                trace=trace_fn,
                transaction_bytes=transaction_bytes,
            )
            for index in range(cfg.channels)
        ]
        # Column field counts transactions per row.
        self._cols_per_row = max(1, cfg.row_bytes // transaction_bytes)
        # ``decompose`` runs once per transaction; the mapping order and
        # every modulus are fixed at construction, so each core gets a
        # specialized decomposer with the field-peeling loop unrolled and
        # all constants inlined (the same trick ``namedtuple`` uses).
        self._decomposers = {
            core: self._compile_decomposer(allowed)
            for core, allowed in self.channels_per_core.items()
        }

    # ------------------------------------------------------------------ #

    def submit(
        self,
        core: int,
        addr: int,
        write: bool,
        callback: Callable[[], None],
        *,
        is_walk: bool = False,
    ) -> None:
        """Issue one transaction; ``callback`` fires when its burst completes."""
        channel_index, bank, row = self._decomposers[core](addr)
        now = self.engine.now
        if self.timeline is not None:
            callback = self._logged(
                callback, now, addr, core, channel_index, write, is_walk
            )
        # Positional: (addr, write, core, callback, bank, row,
        # enqueue_time, is_walk) — this runs once per transaction, with
        # ``Channel.enqueue`` inlined (the per-transaction hot path).
        request = DramRequest(addr, write, core, callback, bank, row, now, is_walk)
        channel = self.channels[channel_index]
        channel.queue.append(request)
        if is_walk:
            channel._pending_walks += 1
        kick_at = channel._kick_at
        if kick_at is None or kick_at > now:
            channel._kick_at = now
            self.engine.at(now, channel._kick_cb)

    def _logged(self, callback, start, addr, core, channel, write, is_walk):
        def wrapped() -> None:
            assert self.timeline is not None
            self.timeline.log_dram(
                start, self.engine.now, addr, core, channel, write, is_walk
            )
            callback()
        return wrapped

    def decompose(self, core: int, addr: int) -> tuple[int, int, int]:
        """Map a physical address to (channel, bank-in-channel, row).

        Fields are peeled off the transaction-granular address in the
        configured order (least significant first).  The channel field
        interleaves over the *core's allowed channels*, so partitioned
        cores stripe across their own subset at full spatial locality.
        Addresses beyond capacity wrap (the row field is taken modulo).
        """
        return self._decomposers[core](addr)

    def _compile_decomposer(
        self, allowed: tuple[int, ...]
    ) -> Callable[[int], tuple[int, int, int]]:
        """Build one core's ``addr -> (channel, bank, row)`` function."""
        cfg = self.cfg
        lines = [
            "def decompose(addr):",
            f"    value = addr // {self.transaction_bytes}",
            f"    channel = {allowed[0]}",
            "    bank_group = 0",
            "    bank_in_group = 0",
            "    row = 0",
        ]
        for token in cfg.mapping.order:
            if token == "ch":
                lines += [
                    f"    channel = _allowed[value % {len(allowed)}]",
                    f"    value //= {len(allowed)}",
                ]
            elif token == "co":
                lines.append(f"    value //= {self._cols_per_row}")
            elif token == "ba":
                lines += [
                    f"    bank_in_group = value % {cfg.banks_per_group}",
                    f"    value //= {cfg.banks_per_group}",
                ]
            elif token == "bg":
                lines += [
                    f"    bank_group = value % {cfg.bank_groups}",
                    f"    value //= {cfg.bank_groups}",
                ]
            else:  # "ro"
                lines += [
                    f"    row = value % {cfg.rows_per_bank}",
                    f"    value //= {cfg.rows_per_bank}",
                ]
        lines.append(
            f"    return channel, bank_group * {cfg.banks_per_group}"
            " + bank_in_group, row"
        )
        namespace: dict = {"_allowed": allowed}
        exec("\n".join(lines), namespace)  # noqa: S102 - constants only
        return namespace["decompose"]

    # ------------------------------------------------------------------ #

    def _record_trace(self, time: int, nbytes: int, core: int) -> None:
        assert self.traces is not None and self.total_trace is not None
        self.traces[core].record(time, nbytes)
        self.total_trace.record(time, nbytes)

    def peak_bytes_per_tick(self, core: int | None = None) -> float:
        """Peak data-bus bytes per global tick (for a core's channel set)."""
        if core is None:
            count = self.cfg.channels
        else:
            count = len(self.channels_per_core[core])
        return count * self.cfg.channel_bytes_per_cycle

    def register_counters(self, registry: "CounterRegistry") -> None:
        """Expose per-channel and aggregate DRAM stats to the registry.

        Pure binding: the registry reads the existing per-channel stat
        objects at snapshot time, never on the transaction hot path.
        """
        for channel in self.channels:
            stats = channel.stats
            registry.bind_many(
                f"dram.ch{channel.index}",
                {
                    "reads": lambda s=stats: s.reads,
                    "writes": lambda s=stats: s.writes,
                    "row_hits": lambda s=stats: s.row_hits,
                    "row_misses": lambda s=stats: s.row_misses,
                    "refreshes": lambda s=stats: s.refreshes,
                    "queueing_ticks_total": lambda s=stats: s.queueing_ticks_total,
                },
            )
            registry.bind_gauge(
                f"dram.ch{channel.index}.queue_depth",
                lambda c=channel: c.occupancy,
            )
        for core in sorted(self.channels_per_core):
            registry.bind_counter(
                f"dram.core{core}.bytes",
                lambda c=core: self.stats.bytes_per_core.get(c, 0),
            )
        registry.bind_counter("dram.requests", lambda: self.stats.requests)
        registry.bind_counter("dram.total_bytes", lambda: self.stats.total_bytes)
        registry.bind_gauge("dram.row_hit_rate", lambda: self.stats.row_hit_rate)

    @property
    def pending(self) -> int:
        """Requests currently queued across all channels."""
        return sum(channel.occupancy for channel in self.channels)

    def queue_depths(self) -> dict[int, int]:
        """Per-channel queue occupancy (stall-watchdog diagnostics)."""
        return {
            channel.index: channel.occupancy for channel in self.channels
        }
