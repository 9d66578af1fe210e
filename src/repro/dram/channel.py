"""One DRAM channel: banks, FR-FCFS scheduling, data-bus serialization.

Each channel owns its request queue and schedules requests with
first-ready-first-come-first-served (FR-FCFS): a queued request targeting
an already-open row is preferred over older row-miss requests, within a
bounded reordering window.  Bank state machines enforce tRCD/tRP/tRAS/
tCCD/tWR; the channel's single data bus serializes bursts, which is what
caps a channel at its peak bandwidth.  Periodic all-bank refresh blocks
the channel for tRFC every tREFI.

The scheduler issues one request per engine event (a *kick*) and
reschedules itself at ``max(now + 1, data_end - burst)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.config.dram import DramConfig
from repro.core.engine import Engine
from repro.dram.stats import DramStats

#: How deep into the queue FR-FCFS may reorder to find a row hit.
FR_WINDOW = 16


@dataclass(slots=True, eq=False)
class DramRequest:
    """One transaction presented to the memory system.

    ``callback`` fires (via the engine) when the data burst completes.
    ``core`` attributes the traffic for stats/fairness; ``is_walk`` marks
    page-table-walk reads for the PTW traffic breakdown.
    """

    addr: int
    write: bool
    core: int
    callback: Callable[[], None]
    bank: int = 0
    row: int = 0
    enqueue_time: int = 0
    is_walk: bool = False


class Bank:
    """Timing state of one DRAM bank."""

    __slots__ = ("open_row", "col_ready_at", "act_at")

    def __init__(self) -> None:
        self.open_row: int | None = None
        self.col_ready_at: int = 0
        self.act_at: int = 0

    def close(self, until: int) -> None:
        """Precharge the bank (e.g. by refresh) and block it until ``until``."""
        self.open_row = None
        self.col_ready_at = max(self.col_ready_at, until)


@dataclass
class Channel:
    """Scheduler and timing model of a single channel."""

    index: int
    cfg: DramConfig
    engine: Engine
    burst_ticks: int
    stats: DramStats
    #: Optional per-burst hook ``trace(end_tick, nbytes, core)`` used by the
    #: controller to build per-core bandwidth traces (Figures 2b and 12).
    trace: Callable[[int, int, int], None] | None = None
    transaction_bytes: int = 64

    banks: list[Bank] = field(init=False)
    queue: list[DramRequest] = field(init=False, default_factory=list)
    bus_free_at: int = field(init=False, default=0)
    next_refresh_at: int = field(init=False)
    _kick_at: int | None = field(init=False, default=None)
    _pending_walks: int = field(init=False, default=0)
    _kick_cb: Callable[[], None] = field(init=False)

    def __post_init__(self) -> None:
        self.banks = [Bank() for _ in range(self.cfg.banks_per_channel)]
        # Stagger refresh across channels so they do not blink in lockstep.
        offset = (self.index * self.cfg.timing.tREFI) // max(1, self.cfg.channels)
        self.next_refresh_at = self.cfg.timing.tREFI + offset
        # One bound method, reused for every scheduling push (``self._kick``
        # would allocate a fresh bound method per transaction).
        self._kick_cb = self._kick
        # Immutable config pulled into flat attributes: ``_issue`` and
        # ``_select_index`` run once per transaction.
        timing = self.cfg.timing
        self._tRCD = timing.tRCD
        self._tRP = timing.tRP
        self._tRAS = timing.tRAS
        self._tCCD = timing.tCCD
        self._tWR = timing.tWR
        self._tCL = timing.tCL
        self._prioritize = self.cfg.prioritize_walks
        self._refresh_on = self.cfg.refresh_enabled

    # ------------------------------------------------------------------ #

    def enqueue(self, request: DramRequest) -> None:
        """Accept a request into the channel queue and ensure scheduling."""
        now = self.engine.now
        request.enqueue_time = now
        self.queue.append(request)
        if request.is_walk:
            self._pending_walks += 1
        # Inline of ``_ensure_kick(now)`` — this runs once per transaction.
        kick_at = self._kick_at
        if kick_at is None or kick_at > now:
            self._kick_at = now
            self.engine.at(now, self._kick_cb)

    @property
    def occupancy(self) -> int:
        """Requests currently waiting in the channel queue."""
        return len(self.queue)

    # ------------------------------------------------------------------ #

    def _ensure_kick(self, time: int) -> None:
        """Schedule the issue step at ``time`` unless one is already due earlier."""
        if self._kick_at is not None and self._kick_at <= time:
            return
        self._kick_at = time
        self.engine.at(time, self._kick_cb)

    def _kick(self) -> None:
        self._kick_at = None
        queue = self.queue
        if not queue:
            return
        engine = self.engine
        now = engine.now
        if self._refresh_on and now >= self.next_refresh_at:
            self._refresh(now)
            return
        index = self._select_index()
        request = queue[index]
        if request.is_walk:
            self._pending_walks -= 1
        data_end = self._issue(request, now)
        engine.at(data_end, request.callback)
        del queue[index]
        if not queue:
            return
        # The next issue decision happens when the bus commits to this
        # burst; bank preparation of the next request overlaps it.
        next_time = data_end - self.burst_ticks
        if next_time <= now:
            next_time = now + 1
        # Direct push: ``_kick_at`` is None and ``next_time > now``.
        self._kick_at = next_time
        engine.at(next_time, self._kick_cb)

    def _refresh(self, now: int) -> None:
        """Perform an all-bank refresh: banks precharged, channel blocked.

        Refreshes that fell due while the channel sat idle have already
        happened in the background; only the current one blocks traffic.
        """
        timing = self.cfg.timing
        end = now + timing.tRFC
        while self.next_refresh_at <= now:
            self.next_refresh_at += timing.tREFI
        for bank in self.banks:
            bank.close(end)
        self.bus_free_at = max(self.bus_free_at, end)
        self.stats.refreshes += 1
        self._ensure_kick(end)

    def _select_index(self) -> int:
        """FR-FCFS with optional walk priority.

        Page-table-walk reads (when ``prioritize_walks``) go first — one
        pending walk gates many data transactions.  Otherwise the oldest
        row-hit within the reorder window wins, falling back to the
        oldest request.  Returns the queue index of the winner.
        """
        queue = self.queue
        if self._pending_walks and self._prioritize:
            for index, request in enumerate(queue):
                if request.is_walk:
                    return index
        banks = self.banks
        size = len(queue)
        for index in range(size if size < FR_WINDOW else FR_WINDOW):
            request = queue[index]
            if banks[request.bank].open_row == request.row:
                return index
        return 0

    def _issue(self, request: DramRequest, now: int) -> int:
        """Advance bank/bus state for ``request``; returns data-end tick.

        The caller schedules the completion callback.

        Command timing is floored at the request's *arrival*, not at the
        scheduling instant: a real controller issues ACT/RD commands for
        queued requests while earlier bursts still occupy the data bus,
        so back-to-back row hits stream at the burst rate.  The data bus
        remains the serializing resource.
        """
        bank = self.banks[request.bank]
        arrival = request.enqueue_time
        stats = self.stats
        if bank.open_row == request.row:
            col_ready = bank.col_ready_at
            if col_ready < arrival:
                col_ready = arrival
            stats.row_hits += 1
        else:
            if bank.open_row is None:
                act_at = bank.col_ready_at
                if act_at < arrival:
                    act_at = arrival
            else:
                precharge_at = max(
                    arrival, bank.col_ready_at, bank.act_at + self._tRAS
                )
                act_at = precharge_at + self._tRP
            bank.act_at = act_at
            bank.open_row = request.row
            col_ready = act_at + self._tRCD
            stats.row_misses += 1
        data_start = col_ready + self._tCL
        bus_free = self.bus_free_at
        if data_start < bus_free:
            data_start = bus_free
        if data_start < now:
            data_start = now
        data_end = data_start + self.burst_ticks
        self.bus_free_at = data_end
        write = request.write
        bank.col_ready_at = col_ready + self._tCCD + (self._tWR if write else 0)

        if write:
            stats.writes += 1
        else:
            stats.reads += 1
        stats.bytes_per_core[request.core] += self.transaction_bytes
        stats.queueing_ticks_total += data_end - arrival
        if self.trace is not None:
            self.trace(data_end, self.transaction_bytes, request.core)
        return data_end
