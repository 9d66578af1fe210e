"""Batched replay kernel: vectorized exclusive-ownership DMA/DRAM timing.

Per-event replay spends ~95% of a warm sweep popping one engine event
per DMA pump, per FR-FCFS kick and per burst completion.  This module
retires the same micro-events off a *private* per-core heap — the
"governor" — whenever a core holds **exclusive** ownership of every
resource those events can touch, generalizing the PR 2 credit-chain
argument from one channel drain to the whole DMA→controller→channel
pipeline.

Exclusivity is decided statically per core by :func:`plan_replay`:

* translation is off (``mmu.direct_paddr`` binds the page table
  directly, so no TLB/PTW state is shared and no walk traffic exists);
* the core's DRAM channels are disjoint from every other core's
  (``share_dram=False`` partitions, or a single core) — partitioned
  address decomposition then guarantees *no* foreign request, including
  another core's page-table walks, can ever reach an owned channel;
* no request logger or bandwidth trace observes the memory system
  (observation callbacks must fire at real engine time);
* ``misc.iterations > 0`` (the ``iterations == 0`` co-run rule reads
  *other* cores' completion state inside ``on_complete``, making
  same-tick cross-core ordering significant).

Under those conditions the owned subsystem interacts with the rest of
the simulation through exactly two channels: the core starting a burst
(``transfer()`` or ``write_back()``, always at real ``engine.now``) and
the governor firing
``on_complete`` (pinned to real ``engine.now`` below).  Everything in
between — pump, kick, refresh, per-burst completion bookkeeping —
mutates owned state only, so the governor may retire it at *virtual*
times ahead of the engine clock, provided three rules hold:

1. **Horizon.**  Never process a micro-event beyond the engine's next
   real event time: a real event may call ``transfer()``, and its
   arrival order relative to pending micro-events is observable (a
   transfer appended before the active one exhausts issues earlier).
   Processing up to *and including* the horizon tick is safe: the only
   same-tick interaction, ``transfer()``, is confluent with every
   non-delivery micro-event (verified case-by-case: the resulting pump
   schedule and stats are identical in either order).
2. **Real-time delivery.**  ``on_complete`` runs core code that reads
   ``engine.now`` and schedules events; it must fire when the engine
   clock *equals* the micro-event's time.  The governor pauses on any
   delivery-bearing micro-event ahead of the clock and schedules one
   real wakeup at exactly that tick (~one real event per transfer).
3. **Event crediting.**  Every micro-event retired virtually credits
   ``engine.events_processed`` by one; every real wakeup debits one.
   The pinned event count is byte-identical to per-event replay.

The per-event push *sequence* is replicated exactly — including the
credit-chain pops, the refresh catch-up loop and the stall/exhaustion
branches of the DMA pump — by calling the real ``Channel._issue`` /
``_select_index`` on the real channel objects and mirroring the
surrounding scheduling logic onto the private heap.  Request expansion,
translation (order-safe: transfers translate whole at ``transfer()``
time, and FIFO issue makes that the same first-touch order the lazy
per-txn path produces) and address decomposition are vectorized with
numpy per transfer.

**Analytic fast-forward** (``auto`` mode): bandwidth-starved streaming
reaches a *saturated* steady state — ``max_outstanding`` transactions in
flight, the data bus booked exactly ``(max_outstanding - 1)`` bursts
ahead, and a rigid four-micro-event cycle per transaction every
``burst`` ticks::

    COMPLETE @ t          frees one slot, restarts the pump
    PUMP     @ t          issues the next transaction, schedules a kick
    KICK     @ t          sole queued request wins FR-FCFS; the bus (not
                          bank prep) bounds its data start; queue empties
                          before any batching/refresh-lookahead branch
    PUMP     @ t+gap      immediately stalls on the outstanding cap

``_bulk`` recognizes that state exactly (heap = a pure completion ladder
at ``t + burst·j``, queue/chain empty, bus at ``t + (M-1)·burst``) and
replays k cycles in one tight pass over the precomputed request stream,
evolving per-bank row/act/col-ready state with the same formulas as
``Channel._issue`` and *verifying per transaction* that the bus bound
held (``col_ready + tCL <= bus``) — the instant it would not, the block
stops and ordinary micro-event replay resumes.  The only in-cycle read
of ``next_refresh_at`` is the kick-entry comparison, so capping the
block at the refresh tick is exact, not heuristic.  Skipped cycles
credit their four events each; the advance is closed-form but the
result — stats, state, event count — is byte-identical by construction,
and the differential harness holds it to that.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.dma import DmaEngine
from repro.dram.channel import Channel, DramRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.config.system import SystemConfig
    from repro.mmu.pagetable import PageTable
    from repro.obs.registry import CounterRegistry

#: The replay-mode axis: ``event`` is the per-event baseline, ``batched``
#: retires micro-events off the private heap, ``auto`` adds the analytic
#: fast-forward on top of batching.
REPLAY_MODES = ("event", "batched", "auto")

#: Default replay mode; descriptors/configs omit the field at this value
#: so every artifact written before the axis existed stays byte-identical.
DEFAULT_REPLAY_MODE = "event"

# Private-heap micro-event kinds (heap entries sort by (time, seq, kind)).
_PUMP = 0
_KICK = 1
_COMPLETE = 2


def validate_replay_mode(mode: str) -> str:
    """Return ``mode`` or raise ``ValueError`` for an unknown one."""
    if mode not in REPLAY_MODES:
        raise ValueError(
            f"unknown replay mode {mode!r}; choose from {', '.join(REPLAY_MODES)}"
        )
    return mode


@dataclass(frozen=True)
class CoreDecision:
    """Why one core is (or is not) driven by the batched governor."""

    core: int
    eligible: bool
    reason: str


@dataclass(frozen=True)
class ReplayPlan:
    """Static per-core batching decisions for one simulation."""

    mode: str
    decisions: tuple[CoreDecision, ...]

    def eligible_cores(self) -> tuple[int, ...]:
        return tuple(d.core for d in self.decisions if d.eligible)


def plan_replay(system: "SystemConfig", *, logging_active: bool = False) -> ReplayPlan:
    """Decide, per core, whether the batched governor may drive replay.

    Purely static: every condition is a property of the system config
    (plus whether any request logger / bandwidth trace is attached).
    A core that fails any condition falls back to per-event replay —
    which is always byte-identical, so ``batched``/``auto`` are safe to
    request unconditionally.
    """
    mode = validate_replay_mode(system.misc.replay_mode)
    cores = range(system.num_cores)
    channel_sets = {core: frozenset(system.channels_for_core(core)) for core in cores}
    decisions = []
    for core in cores:
        reason = None
        if mode == "event":
            reason = "replay mode is event"
        elif logging_active:
            reason = "request logging / bandwidth tracing active"
        elif system.npumem[core].translation_enabled:
            reason = "translation enabled (shared TLB/PTW state)"
        elif system.misc.iterations <= 0:
            reason = "iterations=0 couples completion across cores"
        else:
            mine = channel_sets[core]
            for other in cores:
                if other != core and channel_sets[other] & mine:
                    reason = f"shares DRAM channels with core {other}"
                    break
        if reason is None:
            decisions.append(
                CoreDecision(core, True, "exclusive channels, translation off")
            )
        else:
            decisions.append(CoreDecision(core, False, reason))
    return ReplayPlan(mode=mode, decisions=tuple(decisions))


@dataclass
class ReplayStats:
    """Observable outcomes of one core's governor."""

    batched_events: int = 0      #: micro-events retired off the private heap
    wakeup_events: int = 0       #: real engine events the governor scheduled
    fast_forwards: int = 0       #: analytic warps applied
    fast_forwarded_ticks: int = 0  #: virtual ticks skipped by warps


class _VTransfer:
    """One materialized transfer: vectorized streams plus issue cursor."""

    __slots__ = (
        "addr", "write", "chan", "bank", "row",
        "chan_np", "bank_np", "row_np",
        "count", "pos", "outstanding", "issued_all", "on_complete",
    )

    def __init__(self, on_complete: Callable[[], None]):
        self.count = 0
        self.pos = 0
        self.outstanding = 0
        self.issued_all = False
        self.on_complete = on_complete


class TurboDma(DmaEngine):
    """A :class:`DmaEngine` whose pump/kick/completion micro-events run
    on a private heap at virtual times (see module docstring).

    Reuses the real channel objects' queues, banks, bus and stats, and
    the real ``_issue``/``_select_index`` timing code; only the event
    *scheduling* around them is mirrored privately.
    """

    def __init__(
        self,
        *args,
        channels: dict[int, Channel],
        page_table: "PageTable",
        fast_forward: bool = False,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if self._paddr is None:  # pragma: no cover - guarded by plan_replay
            raise ValueError("TurboDma requires translation off")
        self._channels = channels
        self._owned = [channels[index] for index in sorted(channels)]
        self._table = page_table
        self._page_bytes = page_table.page_bytes
        self._heap: list[tuple[int, int, int, object]] = []
        self._lseq = 0
        self._advancing = False
        self._wake_at: int | None = None
        self._wakeup_cb = self._wakeup
        self.rstats = ReplayStats()
        # Vectorized decomposition constants (mirror of the controller's
        # compiled per-core decomposer).  numpy is imported here, not at
        # module level: the default event mode never builds a TurboDma.
        import numpy as np

        dram = self.dram
        self._allowed = np.asarray(dram.channels_per_core[self.core], dtype=np.int64)
        self._map_order = dram.cfg.mapping.order
        self._cols_per_row = dram._cols_per_row
        # Fast-forward machinery (``auto`` only): closed-form replay of
        # saturated streaming cycles; ``_bulk_off_until`` throttles
        # re-probing after a failed ladder scan.
        self._ff_on = fast_forward
        self._delivered = False
        self._bulk_off_until = -1

    # ------------------------------------------------------------------ #
    # Materialization: expand + translate + decompose, vectorized.

    def _materialize(
        self, runs: array, write: bool, on_complete: Callable[[], None]
    ) -> _VTransfer:
        import numpy as np

        txn = self.transaction_bytes
        # Expand runs without a per-run Python loop (tile streams can
        # carry thousands of short runs): global arange minus each run's
        # start offset gives the within-run index.  The pair array is
        # viewed in place, never copied or written.
        pairs = np.frombuffer(runs, np.int64)
        starts = pairs[0::2]
        counts = pairs[1::2]
        total = int(counts.sum())
        ends = np.cumsum(counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
        vaddr = np.repeat(starts, counts) + txn * within
        # Translation: whole-transfer-eager is the same first-touch order
        # as the lazy per-issue path because issue is strictly FIFO across
        # transfers and each transfer is fully translated at call time.
        page = self._page_bytes
        vpn = vaddr // page
        offset = vaddr - vpn * page
        uniq, first, inverse = np.unique(vpn, return_index=True, return_inverse=True)
        frames = np.empty(len(uniq), dtype=np.int64)
        translate = self._table.translate
        for k in np.argsort(first, kind="stable").tolist():
            frames[k] = translate(int(uniq[k]))
        paddr = frames[inverse] * page + offset
        # Decomposition: vectorized replica of the controller's compiled
        # field-peeling decomposer for this core's allowed channels.
        value = paddr // txn
        allowed = self._allowed
        channel = np.full(total, allowed[0], dtype=np.int64)
        bank_group = np.zeros(total, dtype=np.int64)
        bank_in_group = np.zeros(total, dtype=np.int64)
        row = np.zeros(total, dtype=np.int64)
        cfg = self.dram.cfg
        for token in self._map_order:
            if token == "ch":
                channel = allowed[value % len(allowed)]
                value = value // len(allowed)
            elif token == "co":
                value = value // self._cols_per_row
            elif token == "ba":
                bank_in_group = value % cfg.banks_per_group
                value = value // cfg.banks_per_group
            elif token == "bg":
                bank_group = value % cfg.bank_groups
                value = value // cfg.bank_groups
            else:  # "ro"
                row = value % cfg.rows_per_bank
                value = value // cfg.rows_per_bank
        bank = bank_group * cfg.banks_per_group + bank_in_group
        rec = _VTransfer(on_complete)
        rec.count = total
        rec.chan_np = channel
        rec.bank_np = bank
        rec.row_np = row
        # Python-int lists for the hot scalar path: request fields and
        # stats must stay plain ints (numpy scalars would leak into the
        # serialized results).
        rec.addr = paddr.tolist()
        rec.write = write
        rec.chan = channel.tolist()
        rec.bank = bank.tolist()
        rec.row = row.tolist()
        return rec

    # ------------------------------------------------------------------ #
    # The DmaEngine surface (``transfer`` and ``write_back`` start here).

    def _start(self, runs: array, write: bool, on_complete: Callable[[], None]) -> None:
        if not runs:
            self.engine.after(0, on_complete)
            return
        rec = self._materialize(runs, write, on_complete)
        self._active.append(rec)
        now = self.engine.now
        # Mirror of ``_schedule_pump(max(now, _next_issue_at))``.
        if not self._pump_scheduled:
            self._pump_scheduled = True
            time = self._next_issue_at
            self._vpush(time if time > now else now, _PUMP, None)
        # Do NOT advance synchronously: the calling core handler may
        # append further transfers this tick, and racing ahead virtually
        # before they land would retire stale kicks against a queue the
        # per-event engine would have filled first.  A same-tick bucket
        # wakeup runs after the handler (and every same-tick real event
        # pushed before it) completes.
        if self._heap and not self._advancing:
            self._ensure_wakeup(now)

    def register_counters(self, registry: "CounterRegistry") -> None:
        super().register_counters(registry)
        rstats = self.rstats
        registry.bind_many(
            f"replay.core{self.core}",
            {
                "batched_events": lambda: rstats.batched_events,
                "wakeup_events": lambda: rstats.wakeup_events,
                "fast_forwards": lambda: rstats.fast_forwards,
                "fast_forwarded_ticks": lambda: rstats.fast_forwarded_ticks,
            },
        )

    # ------------------------------------------------------------------ #
    # Private-heap plumbing.

    def _vpush(self, time: int, kind: int, payload) -> None:
        heapq.heappush(self._heap, (time, self._lseq, kind, payload))
        self._lseq += 1

    def _ensure_wakeup(self, time: int) -> None:
        if self._wake_at is not None and self._wake_at <= time:
            return
        self._wake_at = time
        self.engine.at(time, self._wakeup_cb)

    def _wakeup(self) -> None:
        # A real event: the engine counted it, per-event replay wouldn't
        # have scheduled it — debit one to keep the pinned count exact.
        if self._wake_at is not None and self._wake_at <= self.engine.now:
            self._wake_at = None
        self.engine.credit_events(-1)
        self.rstats.wakeup_events += 1
        self._advance()

    def _advance(self) -> None:
        if self._advancing:
            return
        self._advancing = True
        try:
            engine = self.engine
            now = engine.now  # constant within one advance
            # The engine's next real event only changes when a delivery
            # runs core code (``on_complete`` schedules events); cache it
            # across the loop and refresh after deliveries only.
            next_real = engine.next_time()
            pop = heapq.heappop
            max_out = self.max_outstanding
            active = self._active
            ff = self._ff_on
            retired = 0
            while True:
                heap = self._heap  # _bulk rebuilds the list object
                if not heap:
                    break
                entry = heap[0]
                time = entry[0]
                kind = entry[2]
                if time > now:
                    # Horizon: a real event at or before this entry's
                    # tick may still interact.  ``>=`` is load-bearing —
                    # a real event *at* the entry's own tick can precede
                    # it in the per-event engine's seq order (e.g. a
                    # core handler appending a transfer before a stalled
                    # pump fires), so racing ahead to that tick would
                    # reorder the interleaving and skew stall counts.
                    # The wakeup this break arms replays the entry at
                    # its real tick, after every earlier-pushed handler.
                    if next_real is not None and time >= next_real:
                        break
                    if kind == _COMPLETE:
                        rec = entry[3]
                        if rec.issued_all and rec.outstanding == 1:
                            break  # on_complete must run at real time
                    elif kind == _PUMP:
                        if (
                            active
                            and self._outstanding < max_out
                            and (rec := active[0]).pos >= rec.count
                            and rec.outstanding == 0
                        ):
                            break  # exhaustion pop delivers on_complete
                if ff and kind == _COMPLETE and time >= self._bulk_off_until:
                    if self._bulk(time):
                        continue  # ladder rebuilt; re-read the new top
                pop(heap)
                retired += 1
                if kind == _PUMP:
                    self._do_pump(time)
                elif kind == _KICK:
                    self._do_kick(entry[3], time)
                else:
                    self._do_complete(entry[3], time)
                if self._delivered:
                    self._delivered = False
                    next_real = engine.next_time()
            if retired:
                self.rstats.batched_events += retired
                engine.credit_events(retired)
            heap = self._heap
            if heap:
                self._ensure_wakeup(heap[0][0])
        finally:
            self._advancing = False

    # ------------------------------------------------------------------ #
    # Micro-event bodies: exact mirrors of DmaEngine._pump/_complete and
    # Channel._kick/_refresh plus DramController.submit, with every
    # ``engine.at`` push redirected onto the private heap.

    def _do_pump(self, now: int) -> None:
        self._pump_scheduled = False
        active = self._active
        if not active:
            return
        if self._outstanding >= self.max_outstanding:
            self.stats.stall_events += 1
            return  # a completion will restart the pump
        rec = active[0]
        index = rec.pos
        if index >= rec.count:
            rec.issued_all = True
            active.popleft()
            if rec.outstanding == 0:
                self._delivered = True  # core code ran: horizon moved
                rec.on_complete()  # guarded: only reached at real now
            if active and not self._pump_scheduled:
                self._pump_scheduled = True
                time = self._next_issue_at
                self._vpush(time if time > now else now, _PUMP, None)
            return
        rec.pos = index + 1
        rec.outstanding += 1
        self._outstanding += 1
        stats = self.stats
        write = rec.write
        if write:
            stats.write_txns += 1
        else:
            stats.read_txns += 1
        # DramController.submit + Channel.enqueue, inlined for an owned
        # channel (no logger by eligibility; never a walk).  The request
        # carries its (transfer, stream index) in the callback slot — the
        # governor is the only consumer of owned-channel completions.
        channel = self._channels[rec.chan[index]]
        request = DramRequest(
            rec.addr[index], write, self.core, (rec, index),
            rec.bank[index], rec.row[index], now, False,
        )
        channel.queue.append(request)
        kick_at = channel._kick_at
        if kick_at is None or kick_at > now:
            channel._kick_at = now
            self._vpush(now, _KICK, channel)
        time = now + self._issue_gap
        self._next_issue_at = time
        self._pump_scheduled = True
        self._vpush(time, _PUMP, None)

    def _do_kick(self, channel: Channel, now: int) -> None:
        channel._kick_at = None
        chain = channel._chain
        if chain:
            data_end, callback, next_time = chain.popleft()
            self._vpush(data_end, _COMPLETE, callback[0])
            if chain or channel.queue:
                channel._kick_at = next_time
                self._vpush(next_time, _KICK, channel)
            return
        queue = channel.queue
        if not queue:
            return
        refresh = channel._refresh_on
        if refresh and now >= channel.next_refresh_at:
            self._do_refresh(channel, now)
            return
        burst = channel.burst_ticks
        index, _ = channel._select_index()
        request = queue[index]
        data_end = channel._issue(request, now)
        self._vpush(data_end, _COMPLETE, request.callback[0])
        del queue[index]
        if not queue:
            return
        next_time = data_end - burst
        if next_time <= now:
            next_time = now + 1
        if channel._batch and not (refresh and next_time >= channel.next_refresh_at):
            virtual = next_time
            while True:
                index, stable = channel._select_index()
                if not stable:
                    break
                request = queue[index]
                data_end = channel._issue(request, now)
                del queue[index]
                after = data_end - burst
                if after <= virtual:
                    after = virtual + 1
                chain.append((data_end, request.callback, after))
                if not queue or (refresh and after >= channel.next_refresh_at):
                    break
                virtual = after
        channel._kick_at = next_time
        self._vpush(next_time, _KICK, channel)

    def _do_refresh(self, channel: Channel, now: int) -> None:
        timing = channel.cfg.timing
        end = now + timing.tRFC
        while channel.next_refresh_at <= now:
            channel.next_refresh_at += timing.tREFI
        for bank in channel.banks:
            bank.close(end)
        channel.bus_free_at = max(channel.bus_free_at, end)
        channel.stats.refreshes += 1
        if not (channel._kick_at is not None and channel._kick_at <= end):
            channel._kick_at = end
            self._vpush(end, _KICK, channel)

    def _do_complete(self, rec: _VTransfer, now: int) -> None:
        self._outstanding -= 1
        rec.outstanding -= 1
        if rec.issued_all and rec.outstanding == 0:
            self._delivered = True  # core code ran: horizon moved
            rec.on_complete()  # guarded: only reached at real now
        if self._active and not self._pump_scheduled:
            self._pump_scheduled = True
            time = self._next_issue_at
            self._vpush(time if time > now else now, _PUMP, None)

    # ------------------------------------------------------------------ #
    # Analytic fast-forward (``auto``).

    def _bulk(self, t: int) -> int:
        """Closed-form replay of saturated streaming cycles from tick ``t``.

        Called when the private heap's top is a ``_COMPLETE`` at ``t``.
        Recognizes the bus-saturated steady state (module docstring) and
        retires ``n`` whole four-micro-event cycles in one pass over the
        precomputed request stream, applying the exact ``Channel._issue``
        formulas per transaction and *verifying* per transaction that the
        bus — not bank preparation — bounds the data start, which is the
        single condition under which the cycle shape is rigid.  Returns
        the number of cycles retired (0 = state did not match; ordinary
        micro-event replay proceeds).
        """
        owned = self._owned
        if len(owned) != 1:
            return 0
        channel = owned[0]
        active = self._active
        if not active:
            return 0
        # Only the head transfer pumps; a queued-behind transfer does not
        # perturb the cycle (the count cap keeps the block short of the
        # head's exhaustion, so the pump never touches the next one).
        rec = active[0]
        m = self.max_outstanding
        burst = channel.burst_ticks
        gap = self._issue_gap
        heap = self._heap
        if (
            gap <= 0
            or gap >= burst
            or rec.issued_all
            or rec.outstanding != m
            or self._pump_scheduled
            or channel.queue
            or channel._chain
            or channel._kick_at is not None
            or channel._pending_walks
            or channel.trace is not None
            or channel.bus_free_at != t + (m - 1) * burst
            or len(heap) < m
        ):
            return 0
        # O(M) ladder scan: the heap must be this transfer's completion
        # ladder at t + burst*j, plus possibly *stale* kicks — follow-on
        # kick entries superseded by an earlier push.  A stale kick is a
        # provable no-op here: the queue is empty at every in-block tick
        # it can fire (a pump's request is issued the same tick by the
        # cycle's own kick, which every stale entry's older seq
        # precedes), and ``_do_kick`` returns on an empty queue *before*
        # the refresh check.  Throttle re-probing so a failing scan is
        # not repeated every cycle.
        self._bulk_off_until = t + burst * 8
        times = []
        stale = []
        for entry in heap:
            kind = entry[2]
            if kind == _COMPLETE and entry[3] is rec:
                times.append(entry[0])
            elif kind == _KICK and entry[3] is channel:
                stale.append(entry)
            else:
                return 0
        if len(times) != m:
            return 0
        times.sort()
        if times != list(range(t, t + burst * m, burst)):
            return 0
        # Cycle-count caps — each one exact, not heuristic.
        k = rec.count - rec.pos
        if channel._refresh_on:
            refresh_at = channel.next_refresh_at
            if refresh_at <= t:
                return 0  # a refresh is due at the very first kick
            cap = (refresh_at - 1 - t) // burst + 1
            if cap < k:
                k = cap
        next_real = self.engine.next_time()
        if next_real is not None:
            # Last replayed micro-event is the stall pump at
            # t + (k-1)*burst + gap; it must not pass the horizon.
            cap = (next_real - gap - t) // burst + 1
            if cap < k:
                k = cap
        if k < 8:
            return 0  # not worth the block-entry scan; replay normally
        # Tight pass: per-bank row/act/col-ready evolution with the exact
        # _issue formulas.  arrival == kick time == t_j throughout.
        banks = channel.banks
        tRP = channel._tRP
        tRCD = channel._tRCD
        tRAS = channel._tRAS
        tCCD = channel._tCCD
        tCL = channel._tCL
        tWR = channel._tWR
        bus_slack = (m - 1) * burst  # bus_free_j - t_j, constant in-block
        bank_list = rec.bank
        row_list = rec.row
        # A transfer is all reads or all writes: one column-ready step.
        col_step = tCCD + tWR if rec.write else tCCD
        i = rec.pos
        stop = i + k
        t_j = t
        hits = 0
        misses = 0
        while i < stop:
            bank = banks[bank_list[i]]
            row = row_list[i]
            if bank.open_row == row:
                col_ready = bank.col_ready_at
                if col_ready < t_j:
                    col_ready = t_j
                if col_ready + tCL > t_j + bus_slack:
                    break  # bank prep would outrun the bus booking
                hits += 1
            else:
                if bank.open_row is None:
                    act_at = bank.col_ready_at
                    if act_at < t_j:
                        act_at = t_j
                else:
                    act_at = bank.col_ready_at
                    ras = bank.act_at + tRAS
                    if ras > act_at:
                        act_at = ras
                    if act_at < t_j:
                        act_at = t_j
                    act_at += tRP
                col_ready = act_at + tRCD
                if col_ready + tCL > t_j + bus_slack:
                    break  # checked before mutating the bank
                bank.act_at = act_at
                bank.open_row = row
                misses += 1
            bank.col_ready_at = col_ready + col_step
            i += 1
            t_j += burst
        n = i - rec.pos
        if n == 0:
            return 0
        # Commit: n completes retired, n transactions issued; outstanding
        # and the in-flight ladder shape are unchanged, shifted n bursts.
        rec.pos = i
        writes = n if rec.write else 0
        end = t + burst * n
        self._next_issue_at = end - burst + gap
        stats = self.stats
        stats.read_txns += n - writes
        stats.write_txns += writes
        stats.stall_events += n  # one stalled pump per cycle
        cstats = channel.stats
        cstats.reads += n - writes
        cstats.writes += writes
        cstats.row_hits += hits
        cstats.row_misses += misses
        cstats.bytes_per_core[self.core] += n * channel.transaction_bytes
        # data_end_j - arrival_j == m*burst for every in-block txn.
        cstats.queueing_ticks_total += n * m * burst
        channel.bus_free_at += n * burst
        # Rebuild the ladder shifted by n bursts; ascending seqs on a
        # sorted list form a valid heap (times are all distinct).  Stale
        # kicks inside the replayed span fired as no-op events — drop
        # them and credit one event each; later ones stay pending.
        lseq = self._lseq
        new_heap = [
            (end + burst * j, lseq + j, _COMPLETE, rec) for j in range(m)
        ]
        self._lseq = lseq + m
        last = end - burst + gap  # final replayed micro-event tick
        dropped = 0
        for entry in stale:
            if entry[0] <= last:
                dropped += 1
            else:
                new_heap.append(entry)
        if stale:
            heapq.heapify(new_heap)
        self._heap = new_heap
        skipped = 4 * n + dropped
        self.rstats.batched_events += skipped
        self.engine.credit_events(skipped)
        self.rstats.fast_forwards += 1
        self.rstats.fast_forwarded_ticks += burst * n
        self._bulk_off_until = -1  # matched: probe again at the next ladder
        return n
