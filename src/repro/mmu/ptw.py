"""The page-table-walker pool — the paper's most critical shared resource.

A TLB miss hands a walk to this pool.  Walks are serviced FCFS by a
finite set of walkers; each walk performs one *dependent* read per
page-table level, issued through the shared DRAM controller (NeuMMU
style), so walk latency rides on current memory contention and walk
traffic consumes bandwidth.

Partitioning follows the paper's schemes:

* dynamic sharing (``+DW``): one pool, any core may hold any walker
  (optionally bounded by the misc config's per-core lower/upper bounds —
  the artifact's "shared partition options of page table walkers");
* static partitioning: per-core reservations equal per-core caps, which
  degenerates to private walker sets (section 4.4.1's ratio sweeps).

Free walkers are granted round-robin across cores with pending walks —
the standard hardware arbitration for a shared unit.  Within a core,
walks are FCFS.  (A single global FCFS queue would let a core with a
standing walk backlog head-of-line-block bursty co-runners, which is the
pathology DWS [28] reports for shared GPU walkers.)

As an extension, :func:`dws_bounds` derives the per-core caps/reserves
of DWS-style *walker stealing* (the shared-PTW management scheme the
paper discusses in section 2.2): every core keeps a reserved home
allocation it can always reclaim, and may steal up to the co-runners'
unreserved walkers when they are idle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from typing import TYPE_CHECKING

from repro.core.engine import Engine
from repro.dram.controller import DramController
from repro.mmu.pagetable import PageTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.registry import CounterRegistry
    from repro.obs.timeline import TimelineTracer


@dataclass
class WalkStats:
    """Counters for one core's page-table walks."""

    walks: int = 0
    walk_ticks_total: int = 0
    queue_ticks_total: int = 0

    def avg_walk_ticks(self) -> float:
        """Mean service time of a walk (excluding queueing)."""
        return self.walk_ticks_total / self.walks if self.walks else 0.0

    def avg_queue_ticks(self) -> float:
        """Mean time a walk waited for a free walker."""
        return self.queue_ticks_total / self.walks if self.walks else 0.0


@dataclass(slots=True, eq=False)
class _Walk:
    core: int
    vpn: int
    on_done: Callable[[], None]
    enqueue_time: int
    start_time: int = 0
    level: int = 0
    addresses: tuple[int, ...] = field(default_factory=tuple)


class PageWalkCache:
    """LRU cache of upper-level page-table entries (one per core).

    Consecutive virtual pages share their upper-level entries, so even a
    small cache removes most non-leaf DRAM reads from a walk — leaf
    entries are never cached, keeping at least one DRAM read per walk.
    """

    def __init__(self, entries: int) -> None:
        if entries < 0:
            raise ValueError("PWC size cannot be negative")
        self.entries = entries
        self._cache: dict[tuple[int, int], None] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, level: int, addr: int) -> bool:
        """True (and recency bump) when the entry is cached."""
        if not self.entries:
            return False
        key = (level, addr)
        if key in self._cache:
            del self._cache[key]
            self._cache[key] = None
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, level: int, addr: int) -> None:
        """Insert an upper-level entry, evicting LRU when full."""
        if not self.entries:
            return
        key = (level, addr)
        if key in self._cache:
            del self._cache[key]
        elif len(self._cache) >= self.entries:
            del self._cache[next(iter(self._cache))]
        self._cache[key] = None


def dws_bounds(
    home_allocation: dict[int, int], reserve_fraction: float = 0.5
) -> tuple[dict[int, int], dict[int, int]]:
    """Per-core (max, reserved) walker bounds for DWS-style stealing.

    ``home_allocation`` maps core -> the walkers it would own under a
    static split.  Each core *reserves* ``reserve_fraction`` of its home
    allocation (rounded down, at least one walker) so a returning burst
    can always reclaim walkers promptly, and may additionally steal every
    co-runner's unreserved walker when idle.  Pass the results as
    ``max_per_core`` / ``reserved_per_core`` to :class:`WalkerPool`.
    """
    if not home_allocation:
        raise ValueError("need at least one core")
    if not 0.0 <= reserve_fraction <= 1.0:
        raise ValueError("reserve fraction must lie in [0, 1]")
    if any(count <= 0 for count in home_allocation.values()):
        raise ValueError("every core needs a positive home allocation")
    total = sum(home_allocation.values())
    reserved = {
        core: max(1, int(count * reserve_fraction))
        for core, count in home_allocation.items()
    }
    max_per_core = {}
    for core, count in home_allocation.items():
        stealable = sum(
            home_allocation[other] - reserved[other]
            for other in home_allocation
            if other != core
        )
        max_per_core[core] = min(total, count + stealable)
    return max_per_core, reserved


class WalkerPool:
    """A finite pool of page-table walkers shared (or partitioned) by cores."""

    def __init__(
        self,
        engine: Engine,
        capacity: int,
        page_tables: dict[int, PageTable],
        *,
        dram: DramController | None,
        fixed_level_ticks: dict[int, int] | None = None,
        max_per_core: dict[int, int] | None = None,
        reserved_per_core: dict[int, int] | None = None,
        pwc_entries: dict[int, int] | None = None,
        timeline: "TimelineTracer | None" = None,
    ) -> None:
        """``dram=None`` switches to fixed-latency walks (then
        ``fixed_level_ticks[core]`` is the per-level cost)."""
        if capacity <= 0:
            raise ValueError("walker pool needs capacity")
        if dram is None and fixed_level_ticks is None:
            raise ValueError("fixed-latency mode needs per-core level ticks")
        self.engine = engine
        self.capacity = capacity
        self.page_tables = page_tables
        self.dram = dram
        self._fixed_level_ticks = fixed_level_ticks or {}
        cores = list(page_tables)
        self.max_per_core = {
            core: (max_per_core or {}).get(core, capacity) or capacity for core in cores
        }
        self.reserved_per_core = {
            core: (reserved_per_core or {}).get(core, 0) for core in cores
        }
        if sum(self.reserved_per_core.values()) > capacity:
            raise ValueError("reservations exceed pool capacity")
        for core in cores:
            if self.max_per_core[core] < self.reserved_per_core[core]:
                raise ValueError(f"core {core}: cap below reservation")
        self.inflight = {core: 0 for core in cores}
        self._total_inflight = 0
        self._queues: dict[int, deque[_Walk]] = {core: deque() for core in cores}
        self._rr_order: list[int] = list(cores)
        self._rr_next = 0
        # Hot-path counters: total queued walks (so per-completion
        # dispatch wake-ups are O(1) when nothing waits) and the summed
        # unclaimed reservations (so ``_can_grant`` is O(1), not O(cores)).
        self._queued_count = 0
        self._owed_total = sum(
            self.reserved_per_core[core] for core in cores
        )
        self.stats = {core: WalkStats() for core in cores}
        self.pwc = {
            core: PageWalkCache((pwc_entries or {}).get(core, 0)) for core in cores
        }
        self.timeline = timeline

    # ------------------------------------------------------------------ #

    def walk(self, core: int, vpn: int, on_done: Callable[[], None]) -> None:
        """Request a page-table walk; ``on_done`` fires when it completes."""
        self._queues[core].append(_Walk(core, vpn, on_done, self.engine.now))
        self._queued_count += 1
        self._dispatch()

    def register_counters(self, registry: "CounterRegistry") -> None:
        """Expose per-core walk and PWC stats to the registry (pull-based)."""
        for core in sorted(self.stats):
            stats = self.stats[core]
            registry.bind_many(
                f"ptw.core{core}",
                {
                    "walks": lambda s=stats: s.walks,
                    "walk_ticks_total": lambda s=stats: s.walk_ticks_total,
                    "queue_ticks_total": lambda s=stats: s.queue_ticks_total,
                },
            )
            pwc = self.pwc[core]
            registry.bind_counter(f"ptw.core{core}.pwc.hits", lambda p=pwc: p.hits)
            registry.bind_counter(
                f"ptw.core{core}.pwc.misses", lambda p=pwc: p.misses
            )
            registry.bind_gauge(
                f"ptw.core{core}.inflight", lambda c=core: self.inflight[c]
            )
        registry.bind_gauge("ptw.queue_depth", lambda: self._queued_count)
        registry.bind_gauge("ptw.inflight_total", lambda: self._total_inflight)

    @property
    def queued(self) -> int:
        """Walks waiting for a walker."""
        return self._queued_count

    def queued_for(self, core: int) -> int:
        """Walks of one core still waiting for a walker."""
        return len(self._queues[core])

    # ------------------------------------------------------------------ #

    def _can_grant(self, core: int) -> bool:
        if self._total_inflight >= self.capacity:
            return False
        inflight = self.inflight[core]
        if inflight >= self.max_per_core[core]:
            return False
        if inflight < self.reserved_per_core[core]:
            return True  # claiming the core's own reservation
        # Granting a non-reserved walker must leave enough free walkers to
        # honour every other core's outstanding reservation.  This core is
        # at or above its own reservation, so ``_owed_total`` (unclaimed
        # reservations over *all* cores) counts exactly the others'.
        return self.capacity - self._total_inflight - 1 >= self._owed_total

    def _dispatch(self) -> None:
        # Round-robin across cores with pending walks; FCFS within a core.
        # A blocked core stays blocked for the rest of the call (granting
        # only consumes walkers and reservations), so rescanning after a
        # grant reproduces the one-pass-with-memo semantics without
        # allocating a set per wake-up.
        if not self._queued_count:
            return
        order = self._rr_order
        num_cores = len(order)
        queues = self._queues
        while self._queued_count:
            for offset in range(num_cores):
                position = (self._rr_next + offset) % num_cores
                core = order[position]
                queue = queues[core]
                if not queue or not self._can_grant(core):
                    continue
                self._rr_next = (position + 1) % num_cores
                self._queued_count -= 1
                self._start(queue.popleft())
                break
            else:
                return

    def _start(self, walk: _Walk) -> None:
        if self.inflight[walk.core] < self.reserved_per_core[walk.core]:
            self._owed_total -= 1
        self.inflight[walk.core] += 1
        self._total_inflight += 1
        walk.start_time = self.engine.now
        stats = self.stats[walk.core]
        stats.walks += 1
        stats.queue_ticks_total += walk.start_time - walk.enqueue_time
        table = self.page_tables[walk.core]
        walk.addresses = self._dram_levels(walk.core, table.walk_addresses(walk.vpn))
        if self.dram is None:
            ticks = self._fixed_level_ticks[walk.core] * len(walk.addresses)
            self.engine.after(ticks, lambda: self._finish(walk))
        else:
            self._next_level(walk)

    def _dram_levels(self, core: int, addresses: tuple[int, ...]) -> tuple[int, ...]:
        """Walk levels that must read DRAM after page-walk-cache filtering.

        Upper levels hit the PWC when a recent walk shared the entry;
        the leaf level always reads memory.
        """
        pwc = self.pwc[core]
        needed = []
        for level, addr in enumerate(addresses[:-1]):
            if not pwc.lookup(level, addr):
                pwc.fill(level, addr)
                needed.append(addr)
        needed.append(addresses[-1])
        return tuple(needed)

    def _next_level(self, walk: _Walk) -> None:
        assert self.dram is not None
        if walk.level >= len(walk.addresses):
            self._finish(walk)
            return
        addr = walk.addresses[walk.level]
        walk.level += 1
        self.dram.submit(
            walk.core,
            addr,
            write=False,
            callback=lambda: self._next_level(walk),
            is_walk=True,
        )

    def _finish(self, walk: _Walk) -> None:
        self.inflight[walk.core] -= 1
        self._total_inflight -= 1
        if self.inflight[walk.core] < self.reserved_per_core[walk.core]:
            self._owed_total += 1
        self.stats[walk.core].walk_ticks_total += self.engine.now - walk.start_time
        if self.timeline is not None:
            self.timeline.log_ptw(
                walk.enqueue_time,
                walk.start_time,
                self.engine.now,
                walk.core,
                walk.vpn,
                len(walk.addresses),
            )
        walk.on_done()
        self._dispatch()
