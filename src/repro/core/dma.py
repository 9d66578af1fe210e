"""The per-core DMA engine moving tiles between SPM and off-chip memory.

Each core owns a private DMA engine (paper Figure 1).  A *transfer* is
one tile-phase burst: the read runs of a tile (:meth:`DmaEngine.transfer`)
or its write-back runs (:meth:`DmaEngine.write_back`), each a flat
``(addr, count)`` pair array whose direction is the burst's, not the run's.
The engine expands runs into DRAM-transaction-sized requests, translates
each through the MMU, and paces issue at the core's DMA width with a
bounded in-flight window — the mechanism that turns tile loads into the
bursty request trains of Figure 2(b).
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from repro.core.clock import ClockDomain
from repro.core.engine import Engine
from repro.dram.controller import DramController
from repro.mmu.mmu import Mmu

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.registry import CounterRegistry


@dataclass
class DmaStats:
    """Issue/completion counters of one DMA engine."""

    read_txns: int = 0
    write_txns: int = 0
    stall_events: int = 0

    @property
    def total_txns(self) -> int:
        """All transactions issued."""
        return self.read_txns + self.write_txns


class _Transfer:
    __slots__ = ("txns", "issued_all", "outstanding", "on_complete", "complete")

    def __init__(
        self, txns: Iterator[tuple[int, bool]], on_complete: Callable[[], None]
    ):
        self.txns = txns
        self.issued_all = False
        self.outstanding = 0
        self.on_complete = on_complete
        #: Per-transaction DRAM completion callback, built once by the
        #: owning engine instead of once per transaction.
        self.complete: Callable[[], None] | None = None


class DmaEngine:
    """Paced, windowed request issue for one NPU core."""

    def __init__(
        self,
        engine: Engine,
        core: int,
        mmu: Mmu,
        dram: DramController,
        clock: ClockDomain,
        *,
        max_outstanding: int,
        issue_per_cycle: int = 1,
        transaction_bytes: int = 64,
    ) -> None:
        if max_outstanding <= 0:
            raise ValueError("DMA window must be positive")
        if issue_per_cycle <= 0:
            raise ValueError("issue width must be positive")
        self.engine = engine
        self.core = core
        self.mmu = mmu
        self.dram = dram
        self.clock = clock
        self.max_outstanding = max_outstanding
        self.transaction_bytes = transaction_bytes
        # Global ticks between consecutive issues (>= 1 to stay causal).
        self._issue_gap = max(1, clock.to_global(1) // issue_per_cycle)
        self._active: deque[_Transfer] = deque()
        self._outstanding = 0
        self._next_issue_at = 0
        self._pump_scheduled = False
        # With translation off the MMU is pure function application; bind
        # the page table's mapping once and skip the front-end per txn.
        self._paddr = mmu.direct_paddr(core)
        # Per-transaction call targets bound once: ``self.dram.submit``
        # and ``self.mmu.probe`` would cost two attribute hops plus a
        # bound-method allocation on every pump; ``self._pump`` likewise.
        self._dram_submit = dram.submit
        self._mmu_probe = mmu.probe
        self._pump_cb = self._pump
        self.stats = DmaStats()

    # ------------------------------------------------------------------ #

    def transfer(self, runs: array, on_complete: Callable[[], None]) -> None:
        """Start a load burst reading ``runs``; ``on_complete`` fires when all land.

        ``runs`` is a flat ``(addr, count)`` pair array, read but never
        mutated.
        """
        self._start(runs, False, on_complete)

    def write_back(self, runs: array, on_complete: Callable[[], None]) -> None:
        """Start a write-back burst writing ``runs``; see :meth:`transfer`."""
        self._start(runs, True, on_complete)

    def _start(self, runs: array, write: bool, on_complete: Callable[[], None]) -> None:
        if not runs:
            self.engine.after(0, on_complete)
            return
        transfer = _Transfer(self._expand(runs, write), on_complete)
        transfer.complete = lambda: self._complete(transfer)
        self._active.append(transfer)
        self._schedule_pump(max(self.engine.now, self._next_issue_at))

    def register_counters(self, registry: "CounterRegistry") -> None:
        """Expose this engine's issue stats to the registry (pull-based)."""
        stats = self.stats
        registry.bind_many(
            f"dma.core{self.core}",
            {
                "read_txns": lambda: stats.read_txns,
                "write_txns": lambda: stats.write_txns,
                "stall_events": lambda: stats.stall_events,
            },
        )
        registry.bind_gauge(
            f"dma.core{self.core}.outstanding", lambda: self._outstanding
        )

    @property
    def busy(self) -> bool:
        """True while any transfer has unissued or in-flight transactions."""
        return bool(self._active) or self._outstanding > 0

    @property
    def outstanding(self) -> int:
        """Transactions issued to memory but not yet completed."""
        return self._outstanding

    @property
    def queued_transfers(self) -> int:
        """Transfers with unissued transactions (incl. the active one)."""
        return len(self._active)

    # ------------------------------------------------------------------ #

    def _expand(self, runs: array, write: bool) -> Iterator[tuple[int, bool]]:
        txn = self.transaction_bytes
        for addr, count in zip(runs[0::2], runs[1::2]):
            for index in range(count):
                yield addr + index * txn, write

    def _schedule_pump(self, time: int) -> None:
        if self._pump_scheduled:
            return
        self._pump_scheduled = True
        self.engine.at(max(time, self.engine.now), self._pump_cb)

    def _pump(self) -> None:
        self._pump_scheduled = False
        active = self._active
        if not active:
            return
        if self._outstanding >= self.max_outstanding:
            self.stats.stall_events += 1
            return  # a completion will restart the pump
        transfer = active[0]
        step = next(transfer.txns, None)
        if step is None:
            transfer.issued_all = True
            active.popleft()
            if transfer.outstanding == 0:
                transfer.on_complete()
            if active:
                self._schedule_pump(self._next_issue_at)
            return
        vaddr, write = step
        transfer.outstanding += 1
        self._outstanding += 1
        stats = self.stats
        if write:
            stats.write_txns += 1
        else:
            stats.read_txns += 1
        core = self.core
        paddr_fn = self._paddr
        if paddr_fn is not None:
            self._dram_submit(core, paddr_fn(vaddr), write, transfer.complete)
        else:
            paddr = self._mmu_probe(core, vaddr)
            if paddr is not None:
                self._dram_submit(core, paddr, write, transfer.complete)
            else:
                # Cold path: only a miss pays for a continuation closure.
                self.mmu.miss(
                    self.core,
                    vaddr,
                    lambda p, t=transfer, w=write: self._submit(p, w, t),
                )
        # Nothing in the submit path re-arms the pump synchronously, and
        # the issue gap is >= 1 tick, so schedule the next issue directly.
        engine = self.engine
        time = engine.now + self._issue_gap
        self._next_issue_at = time
        self._pump_scheduled = True
        engine.at(time, self._pump_cb)

    def _submit(self, paddr: int, write: bool, transfer: _Transfer) -> None:
        self.dram.submit(self.core, paddr, write, transfer.complete)

    def _complete(self, transfer: _Transfer) -> None:
        self._outstanding -= 1
        transfer.outstanding -= 1
        if transfer.issued_all and transfer.outstanding == 0:
            transfer.on_complete()
        # Inline of ``_schedule_pump(max(now, _next_issue_at))`` — this
        # runs once per transaction.
        if self._active and not self._pump_scheduled:
            self._pump_scheduled = True
            engine = self.engine
            time = self._next_issue_at
            now = engine.now
            engine.at(time if time > now else now, self._pump_cb)
