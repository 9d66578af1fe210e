"""Deterministic discrete-event simulation kernel.

All components of the simulator (cores, DMA engines, MMU, DRAM channels)
share one :class:`Engine`.  Time is an integer count of *global ticks* —
cycles of the DRAM clock, which mNPUsim defines as the global clock that
shared-resource accesses synchronize to (section 3.1).  Events at the
same tick fire in insertion order, which makes every simulation fully
deterministic and reproducible.

Hot-path notes: the heap stores plain ``(time, seq, fn)`` tuples (CPython
compares tuples in C; a slotted event record with a Python ``__lt__``
measures slower).  Events scheduled *at the current tick* skip the heap
entirely and go to a FIFO bucket drained after the heap's events for
that tick — ordering is unchanged because every heap entry at tick T was
pushed before T started and therefore precedes anything scheduled during
T, while bucket entries preserve append order among themselves.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable


class Engine:
    """A minimal, fast event loop over integer time."""

    __slots__ = ("now", "events_processed", "_queue", "_seq", "_bucket")

    def __init__(self) -> None:
        self.now: int = 0
        self.events_processed: int = 0
        self._queue: list[tuple[int, int, Callable[[], None]]] = []
        self._seq: int = 0
        self._bucket: deque[Callable[[], None]] = deque()

    def at(self, time: int, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run at absolute tick ``time`` (>= now)."""
        if time <= self.now:
            if time == self.now:
                self._bucket.append(fn)
                return
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        heapq.heappush(self._queue, (time, self._seq, fn))
        self._seq += 1

    def after(self, delay: int, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise ValueError("delay cannot be negative")
        self.at(self.now + delay, fn)

    def run(self, until: int | None = None) -> int:
        """Process events until the queue drains (or tick ``until``).

        Returns the final simulation time.  A simulation that never
        drains its queue would loop forever; pass ``until`` as a guard
        when testing potentially-livelocked configurations.
        """
        queue = self._queue
        bucket = self._bucket
        pop = heapq.heappop
        popleft = bucket.popleft
        processed = 0
        now = self.now
        if until is None or now <= until:
            while True:
                if queue and queue[0][0] == now:
                    fn = pop(queue)[2]
                elif bucket:
                    fn = popleft()
                elif queue:
                    time = queue[0][0]
                    if until is not None and time > until:
                        break
                    now = self.now = time
                    fn = pop(queue)[2]
                else:
                    break
                processed += 1
                fn()
        self.events_processed += processed
        return self.now

    @property
    def pending(self) -> int:
        """Number of scheduled-but-unprocessed events."""
        return len(self._queue) + len(self._bucket)

    def next_time(self) -> int | None:
        """Tick of the earliest pending event, or ``None`` when drained.

        Lets a caller run the simulation in bounded slices
        (``run(until=next_time() + window)``) without ever spinning on an
        empty window — the basis of the stall watchdog's progress checks.
        """
        if self._bucket:
            return self.now
        if self._queue:
            return self._queue[0][0]
        return None
