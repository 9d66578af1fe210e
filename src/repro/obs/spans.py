"""Typed timeline spans and the bounded ring buffers that hold them.

A *span* is one piece of simulated activity with a position on the tick
timeline.  The taxonomy mirrors the resources the paper studies:

===============  ====================================================
:class:`DramSpan`   one DRAM transaction (enqueue → completion)
:class:`TlbEvent`   one TLB access (an instant, not an interval)
:class:`WalkSpan`   one page-table walk (enqueue → walker finish)
:class:`TileSpan`   one tile pipeline phase (load / compute / write)
:class:`LayerSpan`  one layer's first-iteration activity on a core
===============  ====================================================

The artifact-style request logs (:mod:`repro.core.tracing`) are an
export of the :class:`DramSpan`, :class:`TlbEvent` and :class:`WalkSpan`
rings, as the Perfetto trace is an export of all five.

Spans are buffered in :class:`RingBuffer`\\ s: append-only, bounded, and
counting what they drop, so tracing a pathological run cannot exhaust
memory — the newest spans win, and the exporter reports the drop count.
A ring built with ``capacity=None`` keeps every span; ``trace_requests``
runs use that, so the artifact request logs are complete.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generic, Iterator, TypeVar

T = TypeVar("T")

#: Default ring capacity per span kind.  At ~60 bytes/span this bounds a
#: fully-traced run around a few hundred MB worst case across all rings.
DEFAULT_RING_CAPACITY = 1_000_000


@dataclass(frozen=True)
class DramSpan:
    """One DRAM transaction's lifetime."""

    start_tick: int
    end_tick: int
    addr: int
    core: int
    channel: int
    write: bool
    is_walk: bool


@dataclass(frozen=True)
class TlbEvent:
    """One TLB access — an instant event."""

    tick: int
    core: int
    vpn: int
    outcome: str  #: "hit", "miss" (walk started) or "coalesced"


@dataclass(frozen=True)
class WalkSpan:
    """One page-table walk's lifetime."""

    enqueue_tick: int
    start_tick: int
    end_tick: int
    core: int
    vpn: int
    dram_reads: int


@dataclass(frozen=True)
class TileSpan:
    """One phase of one tile moving through a core's pipeline."""

    start_tick: int
    end_tick: int
    core: int
    layer_index: int
    phase: str  #: "load", "compute" or "write"


@dataclass(frozen=True)
class LayerSpan:
    """One layer's first-iteration activity window on one core."""

    start_tick: int
    end_tick: int
    core: int
    layer_index: int
    name: str


class RingBuffer(Generic[T]):
    """A bounded append-only buffer keeping the newest items.

    Backed by :class:`collections.deque` with ``maxlen``, plus a counter
    of how many items were evicted — exporters surface that count so a
    truncated trace is never mistaken for a complete one.  ``capacity``
    ``None`` means unbounded: every item is kept and none is dropped.
    """

    __slots__ = ("_items", "capacity", "pushed")

    def __init__(self, capacity: int | None = DEFAULT_RING_CAPACITY) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self.pushed = 0
        self._items: deque[T] = deque(maxlen=capacity)

    def append(self, item: T) -> None:
        self.pushed += 1
        self._items.append(item)

    @property
    def dropped(self) -> int:
        """Items evicted to make room (0 when the trace is complete)."""
        return self.pushed - len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)
