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

The artifact-style :class:`~repro.core.tracing.TraceLogger` records
:class:`DramSpan`, :class:`TlbEvent` and :class:`WalkSpan` as its log
entries, so it consumes the same span stream as the Perfetto exporter
without conversion.

Spans are buffered in :class:`RingBuffer`\\ s: append-only, bounded, and
counting what they drop, so tracing a pathological run cannot exhaust
memory — the newest spans win, and the exporter reports the drop count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generic, Iterator, Protocol, TypeVar

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


class SpanSink(Protocol):
    """A consumer of the raw span stream.

    :class:`~repro.obs.timeline.TimelineTracer` fans every recorded span
    out to attached sinks; the artifact-style ``TraceLogger`` is the
    canonical implementation.  All methods are optional in spirit —
    implementors may treat any of them as a no-op.
    """

    def on_dram(self, span: DramSpan) -> None: ...

    def on_tlb(self, event: TlbEvent) -> None: ...

    def on_walk(self, span: WalkSpan) -> None: ...


class RingBuffer(Generic[T]):
    """A bounded append-only buffer keeping the newest items.

    Backed by :class:`collections.deque` with ``maxlen``, plus a counter
    of how many items were evicted — exporters surface that count so a
    truncated trace is never mistaken for a complete one.
    """

    __slots__ = ("_items", "capacity", "pushed")

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity <= 0:
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
