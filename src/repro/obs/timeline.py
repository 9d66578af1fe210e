"""Timeline tracer: typed span stream → Chrome trace-event JSON.

:class:`TimelineTracer` is the simulator's one span recorder: the DRAM
controller, MMU, walker pool and NPU cores call its ``log_*`` hooks
(``None``-guarded, so a run without it pays nothing), and every span
lands in a :class:`~repro.obs.spans.RingBuffer`.  The recording has two
exports: :meth:`TimelineTracer.export` writes a Perfetto trace, and
:func:`repro.core.tracing.write_request_logs` writes the artifact-style
request logs.

Export follows the Chrome trace-event JSON format (the "JSON Object
Format": ``{"traceEvents": [...]}``), which Perfetto's UI at
https://ui.perfetto.dev opens directly.  Simulated ticks are emitted as
microseconds — Perfetto's time axis then reads directly in ticks.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.registry import CounterRegistry, Histogram
from repro.obs.spans import (
    DEFAULT_RING_CAPACITY,
    DramSpan,
    LayerSpan,
    RingBuffer,
    TileSpan,
    TlbEvent,
    WalkSpan,
)

#: How spans map onto Perfetto's process/thread hierarchy.
TRACE_SCHEMA_NOTE = (
    "Chrome trace-event JSON (JSON Object Format). 1 tick == 1 us. "
    "pid 1 = DRAM (tid = channel, 'X' complete events, PTW traffic "
    "flagged in args); pid 2 = MMU/PTW (tid = core: walk 'X' spans and "
    "TLB access 'i' instants); pid 10+core = NPU core (tid 0/1/2 = "
    "load/compute/write tile phases, tid 3 = layer activity spans)."
)

_DRAM_PID = 1
_MMU_PID = 2
_CORE_PID_BASE = 10
_PHASE_TID = {"load": 0, "compute": 1, "write": 2}
_LAYER_TID = 3


class TimelineTracer:
    """Records typed spans into ring buffers; exports Perfetto traces.

    Parameters
    ----------
    capacity:
        Per-ring span cap; the newest spans are kept and drops counted.
        ``None`` keeps every span (complete artifact logs).
    registry:
        Optional :class:`CounterRegistry` to receive the tracer's own
        derived distributions (``timeline.dram.latency_ticks``,
        ``timeline.ptw.walk_ticks``) and drop counters.
    """

    def __init__(
        self,
        capacity: int | None = DEFAULT_RING_CAPACITY,
        registry: CounterRegistry | None = None,
    ) -> None:
        self.dram: RingBuffer[DramSpan] = RingBuffer(capacity)
        self.tlb: RingBuffer[TlbEvent] = RingBuffer(capacity)
        self.ptw: RingBuffer[WalkSpan] = RingBuffer(capacity)
        self.tiles: RingBuffer[TileSpan] = RingBuffer(capacity)
        self.layers: RingBuffer[LayerSpan] = RingBuffer(capacity)
        self._dram_latency: Histogram | None = None
        self._walk_latency: Histogram | None = None
        if registry is not None:
            self._dram_latency = registry.histogram("timeline.dram.latency_ticks")
            self._walk_latency = registry.histogram("timeline.ptw.walk_ticks")
            registry.bind_gauge("timeline.spans.dropped", self.total_dropped)

    # -------------------------------------------------------------- #
    # Recording hooks (called by the simulator components)
    # -------------------------------------------------------------- #

    def log_dram(
        self,
        start_tick: int,
        end_tick: int,
        addr: int,
        core: int,
        channel: int,
        write: bool,
        is_walk: bool,
    ) -> None:
        """Record one completed DRAM transaction."""
        self.dram.append(
            DramSpan(start_tick, end_tick, addr, core, channel, write, is_walk)
        )
        if self._dram_latency is not None:
            self._dram_latency.record(end_tick - start_tick)

    def log_tlb(self, tick: int, core: int, vpn: int, outcome: str) -> None:
        """Record one TLB access."""
        self.tlb.append(TlbEvent(tick, core, vpn, outcome))

    def log_ptw(
        self,
        enqueue_tick: int,
        start_tick: int,
        end_tick: int,
        core: int,
        vpn: int,
        dram_reads: int,
    ) -> None:
        """Record one completed page-table walk."""
        self.ptw.append(
            WalkSpan(enqueue_tick, start_tick, end_tick, core, vpn, dram_reads)
        )
        if self._walk_latency is not None:
            self._walk_latency.record(end_tick - enqueue_tick)

    def log_tile(
        self, start_tick: int, end_tick: int, core: int, layer_index: int, phase: str
    ) -> None:
        """Record one tile pipeline phase (load / compute / write)."""
        self.tiles.append(TileSpan(start_tick, end_tick, core, layer_index, phase))

    def log_layer(
        self, start_tick: int, end_tick: int, core: int, layer_index: int, name: str
    ) -> None:
        """Record one layer's activity window on one core."""
        self.layers.append(LayerSpan(start_tick, end_tick, core, layer_index, name))

    # -------------------------------------------------------------- #
    # Introspection
    # -------------------------------------------------------------- #

    def total_spans(self) -> int:
        """Spans currently buffered across every ring."""
        return sum(
            len(ring)
            for ring in (self.dram, self.tlb, self.ptw, self.tiles, self.layers)
        )

    def total_dropped(self) -> int:
        """Spans evicted across every ring (0 for a complete trace)."""
        return sum(
            ring.dropped
            for ring in (self.dram, self.tlb, self.ptw, self.tiles, self.layers)
        )

    # -------------------------------------------------------------- #
    # Export
    # -------------------------------------------------------------- #

    def chrome_trace(self) -> dict[str, Any]:
        """The full trace as a Chrome trace-event JSON object.

        Events use "X" (complete: ``ts`` + ``dur``) for intervals, "i"
        (instant) for TLB accesses, and "M" (metadata) for process and
        thread naming.  All timestamps are simulated ticks.
        """
        events: list[dict[str, Any]] = []
        meta_done: set[tuple[int, int]] = set()

        def name_row(pid: int, tid: int, process: str, thread: str) -> None:
            if (pid, tid) in meta_done:
                return
            meta_done.add((pid, tid))
            if not any(key[0] == pid for key in meta_done if key != (pid, tid)):
                events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": process},
                    }
                )
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": thread},
                }
            )

        for d in self.dram:
            name_row(_DRAM_PID, d.channel, "DRAM", f"channel {d.channel}")
            events.append(
                {
                    "name": ("walk " if d.is_walk else "")
                    + ("write" if d.write else "read"),
                    "cat": "dram",
                    "ph": "X",
                    "ts": d.start_tick,
                    "dur": max(0, d.end_tick - d.start_tick),
                    "pid": _DRAM_PID,
                    "tid": d.channel,
                    "args": {"addr": f"0x{d.addr:x}", "core": d.core},
                }
            )

        for w in self.ptw:
            name_row(_MMU_PID, w.core, "MMU/PTW", f"core {w.core} walks")
            events.append(
                {
                    "name": f"walk 0x{w.vpn:x}",
                    "cat": "ptw",
                    "ph": "X",
                    "ts": w.enqueue_tick,
                    "dur": max(0, w.end_tick - w.enqueue_tick),
                    "pid": _MMU_PID,
                    "tid": w.core,
                    "args": {
                        "queued_ticks": w.start_tick - w.enqueue_tick,
                        "dram_reads": w.dram_reads,
                    },
                }
            )

        for t in self.tlb:
            name_row(_MMU_PID, t.core, "MMU/PTW", f"core {t.core} walks")
            events.append(
                {
                    "name": f"tlb {t.outcome}",
                    "cat": "tlb",
                    "ph": "i",
                    "s": "t",
                    "ts": t.tick,
                    "pid": _MMU_PID,
                    "tid": t.core,
                    "args": {"vpn": f"0x{t.vpn:x}"},
                }
            )

        for tile in self.tiles:
            pid = _CORE_PID_BASE + tile.core
            tid = _PHASE_TID[tile.phase]
            name_row(pid, tid, f"NPU core {tile.core}", tile.phase)
            events.append(
                {
                    "name": f"{tile.phase} L{tile.layer_index}",
                    "cat": "tile",
                    "ph": "X",
                    "ts": tile.start_tick,
                    "dur": max(0, tile.end_tick - tile.start_tick),
                    "pid": pid,
                    "tid": tid,
                    "args": {"layer": tile.layer_index},
                }
            )

        for layer in self.layers:
            pid = _CORE_PID_BASE + layer.core
            name_row(pid, _LAYER_TID, f"NPU core {layer.core}", "layers")
            events.append(
                {
                    "name": layer.name,
                    "cat": "layer",
                    "ph": "X",
                    "ts": layer.start_tick,
                    "dur": max(0, layer.end_tick - layer.start_tick),
                    "pid": pid,
                    "tid": _LAYER_TID,
                    "args": {"layer": layer.layer_index},
                }
            )

        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "schema": TRACE_SCHEMA_NOTE,
                "dropped_spans": self.total_dropped(),
            },
        }

    def export(self, path: str | Path) -> Path:
        """Write the Chrome trace JSON to ``path``; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.chrome_trace()))
        return target
