"""Request-log tracing, mirroring the mNPUsim artifact's output files.

The artifact emits per-run logs under ``<result_path>/dramsim_output``:

* ``dram.log``     — one line per DRAM request *start* (enqueue cycle),
* ``dramreq.log``  — one line per DRAM request *end* (completion cycle),
* ``tlb<i>.log``   — core *i*'s TLB accesses (cycle, vpn, hit/miss),
* ``tlb<i>_ptw.log`` — core *i*'s page-table walks (queue/start/end).

:class:`TraceLogger` buffers the same information in memory; the
simulator feeds it when constructed with ``trace_requests=True``, and
:meth:`write_files` emits the artifact-style text files.  Fields follow
the artifact's "time (cycle), address, NPU index, channel number"
convention.

The log entries are the :mod:`repro.obs.spans` span types, and the
logger doubles as a :class:`~repro.obs.spans.SpanSink`: when a
:class:`~repro.obs.timeline.TimelineTracer` drives the simulation, it
fans the same span stream into an attached ``TraceLogger`` through
:meth:`on_dram`/:meth:`on_tlb`/:meth:`on_walk` — artifact text logs and
Perfetto traces come from one recording.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.spans import DramSpan, TlbEvent, WalkSpan

@dataclass
class TraceLogger:
    """In-memory request logs with artifact-style file output."""

    dram: list[DramSpan] = field(default_factory=list)
    tlb: list[TlbEvent] = field(default_factory=list)
    ptw: list[WalkSpan] = field(default_factory=list)

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

    # -------------------------------------------------------------- #
    # SpanSink interface (fed by an upstream TimelineTracer)
    # -------------------------------------------------------------- #

    def on_dram(self, span: DramSpan) -> None:
        """Consume one DRAM span from the timeline stream."""
        self.dram.append(span)

    def on_tlb(self, event: TlbEvent) -> None:
        """Consume one TLB event from the timeline stream."""
        self.tlb.append(event)

    def on_walk(self, span: WalkSpan) -> None:
        """Consume one page-walk span from the timeline stream."""
        self.ptw.append(span)

    # -------------------------------------------------------------- #
    # Output
    # -------------------------------------------------------------- #

    def cores(self) -> list[int]:
        """Cores that produced any translation activity."""
        seen = {entry.core for entry in self.tlb}
        seen.update(entry.core for entry in self.ptw)
        return sorted(seen)

    def write_files(self, out_dir: str | Path) -> list[Path]:
        """Write artifact-style log files; returns the paths written."""
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        written = []

        dram_log = directory / "dram.log"
        dram_log.write_text(
            "".join(
                f"{e.start_tick} 0x{e.addr:x} {e.core} {e.channel} "
                f"{'W' if e.write else 'R'}{' PTW' if e.is_walk else ''}\n"
                for e in self.dram
            )
        )
        written.append(dram_log)

        dramreq_log = directory / "dramreq.log"
        dramreq_log.write_text(
            "".join(
                f"{e.end_tick} 0x{e.addr:x} {e.core} {e.channel} "
                f"{'W' if e.write else 'R'}{' PTW' if e.is_walk else ''}\n"
                for e in sorted(self.dram, key=lambda e: e.end_tick)
            )
        )
        written.append(dramreq_log)

        # Group both logs by core in one pass each (rescanning the full
        # logs per core would be O(entries x cores)).
        tlb_by_core: dict[int, list[str]] = {}
        for e in self.tlb:
            tlb_by_core.setdefault(e.core, []).append(
                f"{e.tick} 0x{e.vpn:x} {e.outcome}\n"
            )
        ptw_by_core: dict[int, list[str]] = {}
        for e in self.ptw:
            ptw_by_core.setdefault(e.core, []).append(
                f"{e.enqueue_tick} {e.start_tick} {e.end_tick} "
                f"0x{e.vpn:x} {e.dram_reads}\n"
            )
        for core in sorted(tlb_by_core.keys() | ptw_by_core.keys()):
            tlb_log = directory / f"tlb{core}.log"
            tlb_log.write_text("".join(tlb_by_core.get(core, ())))
            written.append(tlb_log)
            ptw_log = directory / f"tlb{core}_ptw.log"
            ptw_log.write_text("".join(ptw_by_core.get(core, ())))
            written.append(ptw_log)
        return written

    # -------------------------------------------------------------- #
    # Analysis conveniences
    # -------------------------------------------------------------- #

    def dram_bytes_by_core(self, transaction_bytes: int) -> dict[int, int]:
        """Data moved per core, from the log."""
        totals: dict[int, int] = {}
        for entry in self.dram:
            totals[entry.core] = totals.get(entry.core, 0) + transaction_bytes
        return totals

    def walk_latencies(self, core: int | None = None) -> list[int]:
        """End-to-end walk latencies (ticks), optionally for one core."""
        return [
            entry.end_tick - entry.enqueue_tick
            for entry in self.ptw
            if core is None or entry.core == core
        ]
