"""Request-log tracing, mirroring the mNPUsim artifact's output files.

The artifact emits per-run logs under ``<result_path>/dramsim_output``:

* ``dram.log``     — one line per DRAM request *start* (enqueue cycle),
* ``dramreq.log``  — one line per DRAM request *end* (completion cycle),
* ``tlb<i>.log``   — core *i*'s TLB accesses (cycle, vpn, hit/miss),
* ``tlb<i>_ptw.log`` — core *i*'s page-table walks (queue/start/end).

The simulator records the underlying spans into its
:class:`~repro.obs.timeline.TimelineTracer` (``trace_requests=True``
makes its rings unbounded, so the logs are complete), and
:func:`write_request_logs` exports them in the artifact's text format —
the same recording the Perfetto export reads.  Fields follow the
artifact's "time (cycle), address, NPU index, channel number"
convention.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.timeline import TimelineTracer


def write_request_logs(timeline: "TimelineTracer", out_dir: str | Path) -> list[Path]:
    """Write ``timeline``'s spans as artifact-style logs; the paths written."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    dram_log = directory / "dram.log"
    dram_log.write_text(
        "".join(
            f"{e.start_tick} 0x{e.addr:x} {e.core} {e.channel} "
            f"{'W' if e.write else 'R'}{' PTW' if e.is_walk else ''}\n"
            for e in timeline.dram
        )
    )
    written.append(dram_log)

    dramreq_log = directory / "dramreq.log"
    dramreq_log.write_text(
        "".join(
            f"{e.end_tick} 0x{e.addr:x} {e.core} {e.channel} "
            f"{'W' if e.write else 'R'}{' PTW' if e.is_walk else ''}\n"
            for e in sorted(timeline.dram, key=lambda e: e.end_tick)
        )
    )
    written.append(dramreq_log)

    # Group both logs by core in one pass each (rescanning the full
    # logs per core would be O(entries x cores)).
    tlb_by_core: dict[int, list[str]] = {}
    for e in timeline.tlb:
        tlb_by_core.setdefault(e.core, []).append(
            f"{e.tick} 0x{e.vpn:x} {e.outcome}\n"
        )
    ptw_by_core: dict[int, list[str]] = {}
    for e in timeline.ptw:
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
