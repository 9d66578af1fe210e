"""``repro.obs`` — the unified observability layer.

Three cooperating pieces, all zero-overhead when not enabled:

* :mod:`repro.obs.registry` — a hierarchical :class:`CounterRegistry` of
  counters, gauges and histograms addressed by dotted component paths
  (``dram.ch0.row_hits``, ``mmu.core1.tlb.misses``, ``ptw.queue_depth``).
  Simulator components *register* their existing hot-path stat objects
  into it; snapshots render to a stable JSON schema.
* :mod:`repro.obs.timeline` — a :class:`TimelineTracer` span stream:
  typed spans (DRAM transactions, page walks, tile load/compute/write
  phases, per-core layer activity) recorded into bounded ring buffers
  and exported as Chrome trace-event JSON viewable in Perfetto.  The
  artifact-style request logs (:mod:`repro.core.tracing`) are a second
  export of the same recording.
* :mod:`repro.obs.profiling` — :class:`PhaseProfiler` wall-time/count
  accounting for the experiment runner's phases (compile, execute,
  cache I/O), surfaced through ``mnpusim profile`` and the sweep
  journal.

Enable it per simulation with ``MultiCoreNPUSim(..., observe=True)`` or
from the CLI with ``mnpusim profile run``.
"""

from repro._lazy import lazy_exports

# Re-exports load on first use: the runner's phase profiler and the CLI's
# formatters need neither the span timeline nor the counter registry.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.obs.profiling": (
        "PhaseProfiler", "format_profile", "human_bytes", "human_seconds",
    ),
    "repro.obs.registry": (
        "COUNTERS_SCHEMA", "Counter", "CounterRegistry", "Gauge", "Histogram",
        "format_tree",
    ),
    "repro.obs.spans": (
        "DramSpan", "LayerSpan", "RingBuffer", "TileSpan", "TlbEvent", "WalkSpan",
    ),
    "repro.obs.timeline": ("TRACE_SCHEMA_NOTE", "TimelineTracer"),
})

__all__ = [
    "COUNTERS_SCHEMA",
    "Counter",
    "CounterRegistry",
    "DramSpan",
    "Gauge",
    "Histogram",
    "LayerSpan",
    "PhaseProfiler",
    "RingBuffer",
    "TRACE_SCHEMA_NOTE",
    "TileSpan",
    "TimelineTracer",
    "TlbEvent",
    "WalkSpan",
    "format_profile",
    "format_tree",
    "human_bytes",
    "human_seconds",
]
