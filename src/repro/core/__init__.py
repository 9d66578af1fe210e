"""The multi-core NPU simulator core: engine, cores, sharing, metrics."""

from repro._lazy import lazy_exports

# Re-exports load on first use: a figure plan needs the sharing levels,
# not the event engine.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.engine": ("Engine",),
    "repro.core.clock": ("ClockDomain",),
    "repro.core.sharing": ("SharingLevel", "SWEEP_LEVELS", "CONTENDED_LEVELS"),
    "repro.core.metrics": ("fairness", "geomean", "slowdown", "speedup"),
})

__all__ = [
    "Engine",
    "ClockDomain",
    "SharingLevel",
    "SWEEP_LEVELS",
    "CONTENDED_LEVELS",
    "fairness",
    "geomean",
    "slowdown",
    "speedup",
]
