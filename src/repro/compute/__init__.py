"""Compute-side models: dataflow engines, tiling, trace compilation."""

from repro._lazy import lazy_exports

# Re-exports load on first use: a spec needs the dataflow registry, not
# the trace cache.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.compute.dataflow": (
        "DataflowEngine", "get_engine", "register", "registered_dataflows",
    ),
    "repro.compute.systolic": ("is_pass_cycles", "os_pass_cycles", "ws_pass_cycles"),
    "repro.compute.tiling": (
        "Tile", "TileShape", "choose_tile_shape", "tiles_for_gemm",
    ),
    "repro.compute.requestgen": ("RequestGenerator", "TileTraffic"),
    "repro.compute.tracecache": (
        "CompiledTrace", "TraceCache", "compile_trace", "frontend_fingerprint",
        "trace_source",
    ),
})

__all__ = [
    "DataflowEngine",
    "get_engine",
    "register",
    "registered_dataflows",
    "os_pass_cycles",
    "ws_pass_cycles",
    "is_pass_cycles",
    "TileShape",
    "Tile",
    "choose_tile_shape",
    "tiles_for_gemm",
    "RequestGenerator",
    "TileTraffic",
    "CompiledTrace",
    "TraceCache",
    "compile_trace",
    "frontend_fingerprint",
    "trace_source",
]
