"""Compute-side models: dataflow engines, tiling, trace compilation."""

from repro.compute.dataflow import (
    DataflowEngine,
    get_engine,
    register,
    registered_dataflows,
)
from repro.compute.systolic import (
    is_pass_cycles,
    os_pass_cycles,
    ws_pass_cycles,
)
from repro.compute.tiling import Tile, TileShape, choose_tile_shape, tiles_for_gemm
from repro.compute.requestgen import RequestGenerator, TileTraffic
from repro.compute.tracecache import (
    CompiledTrace,
    TraceCache,
    compile_trace,
    frontend_fingerprint,
    trace_source,
)

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
