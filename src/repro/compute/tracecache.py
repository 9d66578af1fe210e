"""The compile phase: per-frontend trace compilation and its memo.

mNPUsim's own architecture is trace-driven (paper Figure 3): the SW
stack lowers each core's workload into a per-tile DRAM request trace
*once*, and the HW simulator replays that trace against the contended
memory system.  This module makes the split explicit for the
reproduction:

* **Compile** — :func:`compile_trace` lowers one ``(Network,
  ArchConfig)`` pair through the full SW stack (im2col → GEMM → tiling →
  run generation → systolic timing) into an immutable
  :class:`CompiledTrace`: every layer's tile sequence with its flat
  ``(addr, count)`` read and write run arrays and
  :class:`~repro.compute.systolic.ComputeEstimate`, plus the pre-run
  summary statistics.
* **Replay** — :class:`~repro.core.npu_core.NpuCore` consumes any
  *trace source* (``all_tiles()`` / ``summary()`` /
  ``memory_footprint_bytes``); a :class:`CompiledTrace` replays stored
  tuples, a live :class:`~repro.compute.requestgen.RequestGenerator`
  streams-and-discards.  The two are observationally identical (pinned
  by the golden-equivalence suite), so caching is purely a wall-time
  optimization.

The cache is an in-process LRU memo keyed by value
(:func:`frontend_key`): the network's layers plus the
*traffic-affecting* arch fields only — memory-side sweeps (bandwidth
partitions, page sizes, TLB/PTW splits, DRAM timing) share one compiled
frontend across every configuration they try.  The memo is
bounded by total object count, tiles plus runs
(:data:`MEMO_MAX_OBJECTS`, the budget that used to live inside
``RequestGenerator``).  Nothing is persisted: compiling a frontend costs
milliseconds, and forked sweep workers inherit the parent's warm memo.

Workloads whose trace would exceed the memo budget are *not*
materialized: :meth:`TraceCache.get` returns ``None`` and callers fall
back to the bounded-memory stream-and-discard
:class:`RequestGenerator` path.  That oversize fallback is the only way
the live generator reaches the replay loop.

Every frontend of :class:`~repro.core.simulator.MultiCoreNPUSim`
resolves through the process-level cache (:func:`process_cache`,
:func:`trace_source`).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Protocol, Union

if TYPE_CHECKING:
    # The frontend (request generation, tiling, the cycle model) loads
    # where a trace is compiled or streamed, so a runner whose
    # every result is cached never loads it.
    from repro.compute.requestgen import RequestGenerator, TileTraffic
    from repro.config.arch import ArchConfig
    from repro.models.layers import Layer, Network

#: Total objects (tiles + runs) the in-process memo may hold across all
#: compiled traces.  Traces that alone exceed this are never
#: materialized — their workloads keep the stream-and-discard path — so
#: full-scale runs cannot balloon memory through the cache.  This is the
#: budget formerly enforced per-``RequestGenerator``.
MEMO_MAX_OBJECTS = 1 << 20

#: Arch fields that shape the generated traffic/compute trace.  Clock
#: frequency and DMA issue width deliberately excluded: they change
#: *when* requests issue, not which requests exist, and live entirely on
#: the replay side.
_TRAFFIC_ARCH_FIELDS = (
    "array_rows",
    "array_cols",
    "spm_bytes",
    "dataflow",
    "element_bytes",
    "dram_transaction_bytes",
)

#: What the memo keys a frontend by: the traffic arch field values, in
#: :data:`_TRAFFIC_ARCH_FIELDS` order, and the network's layers.
FrontendKey = tuple[tuple[Any, ...], tuple["Layer", ...]]


class TraceSource(Protocol):
    """What the replay side needs from a frontend (compiled or live)."""

    @property
    def memory_footprint_bytes(self) -> int: ...

    @property
    def num_layers(self) -> int: ...

    def all_tiles(self) -> Iterator[TileTraffic]: ...

    def summary(self) -> dict[str, float]: ...


def frontend_key(network: Network, arch: ArchConfig) -> FrontendKey:
    """The memo key of one frontend: traffic arch fields + layers.

    Layers are frozen dataclasses, so the key hashes and compares by
    value: a changed layer or traffic-affecting arch field (the dataflow
    among them) misses, while replay-side knobs (frequency, DMA width,
    the whole memory system) and the network's name share the compiled
    trace.
    """
    return (
        tuple(getattr(arch, name) for name in _TRAFFIC_ARCH_FIELDS),
        network.layers,
    )


@dataclass(frozen=True, eq=False)
class CompiledTrace:
    """One frontend, fully lowered: the immutable compile-phase artifact.

    Replaying a compiled trace is indistinguishable from re-running the
    request generator (tiles are frozen, run arrays are never mutated,
    and generation is deterministic); ``all_tiles()`` hands the replay
    loop prebuilt :class:`TileTraffic` tuples instead of re-deriving
    them.
    """

    memory_footprint_bytes: int
    layers: tuple[tuple[TileTraffic, ...], ...]
    stats: dict[str, float] = field(repr=False)
    object_cost: int = 0

    @property
    def num_layers(self) -> int:
        """Layers in the workload."""
        return len(self.layers)

    @property
    def num_tiles(self) -> int:
        """Total tiles across all layers."""
        return sum(len(layer) for layer in self.layers)

    def all_tiles(self) -> Iterator[TileTraffic]:
        """Replay every tile of every layer, in execution order."""
        for layer in self.layers:
            yield from layer

    def summary(self) -> dict[str, float]:
        """The pre-run statistics computed at compile time."""
        return dict(self.stats)


def _trace_cost(layers: list[tuple[TileTraffic, ...]]) -> int:
    """Objects (tiles + runs) a materialized trace holds.

    Each run is one ``(addr, count)`` pair, two array slots.
    """
    return sum(
        1 + (len(tile.reads) + len(tile.writes)) // 2
        for layer in layers
        for tile in layer
    )


def compile_trace(
    network: Network,
    arch: ArchConfig,
    *,
    max_objects: int | None = None,
) -> CompiledTrace | None:
    """Lower one frontend into a :class:`CompiledTrace`.

    Returns ``None`` when the trace would exceed ``max_objects`` (tiles
    plus runs): oversized workloads keep the bounded-memory
    stream-and-discard :class:`RequestGenerator` path instead of
    materializing gigabytes of request lists.  The budget is checked
    while compiling, so an oversized workload costs at most one partial
    generation pass.
    """
    from repro.compute.requestgen import RequestGenerator

    generator = RequestGenerator(network, arch)
    layers: list[tuple[TileTraffic, ...]] = []
    cost = 0
    for layer_index in range(generator.num_layers):
        tiles = tuple(generator.layer_tiles(layer_index))
        cost += _trace_cost([tiles])
        if max_objects is not None and cost > max_objects:
            return None
        layers.append(tiles)
    return CompiledTrace(
        memory_footprint_bytes=generator.memory_footprint_bytes,
        layers=tuple(layers),
        stats=_summarize(layers, arch),
        object_cost=cost,
    )


def _summarize(
    layers: list[tuple[TileTraffic, ...]], arch: ArchConfig
) -> dict[str, float]:
    """The pre-run summary, accumulated exactly like the live generator."""
    total_macs = 0
    total_cycles = 0
    read_txns = 0
    write_txns = 0
    for layer in layers:
        for traffic in layer:
            total_macs += traffic.compute.macs
            total_cycles += traffic.compute.cycles
            read_txns += traffic.read_txns
            write_txns += traffic.write_txns
    traffic_bytes = (read_txns + write_txns) * arch.dram_transaction_bytes
    return {
        "macs": float(total_macs),
        "ideal_compute_cycles": float(total_cycles),
        "pe_utilization": total_macs / (total_cycles * arch.num_pes),
        "read_txns": float(read_txns),
        "write_txns": float(write_txns),
        "traffic_bytes": float(traffic_bytes),
        "bytes_per_cycle": traffic_bytes / total_cycles,
    }


# ---------------------------------------------------------------------- #
# The memo
# ---------------------------------------------------------------------- #


@dataclass
class TraceCacheStats:
    """Counters of one :class:`TraceCache` (monotonic over its lifetime)."""

    memo_hits: int = 0
    compiles: int = 0
    oversize: int = 0

    @property
    def requests(self) -> int:
        """Total ``get`` calls resolved."""
        return self.memo_hits + self.compiles + self.oversize

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the memo."""
        return self.memo_hits / self.requests if self.requests else 0.0

    def snapshot(self) -> "TraceCacheStats":
        return dataclasses.replace(self)

    def since(self, earlier: "TraceCacheStats") -> "TraceCacheStats":
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        return TraceCacheStats(
            memo_hits=self.memo_hits - earlier.memo_hits,
            compiles=self.compiles - earlier.compiles,
            oversize=self.oversize - earlier.oversize,
        )

    def summary(self) -> dict[str, float]:
        """JSON-friendly rendering (journal / bench / CLI one-liners)."""
        return {
            "requests": self.requests,
            "memo_hits": self.memo_hits,
            "compiles": self.compiles,
            "oversize": self.oversize,
            "hit_rate": round(self.hit_rate, 4),
        }


class TraceCache:
    """In-process LRU memo of :class:`CompiledTrace` artifacts.

    Keyed by value (:func:`frontend_key`), so entries can never go
    stale — a changed topology or arch simply misses.  The memo is
    LRU-bounded by total object count.
    """

    def __init__(self, *, max_memo_objects: int = MEMO_MAX_OBJECTS) -> None:
        self.max_memo_objects = max_memo_objects
        self.stats = TraceCacheStats()
        self._memo: OrderedDict[FrontendKey, CompiledTrace] = OrderedDict()
        self._memo_cost = 0
        self._oversize: set[FrontendKey] = set()

    def clear_memo(self) -> None:
        """Forget every compiled trace and every oversize verdict."""
        self._memo.clear()
        self._memo_cost = 0
        self._oversize.clear()

    def get(self, network: Network, arch: ArchConfig) -> CompiledTrace | None:
        """The compiled trace of one frontend, or ``None`` if oversized.

        Resolution order: memo → compile (remembering the trace, or the
        oversize verdict).
        """
        key = frontend_key(network, arch)
        trace = self._memo.get(key)
        if trace is not None:
            self._memo.move_to_end(key)
            self.stats.memo_hits += 1
            return trace
        if key in self._oversize:
            self.stats.oversize += 1
            return None
        trace = compile_trace(network, arch, max_objects=self.max_memo_objects)
        self.stats.compiles += 1
        if trace is None:
            self._oversize.add(key)
            self.stats.oversize += 1
            return None
        self._remember(key, trace)
        return trace

    def _remember(self, key: FrontendKey, trace: CompiledTrace) -> None:
        """Memoize a fresh compile, evicting least-recently-used traces."""
        self._memo[key] = trace
        self._memo_cost += trace.object_cost
        while self._memo_cost > self.max_memo_objects and len(self._memo) > 1:
            _, evicted = self._memo.popitem(last=False)
            self._memo_cost -= evicted.object_cost


# ---------------------------------------------------------------------- #
# The process-level cache (what every simulator frontend resolves through)
# ---------------------------------------------------------------------- #

_process_cache = TraceCache()


def process_cache() -> TraceCache:
    """The cache :func:`trace_source` resolves through."""
    return _process_cache


def trace_source(
    network: Network, arch: ArchConfig
) -> Union[CompiledTrace, RequestGenerator]:
    """The frontend the replay loop should consume for one core.

    A :class:`CompiledTrace` from the process cache when within budget;
    otherwise a live stream-and-discard :class:`RequestGenerator`.  Both
    are observationally identical.
    """
    trace = _process_cache.get(network, arch)
    if trace is not None:
        return trace
    from repro.compute.requestgen import RequestGenerator

    return RequestGenerator(network, arch)
