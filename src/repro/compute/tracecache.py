"""The compile phase: per-frontend trace compilation and its caches.

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

The cache is two-level and content-addressed by
:func:`frontend_fingerprint`, a stable hash over the network topology
and the *traffic-affecting* arch fields only — memory-side sweeps
(bandwidth partitions, page sizes, TLB/PTW splits, DRAM timing) share
one compiled frontend across every configuration they try:

1. an in-process LRU memo bounded by total object count, tiles plus
   runs (:data:`MEMO_MAX_OBJECTS`, the budget that used to live inside
   ``RequestGenerator``), and
2. an on-disk shard store (``.repro_cache/traces/`` by default) reusing
   the crash-safe machinery of :mod:`repro.storage`: atomic tmp+rename
   publication, sha256 sidecar, quarantine-and-recompile on corruption.

Workloads whose trace would exceed the memo budget are *not*
materialized: :meth:`TraceCache.get` returns ``None`` and callers fall
back to the bounded-memory stream-and-discard
:class:`RequestGenerator` path.  That oversize fallback is the only way
the live generator reaches the replay loop.

Every frontend of :class:`~repro.core.simulator.MultiCoreNPUSim`
resolves through the process-level cache, managed with
:func:`configure` / :func:`trace_source`.
"""

from __future__ import annotations

import dataclasses
import json
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Protocol, Union

from repro.compute.dataflow import get_engine
from repro.digest import blake2b
from repro.storage import ShardStore

if TYPE_CHECKING:
    # The frontend (request generation, tiling, the cycle model) loads
    # where a trace is compiled, decoded or streamed, so a runner whose
    # every result is cached never loads it.
    from repro.compute.requestgen import RequestGenerator, TileTraffic
    from repro.config.arch import ArchConfig
    from repro.models.layers import Network

#: Bump when the trace shard layout (or trace semantics) changes;
#: mismatched shards are quarantined and recompiled.
TRACE_VERSION = 1

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


class TraceSource(Protocol):
    """What the replay side needs from a frontend (compiled or live)."""

    @property
    def memory_footprint_bytes(self) -> int: ...

    @property
    def num_layers(self) -> int: ...

    def all_tiles(self) -> Iterator[TileTraffic]: ...

    def summary(self) -> dict[str, float]: ...


def frontend_fingerprint(network: Network, arch: ArchConfig) -> str:
    """Stable content hash of one frontend: topology + traffic arch fields.

    The fingerprint is computed from a canonical JSON rendering, so it is
    identical across processes, machines and Python hash seeds; any
    change to a layer definition or to a traffic-affecting arch field
    yields a new fingerprint (and therefore a recompile), while replay-
    side knobs (frequency, DMA width, the whole memory system) share the
    compiled trace.

    The dataflow engine that compiles the trace contributes its
    ``(name, version)`` pair to the hashed payload — bumping an engine's
    ``version`` after a model refinement invalidates exactly that
    engine's cached traces — and the engine name also prefixes the
    returned fingerprint (``os-<digest>``), so on-disk trace shards are
    attributable to their dataflow by filename alone (``mnpusim cache
    stats`` groups on this tag).

    Serving frontends (networks named with the
    :data:`repro.models.serving.NAME_PREFIX` ``srv-`` marker) carry that
    marker between the engine tag and the digest (``os-srv-<digest>``),
    so schedule-unrolled serving traces are identifiable on disk too.
    The network *name* is deliberately not part of the hashed payload —
    identical layer lists share a trace regardless of naming — so the
    tag rides outside the digest.
    """
    engine = get_engine(arch.dataflow)
    layers = [
        [type(layer).__name__, dataclasses.asdict(layer)]
        for layer in network.layers
    ]
    payload = {
        "version": TRACE_VERSION,
        "engine": [engine.name, engine.version],
        "arch": {name: getattr(arch, name) for name in _TRAFFIC_ARCH_FIELDS},
        "layers": layers,
    }
    digest = blake2b(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    )
    tag = "srv-" if network.name.startswith("srv-") else ""
    return f"{engine.name}-{tag}{digest.hexdigest()[:32]}"


@dataclass(frozen=True, eq=False)
class CompiledTrace:
    """One frontend, fully lowered: the immutable compile-phase artifact.

    Replaying a compiled trace is indistinguishable from re-running the
    request generator (tiles are frozen, run arrays are never mutated,
    and generation is deterministic); ``all_tiles()`` hands the replay
    loop prebuilt :class:`TileTraffic` tuples instead of re-deriving
    them.
    """

    fingerprint: str
    network_name: str
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

    def layer_tiles(self, layer_index: int) -> Iterator[TileTraffic]:
        """Replay the tile traffic of one layer, in execution order."""
        return iter(self.layers[layer_index])

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
    fingerprint: str | None = None,
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
        fingerprint=fingerprint
        if fingerprint is not None
        else frontend_fingerprint(network, arch),
        network_name=network.name,
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
# Serialization (the on-disk shard format)
# ---------------------------------------------------------------------- #


#: Compact JSON text of one value, as every shard has been written.
_json = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def encode_trace(trace: CompiledTrace) -> bytes:
    """Serialize a trace to its compact JSON shard payload.

    The bytes are those of ``json.dumps(payload, separators=(",", ":"),
    sort_keys=True)`` over the ``[[addr, count], ...]`` rendering of
    every run array, but that nested list is never built: each tile's
    text is formatted straight from its flat ``reads``/``writes``
    arrays and the pieces are joined once, as ASCII bytes.  Only the
    small non-run values go through ``json``, so floats keep its
    shortest exact rendering and a disk-loaded trace replays
    byte-identically to a fresh compile.
    """
    pieces = [
        b'{"fingerprint":%b,"footprint":%b,"layers":['
        % (_ascii(trace.fingerprint), _ascii(trace.memory_footprint_bytes))
    ]
    for index, layer in enumerate(trace.layers):
        pieces.append(b",[" if index else b"[")
        for position, tile in enumerate(layer):
            if position:
                pieces.append(b",")
            pieces.append(_encode_tile(tile))
        pieces.append(b"]")
    pieces.append(
        b'],"network":%b,"summary":%b,"version":%b}'
        % (
            _ascii(trace.network_name),
            _ascii(trace.stats),
            _ascii(TRACE_VERSION),
        )
    )
    return b"".join(pieces)


def _ascii(value: object) -> bytes:
    """``value`` as compact JSON bytes (``json`` escapes to ASCII)."""
    return _json(value).encode("ascii")


def _encode_tile(tile: TileTraffic) -> bytes:
    """One tile's ``[shape, reads, writes, compute]`` JSON text.

    The tile shape and the run arrays hold only ints, which ``%d``
    renders exactly as ``json`` does; the compute triple carries a
    float and goes through ``json``.
    """
    t = tile.tile
    c = tile.compute
    shape = (t.m0, t.n0, t.k0, t.tm, t.tn, t.tk, t.first_k, t.last_k)
    return b"[[%d,%d,%d,%d,%d,%d,%d,%d],%b,%b,%b]" % (
        *shape,
        _encode_runs(tile.reads),
        _encode_runs(tile.writes),
        _ascii([c.cycles, c.macs, c.pe_utilization]),
    )


def _encode_runs(runs: array) -> bytes:
    """A flat run array as the shard's ``[[addr,count],...]`` JSON text."""
    template = b"[" + b",".join([b"[%d,%d]"] * (len(runs) // 2)) + b"]"
    return template % tuple(runs)


def _flatten(pairs: list) -> array:
    """The shard's ``[[addr, count], ...]`` list as a flat run array."""
    runs = array("q")
    for addr, count in pairs:
        runs.append(addr)
        runs.append(count)
    return runs


def decode_trace(
    raw: bytes, fingerprint: str
) -> tuple[CompiledTrace | None, str | None]:
    """``(trace, None)`` when the shard is sound, else ``(None, reason)``.

    Matches the :meth:`repro.storage.ShardStore.read_validated` contract,
    so corrupt or stale shards are quarantined and recompiled.
    """
    from repro.compute.requestgen import TileTraffic
    from repro.compute.systolic import ComputeEstimate
    from repro.compute.tiling import Tile

    try:
        payload = json.loads(raw)
    except ValueError:
        return None, "unparseable JSON (truncated write?)"
    if not isinstance(payload, dict):
        return None, "malformed shard structure"
    if payload.get("version") != TRACE_VERSION:
        return None, (
            f"trace-version mismatch ({payload.get('version')} != {TRACE_VERSION})"
        )
    if payload.get("fingerprint") != fingerprint:
        return None, "fingerprint does not match request"
    try:
        layers = []
        for layer_index, encoded in enumerate(payload["layers"]):
            tiles = []
            for shape, reads, writes, compute in encoded:
                m0, n0, k0, tm, tn, tk, first_k, last_k = shape
                tiles.append(
                    TileTraffic(
                        layer_index=layer_index,
                        tile=Tile(
                            m0=m0, n0=n0, k0=k0, tm=tm, tn=tn, tk=tk,
                            first_k=bool(first_k), last_k=bool(last_k),
                        ),
                        reads=_flatten(reads),
                        writes=_flatten(writes),
                        compute=ComputeEstimate(
                            cycles=compute[0], macs=compute[1],
                            pe_utilization=compute[2],
                        ),
                    )
                )
            layers.append(tuple(tiles))
        trace = CompiledTrace(
            fingerprint=fingerprint,
            network_name=payload["network"],
            memory_footprint_bytes=payload["footprint"],
            layers=tuple(layers),
            stats=payload["summary"],
            object_cost=_trace_cost(layers),
        )
    except (KeyError, TypeError, ValueError, IndexError, OverflowError):
        return None, "malformed trace payload"
    return trace, None


# ---------------------------------------------------------------------- #
# The two-level cache
# ---------------------------------------------------------------------- #


@dataclass
class TraceCacheStats:
    """Counters of one :class:`TraceCache` (monotonic over its lifetime)."""

    memo_hits: int = 0
    disk_hits: int = 0
    compiles: int = 0
    oversize: int = 0
    quarantined: int = 0

    @property
    def requests(self) -> int:
        """Total ``get`` calls resolved."""
        return self.memo_hits + self.disk_hits + self.compiles + self.oversize

    @property
    def hits(self) -> int:
        """Requests served without a (re)compile."""
        return self.memo_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from memo or disk."""
        return self.hits / self.requests if self.requests else 0.0

    def snapshot(self) -> "TraceCacheStats":
        return dataclasses.replace(self)

    def since(self, earlier: "TraceCacheStats") -> "TraceCacheStats":
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        return TraceCacheStats(
            memo_hits=self.memo_hits - earlier.memo_hits,
            disk_hits=self.disk_hits - earlier.disk_hits,
            compiles=self.compiles - earlier.compiles,
            oversize=self.oversize - earlier.oversize,
            quarantined=self.quarantined - earlier.quarantined,
        )

    def summary(self) -> dict[str, float]:
        """JSON-friendly rendering (journal / bench / CLI one-liners)."""
        return {
            "requests": self.requests,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "compiles": self.compiles,
            "oversize": self.oversize,
            "quarantined": self.quarantined,
            "hit_rate": round(self.hit_rate, 4),
        }


class TraceCache:
    """Two-level (memo + disk) cache of :class:`CompiledTrace` artifacts.

    Content-addressed by :func:`frontend_fingerprint`, so entries can
    never go stale — a changed topology or arch simply misses.  The memo
    is LRU-bounded by total object count; the optional disk level is a
    crash-safe :class:`~repro.storage.ShardStore` whose shards survive
    across processes (sweep workers load them instead of recompiling).
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        max_memo_objects: int = MEMO_MAX_OBJECTS,
    ) -> None:
        self.max_memo_objects = max_memo_objects
        self.stats = TraceCacheStats()
        self._memo: OrderedDict[str, CompiledTrace] = OrderedDict()
        self._memo_cost = 0
        self._oversize: set[str] = set()
        self.store: ShardStore | None = None
        if directory is not None:
            self.set_directory(directory)

    # ------------------------------------------------------------------ #

    def set_directory(self, directory: str | Path | None) -> None:
        """Attach (or detach, with ``None``) the disk level.

        The memo survives re-pointing: entries are content-addressed, so
        they remain valid for any directory.
        """
        if directory is None:
            self.store = None
            return
        self.store = ShardStore(
            Path(directory), on_quarantine=self._count_quarantine
        )

    def _count_quarantine(self, name: str, reason: str) -> None:
        self.stats.quarantined += 1

    @staticmethod
    def shard_name(fingerprint: str) -> str:
        return f"{fingerprint}.json"

    def clear_memo(self) -> None:
        """Drop the in-process level (disk shards are untouched)."""
        self._memo.clear()
        self._memo_cost = 0
        self._oversize.clear()

    # ------------------------------------------------------------------ #

    def get(self, network: Network, arch: ArchConfig) -> CompiledTrace | None:
        """The compiled trace of one frontend, or ``None`` if oversized.

        Resolution order: memo → disk shard (quarantining corruption) →
        compile (publishing a shard when a disk level is attached).
        """
        fingerprint = frontend_fingerprint(network, arch)
        trace = self._memo.get(fingerprint)
        if trace is not None:
            self._memo.move_to_end(fingerprint)
            self.stats.memo_hits += 1
            # The store may have been (re)attached after this entry was
            # memoized; sweep workers rely on the shard existing on disk,
            # so publish it on the way out.
            self._publish(trace)
            return trace
        if fingerprint in self._oversize:
            self.stats.oversize += 1
            return None
        if self.store is not None:
            trace = self.store.read_validated(
                self.shard_name(fingerprint),
                lambda raw: decode_trace(raw, fingerprint),
            )
            if trace is not None:
                self.stats.disk_hits += 1
                self._remember(trace)
                return trace
        trace = compile_trace(
            network,
            arch,
            max_objects=self.max_memo_objects,
            fingerprint=fingerprint,
        )
        self.stats.compiles += 1
        if trace is None:
            self._oversize.add(fingerprint)
            self.stats.oversize += 1
            return None
        self._remember(trace)
        self._publish(trace, force=True)
        return trace

    def _publish(self, trace: CompiledTrace, force: bool = False) -> None:
        """Write the shard for ``trace`` unless it is already on disk."""
        if self.store is None:
            return
        name = self.shard_name(trace.fingerprint)
        if force or not self.store.path(name).exists():
            self.store.write(name, encode_trace(trace))

    def _remember(self, trace: CompiledTrace) -> None:
        previous = self._memo.pop(trace.fingerprint, None)
        if previous is not None:
            self._memo_cost -= previous.object_cost
        self._memo[trace.fingerprint] = trace
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


def configure(directory: str | Path | None) -> TraceCache:
    """(Re)point the process-level cache's disk level; returns it.

    ``directory`` attaches the disk level (``None`` detaches it).
    Re-pointing the directory keeps the memo: entries are
    content-addressed and can never go stale.
    """
    _process_cache.set_directory(directory)
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
