"""One NPU core: the double-buffered tile pipeline driving DMA + array.

Implements the pipelining of paper Figure 2(a): while tile *i* computes
on the systolic array, the DMA prefetches tile *i+1* into the free SPM
half, and finished output tiles write back concurrently.  Compute of a
tile starts when (a) its loads have landed and (b) the array is free.
This is what produces the characteristic bursts of memory requests at
tile boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.compute.requestgen import TileTraffic
from repro.compute.tracecache import TraceSource
from repro.core.clock import ClockDomain
from repro.core.dma import DmaEngine
from repro.core.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.registry import CounterRegistry
    from repro.obs.timeline import TimelineTracer


@dataclass
class CoreStats:
    """Progress counters of one core."""

    tiles_computed: int = 0
    compute_busy_local: int = 0
    macs_done: int = 0
    completed_iterations: int = 0
    start_tick: int = 0
    first_completion_tick: int | None = None
    iteration_ticks: list[int] = field(default_factory=list)
    #: First-iteration per-layer activity spans, in global ticks:
    #: layer index -> (first tick any of its traffic/compute was active,
    #: tick its last compute/write completed).  This backs the artifact's
    #: layer-wise ``execution_cycle`` output files.
    layer_spans: dict[int, tuple[int, int]] = field(default_factory=dict)


class NpuCore:
    """Tile-pipeline state machine for one core's workload."""

    def __init__(
        self,
        engine: Engine,
        core_id: int,
        trace: TraceSource,
        dma: DmaEngine,
        clock: ClockDomain,
        on_iteration_complete: Callable[[int], None],
        *,
        timeline: "TimelineTracer | None" = None,
    ) -> None:
        """``trace`` is the replay-phase frontend: either a
        :class:`~repro.compute.tracecache.CompiledTrace` (the cached
        compile artifact) or a live stream-and-discard
        :class:`~repro.compute.requestgen.RequestGenerator`; the two are
        observationally identical.

        ``timeline`` (observability) records load/compute/write tile
        spans.  Recording only observes ticks the pipeline already
        reaches — it schedules nothing and mutates no pipeline state, so
        execution is identical with or without it; with ``timeline=None``
        the guards reduce to one predictable never-taken branch per hook.
        """
        self.engine = engine
        self.core_id = core_id
        self.trace = trace
        self.dma = dma
        self.clock = clock
        self.on_iteration_complete = on_iteration_complete
        self.stats = CoreStats()
        self._timeline = timeline
        # Tile-phase span starts: at most one load and one compute are in
        # flight at a time, so a single tick each suffices; write-back
        # starts ride in the completion closure (several may overlap).
        self._load_start_tick = 0
        self._compute_start_tick = 0
        self._tiles: Iterator[TileTraffic] | None = None
        self._loading: TileTraffic | None = None
        self._loaded: TileTraffic | None = None
        self._computing: TileTraffic | None = None
        self._outstanding_writes = 0
        self._exhausted = False
        self._halted = False
        self._started = False

    # ------------------------------------------------------------------ #

    def start(self, at_tick: int) -> None:
        """Begin executing the workload at global tick ``at_tick``."""
        if self._started:
            raise RuntimeError("core already started")
        self._started = True
        self.stats.start_tick = at_tick
        self.engine.at(at_tick, self._begin_iteration)

    def halt(self) -> None:
        """Stop fetching new work; in-flight tiles drain naturally."""
        self._halted = True

    def register_counters(self, registry: "CounterRegistry") -> None:
        """Expose this core's progress stats to the registry (pull-based)."""
        stats = self.stats
        registry.bind_many(
            f"compute.core{self.core_id}",
            {
                "tiles_computed": lambda: stats.tiles_computed,
                "compute_busy_local": lambda: stats.compute_busy_local,
                "macs_done": lambda: stats.macs_done,
                "completed_iterations": lambda: stats.completed_iterations,
            },
        )
        registry.bind_gauge(
            f"compute.core{self.core_id}.outstanding_writes",
            lambda: self._outstanding_writes,
        )

    @property
    def outstanding_writes(self) -> int:
        """Write-back transfers still draining to memory."""
        return self._outstanding_writes

    @property
    def idle(self) -> bool:
        """True when the core has no work in any pipeline stage."""
        return (
            self._loading is None
            and self._loaded is None
            and self._computing is None
            and self._outstanding_writes == 0
        )

    # ------------------------------------------------------------------ #

    def _begin_iteration(self) -> None:
        if self._halted:
            return
        self._tiles = self.trace.all_tiles()
        self._exhausted = False
        self._fetch_next()

    def _fetch_next(self) -> None:
        if self._exhausted or self._loading is not None or self._loaded is not None:
            return
        assert self._tiles is not None
        tile = next(self._tiles, None)
        if tile is None:
            self._exhausted = True
            self._check_iteration_end()
            return
        self._loading = tile
        self._touch_layer(tile.layer_index)
        if self._timeline is not None:
            self._load_start_tick = self.engine.now
        self.dma.transfer(tile.reads, lambda t=tile: self._load_done(t))

    def _load_done(self, tile: TileTraffic) -> None:
        assert self._loading is tile
        self._loading = None
        self._loaded = tile
        if self._timeline is not None:
            self._timeline.log_tile(
                self._load_start_tick,
                self.engine.now,
                self.core_id,
                tile.layer_index,
                "load",
            )
        self._maybe_compute()

    def _maybe_compute(self) -> None:
        if self._computing is not None or self._loaded is None:
            return
        tile = self._loaded
        self._loaded = None
        self._computing = tile
        # The SPM half this tile vacated on compute-start now holds the
        # next tile's load: double buffering.
        self._fetch_next()
        ticks = max(1, self.clock.to_global(tile.compute.cycles))
        if self._timeline is not None:
            self._compute_start_tick = self.engine.now
        self.engine.after(ticks, lambda t=tile: self._compute_done(t))

    def _compute_done(self, tile: TileTraffic) -> None:
        assert self._computing is tile
        self._computing = None
        self.stats.tiles_computed += 1
        self.stats.compute_busy_local += tile.compute.cycles
        self.stats.macs_done += tile.compute.macs
        self._touch_layer(tile.layer_index)
        if self._timeline is not None:
            self._timeline.log_tile(
                self._compute_start_tick,
                self.engine.now,
                self.core_id,
                tile.layer_index,
                "compute",
            )
        if tile.writes:
            self._outstanding_writes += 1
            if self._timeline is None:
                self.dma.write_back(
                    tile.writes,
                    lambda layer=tile.layer_index: self._write_done(layer),
                )
            else:
                self.dma.write_back(
                    tile.writes,
                    lambda layer=tile.layer_index, start=self.engine.now: (
                        self._write_done_observed(layer, start)
                    ),
                )
        self._maybe_compute()
        self._check_iteration_end()

    def _write_done(self, layer_index: int) -> None:
        self._outstanding_writes -= 1
        self._touch_layer(layer_index)
        self._check_iteration_end()

    def _write_done_observed(self, layer_index: int, start_tick: int) -> None:
        assert self._timeline is not None
        self._timeline.log_tile(
            start_tick, self.engine.now, self.core_id, layer_index, "write"
        )
        self._write_done(layer_index)

    def _touch_layer(self, layer_index: int) -> None:
        """Extend the first-iteration activity span of a layer to now."""
        if self.stats.completed_iterations > 0:
            return
        now = self.engine.now
        span = self.stats.layer_spans.get(layer_index)
        if span is None:
            self.stats.layer_spans[layer_index] = (now, now)
        else:
            self.stats.layer_spans[layer_index] = (span[0], max(span[1], now))

    def _check_iteration_end(self) -> None:
        if not self._exhausted or not self.idle:
            return
        now = self.engine.now
        self.stats.completed_iterations += 1
        self.stats.iteration_ticks.append(now)
        if self.stats.first_completion_tick is None:
            self.stats.first_completion_tick = now
        self.on_iteration_complete(self.core_id)
        if not self._halted:
            self._begin_iteration()
