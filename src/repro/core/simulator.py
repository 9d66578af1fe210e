"""The top-level multi-core NPU simulator (mNPUsim's HW simulator).

:class:`MultiCoreNPUSim` wires together everything the paper's Figure 3
describes: per-core compiled frontends (the SW stack's per-tile request
trace, resolved through :mod:`repro.compute.tracecache`), per-core DMA
engines and clock domains, the shared MMU (TLBs + walker pool) and the
shared DRAM controller, then replays the traces through the event-driven
co-simulation and reports per-workload cycle counts, PE utilization and
memory-system statistics.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field

from repro.compute.tracecache import TraceSource, trace_source
from repro.config.system import SystemConfig
from repro.errors import DEFAULT_STALL_WINDOW_TICKS  # noqa: F401 (re-export)
from repro.errors import (
    CoreDiagnostics,
    SimulationStallError,
    SimulatorReuseError,
)
from repro.core.clock import ClockDomain
from repro.core.dma import DmaEngine
from repro.core.engine import Engine
from repro.core.npu_core import NpuCore
from repro.dram.controller import DramController
from repro.dram.stats import DramStatsView
from repro.mmu.mmu import Mmu
from repro.obs.registry import CounterRegistry
from repro.obs.spans import DEFAULT_RING_CAPACITY
from repro.obs.timeline import TimelineTracer
from repro.mmu.pagetable import PageTable, PhysicalLayout
from repro.mmu.ptw import WalkerPool
from repro.models.layers import Network


#: Whether :func:`freeze_heap` has run in this process.
_heap_frozen = False


def freeze_heap() -> None:
    """Freeze every object loaded so far, the simulation stack included.

    Call it before the first simulation, and before a worker pool is
    forked, so forked workers inherit the frozen heap.  Importing it
    from here loads the simulation stack first.  ``cli.main`` already
    froze what it had imported; this freezes the layers a command loaded
    since, the simulator's among them, so the full collections a run
    triggers (the runner's one after each spec, and the automatic ones)
    never re-scan them.  Once per process: a later call would pin the
    garbage built up since.
    """
    global _heap_frozen
    if not _heap_frozen:
        gc.freeze()
        _heap_frozen = True


def plan_replay(*args, **kwargs) -> None:
    """Never called; only the e2e benchmark ledger reads this name.

    ``benchmarks/e2e/ledger.py`` wraps it when tracing.  Delete it with
    that wrapper (see the benchmark follow-ups in ROADMAP.md).
    """


@dataclass(frozen=True)
class WorkloadResult:
    """Outcome of one workload on one core (first iteration)."""

    workload: str
    core: int
    cycles: int                #: first-iteration length in local core cycles
    ticks: int                 #: the same, in global (DRAM) ticks
    pe_utilization: float      #: MACs / (cycles * PEs) over the first iteration
    compute_occupancy: float   #: fraction of cycles the array was busy
    traffic_bytes: int         #: data bytes moved per iteration (reads + writes)
    tlb_lookups: int
    tlb_misses: int
    walks: int
    avg_walk_ticks: float
    avg_walk_queue_ticks: float
    completed_iterations: int
    #: Per-layer activity durations in local cycles (first iteration),
    #: indexed by layer.  Adjacent layers pipeline through the double
    #: buffer, so spans overlap slightly; this matches the artifact's
    #: layer-wise ``execution_cycle`` output.
    layer_cycles: tuple[int, ...] = ()

    @property
    def tlb_miss_rate(self) -> float:
        """TLB misses per lookup."""
        return self.tlb_misses / self.tlb_lookups if self.tlb_lookups else 0.0


@dataclass
class MixResult:
    """Outcome of one co-simulation."""

    workloads: tuple[WorkloadResult, ...]
    dram: DramStatsView
    total_ticks: int
    bandwidth_utilization: dict[int, list[tuple[int, float]]] = field(
        default_factory=dict
    )
    #: Counter-registry snapshot (``repro.obs`` schema) when the
    #: simulation ran with ``observe=True``; ``None`` otherwise.  Not
    #: part of the cached result shards, so old caches stay valid.
    counters: dict | None = None

    def cycles_per_core(self) -> tuple[int, ...]:
        """First-iteration local cycle counts, in core order."""
        return tuple(result.cycles for result in self.workloads)


class MultiCoreNPUSim:
    """Execution-driven co-simulation of N workloads on an N-core NPU."""

    def __init__(
        self,
        system: SystemConfig,
        networks: list[Network] | tuple[Network, ...],
        *,
        trace_bandwidth: bool = False,
        trace_requests: bool = False,
        stall_window_ticks: int | None = None,
        observe: bool = False,
    ) -> None:
        """``stall_window_ticks`` arms the stall watchdog: if no core
        retires a tile or completes an iteration within that many global
        ticks while events keep firing, :meth:`run` raises a
        :class:`SimulationStallError` with per-core diagnostics instead
        of spinning to the ``max_ticks`` ceiling.  ``None`` (default)
        disables the watchdog; the experiment runner arms it for every
        sweep worker.  The watchdog only slices the event loop at window
        boundaries — event order, and therefore every simulation result,
        is byte-identical with and without it.

        ``observe=True`` turns on the observability layer: every
        component registers its stats into :attr:`registry` (a
        :class:`CounterRegistry`), typed spans stream into
        :attr:`timeline` (a :class:`TimelineTracer`, exportable as a
        Perfetto-loadable Chrome trace), and the returned
        :class:`MixResult` carries a counter snapshot.  Observation is
        pure recording — it schedules no events and mutates no simulated
        state — so results are byte-identical with it on or off; when
        off (the default) the instrumentation costs nothing.

        ``trace_requests=True`` records the same spans into
        :attr:`timeline` with unbounded rings, for the artifact-style
        request logs (:func:`repro.core.tracing.write_request_logs`).
        """
        if len(networks) != system.num_cores:
            raise ValueError(
                f"{system.num_cores} cores need {system.num_cores} workloads, "
                f"got {len(networks)}"
            )
        self.system = system
        self.networks = tuple(networks)
        self.engine = Engine()
        if stall_window_ticks is not None and stall_window_ticks <= 0:
            stall_window_ticks = None
        self.stall_window_ticks = stall_window_ticks
        cores = range(system.num_cores)

        layout = PhysicalLayout(system.dram.capacity_bytes, system.num_cores)
        self.page_tables = {
            core: PageTable(
                core,
                system.npumem[core].page_bytes,
                system.npumem[core].walk_levels,
                layout,
            )
            for core in cores
        }

        txn_bytes = {arch.dram_transaction_bytes for arch in system.arch}
        if len(txn_bytes) != 1:
            raise ValueError("heterogeneous DRAM transaction sizes are not supported")
        self._txn_bytes = txn_bytes.pop()
        trace_window = system.misc.trace_window_cycles if trace_bandwidth else None
        #: The counter registry (``observe=True``) and the span timeline
        #: every component records into (``observe`` or
        #: ``trace_requests``); ``None`` when off, so hot paths pay
        #: nothing.  Request logs need every span, so ``trace_requests``
        #: makes the rings unbounded.
        self.registry = CounterRegistry() if observe else None
        self.timeline: TimelineTracer | None = None
        if observe or trace_requests:
            self.timeline = TimelineTracer(
                capacity=None if trace_requests else DEFAULT_RING_CAPACITY,
                registry=self.registry,
            )
        self.dram = DramController(
            system.dram,
            self.engine,
            transaction_bytes=self._txn_bytes,
            channels_per_core={core: system.channels_for_core(core) for core in cores},
            trace_window_ticks=trace_window,
            timeline=self.timeline,
        )

        self.clocks = {
            core: ClockDomain(system.arch[core].freq_mhz, system.dram.freq_mhz)
            for core in cores
        }
        self.walkers = self._build_walker_pool()
        self.mmu = Mmu(
            {core: system.npumem[core] for core in cores},
            self.page_tables,
            self.walkers,
            shared_tlb=system.share_tlb and system.num_cores > 1,
            timeline=self.timeline,
        )

        # The compile phase: each core's frontend is resolved through the
        # process-level trace cache (a CompiledTrace on hit/compile, a
        # live stream-and-discard RequestGenerator when disabled or over
        # budget) before any event executes, so run() is pure replay.
        self.frontends: dict[int, TraceSource] = {
            core: trace_source(self.networks[core], system.arch[core])
            for core in cores
        }
        self.dmas = {
            core: DmaEngine(
                self.engine,
                core,
                self.mmu,
                self.dram,
                self.clocks[core],
                max_outstanding=system.dram.queue_depth,
                issue_per_cycle=system.arch[core].dma_issue_per_cycle,
                transaction_bytes=self._txn_bytes,
            )
            for core in cores
        }
        self.cores = {
            core: NpuCore(
                self.engine,
                core,
                self.frontends[core],
                self.dmas[core],
                self.clocks[core],
                self._iteration_done,
                timeline=self.timeline,
            )
            for core in cores
        }
        if self.registry is not None:
            self._register_counters(self.registry)
        self._ran = False
        #: Core -> last global tick at which it retired work (watchdog).
        self._last_progress: dict[int, int] = {core: 0 for core in cores}

    def _register_counters(self, registry: CounterRegistry) -> None:
        """Bind every component's stats into the counter registry.

        Purely pull-based: the registry holds read callables over the
        stat objects the components already maintain, evaluated only at
        snapshot time.
        """
        self.dram.register_counters(registry)
        self.mmu.register_counters(registry)
        self.walkers.register_counters(registry)
        for dma in self.dmas.values():
            dma.register_counters(registry)
        for core in self.cores.values():
            core.register_counters(registry)
        registry.bind_gauge("engine.now", lambda: self.engine.now)
        registry.bind_counter(
            "engine.events_processed", lambda: self.engine.events_processed
        )

    def _build_walker_pool(self) -> WalkerPool:
        system = self.system
        cores = range(system.num_cores)
        walk_in_dram = {cfg.walk_in_dram for cfg in system.npumem}
        if len(walk_in_dram) != 1:
            raise ValueError("walk_in_dram must be uniform across cores")
        capacity = system.total_ptw
        if system.share_ptw:
            upper = system.misc.ptw_upper_bound or capacity
            max_per_core = {core: upper for core in cores}
            reserved = {core: system.misc.ptw_lower_bound for core in cores}
        else:
            assert system.ptw_assignment is not None
            max_per_core = {core: system.ptw_assignment[core] for core in cores}
            reserved = dict(max_per_core)
        fixed = None
        dram = self.dram
        if not walk_in_dram.pop():
            dram = None
            fixed = {
                core: ClockDomain(
                    system.arch[core].freq_mhz, system.dram.freq_mhz
                ).to_global(system.npumem[core].walk_level_latency_cycles)
                for core in cores
            }
        return WalkerPool(
            self.engine,
            capacity,
            self.page_tables,
            dram=dram,
            fixed_level_ticks=fixed,
            max_per_core=max_per_core,
            reserved_per_core=reserved,
            pwc_entries={core: system.npumem[core].pwc_entries for core in cores},
            timeline=self.timeline,
        )

    # ------------------------------------------------------------------ #

    def _iteration_done(self, core_id: int) -> None:
        misc = self.system.misc
        if misc.iterations > 0:
            if self.cores[core_id].stats.completed_iterations >= misc.iterations:
                self.cores[core_id].halt()
            return
        # iterations == 0: co-runners loop until everyone finished once.
        if all(
            core.stats.first_completion_tick is not None
            for core in self.cores.values()
        ):
            for core in self.cores.values():
                core.halt()

    def _progress_marker(self) -> tuple[tuple[int, int], ...]:
        """Per-core retired-work counters; any change is forward progress."""
        return tuple(
            (core.stats.tiles_computed, core.stats.completed_iterations)
            for core in self.cores.values()
        )

    def diagnostics(self) -> list[CoreDiagnostics]:
        """Per-core progress/queue snapshot (stall reports, debugging)."""
        return [
            CoreDiagnostics(
                core=core_id,
                workload=self.networks[core_id].name,
                tiles_computed=core.stats.tiles_computed,
                completed_iterations=core.stats.completed_iterations,
                outstanding_dma=self.dmas[core_id].outstanding,
                queued_transfers=self.dmas[core_id].queued_transfers,
                outstanding_writes=core.outstanding_writes,
                walks_inflight=self.walkers.inflight[core_id],
                walks_queued=self.walkers.queued_for(core_id),
                last_progress_tick=self._last_progress.get(core_id, 0),
            )
            for core_id, core in sorted(self.cores.items())
        ]

    def _stall_error(self, message: str) -> SimulationStallError:
        return SimulationStallError(
            message,
            diagnostics=self.diagnostics(),
            total_ticks=self.engine.now,
            events_processed=self.engine.events_processed,
            dram_queue_depths=self.dram.queue_depths(),
        )

    def _run_watched(self, max_ticks: int | None, window: int) -> None:
        """Drive the engine in ``window``-sized slices with progress checks.

        Equivalent to one ``engine.run(until=max_ticks)`` call — slicing
        never reorders events — but between slices the watchdog compares
        retired-work counters: a full window of event activity with no
        core retiring anything is a livelock, reported immediately with
        diagnostics instead of after tens of billions of wasted ticks.
        """
        engine = self.engine
        marker = self._progress_marker()
        last_change = engine.now
        while True:
            next_time = engine.next_time()
            if next_time is None:
                return
            if max_ticks is not None and next_time > max_ticks:
                return
            horizon = next_time + window
            if max_ticks is not None:
                horizon = min(horizon, max_ticks)
            engine.run(until=horizon)
            current = self._progress_marker()
            if current != marker:
                now = engine.now
                for core_id, (was, is_now) in enumerate(zip(marker, current)):
                    if was != is_now:
                        self._last_progress[core_id] = now
                marker = current
                last_change = now
            elif engine.now - last_change >= window:
                raise self._stall_error(
                    f"no core retired work for {engine.now - last_change} "
                    f"ticks (watchdog window {window}); the simulation is "
                    "livelocked"
                )

    def run(self, max_ticks: int | None = None) -> MixResult:
        """Run the co-simulation to completion and collect results."""
        if self._ran:
            raise SimulatorReuseError(
                "a simulator instance runs once; build a new one"
            )
        self._ran = True
        misc = self.system.misc
        for core_id, core in self.cores.items():
            core.start(misc.start_cycle + core_id * misc.start_stagger_cycles)
        if self.stall_window_ticks is None:
            self.engine.run(until=max_ticks)
        else:
            self._run_watched(max_ticks, self.stall_window_ticks)
        results = []
        for core_id, core in sorted(self.cores.items()):
            stats = core.stats
            if stats.first_completion_tick is None:
                raise self._stall_error(
                    f"core {core_id} never completed an iteration "
                    f"(simulated {self.engine.now} ticks); raise max_ticks or "
                    "check the configuration"
                )
            ticks = stats.first_completion_tick - stats.start_tick
            clock = self.clocks[core_id]
            cycles = clock.to_local(ticks)
            frontend = self.frontends[core_id]
            network = self.networks[core_id]
            first_iter_macs = network.total_macs
            busy_local = min(stats.compute_busy_local, cycles)
            walk_stats = self.walkers.stats[core_id]
            mmu_stats = self.mmu.stats[core_id]
            summary = frontend.summary()
            layer_cycles = tuple(
                clock.to_local(end - begin)
                for _, (begin, end) in sorted(stats.layer_spans.items())
            )
            results.append(
                WorkloadResult(
                    workload=network.name,
                    core=core_id,
                    cycles=cycles,
                    ticks=ticks,
                    pe_utilization=first_iter_macs
                    / (cycles * self.system.arch[core_id].num_pes),
                    compute_occupancy=busy_local / cycles if cycles else 0.0,
                    traffic_bytes=int(summary["traffic_bytes"]),
                    tlb_lookups=mmu_stats.lookups,
                    tlb_misses=mmu_stats.misses,
                    walks=walk_stats.walks,
                    avg_walk_ticks=walk_stats.avg_walk_ticks(),
                    avg_walk_queue_ticks=walk_stats.avg_queue_ticks(),
                    completed_iterations=stats.completed_iterations,
                    layer_cycles=layer_cycles,
                )
            )
        utilization: dict[int, list[tuple[int, float]]] = {}
        if self.dram.traces is not None:
            for core_id, trace in self.dram.traces.items():
                peak = self.dram.peak_bytes_per_tick(None)
                utilization[core_id] = trace.utilization_series(peak)
        counters = None
        if self.timeline is not None:
            # Layer activity windows are accumulated in CoreStats during
            # the run; emit them as spans once, now that they are final.
            for core_id, core in sorted(self.cores.items()):
                layers = self.networks[core_id].layers
                for index, (begin, end) in sorted(core.stats.layer_spans.items()):
                    name = layers[index].name if index < len(layers) else f"L{index}"
                    self.timeline.log_layer(begin, end, core_id, index, name)
        if self.registry is not None:
            counters = self.registry.snapshot()
        return MixResult(
            workloads=tuple(results),
            dram=self.dram.stats,
            total_ticks=self.engine.now,
            bandwidth_utilization=utilization,
            counters=counters,
        )
