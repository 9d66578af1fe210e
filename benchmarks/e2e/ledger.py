"""Host-time ledger: where a benchmark child process spends its wall time.

``child.py`` builds one :class:`Ledger` per process.  Untraced, it only
times ``MultiCoreNPUSim.run`` -- one public call per simulated spec.
Traced, it wraps the public entry points of every ``src/repro`` layer at
class (or module) level, from this file, before any simulator is built:

* each callback scheduled through ``Engine.at`` is timed and charged to
  its owner's module -- ``fn.__self__``'s class, else the function's own
  module (the lambdas of ``DmaEngine`` and ``NpuCore``);
* calls that cross a layer synchronously open a frame of the callee's
  layer: ``DramController.submit``, ``Mmu.probe``/``miss``,
  ``WalkerPool.walk``, ``DmaEngine.transfer`` and the continuations they
  are handed (``on_complete`` carries ``NpuCore``'s tile pipeline);
* coarse frames (``cli.main``, ``run_many``, simulator build and run,
  shard reads and writes, figure planning and reduction) also become
  timeline spans.

Frames nest on a per-thread stack, so a layer's *self* time excludes the
frames it opened.  After every ``MultiCoreNPUSim.run`` the process
appends one JSON line to ``<records>/<tag>.<pid>.jsonl`` with the run's
engine events, ticks and host time -- traced, also its public simulated
counters, the ledger accumulated since the previous line and the split
of its callbacks over DNN layers.  A traced process appends a last line
when it exits.  Forked pool workers inherit the wrappers and write their
own files.
"""

from __future__ import annotations

import json
import os
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import MethodType

perf = time.perf_counter_ns


def layer_name(module: str) -> str:
    """``repro.core.dma`` -> ``core.dma`` (the ledger's layer names)."""
    return module[len("repro.") :] if module.startswith("repro.") else module


class _Thread:
    """One thread's frame stack and accumulators; only that thread writes."""

    __slots__ = ("stack", "self_ns", "total_ns", "calls", "root_ns", "spans")

    def __init__(self) -> None:
        #: Child time of each open frame, innermost last.
        self.stack: list[int] = []
        self._fresh()

    def _fresh(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.root_ns = 0
        self.spans: list[tuple[str, int, int, int]] = []

    def drain(self) -> dict:
        """Hand over the accumulators and start new ones."""
        taken = {
            "self_ns": self.self_ns,
            "total_ns": self.total_ns,
            "calls": self.calls,
            "root_ns": self.root_ns,
            "spans": self.spans,
        }
        self._fresh()
        return taken

    def close(self, key: str, elapsed: int) -> None:
        """Account the innermost frame, which ran for ``elapsed`` ns."""
        stack = self.stack
        child = stack.pop()
        self.self_ns[key] += elapsed - child
        self.total_ns[key] += elapsed
        self.calls[key] += 1
        if stack:
            stack[-1] += elapsed
        else:
            self.root_ns += elapsed


class _Bins:
    """Callback events and host ns of one simulation, per core and tick.

    Engine time never goes backwards, so each core's ticks arrive sorted
    and are kept run-length encoded; :meth:`split` bins them by the
    core's ``CoreStats.layer_spans`` once the run is over.
    """

    def __init__(self, cores: int) -> None:
        self.ticks = [array("q") for _ in range(cores)]
        self.events = [array("q") for _ in range(cores)]
        self.ns = [array("q") for _ in range(cores)]
        self.shared = [0, 0]

    def add(self, core: int, tick: int, elapsed: int) -> None:
        if core < 0:
            self.shared[0] += 1
            self.shared[1] += elapsed
            return
        ticks = self.ticks[core]
        if ticks and ticks[-1] == tick:
            self.events[core][-1] += 1
            self.ns[core][-1] += elapsed
        else:
            ticks.append(tick)
            self.events[core].append(1)
            self.ns[core].append(elapsed)

    def split(self, sim) -> dict:
        """Per core, ``[layer, name, events, ns]`` rows and what fell outside.

        Adjacent layers overlap by a few ticks (double buffering); a tick
        in the overlap goes to the later layer.  Ticks outside every span
        (later iterations, gaps) are reported as ``outside``.
        """
        import numpy as np

        cores = []
        for core, npu in sorted(sim.cores.items()):
            network = sim.networks[core]
            spans = sorted(npu.stats.layer_spans.items(), key=lambda item: item[1])
            ticks = np.frombuffer(self.ticks[core], dtype=np.int64)
            events = np.frombuffer(self.events[core], dtype=np.int64)
            ns = np.frombuffer(self.ns[core], dtype=np.int64)
            begins = np.array([span[0] for _, span in spans], dtype=np.int64)
            ends = np.array([span[1] for _, span in spans], dtype=np.int64)
            slot = np.searchsorted(begins, ticks, side="right") - 1
            inside = slot >= 0
            inside[inside] = ticks[inside] <= ends[slot[inside]]
            width = len(spans)
            count = np.bincount(slot[inside], events[inside], minlength=width)
            host = np.bincount(slot[inside], ns[inside], minlength=width)
            rows = [
                [index, network.layers[index].name, int(count[at]), int(host[at])]
                for at, (index, _) in enumerate(spans)
            ]
            cores.append(
                {
                    "core": core,
                    "workload": network.name,
                    "layers": rows,
                    "outside": [int(events[~inside].sum()), int(ns[~inside].sum())],
                }
            )
        return {"cores": cores, "shared": list(self.shared)}


def _core_attr(obj) -> str | None:
    """Attribute naming the core a per-core component belongs to."""
    from repro.core.dma import DmaEngine
    from repro.core.npu_core import NpuCore

    if isinstance(obj, DmaEngine):
        return "core"
    if isinstance(obj, NpuCore):
        return "core_id"
    return None


def _counters(sim) -> dict[str, int]:
    """The simulated counters of one finished run, from public stats."""
    dmas = list(sim.dmas.values())
    dram = sim.dram.stats
    tlbs = sim.mmu.stats.values()
    walks = sim.walkers.stats.values()
    return {
        "dma_txns": sum(dma.stats.total_txns for dma in dmas),
        "dma_stall_events": sum(dma.stats.stall_events for dma in dmas),
        "row_hits": dram.row_hits,
        "row_misses": dram.row_misses,
        "queueing_ticks": dram.queueing_ticks_total,
        "tlb_lookups": sum(stats.lookups for stats in tlbs),
        "tlb_hits": sum(stats.hits for stats in tlbs),
        "walks": sum(stats.walks for stats in walks),
        "walk_queue_ticks": sum(stats.queue_ticks_total for stats in walks),
        "tiles": sum(core.stats.tiles_computed for core in sim.cores.values()),
        "fast_forwarded_ticks": sum(
            dma.rstats.fast_forwarded_ticks for dma in dmas if hasattr(dma, "rstats")
        ),
    }


class Ledger:
    """Per-process frame accounting and the JSON-lines record sink."""

    def __init__(self, records: Path, tag: str, *, traced: bool) -> None:
        self.records = records
        self.tag = tag
        self.traced = traced
        self.main_pid = os.getpid()
        #: Bins of the simulation currently running in this process.
        self.bins: _Bins | None = None
        self._reset()
        self._timed_code = self.timed("", None).__code__
        self._by_type: dict[type, tuple[str, str | None]] = {}
        self._by_code: dict[object, tuple[str, int | None, str | None]] = {}
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        """Start empty; a forked child leaves its parent's frames behind."""
        self._local = threading.local()
        self._threads: list[_Thread] = []
        self._register = threading.Lock()
        #: ``(source, ns)`` of every ``SweepService.submit`` call.
        self.submits: list[tuple[str, int]] = []

    def current(self) -> _Thread:
        try:
            return self._local.thread
        except AttributeError:
            thread = self._local.thread = _Thread()
            with self._register:
                self._threads.append(thread)
            return thread

    # ------------------------------------------------------------------ #
    # Frames
    # ------------------------------------------------------------------ #

    def timed(self, key: str, fn, *, span: bool = False):
        """``fn`` wrapped in a frame charged to ``key`` (``layer:entry``)."""
        current = self.current

        def timed(*args, **kwargs):
            thread = current()
            thread.stack.append(0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                thread.close(key, elapsed)
                if span:
                    thread.spans.append((key, threading.get_ident(), start, elapsed))

        timed.__wrapped__ = fn
        return timed

    @contextmanager
    def _frame(self, key: str):
        thread = self.current()
        thread.stack.append(0)
        start = perf()
        try:
            yield
        finally:
            elapsed = perf() - start
            thread.close(key, elapsed)
            thread.spans.append((key, threading.get_ident(), start, elapsed))

    def frame(self, key: str):
        """A coarse frame around a ``with`` block (a no-op untraced)."""
        return self._frame(key) if self.traced else nullcontext()

    def continuation(self, fn):
        """Frame a callable handed across a layer, charged to its own module."""
        return self.timed(f"{layer_name(fn.__module__)}:continuation", fn)

    def _owner(self, fn) -> tuple[str, int]:
        """``(ledger key, core or -1)`` of a callback about to be scheduled."""
        if type(fn) is not MethodType and fn.__code__ is self._timed_code:
            fn = fn.__wrapped__
        if type(fn) is MethodType:
            owner = fn.__self__
            info = self._by_type.get(type(owner))
            if info is None:
                key = f"{layer_name(type(owner).__module__)}:callback"
                info = self._by_type[type(owner)] = (key, _core_attr(owner))
            key, attr = info
            return key, getattr(owner, attr) if attr else -1
        info = self._by_code.get(fn.__code__)
        if info is None:
            key, cell, attr = f"{layer_name(fn.__module__)}:callback", None, None
            for index, holder in enumerate(fn.__closure__ or ()):
                attr = _core_attr(holder.cell_contents)
                if attr is not None:
                    cell = index
                    break
            info = self._by_code[fn.__code__] = (key, cell, attr)
        key, cell, attr = info
        if cell is None:
            return key, -1
        return key, getattr(fn.__closure__[cell].cell_contents, attr)

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Wrap the layers' entry points; call before building a simulator."""
        from repro.core.simulator import MultiCoreNPUSim

        if not self.traced:
            run = MultiCoreNPUSim.run

            def timed_run(sim, *args, **kwargs):
                start = perf()
                result = run(sim, *args, **kwargs)
                self._record(sim, result, perf() - start)
                return result

            MultiCoreNPUSim.run = timed_run
            return
        with self._frame("trace:install"):
            self._install_traced()

    def _install_traced(self) -> None:
        from repro import storage
        from repro.compute import tracecache
        from repro.core import simulator
        from repro.core.dma import DmaEngine
        from repro.core.engine import Engine
        from repro.core.npu_core import NpuCore
        from repro.dram.controller import DramController
        from repro.experiments import figures
        from repro.experiments.runner import ExperimentRunner
        from repro.mmu.mmu import Mmu
        from repro.mmu.ptw import WalkerPool
        from repro.serve.server import SweepService

        timed = self.timed
        sim_class = simulator.MultiCoreNPUSim
        for cls, key in (
            (sim_class, "core.simulator:build"),
            (DmaEngine, "core.dma:build"),
            (NpuCore, "core.npu_core:build"),
            (DramController, "dram.controller:build"),
            (Mmu, "mmu.mmu:build"),
            (WalkerPool, "mmu.ptw:build"),
        ):
            cls.__init__ = timed(key, cls.__init__, span=cls is sim_class)

        # The event loop: every scheduled callback becomes a frame.
        schedule = Engine.at
        current = self.current
        owner = self._owner

        def at(engine, when, fn):
            key, core = owner(fn)
            thread = current()
            bins = self.bins

            def callback():
                thread.stack.append(0)
                start = perf()
                try:
                    fn()
                finally:
                    elapsed = perf() - start
                    thread.close(key, elapsed)
                    if bins is not None:
                        bins.add(core, when, elapsed)

            schedule(engine, when, callback)

        Engine.at = at
        Engine.run = timed("core.engine:run", Engine.run)

        # Synchronous calls across layers, and the continuations they carry.
        relay = self.continuation
        transfer, miss, walk = DmaEngine.transfer, Mmu.miss, WalkerPool.walk
        DmaEngine.transfer = timed(
            "core.dma:transfer",
            lambda dma, runs, on_complete: transfer(dma, runs, relay(on_complete)),
        )
        DramController.submit = timed("dram.controller:submit", DramController.submit)
        Mmu.probe = timed("mmu.mmu:probe", Mmu.probe)
        Mmu.miss = timed(
            "mmu.mmu:miss",
            lambda mmu, core, vaddr, done: miss(mmu, core, vaddr, relay(done)),
        )
        WalkerPool.walk = timed(
            "mmu.ptw:walk",
            lambda pool, core, vpn, done: walk(pool, core, vpn, relay(done)),
        )
        simulator.plan_replay = timed("core.replay:plan", simulator.plan_replay)

        # Frontend compile, shard I/O, the runner and the figure layer.
        cache = tracecache.TraceCache
        cache.get = timed("compute.tracecache:get", cache.get)
        tracecache.compile_trace = timed(
            "compute.tracecache:compile", tracecache.compile_trace, span=True
        )
        store = storage.ShardStore
        store.write = timed("storage:write", store.write, span=True)
        read = store.read_validated

        def read_validated(shards, name, validate):
            value = read(shards, name, validate)
            if value is not None:
                current().calls["storage:read_hit"] += 1
            return value

        store.read_validated = timed("storage:read", read_validated, span=True)
        ExperimentRunner.run_many = timed(
            "experiments.runner:run_many", ExperimentRunner.run_many, span=True
        )
        for name, fn in list(vars(figures).items()):
            if name.startswith("_") or isinstance(fn, type) or not callable(fn):
                continue
            if getattr(fn, "__module__", None) != figures.__name__:
                continue
            entry = "plan" if name.endswith("_specs") else "reduce"
            setattr(figures, name, timed(f"experiments.figures:{entry}", fn, span=True))

        submit = SweepService.submit

        def recorded_submit(service, *args, **kwargs):
            start = perf()
            future, source = submit(service, *args, **kwargs)
            self.submits.append((source, perf() - start))
            return future, source

        SweepService.submit = timed("serve.server:submit", recorded_submit)

        framed_run = timed("core.simulator:run", sim_class.run, span=True)

        def traced_run(sim, *args, **kwargs):
            self.bins = _Bins(len(sim.cores))
            start = perf()
            try:
                result = framed_run(sim, *args, **kwargs)
            finally:
                bins, self.bins = self.bins, None
            elapsed = perf() - start
            with self._frame("trace:flush"):
                self._record(sim, result, elapsed, bins)
            return result

        sim_class.run = traced_run

    # ------------------------------------------------------------------ #
    # Records
    # ------------------------------------------------------------------ #

    def _write(self, record: dict) -> None:
        record["pid"] = os.getpid()
        record["main"] = record["pid"] == self.main_pid
        path = self.records / f"{self.tag}.{record['pid']}.jsonl"
        with open(path, "a", encoding="utf-8") as sink:
            sink.write(json.dumps(record) + "\n")

    def _record(self, sim, result, elapsed: int, bins: _Bins | None = None) -> None:
        record = {
            "kind": "sim",
            "events": sim.engine.events_processed,
            "ticks": result.total_ticks,
            "run_ns": elapsed,
        }
        if bins is not None:
            record["counters"] = _counters(sim)
            record["dnn"] = bins.split(sim)
            record["ledger"] = self.current().drain()
        self._write(record)

    def close(self) -> None:
        """Flush what every thread accumulated since its last record."""
        if not self.traced:
            return
        merged: dict = {"self_ns": {}, "total_ns": {}, "calls": {}}
        root_ns, spans = 0, []
        for thread in self._threads:
            taken = thread.drain()
            for field, totals in merged.items():
                for key, value in taken[field].items():
                    totals[key] = totals.get(key, 0) + value
            root_ns += taken["root_ns"]
            spans += taken["spans"]
        merged.update(root_ns=root_ns, spans=spans)
        self._write({"kind": "exit", "ledger": merged, "submits": self.submits})
