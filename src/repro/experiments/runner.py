"""Cached, supervised experiment executor built around :class:`RunSpec`.

Every figure of the paper reduces to a fan-out of independent solo/mix
simulations (see :mod:`repro.experiments.spec` for the taxonomy).  The
runner's job is to execute such fan-outs efficiently *and to survive
them*:

* :meth:`ExperimentRunner.run` — execute one spec, cache-first;
* :meth:`ExperimentRunner.run_many` — deduplicate a batch of specs,
  satisfy cache hits, then shard the cold runs across a supervised
  ``ProcessPoolExecutor`` (``jobs`` workers), writing one cache shard per
  completed run and reporting progress/ETA through a pluggable callback.

Supervision (the fault-tolerance layer):

* **Per-run timeouts** — each worker arms a SIGALRM wall-clock budget
  (``run_timeout``); the parent additionally hard-kills the pool when a
  worker overshoots the budget plus a grace period, so even a worker
  stuck in uninterruptible simulation code cannot wedge a sweep.
* **Bounded retries with backoff** — retriable failures (killed worker
  processes, :class:`TransientWorkerError`) are requeued up to
  ``max_attempts`` executions with exponential backoff.  After a pool
  breakage the formerly in-flight specs re-run *one at a time* so a
  recurring crash is attributed to the spec that causes it instead of
  burning the attempts of innocent co-runners.
* **Failure isolation** — a spec that exhausts its attempts (or fails
  deterministically) becomes a structured :class:`RunFailure` in
  ``runner.failures`` instead of aborting the batch; every other spec
  still completes and is cached.
* **Crash-safe cache** — shards are written atomically (unique temp file
  + ``os.replace``) with a checksum sidecar; shards that fail validation
  on read (truncated JSON, descriptor/results-version mismatch, checksum
  mismatch) are quarantined to ``<cache_dir>/quarantine/`` with a logged
  warning and transparently re-run.
* **Sweep journal** — every sweep appends to ``<cache_dir>/journal.jsonl``
  (one JSON object per line: submissions, completions, retries,
  failures, quarantines).  Because results are cache-first, re-running an
  interrupted sweep re-executes only the missing specs — the journal
  records what happened, the cache makes resume automatic.

Workers rebuild the whole simulation from the spec alone (plus the
pickled network topologies), so parallel, serial, and retried execution
produce byte-identical cache files and results.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import logging
import os
import random
import signal
import time
import traceback as traceback_module
from collections import deque
from contextlib import nullcontext
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.compute import tracecache
from repro.obs.profiling import PhaseProfiler
from repro.storage import (
    QUARANTINE_DIR,
    ShardStore,
    encode_result_shard,
)
from repro.errors import (
    DEFAULT_MAX_TICKS,
    DEFAULT_STALL_WINDOW_TICKS,
    RunFailedError,
    RunFailure,
    RunTimeoutError,
    SimulationStallError,
    SweepOutcome,
    TransientWorkerError,
)
from repro.experiments import faults as faults_module
from repro.experiments.spec import RESULTS_VERSION, RunSpec
from repro.models import serving as serving_module
from repro.models import zoo

if TYPE_CHECKING:
    # The pool machinery loads only when a pool is made, and the
    # simulator only before the first spec runs (``freeze_heap``).
    from concurrent.futures import ProcessPoolExecutor

    from repro.core.simulator import WorkloadResult

__all__ = [
    "DEFAULT_MAX_TICKS",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_RETRY_BACKOFF",
    "QUARANTINE_DIR",
    "RESULTS_VERSION",
    "ExperimentRunner",
    "RunFailedError",
    "RunFailure",
    "RunProgress",
    "RunSpec",
    "SweepJournal",
    "SweepOutcome",
]

_LOG = logging.getLogger("repro.experiments.runner")

#: Executions (first try + retries) a retriable spec may consume.
DEFAULT_MAX_ATTEMPTS = 3

#: Base of the exponential retry backoff, in seconds.
DEFAULT_RETRY_BACKOFF = 0.5

#: Default jitter fraction applied to each backoff sleep.  A sleep of
#: ``base`` becomes ``base * (1 + U[0, jitter])`` so a fleet of retrying
#: specs (or serve clients resubmitting after a pool crash) decorrelates
#: instead of thundering back in lockstep.
DEFAULT_RETRY_JITTER = 0.25

#: Longest single backoff sleep, in seconds.
MAX_BACKOFF_SECONDS = 30.0

#: Extra wall-clock slack the parent grants past ``run_timeout`` before
#: hard-killing a worker whose SIGALRM apparently never fired.
TIMEOUT_GRACE_SECONDS = 5.0

#: How often the parent wakes to check for overdue workers.
_POLL_INTERVAL_SECONDS = 0.25

#: File name of the sweep journal inside the cache directory.
JOURNAL_NAME = "journal.jsonl"

#: Subdirectory of the result cache holding compiled-trace shards.
TRACE_DIR_NAME = "traces"

#: Sentinel distinguishing "argument omitted" from an explicit ``None``
#: for per-call overrides of runner-level defaults (``run_timeout``).
_UNSET: Any = object()


def _init_worker(directory: str, ignore_sigterm: bool) -> None:
    """Pool initializer: the worker's SIGTERM action, and the shared
    trace store.

    A forked worker would inherit the parent's SIGTERM handler, and the
    CLI's SIGTERM-to-KeyboardInterrupt mapping would make an idle worker
    print a traceback when :func:`_terminate_pool` stops it.  So a
    batch pool's worker takes the default action and dies with its
    process group.  A persistent pool's worker (``keep_pool``, the serve
    daemon) ignores SIGTERM instead: a supervisor that signals the whole
    group must not kill a run that the daemon's drain lets settle.  Its
    owner stops it, by :meth:`ExperimentRunner.close` or by
    :func:`_terminate_pool`, which kills with SIGKILL.

    Under the default ``fork`` start method workers additionally inherit
    the parent's warmed in-process memo, so they rarely touch the disk
    level at all; under ``spawn``/``forkserver`` they load the shards the
    parent published during planning instead of recompiling.
    """
    signal.signal(
        signal.SIGTERM, signal.SIG_IGN if ignore_sigterm else signal.SIG_DFL
    )
    tracecache.configure(directory=Path(directory))


def _result_dict(result: WorkloadResult) -> dict[str, Any]:
    payload = dataclasses.asdict(result)
    # Normalize to JSON-stable types so fresh and cached results compare equal.
    payload["layer_cycles"] = list(payload["layer_cycles"])
    return payload


def _execute_spec(
    spec: RunSpec,
    networks: Sequence[Any],
    max_ticks: int,
    stall_window: int | None = None,
) -> list[dict[str, Any]]:
    """Run one spec to completion (no supervision — the bare simulation).

    Deliberately a module-level function of picklable arguments: workers
    reconstruct the simulator purely from the spec plus the network
    topologies, so results cannot depend on parent-process state.

    A finished simulator is a web of reference cycles (engine, channels,
    callbacks, generators) that only a rare full collection would free,
    so it is dropped and collected here, before the next spec allocates.
    """
    from repro.core.simulator import MultiCoreNPUSim

    sim = MultiCoreNPUSim(
        spec.system(), list(networks), stall_window_ticks=stall_window
    )
    rows = [_result_dict(result) for result in sim.run(max_ticks=max_ticks).workloads]
    del sim
    gc.collect()
    return rows


def _supervised_execute(
    spec: RunSpec,
    networks: Sequence[Any],
    max_ticks: int,
    *,
    stall_window: int | None = None,
    timeout: float | None = None,
    attempt: int = 1,
    fault: "faults_module.Fault | None" = None,
    in_pool: bool = False,
) -> list[dict[str, Any]]:
    """The supervised worker entry point: fault hook + wall-clock budget.

    When ``timeout`` is set, a SIGALRM interval timer bounds the whole
    execution; the handler raises :class:`RunTimeoutError` from wherever
    the simulation happens to be.  This relies on workers running tasks
    in their main thread (true for ``ProcessPoolExecutor`` workers and
    for serial in-process execution).
    """
    def execute() -> list[dict[str, Any]]:
        if fault is not None:
            faults_module.trigger(
                fault, spec, tuple(networks), attempt=attempt,
                timeout=timeout, in_pool=in_pool,
            )
        return _execute_spec(spec, networks, max_ticks, stall_window)

    if timeout is None:
        return execute()

    def on_alarm(signum: int, frame: Any) -> None:
        raise RunTimeoutError(
            f"run exceeded {timeout:.1f}s wall clock: {spec.label}"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return execute()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _failure_kind(error: BaseException) -> str:
    """Classify a terminal exception for :class:`RunFailure.kind`."""
    if isinstance(error, RunTimeoutError):
        return "timeout"
    if isinstance(error, SimulationStallError):
        return "stall"
    if isinstance(error, (TransientWorkerError, BrokenExecutor)):
        return "crash"
    return "error"


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when its workers are stuck in simulation.

    ``shutdown`` alone waits on workers that may never look at the call
    queue again, so kill the processes first, with SIGKILL because a
    persistent pool's workers ignore SIGTERM (:func:`_init_worker`).
    ``_processes`` is CPython implementation detail; guarded so exotic
    executors degrade to a plain shutdown.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            if process.is_alive():
                process.kill()
        except Exception:  # pragma: no cover - racing process exit
            pass
    pool.shutdown(wait=True, cancel_futures=True)


class SweepJournal:
    """Append-only JSONL record of sweep execution events.

    One JSON object per line, each with an ``event`` tag and a wall-clock
    ``ts``.  Journaling is strictly best-effort: a full disk or read-only
    cache must never take down the sweep itself, so write errors are
    swallowed, and :meth:`read` skips lines truncated by a crash.
    """

    def __init__(self, path: Path) -> None:
        self.path = path

    def append(self, event: str, **fields: Any) -> None:
        """Record one event; silently drops the record on OS errors."""
        record = {"event": event, "ts": round(time.time(), 3), **fields}
        try:
            with self.path.open("a", encoding="utf-8") as handle:
                # A crash mid-append leaves a torn line with no trailing
                # newline; writing onto it would glue this record to the
                # garbage and lose both.  Start on a fresh line instead —
                # the torn line stays skippable, this record stays whole.
                if handle.tell() > 0:
                    with self.path.open("rb") as reader:
                        reader.seek(-1, os.SEEK_END)
                        if reader.read(1) != b"\n":
                            handle.write("\n")
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError:  # pragma: no cover - depends on filesystem state
            pass

    def read(self) -> list[dict[str, Any]]:
        """Every parseable record, oldest first.

        A crash mid-append leaves a truncated final line (the journal is
        plain appended JSONL, deliberately not atomic); resume must shrug
        that off, so unparseable lines are skipped with a warning rather
        than raised — losing one journal record never loses any results,
        which live in the content-addressed shard store.
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return []
        records = []
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                _LOG.warning(
                    "sweep journal %s: skipping unparseable line %d "
                    "(crash mid-write?)",
                    self.path,
                    number,
                )
                continue
            if isinstance(record, dict):
                records.append(record)
        return records


@dataclass(frozen=True)
class RunProgress:
    """One progress event from :meth:`ExperimentRunner.run_many`.

    ``completed`` counts specs whose outcome is settled (cache hits and
    failures included); ``eta_seconds`` extrapolates from the cold runs
    settled so far and is ``None`` until the first one lands.
    """

    completed: int
    total: int
    cache_hits: int
    spec: RunSpec | None
    elapsed_seconds: float
    eta_seconds: float | None
    failed: int = 0


#: Signature of the pluggable progress reporter.
ProgressCallback = Callable[[RunProgress], None]


class ExperimentRunner:
    """Executes (supervises, caches) the simulations behind every figure."""

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        max_ticks: int = DEFAULT_MAX_TICKS,
        jobs: int = 1,
        progress: ProgressCallback | None = None,
        *,
        run_timeout: float | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
        retry_jitter: float = DEFAULT_RETRY_JITTER,
        retry_budget: float | None = None,
        stall_window_ticks: int | None = DEFAULT_STALL_WINDOW_TICKS,
        fault_plan: "faults_module.FaultPlan | None" = None,
        journal: bool = True,
        profile: bool = False,
        keep_pool: bool = False,
    ) -> None:
        """``run_timeout`` bounds each run's wall clock (seconds, ``None``
        = unbounded); ``max_attempts`` caps executions per retriable spec;
        ``retry_jitter`` randomizes each backoff sleep by up to that
        fraction (0 restores the deterministic exponential schedule);
        ``retry_budget`` caps the total wall clock (seconds) a single
        spec may spend across all its attempts *and* backoff sleeps —
        once exceeded the spec fails terminally instead of retrying;
        ``stall_window_ticks`` arms the engine stall watchdog (``None``
        disables it); ``fault_plan`` injects deterministic failures for
        testing; ``journal=False`` turns off the sweep journal;
        ``keep_pool=True`` keeps the supervised worker pool alive across
        :meth:`run_many` batches (the ``mnpusim serve`` daemon's warm
        pool — call :meth:`close` when done; a broken pool is still
        rebuilt transparently); ``profile=True`` arms :attr:`profiler` (a
        :class:`~repro.obs.profiling.PhaseProfiler`) so runs and sweeps
        account per-phase wall time — cache reads, frontend compilation,
        simulation, cache writes — surfaced by ``mnpusim profile`` and a
        ``profile`` sweep-journal event.  ``cache_write`` time is spent
        inside the ``execute`` window (shards are stored as runs settle),
        so phase times overlap and need not sum to the elapsed total.
        """
        self.max_ticks = max_ticks
        self.jobs = max(1, jobs)
        self.progress = progress
        self.run_timeout = run_timeout
        self.max_attempts = max(1, max_attempts)
        self.retry_backoff = max(0.0, retry_backoff)
        self.retry_jitter = max(0.0, retry_jitter)
        self.retry_budget = retry_budget
        self.keep_pool = keep_pool
        self._pool: ProcessPoolExecutor | None = None
        self.stall_window_ticks = stall_window_ticks
        self.fault_plan = fault_plan
        if cache_dir is None:
            cache_dir = Path.cwd() / ".repro_cache"
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._result_store = ShardStore(
            self.cache_dir, on_quarantine=self._on_result_quarantine
        )
        self.trace_dir = self.cache_dir / TRACE_DIR_NAME
        # The compile phase resolves through the process-level cache; the
        # runner points its disk level under its own cache directory so
        # result shards and trace shards travel together.
        tracecache.configure(directory=self.trace_dir)
        self.journal: SweepJournal | None = (
            SweepJournal(self.cache_dir / JOURNAL_NAME) if journal else None
        )
        #: Wall-time phase accounting (``profile=True``); ``None`` when off.
        self.profiler: PhaseProfiler | None = PhaseProfiler() if profile else None
        self.runs_executed = 0
        self.cache_hits = 0
        self.quarantined = 0
        #: Trace-cache counter deltas of the most recent planning pass.
        self.last_trace_stats: tracecache.TraceCacheStats | None = None
        #: Spec -> terminal failure record, from this runner's lifetime.
        self.failures: dict[RunSpec, RunFailure] = {}
        #: Aggregate of the most recent :meth:`run_many` batch.
        self.last_outcome: SweepOutcome | None = None
        self._networks: dict[str, Any] = {}
        # Injectable for tests: supervision sleeps (backoff) route here,
        # and backoff jitter draws from this RNG.
        self._sleep: Callable[[float], None] = time.sleep
        self._random = random.Random()

    def register_network(self, network: Any) -> None:
        """Make a non-zoo network (e.g. a random net) runnable by name.

        Registered names shadow zoo names, so keep them distinct.  Cache
        entries are keyed by name: a registered network must always carry
        the same topology for its name (random nets are seed-named, which
        guarantees this).  Registered topologies are pickled to the
        worker processes of :meth:`run_many`, so they work there too.
        """
        self._networks[network.name] = network

    def _network_for(self, spec: RunSpec, name: str) -> Any:
        """Resolve one of ``spec``'s workloads to its topology.

        Registered networks shadow everything (as before); serving
        names (``gpt2:prefill``, or a bare base under ``spec.phase``)
        build their schedule-unrolled networks from the spec's serving
        parameters; everything else falls back to the zoo at the spec's
        scale.
        """
        if name in self._networks:
            return self._networks[name]
        network = serving_module.resolve(
            name,
            spec.scale,
            params=spec.serving,
            default_phase=spec.phase,
        )
        if network is not None:
            return network
        return zoo.get(name, spec.scale)

    def _networks_for(self, spec: RunSpec) -> list[Any]:
        return [self._network_for(spec, name) for name in spec.workloads]

    # ------------------------------------------------------------------ #
    # Pool lifecycle (persistent under ``keep_pool=True``)
    # ------------------------------------------------------------------ #

    def _make_pool(self, workers: int) -> ProcessPoolExecutor:
        # Imported here so in-process (``jobs=1``) runs never load
        # ``concurrent.futures.process`` and ``multiprocessing``.
        from concurrent.futures import ProcessPoolExecutor

        from repro.core.simulator import freeze_heap

        freeze_heap()
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(str(self.trace_dir), self.keep_pool),
        )

    def _acquire_pool(self, workers: int) -> ProcessPoolExecutor:
        """The pool a batch executes on.

        With ``keep_pool`` the runner owns one long-lived pool sized to
        ``self.jobs`` (idle workers are cheap; a warm pool saves the
        daemon a fork storm per request); otherwise each batch gets a
        right-sized throwaway pool, as before.
        """
        if not self.keep_pool:
            return self._make_pool(workers)
        if self._pool is None:
            self._pool = self._make_pool(self.jobs)
        return self._pool

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        """Tear ``pool`` down; forget it if it was the persistent one."""
        if pool is self._pool:
            self._pool = None
        _terminate_pool(pool)

    def close(self) -> None:
        """Release the persistent worker pool (no-op when none is live)."""
        if self._pool is not None:
            self._discard_pool(self._pool)

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Cache plumbing (crash-safe, delegated to repro.storage.ShardStore)
    # ------------------------------------------------------------------ #

    def _on_result_quarantine(self, name: str, reason: str) -> None:
        self.quarantined += 1
        self._journal("quarantine", shard=name, reason=reason)

    def _shard_name(self, spec: RunSpec) -> str:
        return f"{spec.cache_key()}.json"

    def _cache_path(self, spec: RunSpec) -> Path:
        return self._result_store.path(self._shard_name(spec))

    def _store(self, spec: RunSpec, results: list[dict[str, Any]]) -> None:
        # The shard byte format is pinned by the golden-equivalence suite;
        # integrity metadata therefore lives in a sidecar, not the shard.
        # The encoding is shared with the serve daemon so HTTP payloads
        # and disk shards are byte-identical.
        payload = encode_result_shard(spec.descriptor(), results)
        self._result_store.write(self._shard_name(spec), payload)

    def _validate_shard(
        self, spec: RunSpec, raw: bytes
    ) -> tuple[list[dict[str, Any]] | None, str | None]:
        """``(results, None)`` when the shard is sound, else ``(None, reason)``."""
        try:
            payload = json.loads(raw)
        except ValueError:
            return None, "unparseable JSON (truncated write?)"
        if not isinstance(payload, dict) or not isinstance(
            payload.get("results"), list
        ):
            return None, "malformed shard structure"
        descriptor = payload.get("descriptor")
        if descriptor != spec.descriptor():
            if (
                isinstance(descriptor, dict)
                and descriptor.get("version") != RESULTS_VERSION
            ):
                return None, (
                    f"results-version mismatch "
                    f"({descriptor.get('version')} != {RESULTS_VERSION})"
                )
            return None, "descriptor does not match spec"
        return payload["results"], None

    def _cached(self, spec: RunSpec) -> list[dict[str, Any]] | None:
        results = self._result_store.read_validated(
            self._shard_name(spec), lambda raw: self._validate_shard(spec, raw)
        )
        if results is None:
            return None
        self.cache_hits += 1
        return results

    def cache_usage(self) -> dict[str, int]:
        """Disk usage of the result store: shards / bytes / quarantined."""
        return self._result_store.usage()

    def trace_usage(self) -> dict[str, int]:
        """Disk usage of the trace store under :attr:`trace_dir`."""
        return ShardStore(self.trace_dir).usage()

    def cached_payload(self, spec: RunSpec) -> bytes | None:
        """The validated result-shard bytes for ``spec``, or ``None``.

        Exactly the bytes a cold run of the spec would publish to disk —
        the serve daemon's cache-first read path, giving HTTP responses
        that are byte-identical to CLI shards.
        """
        spec = spec.resolve()
        results = self._cached(spec)
        if results is None:
            return None
        return encode_result_shard(spec.descriptor(), results)

    def _journal(self, event: str, **fields: Any) -> None:
        if self.journal is not None:
            self.journal.append(event, **fields)

    def _phase(self, name: str):
        """Profiling context for one runner phase (no-op when off)."""
        if self.profiler is None:
            return nullcontext()
        return self.profiler.phase(name)

    def _count(self, name: str, amount: int = 1) -> None:
        if self.profiler is not None and amount:
            self.profiler.count(name, amount)

    def _journal_profile(self) -> None:
        """Append the profiler snapshot to the sweep journal."""
        if self.profiler is not None:
            self._journal("profile", **self.profiler.snapshot())

    # ------------------------------------------------------------------ #
    # Trace precompilation (the sweep's compile phase)
    # ------------------------------------------------------------------ #

    def _claim_trace_cache(self) -> None:
        """Point the process-level trace cache at *this* runner's store.

        The cache is process-global (so forked workers inherit a warm
        memo), but several runners can coexist in one process; whichever
        is executing owns the disk level for the duration, so its trace
        shards land next to its result shards.  The memo is content-
        addressed and survives re-pointing.
        """
        tracecache.configure(directory=self.trace_dir)

    def _precompile_frontends(self, cold: Sequence[RunSpec]) -> None:
        """Compile each distinct frontend of a batch exactly once, here.

        A sweep of S specs over C cores would otherwise regenerate
        S x C frontends inside the workers; the distinct ``(workload,
        arch)`` pairs — usually a handful, since characterization sweeps
        vary memory-side config only — are compiled (or loaded from the
        trace store) once in the parent instead.  Workers then inherit
        the warmed memo (``fork``) or load the just-published shards.
        The pass's counter deltas land in :attr:`last_trace_stats`.
        """
        cache = tracecache.process_cache()
        before = cache.stats.snapshot()
        seen: set[str] = set()
        for spec in cold:
            for name, arch in spec.frontends():
                network = self._network_for(spec, name)
                fingerprint = tracecache.frontend_fingerprint(network, arch)
                if fingerprint in seen:
                    continue
                seen.add(fingerprint)
                cache.get(network, arch)
        delta = cache.stats.since(before)
        self.last_trace_stats = delta
        if cold:
            self._journal("trace_cache", distinct=len(seen), **delta.summary())

    # ------------------------------------------------------------------ #
    # Supervision primitives
    # ------------------------------------------------------------------ #

    def _fault_for(self, spec: RunSpec) -> "faults_module.Fault | None":
        if self.fault_plan is None:
            return None
        return self.fault_plan.lookup(spec)

    def _backoff(self, attempt: int) -> float:
        """Sleep before retry ``attempt + 1``: exponential, capped, jittered.

        Jitter is additive-proportional (``base * (1 + U[0, jitter])``)
        so concurrent retriers spread out instead of synchronizing; the
        cap applies after jitter so the bound is absolute.
        """
        base = self.retry_backoff * (2 ** (attempt - 1))
        if self.retry_jitter:
            base *= 1.0 + self.retry_jitter * self._random.random()
        return min(MAX_BACKOFF_SECONDS, base)

    def _budget_spent(self, started: float, backoff: float) -> bool:
        """True when retrying after ``backoff`` would bust ``retry_budget``.

        The budget covers everything a spec has consumed since its first
        attempt started — execution time and backoff sleeps alike — so a
        crash-looping spec cannot monopolize a sweep (or the serve
        daemon's pool) indefinitely even with generous ``max_attempts``.
        """
        if self.retry_budget is None:
            return False
        return (time.monotonic() - started) + backoff > self.retry_budget

    def _failure(
        self,
        spec: RunSpec,
        kind: str,
        attempts: int,
        error: BaseException,
        started: float,
    ) -> RunFailure:
        trace = "".join(
            traceback_module.format_exception(type(error), error, error.__traceback__)
        )
        return RunFailure(
            spec=spec,
            kind=kind,
            attempts=attempts,
            error=f"{type(error).__name__}: {error}",
            traceback=trace,
            elapsed_seconds=time.monotonic() - started,
        )

    def _execute_with_retry(
        self, spec: RunSpec, run_timeout: float | None = _UNSET
    ) -> list[dict[str, Any]]:
        """In-process execution with timeout + bounded retries.

        ``run_timeout`` overrides the runner default for this call (the
        serve daemon's per-request deadline propagation).  Raises
        :class:`RunFailedError` (failure attached, not yet recorded)
        when the spec fails terminally.
        """
        from repro.core.simulator import freeze_heap

        if run_timeout is _UNSET:
            run_timeout = self.run_timeout
        freeze_heap()
        networks = self._networks_for(spec)
        attempt = 1
        started = time.monotonic()
        while True:
            try:
                return _supervised_execute(
                    spec,
                    networks,
                    self.max_ticks,
                    stall_window=self.stall_window_ticks,
                    timeout=run_timeout,
                    attempt=attempt,
                    fault=self._fault_for(spec),
                    in_pool=False,
                )
            except TransientWorkerError as error:
                backoff = self._backoff(attempt)
                if attempt >= self.max_attempts or self._budget_spent(
                    started, backoff
                ):
                    raise RunFailedError(
                        self._failure(spec, "crash", attempt, error, started)
                    ) from error
                self._journal(
                    "retry",
                    key=spec.cache_key(),
                    label=spec.label,
                    attempt=attempt,
                    error=str(error),
                )
                self._sleep(backoff)
                attempt += 1
            except Exception as error:
                raise RunFailedError(
                    self._failure(
                        spec, _failure_kind(error), attempt, error, started
                    )
                ) from error

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self, spec: RunSpec) -> list[dict[str, Any]]:
        """Execute one spec in-process, cache-first.

        Raises :class:`RunFailedError` when the spec fails terminally —
        including when a previous :meth:`run_many` batch already recorded
        the spec in :attr:`failures` (so figure reducers consuming a
        partially-failed sweep get a typed error, not a re-execution).
        """
        spec = spec.resolve()
        self._claim_trace_cache()
        with self._phase("cache_read"):
            cached = self._cached(spec)
        if cached is not None:
            self._count("cache_hits")
            self.failures.pop(spec, None)
            return cached
        failure = self.failures.get(spec)
        if failure is not None:
            raise RunFailedError(failure)
        try:
            with self._phase("execute"):
                results = self._execute_with_retry(spec)
        except RunFailedError as error:
            self.failures[spec] = error.failure
            self._journal("fail", **error.failure.summary())
            raise
        self._count("cold_runs")
        with self._phase("cache_write"):
            self._store(spec, results)
        self.runs_executed += 1
        self._journal("done", key=spec.cache_key(), label=spec.label)
        return results

    def run_many(
        self,
        specs: Iterable[RunSpec],
        jobs: int | None = None,
        progress: ProgressCallback | None = None,
        *,
        run_timeout: float | None = _UNSET,
        force_pool: bool = False,
    ) -> dict[RunSpec, list[dict[str, Any]]]:
        """Execute a batch of specs, in parallel when ``jobs > 1``.

        The batch is deduplicated (specs are frozen and hashable), cache
        hits are satisfied first, and the remaining cold runs are sharded
        across a supervised process pool.  The parent process writes one
        cache shard per completed run — workers never touch the cache
        directory — and reports progress through ``progress`` (or the
        runner's default callback) after every settled spec.

        ``run_timeout`` overrides the runner-level wall-clock budget for
        this batch only (the serve daemon propagates request deadlines
        through it).  ``force_pool=True`` executes cold runs in the
        worker pool even when a serial fast path would apply — required
        whenever the caller is not the process main thread (the in-worker
        SIGALRM timeout only arms there) and whenever worker crashes must
        not take the calling process down.

        A spec that fails terminally does **not** abort the batch: it is
        recorded in :attr:`failures` (and the sweep journal) and simply
        omitted from the returned mapping.  Check :attr:`last_outcome`
        for the batch aggregate.

        Returns a mapping from each resolved spec (:meth:`RunSpec.resolve`)
        to its per-workload result dicts.
        """
        jobs = self.jobs if jobs is None else max(1, jobs)
        progress = progress if progress is not None else self.progress
        if run_timeout is _UNSET:
            run_timeout = self.run_timeout
        self._claim_trace_cache()
        ordered = list(dict.fromkeys(spec.resolve() for spec in specs))
        started = time.monotonic()
        results: dict[RunSpec, list[dict[str, Any]]] = {}
        cold: list[RunSpec] = []
        with self._phase("cache_read"):
            for spec in ordered:
                # A new batch is a fresh start: stale failure records must
                # not mask a spec that might succeed now.
                self.failures.pop(spec, None)
                cached = self._cached(spec)
                if cached is not None:
                    results[spec] = cached
                else:
                    cold.append(spec)
        hits = len(results)
        self._count("cache_hits", hits)
        self._count("cold_runs", len(cold))
        cold_done = 0
        batch_failures: list[RunFailure] = []
        self._journal(
            "sweep",
            total=len(ordered),
            cache_hits=hits,
            cold=len(cold),
            jobs=jobs,
        )
        # Compile phase: every distinct frontend of the cold runs is
        # resolved once before any simulation executes.
        with self._phase("compile"):
            self._precompile_frontends(cold)

        def report(spec: RunSpec | None) -> None:
            if progress is None:
                return
            elapsed = time.monotonic() - started
            eta = None
            if cold_done and cold_done < len(cold):
                eta = elapsed / cold_done * (len(cold) - cold_done)
            progress(
                RunProgress(
                    completed=hits + cold_done,
                    total=len(ordered),
                    cache_hits=hits,
                    spec=spec,
                    elapsed_seconds=elapsed,
                    eta_seconds=eta,
                    failed=len(batch_failures),
                )
            )

        def finish(spec: RunSpec, payload: list[dict[str, Any]]) -> None:
            nonlocal cold_done
            with self._phase("cache_write"):
                self._store(spec, payload)
            self.runs_executed += 1
            results[spec] = payload
            cold_done += 1
            self._journal("done", key=spec.cache_key(), label=spec.label)
            report(spec)

        def fail(spec: RunSpec, failure: RunFailure) -> None:
            nonlocal cold_done
            self.failures[spec] = failure
            batch_failures.append(failure)
            cold_done += 1
            self._journal("fail", **failure.summary())
            _LOG.warning(
                "spec failed after %d attempt(s): %s: %s",
                failure.attempts,
                failure.label,
                failure.error,
            )
            report(spec)

        report(None)
        try:
            if cold:
                with self._phase("execute"):
                    if not force_pool and (jobs == 1 or len(cold) == 1):
                        self._run_serial(cold, finish, fail, run_timeout)
                    else:
                        self._run_pool(cold, jobs, finish, fail, run_timeout)
        except KeyboardInterrupt:
            # Graceful interruption (SIGINT, or the CLI's SIGTERM
            # handler): record where the sweep stood so a resumed run
            # can be audited, then let the caller unwind.  Results are
            # cache-first, so everything settled so far is durable.
            self.last_outcome = SweepOutcome(
                total=len(ordered),
                cache_hits=hits,
                executed=cold_done - len(batch_failures),
                failures=tuple(batch_failures),
            )
            self._journal(
                "interrupt",
                total=len(ordered),
                settled=hits + cold_done,
                failed=len(batch_failures),
                remaining=len(cold) - cold_done,
            )
            self._journal_profile()
            raise
        self.last_outcome = SweepOutcome(
            total=len(ordered),
            cache_hits=hits,
            executed=len(cold) - len(batch_failures),
            failures=tuple(batch_failures),
        )
        self._journal_profile()
        return results

    def _run_serial(
        self,
        cold: Sequence[RunSpec],
        finish: Callable[[RunSpec, list[dict[str, Any]]], None],
        fail: Callable[[RunSpec, RunFailure], None],
        run_timeout: float | None,
    ) -> None:
        for spec in cold:
            try:
                payload = self._execute_with_retry(spec, run_timeout)
            except RunFailedError as error:
                fail(spec, error.failure)
            else:
                finish(spec, payload)

    def _run_pool(
        self,
        cold: Sequence[RunSpec],
        jobs: int,
        finish: Callable[[RunSpec, list[dict[str, Any]]], None],
        fail: Callable[[RunSpec, RunFailure], None],
        run_timeout: float | None,
    ) -> None:
        """The supervised parallel executor.

        Invariants:

        * ``pending`` holds (spec, attempt) pairs not yet submitted;
          ``inflight`` maps live futures to (spec, attempt, start time).
        * After a pool breakage, every formerly in-flight retriable spec
          moves to ``suspects`` and re-runs strictly one at a time (the
          pool is drained first), so a spec that *reliably* kills its
          worker crashes alone and is attributed correctly, while specs
          that were innocent bystanders complete on their isolated run.
        * When ``run_timeout`` is set, the parent polls for workers that
          overshot the budget plus :data:`TIMEOUT_GRACE_SECONDS` (their
          in-worker SIGALRM evidently never fired) and hard-kills the
          pool; the overdue specs fail as timeouts, the rest re-run.
        """
        workers = min(jobs, len(cold))
        pending: deque[tuple[RunSpec, int]] = deque((spec, 1) for spec in cold)
        suspects: deque[tuple[RunSpec, int]] = deque()
        inflight: dict[Future, tuple[RunSpec, int, float]] = {}
        # Retry budgets count from a spec's *first* submission, not the
        # current attempt's, so crash-looping specs cannot reset the clock.
        first_started: dict[RunSpec, float] = {}

        pool = self._acquire_pool(workers)
        hard_limit = (
            None
            if run_timeout is None
            else run_timeout + TIMEOUT_GRACE_SECONDS
        )

        def submit(spec: RunSpec, attempt: int, origin: deque) -> bool:
            try:
                future = pool.submit(
                    _supervised_execute,
                    spec,
                    tuple(self._networks_for(spec)),
                    self.max_ticks,
                    stall_window=self.stall_window_ticks,
                    timeout=run_timeout,
                    attempt=attempt,
                    fault=self._fault_for(spec),
                    in_pool=True,
                )
            except BrokenExecutor:
                origin.appendleft((spec, attempt))
                return False
            inflight[future] = (spec, attempt, time.monotonic())
            first_started.setdefault(spec, time.monotonic())
            return True

        def rebuild() -> None:
            nonlocal pool
            self._discard_pool(pool)
            pool = self._acquire_pool(workers)

        def handle_breakage(timed_out: set[RunSpec] | None = None) -> None:
            # Pool death took every in-flight run with it; settle each one.
            timed_out = timed_out or set()
            solo = len(inflight) == 1
            for spec, attempt, t0 in list(inflight.values()):
                if spec in timed_out:
                    assert run_timeout is not None
                    error: BaseException = RunTimeoutError(
                        f"run exceeded {run_timeout:.1f}s wall clock "
                        f"(worker killed): {spec.label}"
                    )
                    fail(spec, self._failure(spec, "timeout", attempt, error, t0))
                elif attempt >= self.max_attempts or self._budget_spent(
                    first_started.get(spec, t0), self._backoff(attempt)
                ):
                    error = TransientWorkerError(
                        "worker process died (BrokenProcessPool)"
                    )
                    fail(spec, self._failure(spec, "crash", attempt, error, t0))
                else:
                    self._journal(
                        "requeue",
                        key=spec.cache_key(),
                        label=spec.label,
                        attempt=attempt,
                        isolated=solo,
                    )
                    suspects.append((spec, attempt + 1))
            inflight.clear()
            if suspects:
                self._sleep(self._backoff(max(1, suspects[0][1] - 1)))
            rebuild()

        try:
            while pending or suspects or inflight:
                if not inflight and suspects:
                    # One suspect at a time: crashes become attributable.
                    spec, attempt = suspects.popleft()
                    if not submit(spec, attempt, suspects):
                        handle_breakage()
                        continue
                elif not suspects:
                    broke = False
                    while pending and len(inflight) < workers:
                        spec, attempt = pending.popleft()
                        if not submit(spec, attempt, pending):
                            handle_breakage()
                            broke = True
                            break
                    if broke:
                        continue
                if not inflight:
                    continue
                poll = _POLL_INTERVAL_SECONDS if hard_limit is not None else None
                done, _ = wait(
                    list(inflight), timeout=poll, return_when=FIRST_COMPLETED
                )
                if not done:
                    now = time.monotonic()
                    assert hard_limit is not None
                    overdue = {
                        spec
                        for spec, _attempt, t0 in inflight.values()
                        if now - t0 > hard_limit
                    }
                    if overdue:
                        handle_breakage(timed_out=overdue)
                    continue
                for future in done:
                    spec, attempt, t0 = inflight.pop(future)
                    try:
                        payload = future.result()
                    except BrokenExecutor:
                        inflight[future] = (spec, attempt, t0)
                        handle_breakage()
                        break
                    except TransientWorkerError as error:
                        backoff = self._backoff(attempt)
                        if attempt >= self.max_attempts or self._budget_spent(
                            first_started.get(spec, t0), backoff
                        ):
                            fail(
                                spec,
                                self._failure(spec, "crash", attempt, error, t0),
                            )
                        else:
                            self._journal(
                                "retry",
                                key=spec.cache_key(),
                                label=spec.label,
                                attempt=attempt,
                                error=str(error),
                            )
                            self._sleep(backoff)
                            pending.appendleft((spec, attempt + 1))
                    except Exception as error:
                        fail(
                            spec,
                            self._failure(
                                spec, _failure_kind(error), attempt, error, t0
                            ),
                        )
                    else:
                        finish(spec, payload)
        except BaseException:
            # Interrupt or internal error: the pool's state is unknown
            # (workers may hold half-executed runs), so never keep it.
            self._discard_pool(pool)
            raise
        else:
            if not self.keep_pool:
                self._discard_pool(pool)
