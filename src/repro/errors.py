"""Typed exceptions and failure records for the whole simulator stack.

Before this module existed every abnormal outcome surfaced as a bare
``RuntimeError`` (or worse, a crashed worker process), which made sweep
supervision impossible: the experiment runner could not tell a livelocked
simulation from a misconfigured spec from a killed worker.  The hierarchy
here gives each failure mode a type that carries enough structured state
(per-core diagnostics, attempt counts, tracebacks) for the supervision
layer in :mod:`repro.experiments.runner` to retry, isolate, or report it.

Simulation-side errors subclass :class:`RuntimeError` as well, so code
written against the old bare-``RuntimeError`` contract keeps working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence


class ReproError(Exception):
    """Base class of every typed error raised by this package."""


class SimulationError(ReproError, RuntimeError):
    """Base class of errors raised while a simulation is running.

    Subclasses ``RuntimeError`` for backwards compatibility: callers that
    predate the typed hierarchy catch ``RuntimeError`` around
    :meth:`MultiCoreNPUSim.run` and must keep working.
    """


@dataclass(frozen=True)
class CoreDiagnostics:
    """Point-in-time progress snapshot of one core, attached to stalls.

    Captures everything needed to see *where* a livelocked simulation is
    wedged: how much work the core has retired, what it still has in
    flight in the DMA window and the walker pool, and the last global
    tick at which it made forward progress.
    """

    core: int
    workload: str
    tiles_computed: int
    completed_iterations: int
    outstanding_dma: int
    queued_transfers: int
    outstanding_writes: int
    walks_inflight: int
    walks_queued: int
    last_progress_tick: int

    def summary(self) -> str:
        """One-line rendering used in stall messages and logs."""
        return (
            f"core {self.core} ({self.workload}): "
            f"tiles={self.tiles_computed} iters={self.completed_iterations} "
            f"dma={self.outstanding_dma}+{self.queued_transfers}q "
            f"writes={self.outstanding_writes} "
            f"walks={self.walks_inflight}+{self.walks_queued}q "
            f"last_progress@{self.last_progress_tick}"
        )


#: Safety valve: a run exceeding this many global ticks raises instead of
#: spinning forever.
DEFAULT_MAX_TICKS = 50_000_000_000

#: Default stall-watchdog window in global ticks.  A healthy simulation
#: retires a tile every few thousand ticks even under heavy contention,
#: so a window this wide never fires on legitimate runs yet catches a
#: livelock ~5000x earlier than the runner's 50-billion-tick ceiling.
#: Both limits live here, beside the error they raise, so the CLI parser
#: can show them as defaults without loading the simulator.
DEFAULT_STALL_WINDOW_TICKS = 10_000_000


class SimulationStallError(SimulationError):
    """The simulation stopped making forward progress.

    Raised either by the engine stall watchdog (events kept firing but no
    core retired a tile or iteration within the configured tick window)
    or at the ``max_ticks`` ceiling when a core never completed an
    iteration.  Carries per-core :class:`CoreDiagnostics` plus global
    queue depths so the failure is debuggable from the record alone.
    """

    def __init__(
        self,
        message: str,
        *,
        diagnostics: Sequence[CoreDiagnostics] = (),
        total_ticks: int | None = None,
        events_processed: int | None = None,
        dram_queue_depths: dict[int, int] | None = None,
    ) -> None:
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)
        self.total_ticks = total_ticks
        self.events_processed = events_processed
        self.dram_queue_depths = dict(dram_queue_depths or {})

    def detail(self) -> str:
        """Multi-line report: the message plus every core's snapshot."""
        lines = [str(self)]
        if self.dram_queue_depths:
            depths = " ".join(
                f"ch{channel}={depth}"
                for channel, depth in sorted(self.dram_queue_depths.items())
            )
            lines.append(f"dram queues: {depths}")
        lines.extend(diag.summary() for diag in self.diagnostics)
        return "\n".join(lines)


class SimulatorReuseError(SimulationError):
    """A :class:`MultiCoreNPUSim` instance was run a second time."""


class RunTimeoutError(ReproError):
    """One spec's simulation exceeded its wall-clock budget."""


class TransientWorkerError(ReproError):
    """A retriable worker-side failure (the supervisor may requeue it)."""


class InjectedFaultError(ReproError):
    """A deterministic failure injected by the fault harness."""


class ServeError(ReproError):
    """Base class of every error raised by the ``mnpusim serve`` stack."""


class ProtocolError(ServeError):
    """A request or response violated the serve wire protocol."""


class ServerOverloadedError(ServeError):
    """The daemon's admission queue is full; retry after backing off.

    ``retry_after`` is the server's suggested minimum backoff in seconds
    (the HTTP ``Retry-After`` header), or ``None`` when it offered none.
    """

    def __init__(self, message: str, *, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServiceUnavailableError(ServeError):
    """The daemon is not accepting work (circuit breaker open, draining)."""

    def __init__(self, message: str, *, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceededError(ServeError):
    """A request's deadline expired before a result could be produced."""


class RemoteRunFailedError(ServeError):
    """The daemon executed the spec and it failed terminally.

    Carries the server-side :class:`RunFailure` summary fields so clients
    can distinguish a crashed worker from a misconfigured spec without
    parsing the message text.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "error",
        label: str = "",
        attempts: int = 0,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.label = label
        self.attempts = attempts


@dataclass(frozen=True)
class RunFailure:
    """Structured record of one spec that failed despite supervision.

    ``spec`` is the planned :class:`~repro.experiments.spec.RunSpec`;
    ``kind`` classifies the terminal failure (``"error"``, ``"timeout"``,
    ``"stall"``, ``"crash"``); ``attempts`` counts executions consumed.
    """

    spec: Any
    kind: str
    attempts: int
    error: str
    traceback: str = ""
    elapsed_seconds: float = 0.0

    @property
    def key(self) -> str:
        """The failed spec's cache key."""
        return self.spec.cache_key()

    @property
    def label(self) -> str:
        """The failed spec's human-readable label."""
        return self.spec.label

    def summary(self) -> dict[str, Any]:
        """JSON-ready digest (journal/report format)."""
        return {
            "key": self.key,
            "label": self.label,
            "kind": self.kind,
            "attempts": self.attempts,
            "error": self.error,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


class RunFailedError(ReproError):
    """Raised when a result is requested for a spec that already failed."""

    def __init__(self, failure: RunFailure) -> None:
        super().__init__(
            f"run failed after {failure.attempts} attempt(s): "
            f"{failure.label}: {failure.error}"
        )
        self.failure = failure


@dataclass(frozen=True)
class SweepOutcome:
    """Aggregate view of one supervised :meth:`run_many` batch."""

    total: int
    cache_hits: int
    executed: int
    failures: tuple[RunFailure, ...] = field(default_factory=tuple)

    @property
    def succeeded(self) -> int:
        """Specs with results available (cached or freshly executed)."""
        return self.total - len(self.failures)
