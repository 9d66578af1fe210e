"""Deterministic fault injection for the supervised experiment runner.

The supervision layer in :mod:`repro.experiments.runner` exists to
survive worker crashes, wall-clock timeouts, livelocked simulations and
corrupted cache shards — none of which occur naturally in CI.  This
module makes every one of those failure modes *injectable on demand* so
the recovery paths are exercised by ordinary tests:

* a :class:`FaultPlan` maps spec cache keys to :class:`Fault`
  descriptors and travels (pickled) into worker processes, so injection
  works identically in serial and process-pool execution;
* :func:`trigger` fires the fault at the top of a worker's execution —
  hard process death for ``crash``, a genuine SIGALRM-interrupted sleep
  for ``timeout``, a genuinely livelocked simulation for ``stall``;
* :func:`corrupt_shard` damages an on-disk cache shard the same way a
  SIGKILL mid-write or bit rot would, for the quarantine tests.

Faults are keyed by cache key and bounded by attempt count
(``fail_attempts``), so "crash twice then succeed" scenarios — the shape
that proves retry-with-backoff actually recovers — are expressible and
fully deterministic.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.errors import (
    InjectedFaultError,
    RunTimeoutError,
    TransientWorkerError,
)

#: ``fail_attempts`` sentinel: the fault fires on every attempt.
ALWAYS = 10**9

#: Recognized fault kinds.
KINDS = ("crash", "timeout", "error", "stall", "transient")

#: Exit code of an injected hard worker death (visible in process logs).
CRASH_EXIT_CODE = 86

#: Stall window used by injected livelocks — small so tests are fast,
#: large enough that a couple of keepalive events always fit inside it.
STALL_WINDOW_TICKS = 50_000


@dataclass(frozen=True)
class Fault:
    """One injectable failure, bounded by attempt count.

    ``kind``:

    * ``"crash"`` — hard worker death (``os._exit``) in pool workers; a
      retriable :class:`TransientWorkerError` in serial execution.
    * ``"timeout"`` — sleep past the per-run wall-clock budget so the
      worker's SIGALRM fires (or raise directly when no budget is set).
    * ``"error"`` — a deterministic in-worker exception.
    * ``"stall"`` — a genuinely livelocked simulation: every core's DMA
      is wedged while keepalive events keep the engine busy, which the
      engine stall watchdog must detect and diagnose.
    * ``"transient"`` — a retriable error without process death (the
      backoff path, testable in serial mode).

    Attempts ``1..fail_attempts`` fault; later attempts run normally.
    """

    kind: str
    fail_attempts: int = ALWAYS

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; pick from {KINDS}")
        if self.fail_attempts < 1:
            raise ValueError("fail_attempts must be >= 1")

    def active(self, attempt: int) -> bool:
        """True when this fault should fire on execution ``attempt``."""
        return attempt <= self.fail_attempts


@dataclass(frozen=True)
class FaultPlan:
    """Spec cache key -> :class:`Fault`; picklable, worker-safe."""

    by_key: Mapping[str, Fault]

    @classmethod
    def for_specs(cls, faults: Mapping[Any, Fault]) -> "FaultPlan":
        """Build a plan from ``{spec: fault}`` (specs are hashed to keys)."""
        return cls({spec.cache_key(): fault for spec, fault in faults.items()})

    def lookup(self, spec: Any) -> Fault | None:
        """The fault planned for ``spec``, if any."""
        return self.by_key.get(spec.cache_key())


def trigger(
    fault: Fault,
    spec: Any,
    networks: tuple[Any, ...],
    *,
    attempt: int,
    timeout: float | None = None,
    in_pool: bool = False,
) -> None:
    """Fire ``fault`` for execution ``attempt``; no-op when inactive.

    Called at the top of the worker entry point, before the real
    simulation starts, so a faulted attempt consumes no simulation time
    and a recovered attempt produces byte-identical results.
    """
    if not fault.active(attempt):
        return
    if fault.kind == "crash":
        if in_pool:
            os._exit(CRASH_EXIT_CODE)
        raise TransientWorkerError(
            f"injected worker crash (attempt {attempt}): {spec.label}"
        )
    if fault.kind == "transient":
        raise TransientWorkerError(
            f"injected transient failure (attempt {attempt}): {spec.label}"
        )
    if fault.kind == "error":
        raise InjectedFaultError(
            f"injected deterministic failure (attempt {attempt}): {spec.label}"
        )
    if fault.kind == "timeout":
        if timeout is not None:
            # Sleep until the worker's SIGALRM interrupts us — the real
            # timeout path.  The deadline backstop only matters if the
            # alarm was never armed.
            deadline = time.monotonic() + 4.0 * timeout + 1.0
            while time.monotonic() < deadline:
                time.sleep(0.01)
        raise RunTimeoutError(f"injected timeout: {spec.label}")
    _stall(spec, networks)


def _stall(spec: Any, networks: tuple[Any, ...]) -> None:
    """Run a genuinely livelocked simulation of ``spec``.

    Every core's DMA swallows its transfers (tiles never load, so no
    work ever retires) while a self-perpetuating keepalive event keeps
    the engine processing — exactly the events-without-progress
    signature the stall watchdog exists to catch.  The watchdog raises
    :class:`~repro.errors.SimulationStallError` with full diagnostics.
    """
    from repro.core.simulator import MultiCoreNPUSim

    sim = MultiCoreNPUSim(
        spec.system(), list(networks), stall_window_ticks=STALL_WINDOW_TICKS
    )
    for dma in sim.dmas.values():
        dma.transfer = lambda runs, on_complete: None  # type: ignore[method-assign]

    def keepalive() -> None:
        sim.engine.after(1_000, keepalive)

    sim.engine.after(1, keepalive)
    sim.run(max_ticks=10**9)
    raise AssertionError("injected stall failed to stall")  # pragma: no cover


def corrupt_shard(path: Path, mode: str) -> None:
    """Damage a cache shard on disk the way real corruption would.

    * ``"truncate"`` — keep only the first half of the file, emulating a
      worker killed mid-write (pre-atomic-write) or a torn copy;
    * ``"version"`` — rewrite the descriptor with a bumped results
      version (a shard from an incompatible simulator);
    * ``"payload"`` — perturb the results payload while leaving the
      descriptor intact, detectable only by the checksum sidecar.
    """
    raw = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(raw[: max(1, len(raw) // 2)])
        return
    payload = json.loads(raw)
    if mode == "version":
        payload["descriptor"]["version"] = payload["descriptor"].get("version", 0) + 1
    elif mode == "payload":
        results = payload["results"]
        results[0]["cycles"] = results[0].get("cycles", 0) + 1
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    path.write_bytes(json.dumps(payload, indent=1).encode())
