"""Single-run hot-loop benchmark: wall-clock and events/second.

Unlike the ``bench_fig*`` modules (which regenerate paper figures through
the result cache), this is a *performance* harness: it simulates a fixed
scenario set end to end — no caching — and records wall-clock seconds,
engine events processed, and events per second to ``BENCH_hotloop.json``
at the repository root.

The JSON keeps two measurement sets: ``baseline`` (recorded once, before
an optimization lands, with ``--set-baseline``) and ``current`` (refreshed
on every run).  The per-scenario ``speedup`` section is
``baseline_wall / current_wall``, so the perf trajectory of the hot path
is data, not anecdote.  Golden-equivalence tests
(``tests/test_golden_equivalence.py``) gate that the speed came from
mechanical work, not changed results.

A separate top-level ``sweep`` block benchmarks the compile/replay
split at sweep scale (many specs, few distinct frontends): compile-phase
wall clock with the trace cache off/cold/warm, plus transparent
end-to-end sweep times, plus the memory the memoized traces hold per
DRAM run (``memo_bytes_per_run``) and the peak memory of encoding them
as shards (``encode_peak_bytes_per_run``), both from ``tracemalloc``.  It is
refreshed every run and has no baseline/current split — the no-cache
mode measured alongside *is* the baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_hot_loop.py            # refresh current
    PYTHONPATH=src python benchmarks/bench_hot_loop.py --repeats 5
    PYTHONPATH=src python benchmarks/bench_hot_loop.py --set-baseline
    PYTHONPATH=src python benchmarks/bench_hot_loop.py --quick    # CI smoke (1 repeat)
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import platform
import shutil
import tempfile
import time
import tracemalloc
from collections import deque
from pathlib import Path

from repro.compute import tracecache
from repro.compute.requestgen import RequestGenerator
from repro.core.simulator import MultiCoreNPUSim
from repro.experiments.spec import RunSpec
from repro.models import serving, zoo

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_hotloop.json"
MAX_TICKS = 50_000_000_000

#: Scenarios span the hot path's regimes: the flagship contended mix
#: (walk traffic + walk priority + refresh), a translation-off mix (DMA
#: streaming straight into the channel queues), and a bandwidth-starved
#: single-channel solo (deep queues, long drains).
SCENARIOS: dict[str, tuple[str, RunSpec]] = {
    "mix_dwt": (
        "dual-core ncf+dlrm, fully shared (+DWT), translation on",
        RunSpec.mix(("ncf", "dlrm"), "DWT", scale="mini"),
    ),
    "mix_d_notrans": (
        "dual-core ncf+dlrm, shared DRAM (+D), translation off",
        RunSpec.mix(("ncf", "dlrm"), "D", scale="mini", translation=False),
    ),
    "solo_1ch_stream": (
        "dlrm alone on one channel, translation off (streaming)",
        RunSpec.solo("dlrm", scale="mini", channels=1, translation=False),
    ),
    # The LLM-serving regime: wide prefill GEMMs co-located with the
    # decode phase's KV-cache streaming scans, fully shared resources —
    # the unrolled schedule makes this the layer-count-heavy scenario.
    "serving": (
        "dual-core gpt2 prefill+decode co-location, fully shared (+DWT)",
        RunSpec.mix(("gpt2:prefill", "gpt2:decode"), "DWT", scale="mini"),
    ),
}


def _networks(spec: RunSpec) -> list:
    """Serving-aware workload resolution (zoo names fall through)."""
    return serving.networks_for(
        spec.workloads, spec.scale, params=spec.serving, default_phase=spec.phase
    )


def measure(spec: RunSpec, repeats: int) -> dict:
    """Best-of-``repeats`` wall clock for one cold simulation of ``spec``."""
    networks = _networks(spec)
    best_wall = None
    events = 0
    total_ticks = 0
    requests = 0
    for _ in range(repeats):
        sim = MultiCoreNPUSim(spec.system(), networks)
        start = time.perf_counter()
        result = sim.run(max_ticks=MAX_TICKS)
        wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall
        events = sim.engine.events_processed
        total_ticks = result.total_ticks
        requests = result.dram.reads + result.dram.writes
    return {
        "wall_seconds": round(best_wall, 6),
        "events_processed": events,
        "events_per_second": round(events / best_wall, 1),
        "total_ticks": total_ticks,
        "dram_requests": requests,
    }


def run_benchmarks(repeats: int) -> dict[str, dict]:
    results = {}
    for name, (description, spec) in SCENARIOS.items():
        results[name] = measure(spec, repeats)
        results[name]["description"] = description
    return results


#: The sweep-scale scenario: a memory-side sweep whose specs all share a
#: handful of frontends, exactly the shape the trace cache exists for.
#: Twelve solo specs (two workloads x {1,2,4} channels x {4K,64K} pages)
#: collapse to two distinct (network, traffic-arch) frontends.
SWEEP_WORKLOADS = ("ncf", "dlrm")


def sweep_specs() -> list[RunSpec]:
    return [
        RunSpec.solo(workload, scale="mini", channels=channels, page_bytes=page_bytes)
        for workload in SWEEP_WORKLOADS
        for channels in (1, 2, 4)
        for page_bytes in (4096, 65536)
    ]


def _best_of(fn, repeats: int) -> float:
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
        if best is None or wall < best:
            best = wall
    return best


def memo_footprint(trace_dir: Path, frontends: list) -> tuple[list, int]:
    """The distinct traces the memo holds once ``frontends`` are loaded,
    and the bytes it spends on them.

    A fresh :class:`TraceCache` memoizes every frontend from the shards in
    ``trace_dir`` under ``tracemalloc``; the bytes still held afterwards
    are the memo's cost.
    """
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache = tracecache.TraceCache(trace_dir)
        traces = {
            trace.fingerprint: trace
            for trace in (cache.get(network, arch) for network, arch in frontends)
        }
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return list(traces.values()), held


def encode_peak(traces: list) -> int:
    """Summed ``tracemalloc`` peak of :func:`encode_trace` over ``traces``.

    Each peak is measured above the bytes live before that encode, so it
    counts the shard payload plus every transient the encoder builds.
    """
    total = 0
    for trace in traces:
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracecache.encode_trace(trace)
            total += tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return total


def measure_sweep(repeats: int) -> dict:
    """Benchmark the sweep's compile phase and end-to-end wall clock.

    Two measurement families, reported separately and honestly:

    ``frontend``: wall clock of the *compile phase alone* — acquiring a
    request trace for every (spec x core) in the sweep.  ``no_cache``
    regenerates each live with :class:`RequestGenerator` (the pre-split
    behaviour: O(specs x cores) generations); ``cold`` compiles through a
    fresh :class:`TraceCache`; ``warm_disk``/``warm_memo`` hit the two
    cache levels.  This is where the >=2x claim lives, because this is
    the work the cache actually removes.

    ``end_to_end``: full ``ExperimentRunner.run_many`` wall clock over
    the same sweep from a cold and from a warm trace store (fresh result
    cache each, serial jobs), best of ``repeats`` like every other leg.
    The event-driven replay dominates end-to-end time, so the warm gain
    is modest by construction — it is recorded so the frontend numbers
    cannot be mistaken for whole-run gains.

    ``memo_runs`` / ``memo_bytes_per_run``: the DRAM runs the trace memo
    holds after the cached sweep and the bytes it spends per run (see
    :func:`memo_footprint`).  ``encode_peak_bytes_per_run``: the peak
    memory of writing those traces as shards, summed over the distinct
    traces and divided by the same runs (see :func:`encode_peak`).
    """
    from repro.experiments.runner import ExperimentRunner

    specs = sweep_specs()
    networks = {name: zoo.get(name, "mini") for name in SWEEP_WORKLOADS}
    frontends = [
        (networks[name], arch) for spec in specs for name, arch in spec.frontends()
    ]
    distinct = {
        tracecache.frontend_fingerprint(network, arch) for network, arch in frontends
    }

    def acquire_live() -> None:
        for network, arch in frontends:
            deque(RequestGenerator(network, arch).all_tiles(), maxlen=0)

    def acquire_cached(cache: tracecache.TraceCache) -> None:
        for network, arch in frontends:
            assert cache.get(network, arch) is not None

    tmp = Path(tempfile.mkdtemp(prefix="bench-sweep-"))
    try:
        frontend_no_cache = _best_of(acquire_live, repeats)
        cold_walls = []
        for attempt in range(repeats):
            cold_cache = tracecache.TraceCache(tmp / f"cold{attempt}")
            cold_walls.append(_best_of(lambda: acquire_cached(cold_cache), 1))
        frontend_cold = min(cold_walls)
        warm_dir = tmp / "cold0"
        frontend_warm_disk = _best_of(
            lambda: acquire_cached(tracecache.TraceCache(warm_dir)), repeats
        )
        memo_cache = tracecache.TraceCache(warm_dir)
        acquire_cached(memo_cache)
        frontend_warm_memo = _best_of(lambda: acquire_cached(memo_cache), repeats)

        def run_sweep(label: str, seed_traces: Path | None = None):
            runner = ExperimentRunner(cache_dir=tmp / f"e2e-{label}", journal=False)
            if seed_traces is not None:
                shutil.copytree(seed_traces, runner.trace_dir, dirs_exist_ok=True)
            tracecache.process_cache().clear_memo()
            start = time.perf_counter()
            runner.run_many(specs)
            return time.perf_counter() - start, runner.last_trace_stats

        # Best of ``repeats``, each sweep on fresh result and trace
        # directories (warm attempt i seeds from cold attempt i's traces).
        cold_walls, warm_walls = [], []
        for attempt in range(repeats):
            wall, _ = run_sweep(f"cold{attempt}")
            cold_walls.append(wall)
            wall, warm_stats = run_sweep(
                f"warm{attempt}",
                seed_traces=(tmp / f"e2e-cold{attempt}" / "traces"),
            )
            warm_walls.append(wall)
        e2e_cold, e2e_warm = min(cold_walls), min(warm_walls)
        memo_traces, memo_bytes = memo_footprint(
            tmp / "e2e-warm0" / "traces", frontends
        )
        memo_runs = sum(trace.object_cost - trace.num_tiles for trace in memo_traces)
        encode_bytes = encode_peak(memo_traces)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # One fixed frontend re-keyed under every registered dataflow engine:
    # the keys must all differ, or engines would silently share compiled
    # traces (CI asserts this distinctness in the bench-smoke job).
    from repro.compute.dataflow import registered_dataflows

    probe_network = networks[SWEEP_WORKLOADS[0]]
    probe_arch = next(
        arch for spec in specs for _, arch in spec.frontends()
    )
    dataflow_trace_keys = {
        dataflow: tracecache.frontend_fingerprint(
            probe_network, dataclasses.replace(probe_arch, dataflow=dataflow)
        )
        for dataflow in registered_dataflows()
    }

    return {
        "description": (
            "memory-side sweep: 12 solo specs (ncf/dlrm x 1/2/4ch x 4K/64K "
            "pages) sharing 2 distinct frontends"
        ),
        "specs": len(specs),
        "frontend_acquisitions": len(frontends),
        "distinct_frontends": len(distinct),
        "dataflow_trace_keys": dataflow_trace_keys,
        "frontend": {
            "no_cache_seconds": round(frontend_no_cache, 6),
            "cold_seconds": round(frontend_cold, 6),
            "warm_disk_seconds": round(frontend_warm_disk, 6),
            "warm_memo_seconds": round(frontend_warm_memo, 6),
            "speedup_warm_disk_vs_no_cache": round(
                frontend_no_cache / frontend_warm_disk, 3
            ),
            "speedup_warm_memo_vs_no_cache": round(
                frontend_no_cache / frontend_warm_memo, 3
            ),
        },
        "end_to_end": {
            "cold_seconds": round(e2e_cold, 6),
            "warm_seconds": round(e2e_warm, 6),
        },
        "trace_cache_stats": warm_stats.summary(),
        "memo_runs": memo_runs,
        "memo_bytes_per_run": round(memo_bytes / memo_runs, 2),
        "encode_peak_bytes_per_run": round(encode_bytes / memo_runs, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true", help="one repeat (CI smoke)")
    parser.add_argument(
        "--set-baseline",
        action="store_true",
        help="record this run as the pre-optimization baseline",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    repeats = 1 if args.quick else max(1, args.repeats)

    current = run_benchmarks(repeats)
    sweep = measure_sweep(repeats)
    data = {}
    if args.out.exists():
        data = json.loads(args.out.read_text())
    if args.set_baseline or "baseline" not in data:
        data["baseline"] = current
    # A scenario added after the baseline was recorded has no speedup: it
    # prints "-" until a ``--set-baseline`` run records a real baseline.
    data["current"] = current
    data["sweep"] = sweep
    data["speedup"] = {
        name: round(
            data["baseline"][name]["wall_seconds"] / current[name]["wall_seconds"], 3
        )
        for name in current
        if name in data["baseline"]
    }
    data["meta"] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")

    width = max(len(name) for name in current)
    print(f"{'scenario':{width}}  {'wall (s)':>9}  {'events/s':>12}  {'speedup':>8}")
    for name, result in current.items():
        speedup = data["speedup"].get(name)
        print(
            f"{name:{width}}  {result['wall_seconds']:>9.3f}  "
            f"{result['events_per_second']:>12,.0f}  "
            f"{speedup if speedup is not None else '-':>8}"
        )
    frontend = sweep["frontend"]
    end_to_end = sweep["end_to_end"]
    print(
        f"sweep ({sweep['specs']} specs, {sweep['distinct_frontends']} frontends): "
        f"frontend {frontend['no_cache_seconds']:.3f}s live -> "
        f"{frontend['warm_disk_seconds']:.3f}s warm-disk "
        f"({frontend['speedup_warm_disk_vs_no_cache']}x); "
        f"end-to-end {end_to_end['cold_seconds']:.2f}s cold -> "
        f"{end_to_end['warm_seconds']:.2f}s warm; "
        f"memo {sweep['memo_runs']} runs at {sweep['memo_bytes_per_run']} B/run, "
        f"encode peak {sweep['encode_peak_bytes_per_run']} B/run"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
