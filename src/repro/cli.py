"""Command-line interface mirroring the mNPUsim artifact.

The original simulator runs as::

    ./mnpusim <arch_list> <network_list> <dram_config> <npumem_list> \\
              <result_path> <misc_config>

This CLI keeps that shape (``mnpusim run``) while adding conveniences the
artifact documents separately: listing the bundled benchmark zoo, a quick
mix runner over named workloads and sharing levels, per-figure
regeneration (``mnpusim figure``, optionally parallel with ``--jobs``)
and batched multi-figure sweeps (``mnpusim sweep``).  Result files follow
the artifact's layout: ``<result_path>/result/avg_cycle_*.txt``,
``memory_footprint_*``, ``utilization_*`` plus a JSON summary.

The ``mix`` path builds its system through the same :class:`RunSpec` the
experiment runner uses, so CLI mix results and cached experiment results
agree for identical parameters.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import signal
import sys
import threading
from pathlib import Path
from typing import TYPE_CHECKING

# What building the parser needs, so every command loads it.  Each
# command imports the other layers it runs, so a command that simulates
# nothing (``models``, ``cache``, a fully cached ``figure``) never loads
# the simulator.
from repro.compute.dataflow import registered_dataflows
from repro.errors import (
    DEFAULT_MAX_TICKS,
    DEFAULT_STALL_WINDOW_TICKS,
    SimulationStallError,
)
from repro.models import serving_names, zoo

if TYPE_CHECKING:
    from repro.config.system import SystemConfig
    from repro.core.simulator import MixResult, MultiCoreNPUSim
    from repro.models.serving import ServingParams

#: Workload names the mix-shaped subcommands accept: the benchmark zoo
#: plus the qualified LLM-serving shapes (``gpt2:prefill``/``gpt2:decode``).
WORKLOAD_CHOICES = (*zoo.NAMES, *serving_names.SERVING_NAMES)


def _read_list_file(path: str) -> list[str]:
    """A *_list file: one per-core config path per line."""
    lines = [
        line.strip()
        for line in Path(path).read_text().splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise SystemExit(f"{path}: empty config list")
    return lines


def _write_results(
    result: MixResult, system: SystemConfig, out_dir: Path, networks
) -> None:
    """Write artifact-style per-core result files plus a JSON summary."""
    from repro.compute.requestgen import RequestGenerator

    result_dir = out_dir / "result"
    result_dir.mkdir(parents=True, exist_ok=True)
    summary = []
    for workload, network in zip(result.workloads, networks):
        arch = system.arch[workload.core]
        stem = f"arch_{arch.name}{workload.core}_{workload.workload}{workload.core}"
        (result_dir / f"avg_cycle_{stem}.txt").write_text(f"{workload.cycles}\n")
        footprint = RequestGenerator(network, arch).memory_footprint_bytes
        (result_dir / f"memory_footprint_{stem}.txt").write_text(f"{footprint}\n")
        (result_dir / f"utilization_{stem}.txt").write_text(
            f"{workload.pe_utilization:.6f}\n"
        )
        layer_lines = "".join(
            f"{network.layers[index].name} {cycles}\n"
            for index, cycles in enumerate(workload.layer_cycles)
        )
        (result_dir / f"execution_cycle_{stem}.txt").write_text(layer_lines)
        summary.append(
            {
                "core": workload.core,
                "workload": workload.workload,
                "cycles": workload.cycles,
                "pe_utilization": workload.pe_utilization,
                "tlb_miss_rate": workload.tlb_miss_rate,
                "walks": workload.walks,
                "traffic_bytes": workload.traffic_bytes,
            }
        )
    (result_dir / "summary.json").write_text(json.dumps(summary, indent=2))


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.config import (
        load_arch_config,
        load_dram_config,
        load_misc_config,
        load_npumem_config,
    )
    from repro.config.system import SystemConfig
    from repro.core.simulator import MultiCoreNPUSim, freeze_heap
    from repro.core.tracing import write_request_logs

    arch_paths = _read_list_file(args.arch_list)
    network_names = _read_list_file(args.network_list)
    npumem_paths = _read_list_file(args.npumem_list)
    if not len(arch_paths) == len(network_names) == len(npumem_paths):
        raise SystemExit("arch, network and npumem lists must have one line per core")
    dram = load_dram_config(args.dram_config)
    misc = load_misc_config(args.misc_config)
    arch_configs = tuple(load_arch_config(path) for path in arch_paths)
    if args.dataflow is not None:
        # --dataflow overrides whatever the arch_config files chose, on
        # every core (the files' own `dataflow` key still applies when
        # the flag is absent).
        arch_configs = tuple(
            dataclasses.replace(arch, dataflow=args.dataflow)
            for arch in arch_configs
        )
    system = SystemConfig(
        arch=arch_configs,
        npumem=tuple(load_npumem_config(path) for path in npumem_paths),
        dram=dram,
        misc=misc,
        share_dram=not args.static_dram,
        share_ptw=not args.static_ptw,
        share_tlb=not args.static_tlb,
    )
    networks = _serving_networks(
        serving_names.qualify(network_names, args.phase), args.scale,
        params=_serving_params(args),
    )
    freeze_heap()
    sim = MultiCoreNPUSim(
        system,
        networks,
        trace_requests=args.trace,
        stall_window_ticks=args.stall_window,
    )
    result = _run_sim(sim, args.max_ticks)
    out_dir = Path(args.result_path)
    _write_results(result, system, out_dir, networks)
    if args.trace:
        assert sim.timeline is not None
        write_request_logs(sim.timeline, out_dir / "dramsim_output")
    for workload in result.workloads:
        print(
            f"core{workload.core} {workload.workload}: {workload.cycles} cycles, "
            f"PE util {workload.pe_utilization:.3f}"
        )
    return 0


def _run_sim(sim: MultiCoreNPUSim, max_ticks: int) -> MixResult:
    """Run a simulation under the CLI's tick safety valve + stall watchdog."""
    try:
        return sim.run(max_ticks=max_ticks)
    except SimulationStallError as error:
        # The multi-line detail names where every core is wedged.
        raise SystemExit(f"simulation aborted: {error.detail()}") from error
    except RuntimeError as error:
        raise SystemExit(f"simulation aborted: {error}") from error


def _run_mix(
    args: argparse.Namespace, *, dataflow: str, observe: bool = False
) -> tuple[MultiCoreNPUSim, MixResult]:
    """Build and run the mix ``args`` names; the simulator and its result.

    The same frozen descriptor the experiment runner plans from, so CLI
    mixes and cached figure sweeps simulate the identical system
    (iterations=1, staggered launch — see presets.mix_system).
    ``observe=True`` registers every component into the counter registry
    and has the timeline tracer record spans.
    """
    from repro.core.sharing import SharingLevel
    from repro.core.simulator import MultiCoreNPUSim, freeze_heap
    from repro.experiments.spec import RunSpec

    sharing = (
        SharingLevel[args.sharing.upper().lstrip("+")]
        if args.sharing
        else SharingLevel.DWT
    )
    workloads = serving_names.qualify(args.workloads, args.phase)
    if args.phase is not None and workloads == tuple(args.workloads):
        # --phase qualified nothing: no workload is a bare serving base.
        raise SystemExit(
            "phase only applies to bare serving-base workloads "
            f"(e.g. 'gpt2'); none in {workloads!r} — either "
            "drop 'phase' or phase-qualify the names directly"
        )
    try:
        spec = RunSpec.mix(
            workloads,
            sharing,
            scale=args.scale,
            page_bytes=args.page_bytes,
            dataflow=dataflow,
            serving=_serving_params(args),
        )
    except ValueError as error:
        raise SystemExit(str(error)) from error
    networks = _serving_networks(workloads, args.scale, params=spec.serving)
    freeze_heap()
    sim = MultiCoreNPUSim(
        spec.system(),
        networks,
        observe=observe,
        stall_window_ticks=args.stall_window,
    )
    return sim, _run_sim(sim, args.max_ticks)


def _cmd_mix(args: argparse.Namespace) -> int:
    sim, result = _run_mix(args, dataflow=args.dataflow)
    for workload in result.workloads:
        print(
            f"core{workload.core} {workload.workload}: {workload.cycles} cycles, "
            f"PE util {workload.pe_utilization:.3f}, "
            f"TLB miss rate {workload.tlb_miss_rate:.3f}, walks {workload.walks}"
        )
    if args.result_path:
        _write_results(result, sim.system, Path(args.result_path), sim.networks)
    return 0


def _print_progress(event) -> None:
    """Default sweep progress reporter: one line per completion on stderr."""
    label = event.spec.label if event.spec is not None else "cache"
    eta = (
        f", eta {event.eta_seconds:.0f}s"
        if event.eta_seconds is not None
        else ""
    )
    failed = (
        f", {event.failed} failed" if getattr(event, "failed", 0) else ""
    )
    print(
        f"[{event.completed}/{event.total}] {label} "
        f"({event.cache_hits} cached, {event.elapsed_seconds:.1f}s{eta}{failed})",
        file=sys.stderr,
    )


def _print_cache_summary(runner, quiet: bool) -> None:
    """Structured one-line cache-hit summary after a figure/sweep batch."""
    if quiet or runner.last_outcome is None:
        return
    from repro.obs.profiling import human_bytes

    outcome = runner.last_outcome
    trace = runner.last_trace_stats
    if trace.requests:
        traces = (
            f"traces {trace.requests} distinct: {trace.memo_hits} memo hit, "
            f"{trace.compiles} compiled, hit-rate {trace.hit_rate:.2f}"
        )
    else:
        # Every result came from the cache, so no frontend was resolved;
        # a 0.00 hit rate would read as a total miss.
        traces = "traces none needed (every result cached)"
    usage = runner.cache_usage()
    print(
        f"cache: results {outcome.cache_hits}/{outcome.total} cached, "
        f"{usage['shards']} shard(s) {human_bytes(usage['bytes'])} on disk; "
        f"{traces}",
        file=sys.stderr,
    )


def _report_failures(runner) -> int:
    """Structured one-line error per failed spec; the process exit code."""
    failures = getattr(runner, "failures", None) or {}
    for failure in failures.values():
        print(
            f"error: {failure.key[:12]} ({failure.label}): "
            f"[{failure.kind}] {failure.error} "
            f"after {failure.attempts} attempt(s)",
            file=sys.stderr,
        )
    return 1 if failures else 0


def _figure_mixes(args: argparse.Namespace, figures) -> dict:
    """Core count -> the mixes a figure/sweep invocation asked for.

    Only the core counts ``figures`` need; ``--mixes`` limits each, and
    the quad count defaults to 60 of its 330 mixes.
    """
    from repro.experiments.mixes import mixes_for

    defaults = {4: 60}
    return {
        figure.cores: mixes_for(
            figure.cores,
            args.mixes if args.mixes is not None else defaults.get(figure.cores),
        )
        for figure in figures
        if figure.cores is not None
    }


def _make_runner(args: argparse.Namespace, *, profile: bool = False):
    from repro.experiments.runner import ExperimentRunner

    # Progress reporting is always on (serial and parallel alike) unless
    # --quiet asked for silence, so figure and sweep behave identically.
    return ExperimentRunner(
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        progress=None if args.quiet else _print_progress,
        run_timeout=args.run_timeout,
        profile=profile,
    )


def _cmd_figure(args: argparse.Namespace) -> int:
    """Regenerate one paper figure through the cached experiment runner."""
    return _sweep_with(_make_runner(args), args, [args.name])


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Regenerate several figures from one deduplicated parallel batch."""
    return _sweep_with(_make_runner(args), args, args.names)


def _sweep_with(runner, args: argparse.Namespace, names) -> int:
    """Plan, execute and reduce ``names`` on a caller-built runner.

    The plan defaults (scale, dataflow, serving axes) come from ``args``
    as a :class:`PlanContext`.  Every figure's specs execute in a single
    :meth:`ExperimentRunner.run_many` call (see
    :func:`repro.experiments.figures.run_figures`); the figures' headline
    tables go to stdout.
    """
    from repro.experiments import figures
    from repro.experiments.report import format_mapping
    from repro.experiments.spec import PlanContext

    unknown = [name for name in names if name not in figures.FIGURES]
    if unknown:
        raise SystemExit(
            f"unknown figures {unknown}; pick from {sorted(figures.FIGURES)}"
        )
    ctx = PlanContext(
        scale=args.scale,
        dataflow=args.dataflow,
        phase=args.phase,
        serving=_serving_params(args),
    )
    mixes = _figure_mixes(args, [figures.FIGURES[name] for name in names])
    try:
        with _graceful_termination():
            reduced = figures.run_figures(ctx, runner, names, mixes)
    except KeyboardInterrupt:
        return _report_interrupted_sweep(runner)
    _print_cache_summary(runner, args.quiet)
    for name in names:
        data = _round4(figures.FIGURES[name].headline(reduced[name]))
        print(format_mapping(f"{name} (scale={args.scale})", data))
    return _report_failures(runner)


class _graceful_termination:
    """Route SIGTERM through KeyboardInterrupt for the enclosed block.

    SIGINT already raises KeyboardInterrupt; mapping SIGTERM onto the
    same path means a supervisor's polite kill gets the identical
    graceful unwind — the runner journals an ``interrupt`` record and
    everything settled so far stays durable in the cache.  Only the main
    thread may install signal handlers; elsewhere (tests driving the CLI
    from worker threads) this is a no-op.
    """

    def __enter__(self):
        self._previous = None
        if threading.current_thread() is threading.main_thread():
            self._previous = signal.signal(signal.SIGTERM, self._interrupt)
        return self

    def __exit__(self, *exc_info):
        if self._previous is not None:
            signal.signal(signal.SIGTERM, self._previous)
        return False

    @staticmethod
    def _interrupt(signum, frame):
        raise KeyboardInterrupt


def _report_interrupted_sweep(runner) -> int:
    """Partial-failure summary after an interrupted sweep; exit code 130."""
    outcome = runner.last_outcome
    if outcome is not None:
        print(
            f"interrupted: {outcome.succeeded}/{outcome.total} settled "
            f"({outcome.cache_hits} cached, {outcome.executed} executed, "
            f"{len(outcome.failures)} failed); "
            "settled results are cached — rerun to resume",
            file=sys.stderr,
        )
    else:
        print("interrupted before any spec settled", file=sys.stderr)
    _report_failures(runner)
    return 130


def _round4(data: dict) -> dict:
    """Round numeric headline values; keep missing (None) markers as-is."""
    return {
        key: round(value, 4) if isinstance(value, (int, float)) else value
        for key, value in data.items()
    }


def _cmd_models(args: argparse.Namespace) -> int:
    print(f"{'model':8s} {'type':15s} {'layers':>6s} {'MACs':>14s} {'bytes':>12s}")
    for name in zoo.NAMES:
        network = zoo.get(name, args.scale)
        print(
            f"{name:8s} {zoo.CATEGORIES[name]:15s} {len(network.layers):6d} "
            f"{network.total_macs:14d} {network.total_bytes:12d}"
        )
    return 0


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by the ``figure`` and ``sweep`` subcommands."""
    parser.add_argument(
        "--mixes", type=int, default=None,
        help="limit the workload-mix count (default: full dual and "
             "eight-workload sets, 60 quad)",
    )
    parser.add_argument("--scale", default="mini", choices=("mini", "full"))
    parser.add_argument(
        "--dataflow", default="os", choices=registered_dataflows(),
        help="dataflow engine the planned runs default to (dataflow_compare "
             "sweeps all registered engines regardless)",
    )
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for cold simulations (1 = in-process serial)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-run progress lines on stderr",
    )
    parser.add_argument(
        "--run-timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget; overruns fail the spec, not the sweep",
    )
    _add_serving_options(parser)


def _add_run_limit_options(parser: argparse.ArgumentParser) -> None:
    """The tick safety valve and stall watchdog of one simulation."""
    parser.add_argument(
        "--max-ticks", type=int, default=DEFAULT_MAX_TICKS,
        help="abort a run exceeding this many global ticks (safety valve)",
    )
    parser.add_argument(
        "--stall-window", type=int, default=DEFAULT_STALL_WINDOW_TICKS,
        help="livelock watchdog: abort when no core retires work for this "
             "many global ticks (0 disables)",
    )


#: CLI flag -> ServingParams field.  A flag left at its ``None`` default
#: means "use the ServingParams default"; when *every* flag is None the
#: whole serving block is omitted so non-serving runs keep their exact
#: legacy cache keys.
_SERVING_FLAG_FIELDS = (
    ("serving_batch", "batch"),
    ("serving_prompt", "prompt"),
    ("decode_steps", "decode_steps"),
    ("experts", "experts"),
    ("capacity_factor", "capacity_factor"),
    ("moe_skew", "moe_skew"),
    ("zipf_alpha", "zipf_alpha"),
    ("arrival", "arrival"),
    ("arrival_rate", "arrival_rate"),
    ("serving_seed", "seed"),
)


def _add_serving_options(parser: argparse.ArgumentParser) -> None:
    """LLM-serving knobs shared by run/mix/figure/sweep/stats/profile."""
    group = parser.add_argument_group(
        "LLM serving",
        "shape gpt2:prefill / gpt2:decode workloads (see repro.models.serving); "
        "--phase qualifies bare 'gpt2' workload names",
    )
    group.add_argument(
        "--phase", default=None, choices=serving_names.PHASES,
        help="qualify bare serving-base workloads with this phase "
        "('gpt2' runs as 'gpt2:PHASE')",
    )
    group.add_argument(
        "--serving-batch", type=int, default=None, metavar="N",
        help="concurrent request slots (continuous batching width)",
    )
    group.add_argument(
        "--serving-prompt", type=int, default=None, metavar="TOKENS",
        help="prompt length per request",
    )
    group.add_argument(
        "--decode-steps", type=int, default=None, metavar="N",
        help="decode schedule horizon in steps",
    )
    group.add_argument(
        "--experts", type=int, default=None, metavar="N",
        help="MoE expert count per FFN block",
    )
    group.add_argument(
        "--capacity-factor", type=float, default=None, metavar="F",
        help="per-expert token capacity multiplier (>= 1.0)",
    )
    group.add_argument(
        "--moe-skew", default=None, choices=serving_names.SKEWS,
        help="token-to-expert routing distribution",
    )
    group.add_argument(
        "--zipf-alpha", type=float, default=None, metavar="A",
        help="skew exponent when --moe-skew=zipf",
    )
    group.add_argument(
        "--arrival", default=None, choices=serving_names.ARRIVALS,
        help="request-arrival model (poisson or closed-loop)",
    )
    group.add_argument(
        "--arrival-rate", type=float, default=None, metavar="P",
        help="per-step arrival probability for --arrival=poisson",
    )
    group.add_argument(
        "--serving-seed", type=int, default=None, metavar="SEED",
        help="seed for the arrival and routing trace streams",
    )


def _serving_params(args: argparse.Namespace) -> ServingParams | None:
    """Build ServingParams from flags; None when no serving flag was given."""
    overrides = {
        field: getattr(args, flag)
        for flag, field in _SERVING_FLAG_FIELDS
        if getattr(args, flag, None) is not None
    }
    if not overrides:
        return None
    from repro.models.serving import ServingParams

    try:
        return ServingParams(**overrides)
    except ValueError as error:
        raise SystemExit(str(error)) from error


def _serving_networks(names, scale, *, params):
    """Resolve workload names serving-aware; exit cleanly on bad names."""
    from repro.models.serving import networks_for

    try:
        return networks_for(names, scale, params=params)
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error)) from error


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the on-disk result shard store."""
    from repro.obs.profiling import human_bytes
    from repro.storage import ShardStore

    store = ShardStore(
        Path(args.cache_dir) if args.cache_dir else Path.cwd() / ".repro_cache"
    )
    if args.action == "stats":
        usage = store.usage()
        quarantine = f"{usage['quarantined']} quarantined"
        if usage["quarantined"]:
            quarantine += f" ({human_bytes(usage['quarantine_bytes'])})"
        print(
            f"results  {usage['shards']:5d} shard(s), "
            f"{human_bytes(usage['bytes']):>10s}, "
            f"{quarantine}  ({store.directory})"
        )
    elif args.quarantine:
        removed = store.clear_quarantine()
        print(
            f"cleared {removed} quarantined results shard(s) "
            f"from {store.quarantine_dir}"
        )
    else:
        removed = store.clear()
        print(f"cleared {removed} results shard(s) from {store.directory}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the sweep daemon until SIGTERM/SIGINT, then drain and exit.

    The runner is built with ``keep_pool=True`` so the supervised worker
    pool stays warm across requests, and the service owns the cache
    (memo + disk), single-flight dedup, bounded admission, deadline
    propagation and the circuit breaker (see :mod:`repro.serve.server`).
    Requests carry fully described specs, so the daemon plans nothing
    and takes no scale or dataflow defaults.
    """
    from repro.experiments.runner import ExperimentRunner
    from repro.serve.server import CircuitBreaker, ServeDaemon, SweepService

    runner = ExperimentRunner(
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        progress=None,
        run_timeout=args.run_timeout,
        keep_pool=True,
    )
    service = SweepService(
        runner,
        queue_limit=args.queue_limit,
        default_deadline_seconds=args.default_deadline,
        drain_timeout=args.drain_timeout,
        breaker=CircuitBreaker(
            threshold=args.breaker_threshold,
            cooldown=args.breaker_cooldown,
        ),
    )
    daemon = ServeDaemon(service, host=args.host, port=args.port)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: daemon.request_stop())
    daemon.start()
    # The smoke harness and operators parse this line for the bound port
    # (--port 0 asks the OS for an ephemeral one).
    print(f"serving on {daemon.url}", flush=True)
    while not daemon.wait_for_stop(0.2):
        pass
    print("shutdown requested; draining...", file=sys.stderr, flush=True)
    drained = daemon.stop()
    print(
        "stopped (clean drain)" if drained else "stopped (drain timed out)",
        file=sys.stderr,
    )
    return 0 if drained else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run a mix with observability on and render the counter tree."""
    from repro.experiments.spec import DEFAULT_DATAFLOW
    from repro.obs.registry import format_tree

    sim, result = _run_mix(args, dataflow=DEFAULT_DATAFLOW, observe=True)
    snapshot = result.counters
    assert snapshot is not None  # observe=True guarantees a registry
    if args.json:
        target = Path(args.json)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(snapshot, indent=2, sort_keys=True))
        print(f"counter snapshot written to {target}", file=sys.stderr)
    print(format_tree(snapshot, max_depth=args.depth))
    return 0


def _cmd_profile_run(args: argparse.Namespace) -> int:
    """One observed run: counter tree, span summary, Perfetto export."""
    from repro.experiments.spec import DEFAULT_DATAFLOW
    from repro.obs.registry import format_tree

    sim, result = _run_mix(args, dataflow=DEFAULT_DATAFLOW, observe=True)
    for workload in result.workloads:
        print(
            f"core{workload.core} {workload.workload}: {workload.cycles} cycles, "
            f"PE util {workload.pe_utilization:.3f}"
        )
    timeline = sim.timeline
    assert timeline is not None
    print(
        f"timeline: {timeline.total_spans()} spans buffered "
        f"({timeline.total_dropped()} dropped)",
        file=sys.stderr,
    )
    if args.trace:
        target = timeline.export(args.trace)
        print(
            f"Perfetto trace written to {target} "
            f"(open at https://ui.perfetto.dev)",
            file=sys.stderr,
        )
    snapshot = result.counters
    assert snapshot is not None
    if args.counters:
        target = Path(args.counters)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(snapshot, indent=2, sort_keys=True))
        print(f"counter snapshot written to {target}", file=sys.stderr)
    print(format_tree(snapshot, max_depth=args.depth))
    return 0


def _cmd_profile_sweep(args: argparse.Namespace) -> int:
    """A figure sweep under the phase profiler; prints the phase table."""
    from repro.obs.profiling import format_profile

    runner = _make_runner(args, profile=True)
    code = _sweep_with(runner, args, args.names)
    assert runner.profiler is not None
    print(format_profile(runner.profiler.snapshot()))
    return code


def _add_observed_mix_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by ``stats`` and ``profile run`` (mix-shaped)."""
    parser.add_argument(
        "workloads", nargs="+", choices=WORKLOAD_CHOICES, metavar="workload"
    )
    parser.add_argument("--sharing", default="DWT", help="D, DW or DWT")
    parser.add_argument("--scale", default="mini", choices=("mini", "full"))
    parser.add_argument("--page-bytes", type=int, default=4096)
    _add_run_limit_options(parser)
    parser.add_argument(
        "--depth", type=int, default=None, metavar="N",
        help="truncate the counter tree below this depth",
    )
    _add_serving_options(parser)


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``mnpusim`` console script."""
    # Everything imported so far lives as long as the process.  Freezing
    # it keeps every collection from re-scanning it, including on the
    # commands that never simulate; ``freeze_heap`` freezes once more
    # after a command loads the simulator.  Once per process: a later
    # call (tests drive ``main`` repeatedly) must not pin the garbage
    # that has built up since.
    if not gc.get_freeze_count():
        gc.freeze()
    parser = argparse.ArgumentParser(
        prog="mnpusim", description="Multi-core NPU simulator (mNPUsim reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run from mNPUsim-style config files")
    run.add_argument("arch_list", help="file listing one arch_config path per core")
    run.add_argument("network_list", help="file listing one benchmark name per core")
    run.add_argument("dram_config", help="shared DRAM config file")
    run.add_argument("npumem_list", help="file listing one npumem_config path per core")
    run.add_argument("result_path", help="output directory")
    run.add_argument("misc_config", help="misc (execution mode) config file")
    run.add_argument("--scale", default="mini", choices=("mini", "full"))
    run.add_argument(
        "--dataflow", default=None, choices=registered_dataflows(),
        help="override the arch_config files' dataflow engine on every core",
    )
    run.add_argument(
        "--static-dram", action="store_true", help="partition channels statically"
    )
    run.add_argument(
        "--static-ptw", action="store_true", help="partition walkers statically"
    )
    run.add_argument("--static-tlb", action="store_true", help="keep per-core TLBs")
    run.add_argument(
        "--trace", action="store_true",
        help="write dram/tlb/ptw request logs (the artifact's DRAMREQ_NPU_TRACE)",
    )
    _add_run_limit_options(run)
    _add_serving_options(run)
    run.set_defaults(func=_cmd_run)

    mix = sub.add_parser("mix", help="co-run named benchmarks under a sharing level")
    mix.add_argument(
        "workloads", nargs="+", choices=WORKLOAD_CHOICES, metavar="workload"
    )
    mix.add_argument("--sharing", default="DWT", help="D, DW or DWT")
    mix.add_argument("--scale", default="mini", choices=("mini", "full"))
    mix.add_argument("--page-bytes", type=int, default=4096)
    mix.add_argument(
        "--dataflow", default="os", choices=registered_dataflows(),
        help="dataflow engine compiling every core's traces (default: os)",
    )
    mix.add_argument("--result-path", default=None)
    _add_run_limit_options(mix)
    _add_serving_options(mix)
    mix.set_defaults(func=_cmd_mix)

    models = sub.add_parser("models", help="list the bundled benchmark zoo")
    models.add_argument("--scale", default="mini", choices=("mini", "full"))
    models.set_defaults(func=_cmd_models)

    figure = sub.add_parser(
        "figure", help="regenerate one paper figure's headline numbers"
    )
    figure.add_argument(
        "name",
        help="fig4, fig5, ..., fig18, dataflow_compare or serving_colocation",
    )
    _add_sweep_options(figure)
    figure.set_defaults(func=_cmd_figure)

    sweep = sub.add_parser(
        "sweep",
        help="regenerate several figures from one deduplicated parallel batch",
    )
    sweep.add_argument("names", nargs="+", metavar="figure",
                       help="figure names, e.g. fig4 fig6 fig9")
    _add_sweep_options(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    stats = sub.add_parser(
        "stats",
        help="run a mix with observability on and render the counter tree",
    )
    _add_observed_mix_options(stats)
    stats.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full counter snapshot as JSON",
    )
    stats.set_defaults(func=_cmd_stats)

    profile = sub.add_parser(
        "profile",
        help="observability deep-dive: Perfetto traces and phase profiles",
    )
    profile_sub = profile.add_subparsers(dest="mode", required=True)

    profile_run = profile_sub.add_parser(
        "run",
        help="one observed mix: counter tree, span summary, Perfetto export",
    )
    _add_observed_mix_options(profile_run)
    profile_run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="export the timeline as Chrome trace-event JSON "
             "(open at https://ui.perfetto.dev)",
    )
    profile_run.add_argument(
        "--counters", default=None, metavar="PATH",
        help="also write the counter snapshot as JSON",
    )
    profile_run.set_defaults(func=_cmd_profile_run)

    profile_sweep = profile_sub.add_parser(
        "sweep",
        help="run a figure sweep under the phase profiler",
    )
    profile_sweep.add_argument("names", nargs="+", metavar="figure",
                               help="figure names, e.g. fig4 fig6 fig9")
    _add_sweep_options(profile_sweep)
    profile_sweep.set_defaults(func=_cmd_profile_sweep)

    cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk result cache"
    )
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument("--cache-dir", default=None,
                       help="cache root (default: ./.repro_cache)")
    cache.add_argument(
        "--quarantine", action="store_true",
        help="clear only the quarantined (corrupt) shards, keeping the "
             "healthy cache intact",
    )
    cache.set_defaults(func=_cmd_cache)

    serve = sub.add_parser(
        "serve",
        help="run the sweep daemon: cached, deduplicated runs over HTTP",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument("--cache-dir", default=None,
                       help="cache root (default: ./.repro_cache)")
    serve.add_argument(
        "--jobs", type=int, default=2,
        help="worker processes for cold simulations",
    )
    serve.add_argument(
        "--run-timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget (request deadlines tighten it)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="max queued cold runs before shedding with 429",
    )
    serve.add_argument(
        "--default-deadline", type=float, default=300.0, metavar="SECONDS",
        help="deadline applied to requests that carry none",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="max time to let in-flight runs settle on shutdown",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive worker-pool crashes that open the circuit breaker",
    )
    serve.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="seconds the breaker stays open before a half-open probe",
    )
    serve.set_defaults(func=_cmd_serve)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
