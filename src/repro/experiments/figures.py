"""Every paper figure: a planner, a pure reducer and a printed headline.

Every simulated figure is *plan once, execute once, reduce purely*:

* a ``*_specs`` planner takes a
  :class:`~repro.experiments.spec.PlanContext` (the sweep's scale,
  dataflow and serving defaults) and returns a keyed plan —
  ``{role: RunSpec}``, where a role is a small tuple naming the spec's
  part in the figure, such as ``("ideal", name)`` or
  ``("mix", mix, level.label)``.  Planning needs no runner and opens no
  cache;
* one :meth:`ExperimentRunner.run_many` call executes the plan's
  deduplicated specs (in parallel when the runner's ``jobs > 1``);
* a ``reduce_*`` function turns ``{role: results}`` into the figure.  It
  never sees a runner: a role whose spec failed is simply absent, and
  the figure shows a missing data point there.

The :data:`FIGURES` registry names each figure's planner and reducer,
and :func:`run_figures` — the body of ``mnpusim figure``/``sweep`` and
the one way a figure is produced — unions several figures' plans into a
single batch.

Index (paper -> :data:`FIGURES` name -> planner, reducer):

====== ========================= =================================================
Fig 4  ``fig4``                  :func:`sharing_sweep_specs`, :func:`reduce_fig4`
Fig 5  ``fig5``                  :func:`sharing_sweep_specs`, :func:`reduce_fig5`
Fig 6  ``fig6``                  :func:`sharing_sweep_specs`, :func:`reduce_fig6`
Fig 7  ``fig7``                  :func:`sharing_sweep_specs`, :func:`reduce_fig7`
Fig 8  ``fig8``                  :func:`fig8_specs`, :func:`reduce_fig8`
Fig 9  ``fig9``                  :func:`bw_partition_specs`, :func:`reduce_fig9`
Fig 10 ``fig10``                 :func:`bw_partition_specs`, :func:`reduce_fig10`
Fig 11 ``fig11``                 :func:`fig11_specs`, :func:`reduce_fig11`
Fig 13 ``fig13``                 :func:`ptw_partition_specs`, :func:`reduce_fig13`
Fig 14 ``fig14``                 :func:`ptw_partition_specs`, :func:`reduce_fig14`
Fig 15 ``fig15``                 :func:`fig15_specs`, :func:`reduce_fig15`
Fig 16 ``fig16``, ``fig16_quad`` :func:`fig16_specs`, :func:`reduce_fig16`
Fig 17 ``fig17``                 :func:`mapping_specs`, :func:`reduce_fig17`
Fig 18 ``fig18``                 :func:`mapping_specs`, :func:`reduce_fig18`
Ext    ``dataflow_compare``      :func:`dataflow_compare_specs`,
                                 :func:`reduce_dataflow_compare`
Ext    ``serving_colocation``    :func:`serving_colocation_specs`,
                                 :func:`reduce_serving_colocation`
====== ========================= =================================================

Outside the registry, because no :class:`RunSpec` describes them (see
DESIGN.md, "One figure path"): Fig 2b :func:`fig2_burstiness` and Fig 12
:func:`fig12_bandwidth_utilization` each trace the bandwidth of one
simulation; Tables 1 and 2 (:func:`table1_models`,
:func:`table2_configuration`) simulate nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.compute.dataflow import registered_dataflows
from repro.config import presets
from repro.core.metrics import box_stats, cdf_points, fairness, geomean, percentile
from repro.core.sharing import CONTENDED_LEVELS, SWEEP_LEVELS, SharingLevel
from repro.experiments.mixes import all_mixes, mix_label
from repro.experiments.spec import PlanContext, RunSpec
from repro.models import zoo

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentRunner
    from repro.mapping.mapper import MappingStudy

#: DRAM-bandwidth ratio splits of section 4.3 (eight channels, dual-core).
BW_SPLITS = ((1, 7), (2, 6), (4, 4), (6, 2), (7, 1))

#: A spec's part in a figure, e.g. ``("ideal", "ncf")``.
Role = tuple
#: A figure's keyed plan.
Plan = dict[Role, RunSpec]
#: An executed plan: role -> per-workload result dicts (failed roles absent).
Results = Mapping[Role, list[dict[str, Any]]]
#: The mixes a figure covers: equal-size workload tuples.
Mixes = Sequence[tuple[str, ...]]


# --------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------- #


def _safe_geomean(values: Sequence[float]) -> float | None:
    """Geomean over the present values; ``None`` when all are missing."""
    present = [value for value in values if value is not None]
    return geomean(present) if present else None


def _fairness_of(speedups: Sequence[float]) -> float:
    """Equation 1 fairness of a mix, from its per-workload speedups."""
    return fairness([1.0 / value for value in speedups])


def _cycles(
    results: Results, *prefix: Any, keys: Iterable[Any] | None = None
) -> dict[Any, int]:
    """``key -> cycles`` of every present ``(*prefix, key)`` solo role.

    ``keys`` defaults to the model zoo's workload names.
    """
    cycles = {}
    for key in zoo.NAMES if keys is None else keys:
        runs = results.get((*prefix, key))
        if runs is not None:
            cycles[key] = runs[0]["cycles"]
    return cycles


def _speedups(
    results: Results, role: Role, mix: Sequence[str], ideal: dict[str, int]
) -> list[float] | None:
    """Per-workload speedups of a mix run vs Ideal, or ``None`` if missing."""
    runs = results.get(role)
    if runs is None or any(name not in ideal for name in mix):
        return None
    return [ideal[name] / run["cycles"] for name, run in zip(mix, runs)]


def _ideal_plan(ctx: PlanContext, num_cores: int, **fields: Any) -> Plan:
    return {
        ("ideal", name): ctx.ideal(name, num_cores, **fields)
        for name in zoo.NAMES
    }


def mix_speedups(
    results: Results,
    mix: Sequence[str],
    level: SharingLevel,
    ideal: dict[str, int],
    static: dict[str, int],
) -> list[float]:
    """Per-workload speedups (vs Ideal) of a mix under one sharing level.

    Returns ``[]`` when the mix run (or any baseline it needs) failed —
    the missing-data marker reducers degrade on.
    """
    if level is SharingLevel.STATIC:
        if any(name not in ideal or name not in static for name in mix):
            return []
        return [ideal[name] / static[name] for name in mix]
    return _speedups(results, ("mix", mix, level.label), mix, ideal) or []


def sharing_sweep_specs(ctx: PlanContext, mixes: Mixes) -> Plan:
    """Every spec behind Figures 4-7: Ideal/Static solos + contended mixes.

    The core count is the mixes' size (two for Figs 4/6, four for 5/7).
    The equal Static split is a plain solo: one per-core resource share.
    """
    plan = _ideal_plan(ctx, len(mixes[0]))
    for name in zoo.NAMES:
        plan["static", name] = ctx.solo(name)
    for mix in mixes:
        for level in CONTENDED_LEVELS:
            plan["mix", mix, level.label] = ctx.mix(mix, level)
    return plan


def sharing_sweep(results: Results, mixes: Mixes) -> dict[str, Any]:
    """Speedups for every mix under all four sweep levels."""
    ideal = _cycles(results, "ideal")
    static = _cycles(results, "static")
    per_mix = {
        mix_label(mix): {
            level.label: mix_speedups(results, mix, level, ideal, static)
            for level in SWEEP_LEVELS
        }
        for mix in mixes
    }
    return {
        "num_cores": len(mixes[0]),
        "mixes": [mix_label(mix) for mix in mixes],
        "mix_tuples": [list(mix) for mix in mixes],
        "levels": [level.label for level in SWEEP_LEVELS],
        "speedups": per_mix,
    }


def _by_level(
    sweep: dict[str, Any], metric: Callable[[list[float]], float], cdf: bool
) -> dict[str, Any]:
    """Per-mix ``metric`` of each level's speedups, then the overall view.

    Empty speedup lists are failed runs: the level is simply absent from
    that mix's reduction.
    """
    per_mix = {
        label: {level: metric(speeds) for level, speeds in by_level.items() if speeds}
        for label, by_level in sweep["speedups"].items()
    }
    cdfs = {}
    overall = {}
    for level in SWEEP_LEVELS:
        values = [
            per_mix[m][level.label]
            for m in sweep["mixes"]
            if level.label in per_mix[m]
        ]
        cdfs[level.label] = cdf_points(values) if values else []
        overall[level.label] = _safe_geomean(values)
    if cdf:
        return {"per_mix": per_mix, "cdf": cdfs, "overall": overall}
    return {"per_mix": per_mix, "overall": overall}


# --------------------------------------------------------------------- #
# Tables 1 & 2
# --------------------------------------------------------------------- #


def table1_models(scale: str = "mini") -> list[dict[str, Any]]:
    """Table 1: the benchmark models, with their topology statistics."""
    rows = []
    for name in zoo.NAMES:
        network = zoo.get(name, scale)
        rows.append(
            {
                "type": zoo.CATEGORIES[name],
                "model": name,
                "layers": len(network.layers),
                "macs": network.total_macs,
                "unique_bytes": network.total_bytes,
                "arithmetic_intensity": round(network.arithmetic_intensity, 2),
            }
        )
    return rows


def table2_configuration(scale: str = "mini") -> dict[str, Any]:
    """Table 2: the baseline single-core NPU + DRAM configuration."""
    arch = presets.cloud_arch(scale)
    npumem = presets.cloud_npumem(scale)
    dram = presets.hbm2_dram(scale)
    return {
        "scale": scale,
        "systolic_array": f"{arch.array_rows}x{arch.array_cols}",
        "spm_bytes": arch.spm_bytes,
        "core_freq_mhz": arch.freq_mhz,
        "tlb_associativity": npumem.tlb_assoc,
        "tlb_entries_per_npu": npumem.tlb_entries,
        "ptw_per_npu": npumem.num_ptw,
        "dram_model": dram.preset,
        "bandwidth_per_npu_gbs": dram.peak_bandwidth_bytes_per_sec() / 1e9,
        "dram_capacity_bytes": dram.capacity_bytes,
        "dram_freq_mhz": dram.freq_mhz,
    }


# --------------------------------------------------------------------- #
# Figure 2(b): burstiness
# --------------------------------------------------------------------- #


def fig2_burstiness(
    workload: str = "ncf",
    scale: str = "mini",
    window: int = 1000,
) -> dict[str, Any]:
    """Moving count of DRAM requests per window for a single-core run."""
    from repro.config.misc import MiscConfig
    from repro.core.simulator import MultiCoreNPUSim, freeze_heap

    freeze_heap()
    system = presets.solo_slice(
        scale=scale, misc=MiscConfig(iterations=1, trace_window_cycles=window)
    )
    sim = MultiCoreNPUSim(system, [zoo.get(workload, scale)], trace_bandwidth=True)
    result = sim.run()
    trace = sim.dram.traces[0]
    txn = system.arch[0].dram_transaction_bytes
    series = [(start, nbytes // txn) for start, nbytes in trace.series()]
    counts = [count for _, count in series]
    peak = max(counts)
    mean = sum(counts) / len(counts)
    return {
        "workload": workload,
        "window_cycles": window,
        "series": series,
        "peak_requests_per_window": peak,
        "mean_requests_per_window": mean,
        "burst_ratio": peak / mean if mean else 0.0,
        "total_cycles": result.workloads[0].cycles,
    }


# --------------------------------------------------------------------- #
# Figures 4-7: sharing levels, performance and fairness
# --------------------------------------------------------------------- #


def reduce_fig4(results: Results, mixes: Mixes) -> dict[str, Any]:
    """Dual-core per-mix geomean speedups for Static/+D/+DW/+DWT."""
    sweep = sharing_sweep(results, mixes)
    return {**_by_level(sweep, geomean, cdf=False), "sweep": sweep}


def reduce_fig5(results: Results, mixes: Mixes) -> dict[str, Any]:
    """Quad-core CDF of per-mix geomean speedups per sharing level."""
    sweep = sharing_sweep(results, mixes)
    return {**_by_level(sweep, geomean, cdf=True), "sweep": sweep}


def reduce_fig6(results: Results, mixes: Mixes) -> dict[str, Any]:
    """Dual-core fairness (Equation 1) per mix and sharing level."""
    return _by_level(sharing_sweep(results, mixes), _fairness_of, cdf=False)


def reduce_fig7(results: Results, mixes: Mixes) -> dict[str, Any]:
    """Quad-core fairness CDF per sharing level."""
    return _by_level(sharing_sweep(results, mixes), _fairness_of, cdf=True)


# --------------------------------------------------------------------- #
# Figure 8: per-workload contention sensitivity
# --------------------------------------------------------------------- #


def fig8_specs(ctx: PlanContext, mixes: Mixes) -> Plan:
    """Every spec behind Figure 8: dual-core Ideal solos + DWT mixes."""
    plan = _ideal_plan(ctx, 2)
    for mix in mixes:
        plan["mix", mix] = ctx.mix(mix, SharingLevel.DWT)
    return plan


def reduce_fig8(results: Results, mixes: Mixes) -> dict[str, Any]:
    """Distribution of each workload's +DWT speedup across co-runners."""
    ideal = _cycles(results, "ideal")
    samples: dict[str, list[float]] = {name: [] for name in zoo.NAMES}
    for mix in mixes:
        for name, run in zip(mix, results.get(("mix", mix), ())):
            if name in ideal:
                samples[name].append(ideal[name] / run["cycles"])
    boxes = {
        name: box_stats(values) for name, values in samples.items() if values
    }
    spread = {
        name: box["max"] - box["min"] for name, box in boxes.items()
    }
    return {"samples": samples, "boxes": boxes, "range": spread}


# --------------------------------------------------------------------- #
# Figures 9-10: DRAM bandwidth partitioning (translation disabled)
# --------------------------------------------------------------------- #


#: Static channel shares (of 8) the bandwidth splits are made of.
_BW_SHARES = sorted({part for split in BW_SPLITS for part in split})


def bw_partition_specs(ctx: PlanContext, mixes: Mixes) -> Plan:
    """Every spec behind Figures 9-10: channel-share solos + +D mixes."""
    channels = ctx.per_core["channels"]
    plan = _ideal_plan(ctx, 2, translation=False)
    for share in _BW_SHARES:
        for name in zoo.NAMES:
            plan["share", share, name] = ctx.solo(
                name, channels=channels * 2 * share // 8, translation=False
            )
    for mix in mixes:
        plan["mix", mix] = ctx.mix(mix, SharingLevel.D, translation=False)
    return plan


def bw_partition_sweep(results: Results, mixes: Mixes) -> dict[str, Any]:
    """Per-mix speedups under every static split, Static Best and Dynamic."""
    ideal = _cycles(results, "ideal")
    # Solo cycles at each static channel share (1..7 of 8).
    share_cycles = {share: _cycles(results, "share", share) for share in _BW_SHARES}
    per_mix: dict[str, dict[str, Any]] = {}
    for mix in mixes:
        schemes: dict[str, list[float]] = {}
        for left, right in BW_SPLITS:
            if (
                mix[0] in ideal
                and mix[1] in ideal
                and mix[0] in share_cycles[left]
                and mix[1] in share_cycles[right]
            ):
                schemes[f"{left}:{right}"] = [
                    ideal[mix[0]] / share_cycles[left][mix[0]],
                    ideal[mix[1]] / share_cycles[right][mix[1]],
                ]
        dynamic = _speedups(results, ("mix", mix), mix, ideal)
        if dynamic is not None:
            schemes["Dynamic"] = dynamic
        static_present = [
            f"{l}:{r}" for l, r in BW_SPLITS if f"{l}:{r}" in schemes
        ]
        best = None
        if static_present:
            best = max(
                static_present, key=lambda scheme: geomean(schemes[scheme])
            )
            schemes["Static Best"] = schemes[best]
        per_mix[mix_label(mix)] = {"schemes": schemes, "best_static": best}
    return {"per_mix": per_mix, "mixes": [mix_label(mix) for mix in mixes]}


def _by_scheme(
    labels: Sequence[str],
    schemes: Mapping[str, Mapping[str, list[float]]],
    scheme_names: list[str],
    metric: Callable[[list[float]], float],
) -> dict[str, Any]:
    """Per-mix and overall ``metric`` of every partitioning scheme."""
    overall = {}
    per_mix: dict[str, dict[str, float]] = {}
    for scheme in scheme_names:
        values = []
        for label in labels:
            speeds = schemes[label].get(scheme)
            if not speeds:
                continue
            value = metric(speeds)
            per_mix.setdefault(label, {})[scheme] = value
            values.append(value)
        overall[scheme] = _safe_geomean(values)
    return {"per_mix": per_mix, "overall": overall, "schemes": scheme_names}


def _reduce_bw(
    results: Results, mixes: Mixes, metric: Callable[[list[float]], float]
) -> dict[str, Any]:
    sweep = bw_partition_sweep(results, mixes)
    schemes = {
        label: entry["schemes"] for label, entry in sweep["per_mix"].items()
    }
    scheme_names = [f"{l}:{r}" for l, r in BW_SPLITS] + ["Static Best", "Dynamic"]
    return _by_scheme(sweep["mixes"], schemes, scheme_names, metric)


def reduce_fig9(results: Results, mixes: Mixes) -> dict[str, Any]:
    """Geomean performance per bandwidth-partitioning scheme (dual-core)."""
    return _reduce_bw(results, mixes, geomean)


def reduce_fig10(results: Results, mixes: Mixes) -> dict[str, Any]:
    """Geomean fairness per bandwidth-partitioning scheme (dual-core)."""
    return _reduce_bw(results, mixes, _fairness_of)


# --------------------------------------------------------------------- #
# Figure 11: bandwidth sweep
# --------------------------------------------------------------------- #


#: Channel counts of the Figure 11 bandwidth sweep (32-256 GB/s at full
#: scale: every channel is one 32 GB/s share).
FIG11_CHANNEL_COUNTS = (1, 2, 4, 6, 8)


def fig11_specs(ctx: PlanContext) -> Plan:
    """Every spec behind Figure 11: solos at each channel count."""
    return {
        ("solo", name, count): ctx.solo(name, channels=count)
        for name in zoo.NAMES
        for count in FIG11_CHANNEL_COUNTS
    }


def reduce_fig11(results: Results) -> dict[str, Any]:
    """Single-core speedup vs DRAM bandwidth, normalized to the smallest.

    Channel counts 1/2/4/6/8 reproduce the paper's 32-256 GB/s sweep
    (every channel is one 32 GB/s share at full scale).
    """
    counts = FIG11_CHANNEL_COUNTS
    per_workload: dict[str, list[tuple[int, float]]] = {}
    for name in zoo.NAMES:
        by_count = _cycles(results, "solo", name, keys=counts)
        if counts[0] not in by_count:
            continue
        base = by_count[counts[0]]
        per_workload[name] = [
            (count, base / cycles) for count, cycles in by_count.items()
        ]
    return {"channel_counts": counts, "speedup": per_workload}


def _fig11_headline(data: dict[str, Any]) -> dict[str, float]:
    """Each workload's speedup at the largest channel count."""
    return {name: series[-1][1] for name, series in data["speedup"].items() if series}


# --------------------------------------------------------------------- #
# Figure 12: bandwidth utilization over time
# --------------------------------------------------------------------- #


def fig12_bandwidth_utilization(
    workloads: tuple[str, str] = ("ds2", "gpt2"),
    scale: str = "mini",
    window: int = 1000,
) -> dict[str, Any]:
    """Per-workload bandwidth utilization under Ideal, plus their sum.

    Each workload runs alone on the dual-core Ideal resource pool; the
    summed series shows how often the combined demand exceeds half (and
    even all) of the peak — the paper's argument for dynamic sharing.
    """
    from repro.config.misc import MiscConfig
    from repro.core.simulator import MultiCoreNPUSim, freeze_heap

    freeze_heap()
    per = presets.per_core_resources(scale)
    series: dict[str, list[tuple[int, float]]] = {}
    for name in workloads:
        system = presets.solo_slice(
            scale=scale,
            channels=per["channels"] * 2,
            num_ptw=per["num_ptw"] * 2,
            tlb_entries=per["tlb_entries"] * 2,
            misc=MiscConfig(iterations=1, trace_window_cycles=window),
        )
        sim = MultiCoreNPUSim(system, [zoo.get(name, scale)], trace_bandwidth=True)
        sim.run()
        peak = sim.dram.peak_bytes_per_tick()
        series[name] = sim.dram.traces[0].utilization_series(peak)
    length = max(len(values) for values in series.values())
    combined = []
    for index in range(length):
        total = 0.0
        for values in series.values():
            if index < len(values):
                total += values[index][1]
        combined.append((index * window, total))
    label = "+".join(workloads)
    over_half = sum(1 for _, value in combined if value > 0.5) / len(combined)
    over_peak = sum(1 for _, value in combined if value > 1.0) / len(combined)
    return {
        "series": series,
        "combined": {label: combined},
        "fraction_over_half_peak": over_half,
        "fraction_over_peak": over_peak,
    }


# --------------------------------------------------------------------- #
# Figures 13-14: PTW partitioning
# --------------------------------------------------------------------- #


#: Walker splits of section 4.4.1.  The paper splits its 16-walker dual
#: pool at ratios 1:7..7:1; the mini system's baseline pool (1 walker per
#: core) cannot express ratios, so this study doubles the per-core walker
#: count to a 4-walker pool and splits it 1:3 / 2:2 / 3:1 — analogous to
#: how the bandwidth study of section 4.3 disables translation to
#: isolate its resource.
PTW_SPLITS = ((1, 3), (2, 2), (3, 1))
_PTW_PER_CORE_FACTOR = 2
_PTW_SCHEMES = [f"{l}:{r}" for l, r in PTW_SPLITS] + ["Dynamic"]


def ptw_partition_specs(ctx: PlanContext, mixes: Mixes) -> Plan:
    """Every spec behind Figures 13-14: big-pool solos + split/DW mixes."""
    resources = ctx.per_core
    per_core = resources["num_ptw"] * _PTW_PER_CORE_FACTOR
    plan = {
        ("ideal", name): ctx.solo(
            name,
            channels=resources["channels"] * 2,
            num_ptw=per_core * 2,
            tlb_entries=resources["tlb_entries"] * 2,
        )
        for name in zoo.NAMES
    }
    for mix in mixes:
        for left, right in PTW_SPLITS:
            plan["mix", mix, f"{left}:{right}"] = ctx.mix(
                mix,
                SharingLevel.D,
                ptw_split=(left, right),
                num_ptw_per_core=per_core,
            )
        plan["mix", mix, "Dynamic"] = ctx.mix(
            mix, SharingLevel.DW, num_ptw_per_core=per_core
        )
    return plan


def ptw_partition_sweep(results: Results, mixes: Mixes) -> dict[str, Any]:
    """Per-mix speedups under every walker split and dynamic sharing."""
    ideal = _cycles(results, "ideal")
    per_mix: dict[str, dict[str, list[float]]] = {}
    for mix in mixes:
        schemes: dict[str, list[float]] = {}
        for scheme in _PTW_SCHEMES:
            speeds = _speedups(results, ("mix", mix, scheme), mix, ideal)
            if speeds is not None:
                schemes[scheme] = speeds
        per_mix[mix_label(mix)] = schemes
    return {
        "per_mix": per_mix,
        "mixes": [mix_label(mix) for mix in mixes],
        "schemes": list(_PTW_SCHEMES),
    }


def reduce_fig13(results: Results, mixes: Mixes) -> dict[str, Any]:
    """Geomean performance per walker-partitioning scheme (dual-core)."""
    sweep = ptw_partition_sweep(results, mixes)
    return _by_scheme(sweep["mixes"], sweep["per_mix"], sweep["schemes"], geomean)


def reduce_fig14(results: Results, mixes: Mixes) -> dict[str, Any]:
    """Geomean fairness per walker-partitioning scheme (dual-core)."""
    sweep = ptw_partition_sweep(results, mixes)
    return _by_scheme(
        sweep["mixes"], sweep["per_mix"], sweep["schemes"], _fairness_of
    )


# --------------------------------------------------------------------- #
# Figures 15-16: page sizes
# --------------------------------------------------------------------- #

PAGE_SIZES = (4096, 65536, 1048576)
_PAGE_LABELS = {4096: "4KB", 65536: "64KB", 1048576: "1MB"}


def fig15_specs(ctx: PlanContext) -> Plan:
    """Every spec behind Figure 15: solos at each page size."""
    return {
        ("solo", name, size): ctx.solo(name, page_bytes=size)
        for name in zoo.NAMES
        for size in PAGE_SIZES
    }


def reduce_fig15(results: Results) -> dict[str, Any]:
    """Single-core speedup of 64KB/1MB pages over 4KB, per workload."""
    per_workload: dict[str, dict[str, float]] = {}
    for name in zoo.NAMES:
        by_size = _cycles(results, "solo", name, keys=PAGE_SIZES)
        if 4096 not in by_size:
            continue
        base = by_size.pop(4096)
        per_workload[name] = {
            _PAGE_LABELS[size]: base / cycles for size, cycles in by_size.items()
        }
    overall = {
        label: _safe_geomean(
            [
                per_workload[name][label]
                for name in per_workload
                if label in per_workload[name]
            ]
        )
        for label in ("64KB", "1MB")
    }
    return {"per_workload": per_workload, "overall": overall}


def fig16_specs(ctx: PlanContext, mixes: Mixes) -> Plan:
    """Every spec behind Figure 16: per-page-size Ideal solos + DWT mixes."""
    plan = {
        ("ideal", size, name): ctx.ideal(name, len(mixes[0]), page_bytes=size)
        for size in PAGE_SIZES
        for name in zoo.NAMES
    }
    for mix in mixes:
        for size in PAGE_SIZES:
            plan["mix", mix, size] = ctx.mix(
                mix, SharingLevel.DWT, page_bytes=size
            )
    return plan


def reduce_fig16(results: Results, mixes: Mixes) -> dict[str, Any]:
    """Multi-core (+DWT) page-size performance and fairness.

    Performance is normalized to the 4KB page (per mix geomean of cycle
    ratios); fairness baseline is Ideal at the matching page size.
    """
    perf: dict[str, dict[str, float]] = {}
    fair: dict[str, dict[str, float]] = {}
    ideal = {size: _cycles(results, "ideal", size) for size in PAGE_SIZES}
    for mix in mixes:
        label = mix_label(mix)
        by_size = {
            size: results[("mix", mix, size)]
            for size in PAGE_SIZES
            if ("mix", mix, size) in results
        }
        if 4096 not in by_size:
            continue  # the normalization baseline failed: mix is missing
        perf[label] = {}
        fair[label] = {}
        base = [run["cycles"] for run in by_size[4096]]
        for size, runs in by_size.items():
            cycles = [run["cycles"] for run in runs]
            perf[label][_PAGE_LABELS[size]] = geomean(
                [b / c for b, c in zip(base, cycles)]
            )
            if all(name in ideal[size] for name in mix):
                slowdowns = [
                    run["cycles"] / ideal[size][name]
                    for name, run in zip(mix, runs)
                ]
                fair[label][_PAGE_LABELS[size]] = fairness(slowdowns)
    labels = [_PAGE_LABELS[size] for size in PAGE_SIZES]
    overall_perf = {
        label: _safe_geomean(
            [perf[m][label] for m in perf if label in perf[m]]
        )
        for label in labels
    }
    overall_fair = {
        label: _safe_geomean(
            [fair[m][label] for m in fair if label in fair[m]]
        )
        for label in labels
    }
    return {
        "num_cores": len(mixes[0]),
        "performance": perf,
        "fairness": fair,
        "overall_performance": overall_perf,
        "overall_fairness": overall_fair,
    }


# --------------------------------------------------------------------- #
# Dataflow comparison (engine ablation)
# --------------------------------------------------------------------- #


def _dataflow_axes(
    workloads: Sequence[str] | None, dataflows: Sequence[str] | None
) -> tuple[list[str], list[str]]:
    names = list(workloads) if workloads is not None else list(zoo.NAMES)
    engines = (
        list(dataflows) if dataflows is not None else list(registered_dataflows())
    )
    return names, engines


def dataflow_compare_specs(
    ctx: PlanContext,
    workloads: Sequence[str] | None = None,
    dataflows: Sequence[str] | None = None,
) -> Plan:
    """Every spec behind the dataflow comparison: one solo per engine.

    Each workload runs on the equal Static slice under every registered
    dataflow engine (or an explicit subset), so the figure isolates the
    compute-side effect of the tiling/timing model with the memory
    system held fixed.
    """
    names, engines = _dataflow_axes(workloads, dataflows)
    return {
        ("solo", name, engine): ctx.solo(name, dataflow=engine)
        for name in names
        for engine in engines
    }


def reduce_dataflow_compare(
    results: Results,
    workloads: Sequence[str] | None = None,
    dataflows: Sequence[str] | None = None,
) -> dict[str, Any]:
    """Per-workload cycles and speedup of each dataflow engine vs ``os``.

    The paper evaluates output stationary and names other dataflows as
    future work; this figure sweeps the registered engines over the model
    zoo and reports, per workload, total cycles under each engine plus
    the speedup relative to the ``os`` baseline (values above 1 mean the
    engine finished faster than output stationary).
    """
    names, engines = _dataflow_axes(workloads, dataflows)
    cycles = {name: _cycles(results, "solo", name, keys=engines) for name in names}
    speedup_vs_os: dict[str, dict[str, float]] = {}
    for name, by_engine in cycles.items():
        base = by_engine.get("os")
        if base is None:
            continue
        speedup_vs_os[name] = {
            engine: base / value for engine, value in by_engine.items()
        }
    overall = {
        engine: _safe_geomean(
            [
                speedup_vs_os[name][engine]
                for name in speedup_vs_os
                if engine in speedup_vs_os[name]
            ]
        )
        for engine in engines
    }
    return {
        "workloads": names,
        "dataflows": engines,
        "cycles": cycles,
        "speedup_vs_os": speedup_vs_os,
        "overall": overall,
    }


# --------------------------------------------------------------------- #
# LLM-serving co-location (prefill/decode phases x MoE skew x sharing)
# --------------------------------------------------------------------- #


#: The serving phases as runnable workload names.
SERVING_PHASE_NAMES = ("gpt2:prefill", "gpt2:decode")

#: Co-location pairs of the serving study: phase-homogeneous and mixed.
SERVING_PAIRS = (
    ("gpt2:prefill", "gpt2:prefill"),
    ("gpt2:prefill", "gpt2:decode"),
    ("gpt2:decode", "gpt2:decode"),
)

#: The shared-vs-private-TLB axis: +DW keeps TLBs private, +DWT shares.
SERVING_SHARINGS = (SharingLevel.DW, SharingLevel.DWT)

#: MoE routing skews swept by the serving figure.
SERVING_SKEWS = ("uniform", "zipf")


def serving_colocation_specs(
    ctx: PlanContext,
    skews: Sequence[str] = SERVING_SKEWS,
) -> Plan:
    """Every spec behind the serving co-location figure.

    Per MoE skew: a dual-pool Ideal solo of each phase (the speedup
    baseline) plus every phase pair under +DW (private TLBs) and +DWT
    (shared TLB) — 8 specs per skew.  Uniform skew normalizes to the
    default :class:`ServingParams`, so its specs share cache keys with
    any other default-parameter serving run.
    """
    from repro.models.serving import ServingParams

    plan = {}
    for skew in skews:
        params = ServingParams(moe_skew=skew)
        for name in SERVING_PHASE_NAMES:
            plan["ideal", skew, name] = ctx.ideal(name, 2, serving=params)
        for pair in SERVING_PAIRS:
            for level in SERVING_SHARINGS:
                plan["mix", skew, pair, level.label] = ctx.mix(
                    pair, level, serving=params
                )
    return plan


def _pair_label(pair: Sequence[str]) -> str:
    return "+".join(name.split(":", 1)[1] for name in pair)


def reduce_serving_colocation(
    results: Results, skews: Sequence[str] = SERVING_SKEWS
) -> dict[str, Any]:
    """Does sharing the TLB (+DWT over +DW) help or hurt serving mixes?

    The question the paper's DNN study never reaches: with co-runners
    that are prefill (GEMM-bursty), decode (KV-cache streaming) or
    Zipf-skewed MoE, per-scenario geomean speedups vs the dual-pool
    Ideal are reported for private TLBs (+DW) and the shared TLB
    (+DWT); ``dwt_gain`` is their ratio (>1: sharing helps).
    """
    per_scenario: dict[str, dict[str, Any]] = {}
    level_values: dict[str, list[float]] = {
        level.label: [] for level in SERVING_SHARINGS
    }
    dwt_gains: list[float] = []
    for skew in skews:
        ideal = _cycles(results, "ideal", skew, keys=SERVING_PHASE_NAMES)
        for pair in SERVING_PAIRS:
            entry: dict[str, Any] = {}
            for level in SERVING_SHARINGS:
                speeds = _speedups(
                    results, ("mix", skew, pair, level.label), pair, ideal
                )
                if speeds is None:
                    continue
                entry[level.label] = geomean(speeds)
                level_values[level.label].append(entry[level.label])
            if "+DW" in entry and "+DWT" in entry:
                entry["dwt_gain"] = entry["+DWT"] / entry["+DW"]
                entry["verdict"] = (
                    "helps" if entry["dwt_gain"] >= 1.0 else "hurts"
                )
                dwt_gains.append(entry["dwt_gain"])
            per_scenario[f"{skew}/{_pair_label(pair)}"] = entry
    overall: dict[str, Any] = {
        level.label: _safe_geomean(level_values[level.label])
        for level in SERVING_SHARINGS
    }
    overall["dwt_gain"] = _safe_geomean(dwt_gains)
    if overall["dwt_gain"] is not None:
        overall["verdict"] = (
            "helps" if overall["dwt_gain"] >= 1.0 else "hurts"
        )
    return {
        "skews": list(skews),
        "pairs": [_pair_label(pair) for pair in SERVING_PAIRS],
        "sharings": [level.label for level in SERVING_SHARINGS],
        "per_scenario": per_scenario,
        "overall": overall,
    }


# --------------------------------------------------------------------- #
# Figures 17-18: co-runner mapping across four dual-core NPUs
# --------------------------------------------------------------------- #

#: The slowdown predictor's training set: seed-named random networks
#: (``rand<seed>``, which the runner resolves by name), never the zoo
#: workloads the mappings are scored on.
MAPPING_TRAINING_NETS = tuple(f"rand{seed}" for seed in range(2023, 2035))


def mapping_specs(ctx: PlanContext, sets: Mixes) -> Plan:
    """Every spec behind Figures 17-18: the whole mapping study.

    For the zoo and for the predictor's training nets alike: a dual-pool
    Ideal solo of each network (its profiled latency) and every
    unordered pair co-run under +DWT.  The Ideal roles carry the scale,
    which the profiles' request-generator statistics depend on.  The
    study does not depend on which eight-workload ``sets`` are scored;
    they only matter to the reducer.
    """
    plan = {}
    for pool in (zoo.NAMES, MAPPING_TRAINING_NETS):
        for name in pool:
            plan["ideal", ctx.scale, name] = ctx.ideal(name, 2)
        for pair in all_mixes(2, pool):
            plan["mix", pair] = ctx.mix(pair, SharingLevel.DWT)
    return plan


def mapping_study(results: Results) -> MappingStudy:
    """The mapping study of an executed :func:`mapping_specs` plan.

    :mod:`repro.mapping` (and with it numpy) is imported here, so only
    the mapping figures load it.
    """
    from repro.mapping.mapper import MappingStudy

    ideal = {
        role[1:]: runs[0]["cycles"]
        for role, runs in results.items()
        if role[0] == "ideal"
    }
    pairs = {
        role[1]: [run["cycles"] for run in runs]
        for role, runs in results.items()
        if role[0] == "mix"
    }
    return MappingStudy(ideal, pairs, MAPPING_TRAINING_NETS)


def _reduce_mapping(results: Results, sets: Mixes, metric: str) -> dict[str, Any]:
    from repro.mapping.mapper import policy_cdfs

    evaluations = mapping_study(results).evaluate_all(sets)
    return {"metric": metric, **policy_cdfs(evaluations, metric)}


def reduce_fig17(results: Results, sets: Mixes) -> dict[str, Any]:
    """Figure 17: CDF of mapping performance, normalized to no-mapping."""
    return _reduce_mapping(results, sets, "perf")


def reduce_fig18(results: Results, sets: Mixes) -> dict[str, Any]:
    """Figure 18: CDF of mapping fairness, normalized to no-mapping."""
    return _reduce_mapping(results, sets, "fairness")


def _mapping_headline(data: dict[str, Any]) -> dict[str, Any]:
    """How often the model beats random placement, and each policy's
    median normalized to random."""
    medians = {
        f"{policy}_p50": percentile(values, 0.5) if values else None
        for policy, values in data["normalized"].items()
    }
    return {"model_improved_fraction": data["model_improved_fraction"], **medians}


# --------------------------------------------------------------------- #
# Figure registry
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Figure:
    """A figure's planner, pure reducer and printed headline.

    With ``cores`` set, both planner and reducer take the mix list of
    that core count after their first argument; otherwise they take
    nothing more.
    """

    planner: Callable[..., Plan]
    reducer: Callable[..., dict[str, Any]]
    headline: Callable[[dict[str, Any]], dict[str, Any]] = itemgetter("overall")
    cores: int | None = None


#: ``mnpusim figure``/``sweep`` name -> :class:`Figure`.
FIGURES = {
    "fig4": Figure(sharing_sweep_specs, reduce_fig4, cores=2),
    "fig5": Figure(sharing_sweep_specs, reduce_fig5, cores=4),
    "fig6": Figure(sharing_sweep_specs, reduce_fig6, cores=2),
    "fig7": Figure(sharing_sweep_specs, reduce_fig7, cores=4),
    "fig8": Figure(fig8_specs, reduce_fig8, itemgetter("range"), cores=2),
    "fig9": Figure(bw_partition_specs, reduce_fig9, cores=2),
    "fig10": Figure(bw_partition_specs, reduce_fig10, cores=2),
    "fig11": Figure(fig11_specs, reduce_fig11, _fig11_headline),
    "fig13": Figure(ptw_partition_specs, reduce_fig13, cores=2),
    "fig14": Figure(ptw_partition_specs, reduce_fig14, cores=2),
    "fig15": Figure(fig15_specs, reduce_fig15),
    "fig16": Figure(
        fig16_specs, reduce_fig16, itemgetter("overall_performance"), cores=2
    ),
    "fig16_quad": Figure(
        fig16_specs, reduce_fig16, itemgetter("overall_performance"), cores=4
    ),
    "fig17": Figure(mapping_specs, reduce_fig17, _mapping_headline, cores=8),
    "fig18": Figure(mapping_specs, reduce_fig18, _mapping_headline, cores=8),
    "dataflow_compare": Figure(dataflow_compare_specs, reduce_dataflow_compare),
    "serving_colocation": Figure(
        serving_colocation_specs, reduce_serving_colocation
    ),
}


def run_figures(
    ctx: PlanContext,
    runner: ExperimentRunner,
    names: Sequence[str],
    mixes: Mapping[int, Mixes] | None = None,
) -> dict[str, dict[str, Any]]:
    """Reduce several registered figures from one deduplicated batch.

    ``mixes`` maps a core count to the mixes its figures cover; a count
    it lacks covers every mix.  Every figure's plan is built first and
    the union executes as a single :meth:`ExperimentRunner.run_many`,
    so overlapping specs (the Ideal/Static solos every sharing figure
    needs, the shared fig4/fig6 and fig9/fig10 sweeps) simulate, and are
    read, exactly once.  A figure whose own specs failed also carries
    their summaries under ``"failures"``; the key is absent otherwise,
    so a healthy figure's data is unchanged.
    """
    mixes = mixes or {}
    entries = [FIGURES[name] for name in names]
    params = [_params(entry, mixes) for entry in entries]
    plans = [entry.planner(ctx, *args) for entry, args in zip(entries, params)]
    by_spec = runner.run_many(spec for plan in plans for spec in plan.values())
    failed = runner.last_outcome.failures
    reduced = {}
    for name, entry, args, plan in zip(names, entries, params, plans):
        resolved = {role: spec.resolve() for role, spec in plan.items()}
        results = {
            role: by_spec[spec] for role, spec in resolved.items() if spec in by_spec
        }
        data = entry.reducer(results, *args)
        planned = set(resolved.values())
        failures = [failure.summary() for failure in failed if failure.spec in planned]
        if failures:
            data["failures"] = failures
        reduced[name] = data
    return reduced


def _params(entry: Figure, mixes: Mapping[int, Mixes]) -> tuple:
    """What ``entry``'s planner and reducer take after their first argument."""
    if entry.cores is None:
        return ()
    if entry.cores not in mixes:
        return (all_mixes(entry.cores),)
    # Tuples: mixes key the plan's roles.
    return ([tuple(mix) for mix in mixes[entry.cores]],)
