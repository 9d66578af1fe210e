"""Golden-equivalence suite: exact results pinned for a corpus of small runs.

Every hot-path optimization of the simulator must be *observationally
equivalent*: the corpus below — solo and mix runs across private/shared
TLBs, 1/2/8-channel DRAM, translation on/off — is simulated end to end
and every integer metric (cycles, row hits/misses, walks, traffic bytes,
refreshes, queueing ticks) is asserted **exactly** against the committed
goldens in ``tests/golden/expected.json``.  The experiment-runner cache
shard for each spec must additionally stay **byte-identical** (pinned by
sha256), which covers the full serialized result including floats.

Refreshing goldens is an intentional, reviewed act (only when simulator
*semantics* change, never for a performance patch):

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_golden_equivalence.py -q

and commit the resulting ``tests/golden/expected.json`` alongside an
explanation of the semantic change (see DESIGN.md, "Performance
methodology").
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core.simulator import MultiCoreNPUSim
from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import RunSpec
from repro.models import serving
from repro.models.serving import ServingParams

GOLDEN_PATH = Path(__file__).parent / "golden" / "expected.json"

#: The pinned corpus.  Keep these *small* (the whole suite simulates each
#: twice — once directly, once through the runner — in a few seconds) but
#: diverse: private vs shared TLB, 1/2/8 DRAM channels, translation
#: on/off, walk-priority traffic present and absent.
CORPUS: tuple[tuple[str, RunSpec], ...] = (
    ("solo-ncf-4ch", RunSpec.solo("ncf", scale="mini")),
    ("solo-ncf-2ch", RunSpec.solo("ncf", scale="mini", channels=2)),
    (
        "solo-dlrm-1ch-notrans",
        RunSpec.solo("dlrm", scale="mini", channels=1, translation=False),
    ),
    ("mix-ncf-dlrm-D", RunSpec.mix(("ncf", "dlrm"), "D", scale="mini")),
    ("mix-ncf-dlrm-DWT", RunSpec.mix(("ncf", "dlrm"), "DWT", scale="mini")),
    ("mix-dlrm-dlrm-DW", RunSpec.mix(("dlrm", "dlrm"), "DW", scale="mini")),
    # Per-dataflow goldens: one pinned run per non-default engine, on the
    # same slice as solo-ncf-2ch so any divergence is the engine alone.
    (
        "solo-ncf-2ch-ws",
        RunSpec.solo("ncf", scale="mini", channels=2, dataflow="ws"),
    ),
    (
        "solo-ncf-2ch-is",
        RunSpec.solo("ncf", scale="mini", channels=2, dataflow="is"),
    ),
    # LLM-serving goldens: both phases solo, a prefill/decode co-location
    # under a shared TLB, and a zipf-routed decode pair under private
    # TLBs.  These pin the seeded arrival + MoE routing traces end to
    # end: any drift in the serving frontend changes integer cycles here.
    (
        "solo-gpt2-prefill-2ch",
        RunSpec.solo("gpt2:prefill", scale="mini", channels=2),
    ),
    (
        "solo-gpt2-decode-2ch",
        RunSpec.solo("gpt2:decode", scale="mini", channels=2),
    ),
    (
        "mix-gpt2-prefill-decode-DWT",
        RunSpec.mix(("gpt2:prefill", "gpt2:decode"), "DWT", scale="mini"),
    ),
    (
        "mix-gpt2-decode-decode-zipf-DW",
        RunSpec.mix(
            ("gpt2:decode", "gpt2:decode"),
            "DW",
            scale="mini",
            serving=ServingParams(moe_skew="zipf"),
        ),
    ),
)

CORPUS_IDS = [name for name, _ in CORPUS]
MAX_TICKS = 50_000_000_000


def simulate(spec: RunSpec):
    """One direct :class:`MultiCoreNPUSim` run of ``spec``."""
    networks = serving.networks_for(
        spec.workloads, spec.scale, params=spec.serving, default_phase=spec.phase
    )
    sim = MultiCoreNPUSim(spec.system(), networks)
    return sim.run(max_ticks=MAX_TICKS)


def metrics(mix) -> dict:
    """Every pinned integer observable of one simulation."""
    return {
        "total_ticks": mix.total_ticks,
        "dram": {
            "reads": mix.dram.reads,
            "writes": mix.dram.writes,
            "row_hits": mix.dram.row_hits,
            "row_misses": mix.dram.row_misses,
            "refreshes": mix.dram.refreshes,
            "queueing_ticks_total": mix.dram.queueing_ticks_total,
            "bytes_per_core": {
                str(core): count
                for core, count in sorted(mix.dram.bytes_per_core.items())
            },
        },
        "workloads": [
            {
                "workload": result.workload,
                "core": result.core,
                "cycles": result.cycles,
                "ticks": result.ticks,
                "traffic_bytes": result.traffic_bytes,
                "tlb_lookups": result.tlb_lookups,
                "tlb_misses": result.tlb_misses,
                "walks": result.walks,
                "completed_iterations": result.completed_iterations,
                "layer_cycles": list(result.layer_cycles),
            }
            for result in mix.workloads
        ],
    }


def snapshot(spec: RunSpec, cache_dir: Path) -> dict:
    """Simulate ``spec`` and capture every pinned observable.

    Integer metrics come from a direct :class:`MultiCoreNPUSim` run; the
    cache shard (and its hash) from an :class:`ExperimentRunner` run of
    the same spec into ``cache_dir``.
    """
    mix = simulate(spec)
    runner = ExperimentRunner(cache_dir=cache_dir)
    runner.run(spec)
    shard = (cache_dir / f"{spec.cache_key()}.json").read_bytes()
    return {
        "cache_key": spec.cache_key(),
        "shard_sha256": hashlib.sha256(shard).hexdigest(),
        **metrics(mix),
    }


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory) -> dict[str, dict]:
    cache_root = tmp_path_factory.mktemp("golden-cache")
    computed = {}
    for name, spec in CORPUS:
        cache_dir = cache_root / name
        cache_dir.mkdir()
        computed[name] = snapshot(spec, cache_dir)
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(computed, indent=1, sort_keys=True) + "\n")
    return computed


@pytest.fixture(scope="module")
def expected() -> dict[str, dict]:
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        pytest.skip("regenerating goldens; assertions deferred to the next run")
    if not GOLDEN_PATH.exists():
        pytest.fail(
            "tests/golden/expected.json is missing; regenerate with "
            "REPRO_REGEN_GOLDENS=1 (see module docstring)"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", CORPUS_IDS)
def test_metrics_match_golden_exactly(name, snapshots, expected):
    assert name in expected, f"no golden recorded for corpus entry {name!r}"
    golden = dict(expected[name])
    got = dict(snapshots[name])
    golden.pop("shard_sha256")
    got.pop("shard_sha256")
    assert got == golden


@pytest.mark.parametrize("name", CORPUS_IDS)
def test_cache_shard_byte_identical(name, snapshots, expected):
    assert name in expected, f"no golden recorded for corpus entry {name!r}"
    assert snapshots[name]["shard_sha256"] == expected[name]["shard_sha256"]
    assert snapshots[name]["cache_key"] == expected[name]["cache_key"]


def test_corpus_covers_required_axes():
    """The corpus must keep exercising the axes the goldens exist to pin."""
    specs = dict(CORPUS)
    channel_counts = set()
    for spec in specs.values():
        system = spec.system()
        channel_counts.add(system.dram.channels)
    assert len(specs) >= 4
    assert {1, 2} <= channel_counts, "need 1- and 2-channel DRAM configs"
    assert any(s.kind == "mix" and s.sharing == "DWT" for s in specs.values()), (
        "need a shared-TLB mix"
    )
    assert any(s.kind == "mix" and s.sharing in ("D", "DW") for s in specs.values()), (
        "need a private-TLB mix"
    )
    assert any(not s.translation for s in specs.values()), (
        "need a translation-off config (no walk traffic)"
    )
    from repro.compute.dataflow import registered_dataflows

    pinned_dataflows = {s.dataflow for s in specs.values()}
    assert pinned_dataflows == set(registered_dataflows()), (
        "every registered dataflow engine needs a pinned golden run"
    )
    pinned_phases = {
        phase
        for s in specs.values()
        for phase in (serving.split_name(name)[1] for name in s.workloads)
        if phase is not None
    }
    assert pinned_phases == set(serving.PHASES), (
        "both serving phases need pinned golden runs"
    )
    assert any(s.serving is not None for s in specs.values()), (
        "need a non-default ServingParams golden (seeded MoE routing)"
    )


@pytest.mark.parametrize("name", ["solo-ncf-2ch", "mix-ncf-dlrm-DWT"])
def test_trace_cache_modes_are_byte_equivalent(name, snapshots, tmp_path):
    """Replay must be invisible: the live generator (the oversize
    fallback), cold and warm trace caches all produce the exact pinned
    metrics AND byte-identical result shards.

    This is the correctness pin of the compile/replay split — a compiled
    trace that drifted from live generation by even one request would
    change integer DRAM counters here.
    """
    from repro.compute import tracecache

    spec = dict(CORPUS)[name]
    cache = tracecache.process_cache()
    saved_store, saved_max = cache.store, cache.max_memo_objects
    want = {
        key: value
        for key, value in snapshots[name].items()
        if key not in ("cache_key", "shard_sha256")
    }

    def shard_digest(mode: str) -> str:
        cache_dir = tmp_path / mode
        ExperimentRunner(cache_dir=cache_dir).run(spec)
        shard = (cache_dir / f"{spec.cache_key()}.json").read_bytes()
        return hashlib.sha256(shard).hexdigest()

    try:
        # A zero memo budget makes every frontend oversize, so each core
        # replays a live RequestGenerator, as a trace over budget does.
        cache.max_memo_objects = 0
        tracecache.configure(directory=None)
        cache.clear_memo()
        oversize = cache.stats.oversize
        assert metrics(simulate(spec)) == want, "oversize live generator"
        digests = {shard_digest("oversize")}
        assert cache.stats.oversize > oversize
        assert not list((tmp_path / "oversize" / "traces").glob("*.json"))

        cache.max_memo_objects = saved_max
        tracecache.configure(directory=tmp_path / "traces")
        cache.clear_memo()
        assert metrics(simulate(spec)) == want, "cold trace cache"
        digests.add(shard_digest("cold"))

        cache.clear_memo()  # shards on disk now: the warm cross-process path
        tracecache.configure(directory=tmp_path / "traces")
        assert metrics(simulate(spec)) == want, "warm disk trace cache"
        assert metrics(simulate(spec)) == want, "warm memo trace cache"
        digests.add(shard_digest("warm"))

        assert digests == {snapshots[name]["shard_sha256"]}
    finally:
        cache.store = saved_store
        cache.max_memo_objects = saved_max
        cache.clear_memo()  # forget the frontends flagged oversize above


@pytest.mark.parametrize("name", CORPUS_IDS)
def test_observability_is_byte_invisible(name, snapshots):
    """``observe=True`` must not perturb a single pinned metric.

    The observability layer is pull-based (counters read at snapshot
    time, spans recorded from completion callbacks that already existed
    for the trace logger), so arming it must leave every golden integer
    — and therefore the result-shard bytes, which serialize only those
    workload metrics — exactly as the goldens pin them.
    """
    spec = dict(CORPUS)[name]
    networks = serving.networks_for(
        spec.workloads, spec.scale, params=spec.serving, default_phase=spec.phase
    )
    sim = MultiCoreNPUSim(spec.system(), networks, observe=True)
    mix = sim.run(max_ticks=MAX_TICKS)
    want = {
        key: value
        for key, value in snapshots[name].items()
        if key not in ("cache_key", "shard_sha256")
    }
    assert metrics(mix) == want

    # The snapshot rides along and agrees with the pinned aggregates.
    assert mix.counters is not None
    namespaces = {path.split(".")[0] for path in mix.counters["metrics"]}
    assert {"dram", "mmu", "ptw", "dma", "compute", "engine"} <= namespaces
    registry = sim.registry
    assert registry is not None
    assert registry.value("dram.requests") == mix.dram.reads + mix.dram.writes
    channel_reads = sum(
        registry.value(path)
        for path in registry.paths()
        if path.startswith("dram.ch") and path.endswith(".reads")
    )
    assert channel_reads == mix.dram.reads
