"""The compile/replay split: memo keys, the trace memo, the
stream-and-discard fallback, and the sweep planner's precompile step."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import tracemalloc

import pytest

from repro.compute import tracecache
from repro.compute.requestgen import RequestGenerator
from repro.compute.tracecache import (
    CompiledTrace,
    TraceCache,
    compile_trace,
    trace_source,
)
from repro.config import presets
from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import RunSpec
from repro.models import zoo


@pytest.fixture
def arch():
    return presets.cloud_arch("mini")


@pytest.fixture
def network():
    return zoo.get("ncf", "mini")


@pytest.fixture
def process_cache_state():
    """Start a test on an empty process-level memo."""
    tracecache.process_cache().clear_memo()  # no entries from earlier tests


# ---------------------------------------------------------------------- #
# Memo keys
# ---------------------------------------------------------------------- #


def _compiles(*frontends) -> int:
    """Compiles a fresh :class:`TraceCache` spends resolving ``frontends``."""
    cache = TraceCache()
    for network, arch in frontends:
        cache.get(network, arch)
    return cache.stats.compiles


class TestFingerprint:
    """What the memo keys a frontend by, seen through its compile count."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("array_rows", 16),
            ("array_cols", 16),
            ("spm_bytes", 1 << 18),
            ("dataflow", "ws"),
            ("element_bytes", 2),
            ("dram_transaction_bytes", 64),
        ],
    )
    def test_traffic_arch_fields_invalidate(self, network, arch, field, value):
        assert getattr(arch, field) != value, "pick a value that differs"
        changed = dataclasses.replace(arch, **{field: value})
        assert _compiles((network, arch), (network, changed)) == 2

    @pytest.mark.parametrize(
        "field, value",
        [("name", "other"), ("freq_mhz", 123), ("dma_issue_per_cycle", 99)],
    )
    def test_replay_side_arch_fields_shared(self, network, arch, field, value):
        """Frequency/DMA width/naming do not change which requests exist."""
        changed = dataclasses.replace(arch, **{field: value})
        assert _compiles((network, arch), (network, changed)) == 1

    def test_every_engine_compiles_its_own_trace(self, network, arch):
        """Engines never share a trace: the dataflow is part of the key."""
        from repro.compute.dataflow import registered_dataflows

        engines = registered_dataflows()
        frontends = [
            (network, dataclasses.replace(arch, dataflow=name)) for name in engines
        ]
        assert _compiles(*frontends) == len(engines)

    def test_network_name_is_not_part_of_the_key(self, network, arch):
        renamed = dataclasses.replace(network, name="other")
        assert _compiles((network, arch), (renamed, arch)) == 1

    def test_network_topology_invalidates(self, network, arch):
        first = network.layers[0]
        resized = dataclasses.replace(
            network,
            layers=(dataclasses.replace(first, dim=first.dim * 2),)
            + network.layers[1:],
        )
        shrunk = dataclasses.replace(network, layers=network.layers[1:])
        keys = {
            tracecache.frontend_key(net, arch) for net in (network, resized, shrunk)
        }
        assert len(keys) == 3
        assert _compiles(*((net, arch) for net in (network, resized, shrunk))) == 3


# ---------------------------------------------------------------------- #
# Compile
# ---------------------------------------------------------------------- #


class TestCompiledTrace:
    def test_replay_matches_live_generator(self, network, arch):
        trace = compile_trace(network, arch)
        generator = RequestGenerator(network, arch)
        assert list(trace.all_tiles()) == list(generator.all_tiles())
        assert trace.summary() == generator.summary()
        assert trace.memory_footprint_bytes == generator.memory_footprint_bytes
        assert trace.num_layers == generator.num_layers

    def test_oversized_compile_bails_out(self, network, arch):
        assert compile_trace(network, arch, max_objects=10) is None


# ---------------------------------------------------------------------- #
# The memo
# ---------------------------------------------------------------------- #


class TestTraceCache:
    def test_memo_hit_after_one_compile(self, network, arch):
        cache = TraceCache()
        first = cache.get(network, arch)
        assert cache.get(network, arch) is first
        assert cache.stats.compiles == 1 and cache.stats.memo_hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_oversize_falls_back_without_recompiling(self, network, arch):
        cache = TraceCache(max_memo_objects=10)
        assert cache.get(network, arch) is None
        assert cache.get(network, arch) is None
        assert cache.stats.compiles == 1  # the bail-out is remembered
        assert cache.stats.oversize == 2

    def test_memo_eviction_respects_budget(self, network, arch):
        small = compile_trace(network, arch)
        cache = TraceCache(max_memo_objects=small.object_cost + 10)
        cache.get(network, arch)
        other = dataclasses.replace(arch, spm_bytes=arch.spm_bytes // 2)
        cache.get(network, other)  # different key -> eviction
        # Only the newest trace fits the budget: it is a memo hit, while
        # the evicted one compiles again.
        cache.get(network, other)
        assert cache.stats.memo_hits == 1
        cache.get(network, arch)
        assert cache.stats.compiles == 3 and cache.stats.memo_hits == 1

    def test_trace_source_fallback_paths(self, network, arch, process_cache_state):
        cache = tracecache.process_cache()
        assert isinstance(trace_source(network, arch), CompiledTrace)
        saved_max, oversize = cache.max_memo_objects, cache.stats.oversize
        cache.clear_memo()
        cache.max_memo_objects = 0  # every trace is now over budget
        try:
            assert isinstance(trace_source(network, arch), RequestGenerator)
            assert cache.stats.oversize == oversize + 1
        finally:
            cache.max_memo_objects = saved_max
            cache.clear_memo()


# ---------------------------------------------------------------------- #
# Trace content and trace memory
# ---------------------------------------------------------------------- #

#: The eight Table 1 workloads, in the order their traces are hashed.
TRACE_MODELS = ("res", "yt", "alex", "sfrnn", "ds2", "dlrm", "ncf", "gpt2")

#: sha256 (see :func:`trace_sha256`) over the compiled mini solo
#: frontends of TRACE_MODELS, in order.  It was taken at the last commit
#: that still wrote on-disk trace shards, where the shard pin over the
#: same eight traces (sha256 d1bbc63c...360b83cf) held, so it pins the
#: same content.  A change here changes the requests every run replays.
TRACE_SHA256 = "3f5d9bc3e78cafc161e7190acadc17e94fca0d69764595f6a1b85ca2022370a5"


def trace_sha256(traces: list[CompiledTrace]) -> str:
    """sha256 over each trace's footprint, summary and tiles.

    Each tile contributes its layer index, its shape, its read and write
    run arrays as ints and its compute triple.
    """
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(
            repr(
                (trace.memory_footprint_bytes, sorted(trace.stats.items()))
            ).encode()
        )
        for tile in trace.all_tiles():
            t, c = tile.tile, tile.compute
            digest.update(
                repr(
                    (
                        tile.layer_index,
                        (t.m0, t.n0, t.k0, t.tm, t.tn, t.tk, t.first_k, t.last_k),
                        list(tile.reads),
                        list(tile.writes),
                        (c.cycles, c.macs, c.pe_utilization),
                    )
                ).encode()
            )
    return digest.hexdigest()


def _solo_frontend(model: str):
    """``(network, arch)`` of ``RunSpec.solo(model)``'s one core."""
    spec = RunSpec.solo(model)
    ((name, arch),) = spec.frontends()
    return zoo.get(name, spec.scale), arch


@pytest.fixture(scope="module")
def solo_traces():
    return [compile_trace(*_solo_frontend(model)) for model in TRACE_MODELS]


class TestTraceContent:
    def test_compiled_traces_match_pinned_digest(self, solo_traces):
        assert trace_sha256(solo_traces) == TRACE_SHA256

    def test_object_cost_is_tiles_plus_runs(self, solo_traces):
        for trace in solo_traces:
            tiles = list(trace.all_tiles())
            # Each run is one (addr, count) pair: two array slots.
            runs = sum((len(t.reads) + len(t.writes)) // 2 for t in tiles)
            assert trace.num_tiles == len(tiles)
            assert trace.object_cost == len(tiles) + runs


class TestTraceMemory:
    def test_compiled_runs_cost_at_most_32_bytes_each(self):
        network, arch = _solo_frontend("sfrnn")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = compile_trace(network, arch)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        runs = trace.object_cost - trace.num_tiles
        assert runs == 29_046
        assert held / runs <= 32, f"{held / runs:.1f} B per run"


# ---------------------------------------------------------------------- #
# Runner integration: the sweep's compile phase
# ---------------------------------------------------------------------- #


class TestRunnerIntegration:
    SPECS = (
        RunSpec.solo("ncf", scale="mini", channels=2),
        RunSpec.solo("ncf", scale="mini", channels=4),
        RunSpec.solo("ncf", scale="mini", channels=2, page_bytes=65536),
    )

    def test_memory_side_sweep_compiles_each_frontend_once(
        self, tmp_path, process_cache_state
    ):
        runner = ExperimentRunner(cache_dir=tmp_path, journal=True)
        runner.run_many(list(self.SPECS))
        stats = runner.last_trace_stats
        assert stats is not None
        # Three specs, one distinct (workload, arch) frontend.
        assert stats.compiles + stats.memo_hits == 1
        assert not (tmp_path / "traces").exists()
        events = [r["event"] for r in runner.journal.read()]
        assert "trace_cache" in events

    def test_parallel_and_serial_results_identical(
        self, tmp_path, process_cache_state
    ):
        serial = ExperimentRunner(cache_dir=tmp_path / "serial")
        parallel = ExperimentRunner(
            cache_dir=tmp_path / "parallel", jobs=2
        )
        specs = list(self.SPECS)
        want = serial.run_many(specs)
        got = parallel.run_many(specs)
        assert want == got
        for spec in specs:
            name = f"{spec.cache_key()}.json"
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes()
