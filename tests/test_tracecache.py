"""The compile/replay split: fingerprints, the two-level trace cache,
corruption handling, the stream-and-discard fallback, and the sweep
planner's precompile step."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import tracemalloc
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compute import tracecache
from repro.compute.dataflow import registered_dataflows
from repro.compute.requestgen import RequestGenerator, TileTraffic
from repro.compute.systolic import ComputeEstimate
from repro.compute.tiling import Tile
from repro.compute.tracecache import (
    CompiledTrace,
    TraceCache,
    compile_trace,
    decode_trace,
    encode_trace,
    frontend_fingerprint,
    trace_source,
)
from repro.config import presets
from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import RunSpec
from repro.models import serving, zoo

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def arch():
    return presets.cloud_arch("mini")


@pytest.fixture
def network():
    return zoo.get("ncf", "mini")


@pytest.fixture
def process_cache_state():
    """Snapshot + restore the process-level cache around a test."""
    cache = tracecache.process_cache()
    store = cache.store
    cache.clear_memo()  # deterministic stats: no entries from earlier tests
    yield
    cache.store = store


# ---------------------------------------------------------------------- #
# Fingerprints
# ---------------------------------------------------------------------- #


class TestFingerprint:
    def test_stable_across_processes(self, network, arch):
        """The key must not depend on Python hash seeds or process state."""
        expected = frontend_fingerprint(network, arch)
        code = (
            "from repro.models import zoo\n"
            "from repro.config import presets\n"
            "from repro.compute.tracecache import frontend_fingerprint\n"
            "print(frontend_fingerprint("
            "zoo.get('ncf', 'mini'), presets.cloud_arch('mini')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": SRC_DIR, "PYTHONHASHSEED": "271828"},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == expected

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
        assert frontend_fingerprint(network, changed) != frontend_fingerprint(
            network, arch
        )

    @pytest.mark.parametrize(
        "field, value",
        [("name", "other"), ("freq_mhz", 123), ("dma_issue_per_cycle", 99)],
    )
    def test_replay_side_arch_fields_shared(self, network, arch, field, value):
        """Frequency/DMA width/naming do not change which requests exist."""
        changed = dataclasses.replace(arch, **{field: value})
        assert frontend_fingerprint(network, changed) == frontend_fingerprint(
            network, arch
        )

    def test_fingerprint_is_tagged_with_the_engine_name(self, network, arch):
        """Shard filenames lead with the compiling engine, so the cache
        CLI can group trace shards by dataflow without opening them."""
        from repro.compute.dataflow import registered_dataflows

        tags = set()
        for dataflow in registered_dataflows():
            fingerprint = frontend_fingerprint(
                network, dataclasses.replace(arch, dataflow=dataflow)
            )
            tag, _, digest = fingerprint.partition("-")
            assert tag == dataflow
            assert len(digest) == 32
            tags.add(fingerprint)
        assert len(tags) == len(registered_dataflows())

    def test_engine_version_bump_invalidates(self, network, arch, monkeypatch):
        """Changing an engine's cycle model must recompile its traces."""
        from repro.compute.engines import OutputStationary

        before = frontend_fingerprint(network, arch)
        monkeypatch.setattr(OutputStationary, "version", 2)
        assert frontend_fingerprint(network, arch) != before

    def test_network_topology_invalidates(self, network, arch):
        first = network.layers[0]
        resized = dataclasses.replace(
            network,
            layers=(dataclasses.replace(first, dim=first.dim * 2),)
            + network.layers[1:],
        )
        shrunk = dataclasses.replace(network, layers=network.layers[1:])
        fingerprints = {
            frontend_fingerprint(net, arch) for net in (network, resized, shrunk)
        }
        assert len(fingerprints) == 3


# ---------------------------------------------------------------------- #
# Compile + serialization round trip
# ---------------------------------------------------------------------- #


class TestCompiledTrace:
    def test_replay_matches_live_generator(self, network, arch):
        trace = compile_trace(network, arch)
        generator = RequestGenerator(network, arch)
        assert list(trace.all_tiles()) == list(generator.all_tiles())
        assert trace.summary() == generator.summary()
        assert trace.memory_footprint_bytes == generator.memory_footprint_bytes
        assert trace.num_layers == generator.num_layers

    def test_disk_round_trip_is_exact(self, network, arch):
        trace = compile_trace(network, arch)
        decoded, reason = decode_trace(encode_trace(trace), trace.fingerprint)
        assert reason is None
        assert decoded.layers == trace.layers
        assert decoded.summary() == trace.summary()  # floats included, exactly
        assert decoded.memory_footprint_bytes == trace.memory_footprint_bytes
        assert decoded.object_cost == trace.object_cost

    @pytest.mark.parametrize(
        "raw, reason",
        [
            (b"{truncated", "unparseable JSON (truncated write?)"),
            (b"[1, 2]", "malformed shard structure"),
            (b'{"version": 999}', "trace-version mismatch"),
        ],
    )
    def test_decode_rejects_unsound_payloads(self, raw, reason):
        decoded, got = decode_trace(raw, "abc")
        assert decoded is None
        assert got.startswith(reason)

    def test_decode_rejects_foreign_fingerprint(self, network, arch):
        trace = compile_trace(network, arch)
        decoded, reason = decode_trace(encode_trace(trace), "not-the-fingerprint")
        assert decoded is None
        assert reason == "fingerprint does not match request"

    def test_oversized_compile_bails_out(self, network, arch):
        assert compile_trace(network, arch, max_objects=10) is None


# ---------------------------------------------------------------------- #
# The two-level cache
# ---------------------------------------------------------------------- #


class TestTraceCache:
    def test_memo_then_disk_then_compile(self, tmp_path, network, arch):
        cache = TraceCache(tmp_path)
        first = cache.get(network, arch)
        assert cache.get(network, arch) is first
        assert cache.stats.compiles == 1 and cache.stats.memo_hits == 1

        fresh = TraceCache(tmp_path)  # cold memo, warm disk
        loaded = fresh.get(network, arch)
        assert fresh.stats.disk_hits == 1 and fresh.stats.compiles == 0
        assert list(loaded.all_tiles()) == list(first.all_tiles())
        assert loaded.summary() == first.summary()

    @pytest.mark.parametrize("mode", ["truncate", "garbage", "flip"])
    def test_corrupt_shard_quarantined_and_recompiled(
        self, tmp_path, network, arch, mode
    ):
        cache = TraceCache(tmp_path)
        original = cache.get(network, arch)
        shard = cache.store.path(cache.shard_name(original.fingerprint))
        raw = shard.read_bytes()
        if mode == "truncate":
            shard.write_bytes(raw[: len(raw) // 2])
        elif mode == "garbage":
            shard.write_bytes(b"not json at all")
        else:  # valid JSON, wrong bytes -> checksum sidecar catches it
            shard.write_bytes(raw.replace(b'"version"', b'"version" ', 1))

        fresh = TraceCache(tmp_path)
        recompiled = fresh.get(network, arch)
        assert recompiled is not None
        assert list(recompiled.all_tiles()) == list(original.all_tiles())
        assert fresh.stats.quarantined == 1
        assert fresh.stats.compiles == 1 and fresh.stats.disk_hits == 0
        assert list(fresh.store.quarantine_dir.iterdir())
        # The recompile republished a sound shard.
        again = TraceCache(tmp_path)
        assert again.get(network, arch) is not None
        assert again.stats.disk_hits == 1

    def test_oversize_falls_back_without_recompiling(self, tmp_path, network, arch):
        cache = TraceCache(tmp_path, max_memo_objects=10)
        assert cache.get(network, arch) is None
        assert cache.get(network, arch) is None
        assert cache.stats.compiles == 1  # the bail-out is remembered
        assert cache.stats.oversize == 2
        assert cache.store.shard_names() == []  # nothing materialized on disk

    def test_memo_eviction_respects_budget(self, network, arch):
        small = compile_trace(network, arch)
        cache = TraceCache(max_memo_objects=small.object_cost + 10)
        cache.get(network, arch)
        other = dataclasses.replace(arch, spm_bytes=arch.spm_bytes // 2)
        cache.get(network, other)  # different fingerprint -> eviction
        # Only the newest trace fits the budget: it is a memo hit, while
        # the evicted one compiles again (this cache has no disk level).
        cache.get(network, other)
        assert cache.stats.memo_hits == 1
        cache.get(network, arch)
        assert cache.stats.compiles == 3 and cache.stats.memo_hits == 1

    def test_trace_source_fallback_paths(self, network, arch, process_cache_state):
        cache = tracecache.process_cache()
        tracecache.configure(directory=None)
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
# Shard format and trace memory
# ---------------------------------------------------------------------- #

#: The eight Table 1 workloads, in the order their shards are hashed.
SHARD_MODELS = ("res", "yt", "alex", "sfrnn", "ds2", "dlrm", "ncf", "gpt2")

#: sha256 over the encoded mini solo frontends of SHARD_MODELS, in order.
#: A change here means existing ``traces/`` shards no longer match what
#: a fresh compile writes: bump TRACE_VERSION instead of re-pinning.
SHARD_SHA256 = "d1bbc63cd383602d8c516916cdcc51f81478b82b2e5d2d917a918c1e360b83cf"


def _solo_frontend(model: str):
    """``(network, arch)`` of ``RunSpec.solo(model)``'s one core."""
    spec = RunSpec.solo(model)
    ((name, arch),) = spec.frontends()
    return zoo.get(name, spec.scale), arch


@pytest.fixture(scope="module")
def solo_traces():
    return [compile_trace(*_solo_frontend(model)) for model in SHARD_MODELS]


class TestShardFormat:
    def test_encoded_shards_match_pinned_digest(self, solo_traces):
        digest = hashlib.sha256()
        for trace in solo_traces:
            digest.update(encode_trace(trace))
        assert digest.hexdigest() == SHARD_SHA256

    def test_decode_encode_round_trips_bytes(self, solo_traces):
        for trace in solo_traces:
            raw = encode_trace(trace)
            decoded, reason = decode_trace(raw, trace.fingerprint)
            assert reason is None
            assert encode_trace(decoded) == raw

    def test_object_cost_is_tiles_plus_runs(self, solo_traces):
        for trace in solo_traces:
            shard = json.loads(encode_trace(trace))
            tiles = [tile for layer in shard["layers"] for tile in layer]
            runs = sum(len(reads) + len(writes) for _, reads, writes, _ in tiles)
            assert trace.object_cost == len(tiles) + runs
            decoded, _ = decode_trace(encode_trace(trace), trace.fingerprint)
            assert decoded.object_cost == trace.object_cost

    def test_decode_rejects_non_integer_runs(self, network, arch):
        trace = compile_trace(network, arch)
        shard = json.loads(encode_trace(trace))
        shard["layers"][0][0][1][0][0] = 0.5
        decoded, reason = decode_trace(json.dumps(shard).encode(), trace.fingerprint)
        assert decoded is None
        assert reason == "malformed trace payload"


def reference_encode(trace: CompiledTrace) -> bytes:
    """The shard bytes as ``json.dumps`` writes them over nested lists.

    This is how ``encode_trace`` built shards before it learned to
    format them straight from the flat run arrays; the encoder must
    stay byte-identical to it.
    """

    def pairs(runs):
        return list(zip(runs[0::2], runs[1::2]))

    def tile_lists(tile):
        t, c = tile.tile, tile.compute
        return [
            [t.m0, t.n0, t.k0, t.tm, t.tn, t.tk, int(t.first_k), int(t.last_k)],
            pairs(tile.reads),
            pairs(tile.writes),
            [c.cycles, c.macs, c.pe_utilization],
        ]

    layers = [[tile_lists(tile) for tile in layer] for layer in trace.layers]
    payload = {
        "version": tracecache.TRACE_VERSION,
        "fingerprint": trace.fingerprint,
        "network": trace.network_name,
        "footprint": trace.memory_footprint_bytes,
        "summary": trace.stats,
        "layers": layers,
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()


def assert_encodes_like_reference(trace: CompiledTrace) -> None:
    raw = encode_trace(trace)
    assert raw == reference_encode(trace)
    decoded, reason = decode_trace(raw, trace.fingerprint)
    assert reason is None
    assert decoded.layers == trace.layers
    assert decoded.summary() == trace.summary()
    assert encode_trace(decoded) == raw


#: Floats whose shortest JSON rendering is easy to get wrong by hand.
TRICKY_FLOATS = (5e-324, 0.1, 1 / 3, 1.0)

ints = st.integers(min_value=0, max_value=2**62)
floats = st.sampled_from(TRICKY_FLOATS) | st.floats(
    allow_nan=False, allow_infinity=False
)
run_arrays = st.lists(st.tuples(ints, ints), max_size=6).map(
    lambda pairs: array("q", [value for pair in pairs for value in pair])
)


@st.composite
def tile_traffic(draw, layer_index: int):
    return TileTraffic(
        layer_index=layer_index,
        tile=Tile(
            *draw(st.tuples(*[ints] * 6)),
            first_k=draw(st.booleans()),
            last_k=draw(st.booleans()),
        ),
        reads=draw(run_arrays),
        writes=draw(run_arrays),
        compute=ComputeEstimate(
            cycles=draw(ints), macs=draw(ints), pe_utilization=draw(floats)
        ),
    )


@st.composite
def compiled_traces(draw):
    layer_count = draw(st.integers(min_value=0, max_value=3))
    layers = tuple(
        tuple(draw(st.lists(tile_traffic(index), max_size=3)))
        for index in range(layer_count)
    )
    return CompiledTrace(
        fingerprint=draw(st.text(max_size=12)),
        network_name=draw(st.text(max_size=12)),
        memory_footprint_bytes=draw(ints),
        layers=layers,
        stats=draw(st.dictionaries(st.text(max_size=8), floats, max_size=4)),
    )


class TestEncoderMatchesReference:
    """``encode_trace`` writes exactly the bytes ``json.dumps`` would."""

    @given(compiled_traces())
    @settings(max_examples=200, deadline=None)
    def test_generated_traces(self, trace):
        assert_encodes_like_reference(trace)

    @pytest.mark.parametrize("value", TRICKY_FLOATS)
    def test_tricky_floats_in_compute_and_summary(self, value):
        tile = TileTraffic(
            layer_index=0,
            tile=Tile(0, 0, 0, 1, 1, 1, True, False),
            reads=array("q", [2**62, 1]),
            writes=array("q"),
            compute=ComputeEstimate(cycles=1, macs=1, pe_utilization=value),
        )
        trace = CompiledTrace(
            fingerprint="os-x",
            network_name="n",
            memory_footprint_bytes=0,
            layers=((tile,), ()),
            stats={"pe_utilization": value},
        )
        assert_encodes_like_reference(trace)

    @pytest.mark.parametrize("dataflow", registered_dataflows())
    def test_real_frontends_of_every_dataflow(self, dataflow):
        for model in SHARD_MODELS:
            network, arch = _solo_frontend(model)
            arch = dataclasses.replace(arch, dataflow=dataflow)
            assert_encodes_like_reference(compile_trace(network, arch))

    @pytest.mark.parametrize("phase", serving.PHASES)
    def test_gpt2_serving_phases(self, phase):
        network = serving.resolve(f"gpt2:{phase}")
        assert_encodes_like_reference(
            compile_trace(network, presets.cloud_arch("mini"))
        )


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

    def test_encode_peak_at_most_64_bytes_per_run(self):
        """Shards are written from the flat arrays: no per-run objects.

        The JSON itself is about 12.5 B per run; building it through
        nested ``[addr, count]`` lists peaked near 192 B per run.
        """
        trace = compile_trace(*_solo_frontend("sfrnn"))
        runs = trace.object_cost - trace.num_tiles
        gc.collect()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            raw = encode_trace(trace)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(raw) > 0
        assert peak / runs <= 64, f"{peak / runs:.1f} B per run"


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
        assert stats.compiles + stats.memo_hits + stats.disk_hits == 1
        assert (tmp_path / "traces").is_dir()
        events = [r["event"] for r in runner.journal.read()]
        assert "trace_cache" in events

    def test_warm_runner_loads_from_disk(self, tmp_path, process_cache_state):
        first = ExperimentRunner(cache_dir=tmp_path)
        first.run_many([self.SPECS[0]])
        tracecache.process_cache().clear_memo()  # simulate a new process
        second = ExperimentRunner(cache_dir=tmp_path)
        second.run_many([self.SPECS[1]])  # cold result, same frontend
        assert second.last_trace_stats.disk_hits == 1
        assert second.last_trace_stats.compiles == 0

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


# ---------------------------------------------------------------------- #
# Legacy shards
# ---------------------------------------------------------------------- #


class TestLegacyShards:
    """Shards written before fingerprints carried the dataflow tag (a
    bare digest stem, no ``-``) — and current OS-tagged shards — must
    keep loading through the exact validated-read path the cache uses."""

    def _store(self, tmp_path):
        from repro.storage import ShardStore

        quarantined = []
        return (
            ShardStore(
                tmp_path, on_quarantine=lambda n, r: quarantined.append((n, r))
            ),
            quarantined,
        )

    @pytest.mark.parametrize(
        "legacy_fingerprint",
        [
            "0123456789abcdef0123456789abcdef",  # pre-tag: bare digest
            "os-0123456789abcdef0123456789abcdef",  # current: engine tag
        ],
        ids=["untagged", "os-tagged"],
    )
    def test_shard_round_trips(self, tmp_path, network, arch, legacy_fingerprint):
        store, quarantined = self._store(tmp_path)
        trace = compile_trace(network, arch)
        relabeled = dataclasses.replace(trace, fingerprint=legacy_fingerprint)
        store.write(
            TraceCache.shard_name(legacy_fingerprint), encode_trace(relabeled)
        )
        loaded = store.read_validated(
            TraceCache.shard_name(legacy_fingerprint),
            lambda raw: decode_trace(raw, legacy_fingerprint),
        )
        assert loaded is not None
        assert loaded.fingerprint == legacy_fingerprint
        assert list(loaded.all_tiles()) == list(trace.all_tiles())
        assert not quarantined

    def test_cache_stats_groups_untagged_shards(self, tmp_path, network, arch):
        """``mnpusim cache stats`` must group pre-tag shards as
        "untagged" rather than crash or misattribute them."""
        from repro.cli import _trace_shards_by_dataflow

        store, _ = self._store(tmp_path)
        trace = compile_trace(network, arch)
        store.write(TraceCache.shard_name(trace.fingerprint), encode_trace(trace))
        legacy = "0123456789abcdef0123456789abcdef"
        store.write(
            TraceCache.shard_name(legacy),
            encode_trace(dataclasses.replace(trace, fingerprint=legacy)),
        )
        counts = _trace_shards_by_dataflow(store)
        assert counts == {"os": 1, "untagged": 1}
