"""Tests for RunSpec descriptors and the parallel sharded run_many path."""

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.sharing import SharingLevel
from repro.experiments.runner import JOURNAL_NAME, ExperimentRunner
from repro.experiments import figures
from repro.experiments.mixes import all_mixes
from repro.experiments.spec import RESULTS_VERSION, PlanContext, RunSpec
from repro.models import serving_names, zoo
from repro.models.layers import DenseLayer, Network
from repro.models.serving import ServingParams


def _tiny(name="tiny", dims=(16, 32, 16)):
    return Network(name, (DenseLayer("l0", *dims),))


class TestCacheKey:
    def test_same_spec_same_key(self):
        assert RunSpec.solo("ncf").cache_key() == RunSpec.solo("ncf").cache_key()

    def test_equal_specs_are_interchangeable(self):
        a = RunSpec.mix(("ncf", "gpt2"), SharingLevel.DWT)
        b = RunSpec.mix(["ncf", "gpt2"], "DWT")
        assert a == b
        assert hash(a) == hash(b)
        assert a.cache_key() == b.cache_key()

    def test_key_stable_across_processes(self):
        spec = RunSpec.mix(("ncf", "gpt2"), SharingLevel.DW, page_bytes=65536)
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(RunSpec.cache_key, spec).result()
        assert remote == spec.cache_key()

    def test_any_field_change_changes_key(self):
        base = RunSpec.mix(("ncf", "gpt2"), SharingLevel.DWT)
        variants = [
            RunSpec.mix(("ncf", "ncf"), SharingLevel.DWT),
            RunSpec.mix(("ncf", "gpt2"), SharingLevel.D),
            RunSpec.mix(("ncf", "gpt2"), SharingLevel.DWT, page_bytes=65536),
            RunSpec.mix(("ncf", "gpt2"), SharingLevel.DWT, translation=False),
            RunSpec.mix(("ncf", "gpt2"), SharingLevel.DWT, scale="full"),
            RunSpec.mix(("ncf", "gpt2"), SharingLevel.D, ptw_split=(1, 3)),
            RunSpec.mix(("ncf", "gpt2"), SharingLevel.DWT, dataflow="ws"),
            RunSpec.mix(("ncf", "gpt2"), SharingLevel.DWT, dataflow="is"),
            RunSpec.mix(("ncf", "gpt2:decode"), SharingLevel.DWT),
            RunSpec.mix(
                ("ncf", "gpt2:decode"),
                SharingLevel.DWT,
                serving=ServingParams(experts=8),
            ),
            dataclasses.replace(base, version=RESULTS_VERSION + 1),
        ]
        keys = {spec.cache_key() for spec in variants}
        assert base.cache_key() not in keys
        assert len(keys) == len(variants)

    def test_solo_descriptor_matches_legacy_format(self):
        # The exact dict the pre-RunSpec runner hashed; cached results
        # written by old versions must stay addressable.
        assert RunSpec.solo("ncf").descriptor() == {
            "version": RESULTS_VERSION,
            "kind": "solo",
            "scale": "mini",
            "workload": "ncf",
            "channels": 4,
            "num_ptw": 1,
            "tlb_entries": 64,
            "page_bytes": 4096,
            "translation": True,
        }

    def test_mix_descriptor_matches_legacy_format(self):
        spec = RunSpec.mix(("ncf", "gpt2"), SharingLevel.DWT)
        assert spec.descriptor() == {
            "version": RESULTS_VERSION,
            "kind": "mix",
            "scale": "mini",
            "workloads": ["ncf", "gpt2"],
            "sharing": "DWT",
            "page_bytes": 4096,
            "translation": True,
            "ptw_split": None,
            "num_ptw_per_core": None,
            "tlb_entries_per_core": None,
        }

    def test_default_dataflow_is_omitted_from_descriptor(self):
        # Specs at the default engine must keep producing the pre-axis
        # descriptor byte-for-byte — pinned by the legacy-format tests
        # above and by the golden shard hashes.
        assert "dataflow" not in RunSpec.solo("ncf").descriptor()
        assert "dataflow" not in RunSpec.mix(
            ("ncf", "gpt2"), SharingLevel.DWT
        ).descriptor()

    def test_non_default_dataflow_lands_in_descriptor_and_label(self):
        spec = RunSpec.solo("ncf", dataflow="is")
        descriptor = spec.descriptor()
        assert descriptor["dataflow"] == "is"
        assert list(descriptor)[-1] == "dataflow"
        assert spec.label.endswith(" df=is")
        assert spec.cache_key() != RunSpec.solo("ncf").cache_key()

    def test_unknown_dataflow_rejected(self):
        with pytest.raises(ValueError, match="registered engines"):
            RunSpec.solo("ncf", dataflow="rs")

    def test_dataflow_threads_into_system_config(self):
        solo = RunSpec.solo("ncf", dataflow="ws").system()
        assert all(arch.dataflow == "ws" for arch in solo.arch)
        mix = RunSpec.mix(
            ("ncf", "gpt2"), SharingLevel.DWT, dataflow="is"
        ).system()
        assert all(arch.dataflow == "is" for arch in mix.arch)

    def test_unresolved_solo_refuses_key(self):
        bare = RunSpec(kind="solo", workloads=("ncf",))
        assert not bare.is_resolved
        with pytest.raises(ValueError, match="unresolved"):
            bare.cache_key()
        resolved = bare.resolve()
        assert resolved == RunSpec.solo("ncf")


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            RunSpec(kind="duo", workloads=("ncf",))

    def test_solo_takes_one_workload(self):
        with pytest.raises(ValueError, match="exactly one"):
            RunSpec(kind="solo", workloads=("ncf", "gpt2"))

    def test_solo_rejects_sharing(self):
        with pytest.raises(ValueError, match="uncontended"):
            RunSpec(kind="solo", workloads=("ncf",), sharing="DWT")

    def test_mix_needs_sharing(self):
        with pytest.raises(ValueError, match="sharing level"):
            RunSpec(kind="mix", workloads=("ncf", "gpt2"))

    def test_mix_rejects_uncontended_level(self):
        with pytest.raises(ValueError, match="no dynamic contention"):
            RunSpec.mix(("ncf", "gpt2"), SharingLevel.STATIC)

    def test_mix_rejects_resource_slice(self):
        with pytest.raises(ValueError, match="solo-only"):
            RunSpec(kind="mix", workloads=("ncf", "gpt2"), sharing="DWT", channels=8)

    def test_ptw_split_arity(self):
        with pytest.raises(ValueError, match="per core"):
            RunSpec.mix(("ncf", "gpt2"), SharingLevel.D, ptw_split=(1,))

    def test_system_round_trip(self):
        solo = RunSpec.ideal("ncf", 2).system()
        assert len(solo.arch) == 1
        assert solo.dram.channels == 8
        assert solo.npumem[0].num_ptw == 2
        mix = RunSpec.mix(("ncf", "gpt2"), SharingLevel.DW).system()
        assert len(mix.arch) == 2
        assert mix.share_dram and mix.share_ptw and not mix.share_tlb
        assert mix.misc.iterations == 1
        split = RunSpec.mix(
            ("ncf", "gpt2"), SharingLevel.D, ptw_split=(1, 3), num_ptw_per_core=2
        ).system()
        assert not split.share_ptw
        assert split.ptw_assignment == (1, 3)
        assert split.npumem[0].num_ptw == 2


class TestServingSpec:
    """Serving fields ride the same descriptor-omission contract as
    dataflow: absent at defaults, so every pre-serving cache
    key survives; present (and key-changing) whenever set."""

    def test_defaults_are_omitted_from_descriptor(self):
        for spec in (
            RunSpec.solo("ncf"),
            RunSpec.mix(("ncf", "gpt2"), SharingLevel.DWT),
            RunSpec.mix(("gpt2:prefill", "gpt2:decode"), SharingLevel.DWT),
        ):
            descriptor = spec.descriptor()
            assert "phase" not in descriptor
            assert "serving" not in descriptor

    def test_default_params_normalize_to_none(self):
        # serving=ServingParams() means "all defaults" — the spec must
        # dedupe and key identically to the spec that never set it.
        explicit = RunSpec.mix(
            ("gpt2:prefill", "gpt2:decode"),
            SharingLevel.DWT,
            serving=ServingParams(),
        )
        implicit = RunSpec.mix(("gpt2:prefill", "gpt2:decode"), SharingLevel.DWT)
        assert explicit.serving is None
        assert explicit == implicit
        assert explicit.cache_key() == implicit.cache_key()

    def test_non_default_serving_lands_in_descriptor_and_label(self):
        spec = RunSpec.mix(
            ("gpt2:prefill", "gpt2:decode"),
            SharingLevel.DWT,
            serving=ServingParams(moe_skew="zipf"),
        )
        descriptor = spec.descriptor()
        assert descriptor["serving"]["moe_skew"] == "zipf"
        assert "srv[moe_skew=zipf]" in spec.label

    def test_phase_lands_in_descriptor_and_label(self):
        # A context's phase lands in the workload name, the one place a
        # serving workload's phase lives.
        spec = PlanContext(phase="prefill").solo("gpt2")
        assert spec.descriptor()["workload"] == "gpt2:prefill"
        assert "phase" not in spec.descriptor()
        assert spec.label.startswith("solo gpt2:prefill ")
        assert spec.cache_key() != RunSpec.solo("gpt2").cache_key()

    def test_phase_needs_a_bare_serving_base(self):
        # Only bare serving bases take the phase: zoo names and names
        # that are already qualified pass through unchanged.
        ctx = PlanContext(phase="decode")
        assert ctx.solo("ncf") == RunSpec.solo("ncf")
        assert ctx.solo("gpt2:prefill") == RunSpec.solo("gpt2:prefill")
        assert serving_names.qualify(("gpt2", "ncf", "gpt2:prefill"), "decode") == (
            "gpt2:decode", "ncf", "gpt2:prefill"
        )
        assert serving_names.qualify(("gpt2",), None) == ("gpt2",)

    def test_serving_params_need_a_serving_workload(self):
        with pytest.raises(ValueError, match="serving workload"):
            RunSpec.mix(
                ("ncf", "dlrm"),
                SharingLevel.DWT,
                serving=ServingParams(experts=8),
            )

    def test_bad_workload_names_rejected(self):
        with pytest.raises(ValueError, match="no serving frontend"):
            RunSpec.solo("ncf:prefill")
        with pytest.raises(ValueError, match="unknown phase"):
            RunSpec.solo("gpt2:flarp")
        with pytest.raises(ValueError, match="unknown phase"):
            PlanContext(phase="warmup").solo("gpt2")

    def test_runner_defaults_bind_only_to_serving_workloads(self):
        ctx = PlanContext(phase="decode", serving=ServingParams(moe_skew="zipf"))
        bound = ctx.solo("gpt2")
        assert bound.workloads == ("gpt2:decode",)
        assert bound.serving == ServingParams(moe_skew="zipf")
        # Non-serving workloads planned through the same context must not
        # inherit the defaults (they would fail RunSpec validation).
        plain = ctx.solo("ncf")
        assert plain.workloads == ("ncf",) and plain.serving is None
        qualified = ctx.mix(
            ("gpt2:prefill", "gpt2:decode"), SharingLevel.DWT
        )
        assert qualified.workloads == ("gpt2:prefill", "gpt2:decode")
        assert qualified.serving == ServingParams(moe_skew="zipf")

    def test_a_context_phase_plans_the_qualified_spec(self):
        # One name per serving workload: ``gpt2`` under phase "decode"
        # is the very spec ``gpt2:decode`` names, cache key included.
        bound = PlanContext(phase="decode").ideal("gpt2", 2)
        named = RunSpec.ideal("gpt2:decode", 2)
        assert bound == named
        assert bound.cache_key() == named.cache_key()

    def test_phase_sweep_plans_each_simulation_once(self):
        # Figs 4-7's dual sweep plus the serving figure under a decode
        # context: the decode Ideal and the (decode, decode) +DW/+DWT
        # mixes are planned by both, and must dedupe to one spec each.
        ctx = PlanContext(phase="decode")
        specs = [
            *figures.sharing_sweep_specs(ctx, all_mixes(2, zoo.NAMES)).values(),
            *figures.serving_colocation_specs(ctx).values(),
        ]
        assert len(specs) == 140
        assert len(set(specs)) == 137
        assert len({spec.cache_key() for spec in specs}) == 137


def _sweep_specs(runner, dims=(16, 32, 16)):
    """A small dual-mix sweep (8 unique cold specs) over registered nets."""
    for name in ("wa", "wb"):
        runner.register_network(_tiny(name, dims))
    specs = [
        RunSpec.mix(("wa", "wb"), level)
        for level in (SharingLevel.D, SharingLevel.DW, SharingLevel.DWT)
    ]
    specs += [
        RunSpec.mix(("wa", "wa"), SharingLevel.DWT),
        RunSpec.mix(("wb", "wb"), SharingLevel.DWT),
        RunSpec.solo("wa"),
        RunSpec.solo("wb"),
        RunSpec.ideal("wa", 2),
    ]
    return specs


class TestRunMany:
    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        serial = ExperimentRunner(cache_dir=tmp_path / "serial")
        parallel = ExperimentRunner(cache_dir=tmp_path / "parallel", jobs=4)
        serial_results = serial.run_many(_sweep_specs(serial))
        parallel_results = parallel.run_many(_sweep_specs(parallel))
        assert serial_results == parallel_results
        assert serial.runs_executed == parallel.runs_executed == 8
        # The sweep journal logs wall-clock timestamps and job counts;
        # the byte-identity contract covers the cache artifacts (result
        # shards, trace shards, checksum sidecars), not the execution log.
        def artifacts(runner):
            return sorted(
                p.relative_to(runner.cache_dir)
                for p in runner.cache_dir.rglob("*")
                if p.is_file() and p.name != JOURNAL_NAME
            )

        serial_files = artifacts(serial)
        parallel_files = artifacts(parallel)
        assert serial_files == parallel_files
        for name in serial_files:
            assert (serial.cache_dir / name).read_bytes() == (
                parallel.cache_dir / name
            ).read_bytes()

    def test_batch_is_deduplicated(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        specs = _sweep_specs(runner)
        results = runner.run_many(specs + list(reversed(specs)))
        assert runner.runs_executed == len(results) == len(set(specs))

    def test_second_batch_is_all_cache_hits(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        first = runner.run_many(_sweep_specs(runner))
        events = []
        runner.jobs, runner.progress = 4, events.append
        again = runner.run_many(_sweep_specs(runner))
        assert again == first
        assert runner.runs_executed == 8
        # One summary event: everything completed before any cold run.
        assert [e.completed for e in events] == [8]
        assert events[0].cache_hits == 8

    def test_progress_reports_every_completion(self, tmp_path):
        events = []
        runner = ExperimentRunner(cache_dir=tmp_path, progress=events.append)
        runner.run_many(_sweep_specs(runner))
        # Initial summary + one event per cold run, monotonically complete.
        assert [e.completed for e in events] == list(range(9))
        assert events[-1].total == 8
        assert all(e.spec is not None for e in events[1:])

    def test_figure_planner_prefetches_everything(self, tmp_path, monkeypatch):
        # After one run_many over the planner's specs, the figure must be
        # served entirely from cache: zero additional cold runs.
        from repro.experiments import figures
        from repro.models import zoo

        monkeypatch.setattr(zoo, "NAMES", ("wa", "wb"))
        runner = ExperimentRunner(cache_dir=tmp_path)
        for name in ("wa", "wb"):
            runner.register_network(_tiny(name))
        mixes = [("wa", "wa"), ("wa", "wb")]
        ctx = PlanContext()
        plan = figures.sharing_sweep_specs(ctx, mixes)
        runner.run_many(plan.values())
        executed = runner.runs_executed
        data = figures.run_figures(ctx, runner, ["fig4"], {2: mixes})["fig4"]
        assert runner.runs_executed == executed
        assert set(data["overall"]) == {"Static", "+D", "+DW", "+DWT"}

    def test_runner_dataflow_default_applies_to_planned_specs(self):
        ctx = PlanContext(dataflow="ws")
        assert ctx.solo("ncf").dataflow == "ws"
        assert ctx.ideal("ncf", 2).dataflow == "ws"
        assert ctx.mix(("ncf", "gpt2"), SharingLevel.DWT).dataflow == "ws"
        # Explicit per-spec engines always win over the context default.
        assert ctx.solo("ncf", dataflow="is").dataflow == "is"
        # resolve() must not touch an already-specified dataflow, or
        # batch resolution inside run_many would clobber per-spec engines.
        explicit = RunSpec.solo("ncf", dataflow="is")
        assert explicit.resolve().dataflow == "is"

    def test_dataflow_compare_reduces_cached_batch(self, tmp_path, monkeypatch):
        from repro.compute.dataflow import registered_dataflows
        from repro.experiments import figures
        from repro.models import zoo

        monkeypatch.setattr(zoo, "NAMES", ("wa", "wb"))
        runner = ExperimentRunner(cache_dir=tmp_path)
        for name in ("wa", "wb"):
            runner.register_network(_tiny(name))
        ctx = PlanContext()
        data = figures.run_figures(ctx, runner, ["dataflow_compare"])
        data = data["dataflow_compare"]
        engines = list(registered_dataflows())
        assert data["dataflows"] == engines
        assert runner.runs_executed == 2 * len(engines)
        for name in ("wa", "wb"):
            assert set(data["cycles"][name]) == set(engines)
            assert data["speedup_vs_os"][name]["os"] == 1.0
        assert data["overall"]["os"] == 1.0
        # Re-reducing is served entirely from cache.
        again = figures.run_figures(ctx, runner, ["dataflow_compare"])
        again = again["dataflow_compare"]
        assert again == data
        assert runner.runs_executed == 2 * len(engines)

    def test_parallel_workers_overlap_on_cold_cache(self, tmp_path, monkeypatch):
        # Wall-time speedup depends on what else the host runs; whether
        # two workers simulate at the same time does not.  Every
        # MultiCoreNPUSim.run appends its (pid, start, end) to a file;
        # the wrapper is installed before the pool forks, so the workers
        # inherit it.
        from repro.core.simulator import MultiCoreNPUSim

        log = tmp_path / "runs.log"
        run = MultiCoreNPUSim.run

        def recorded_run(sim, *args, **kwargs):
            start = time.monotonic()
            result = run(sim, *args, **kwargs)
            with open(log, "a") as sink:
                sink.write(f"{os.getpid()} {start} {time.monotonic()}\n")
            return result

        monkeypatch.setattr(MultiCoreNPUSim, "run", recorded_run)
        dims = (512, 512, 512)
        serial = ExperimentRunner(cache_dir=tmp_path / "serial")
        expected = serial.run_many(_sweep_specs(serial, dims))
        log.unlink()
        parallel = ExperimentRunner(cache_dir=tmp_path / "parallel", jobs=2)
        assert parallel.run_many(_sweep_specs(parallel, dims)) == expected
        intervals = {}
        for line in log.read_text().splitlines():
            pid, start, end = line.split()
            intervals.setdefault(int(pid), []).append((float(start), float(end)))
        assert len(intervals) == 2 and os.getpid() not in intervals
        assert sum(map(len, intervals.values())) == len(expected)
        first, second = intervals.values()
        assert any(
            a_start < b_end and b_start < a_end
            for a_start, a_end in first
            for b_start, b_end in second
        ), intervals
