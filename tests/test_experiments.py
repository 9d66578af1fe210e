"""Unit tests for mix enumeration, the cached runner, and reporting."""

import gc
import json

import pytest

from repro.core.engine import Engine
from repro.core.sharing import SharingLevel
from repro.core.simulator import MultiCoreNPUSim
from repro.dram.channel import Channel
from repro.experiments.mixes import all_mixes, mix_label, subset_mixes
from repro.experiments.report import cdf_summary, format_mapping, format_table
from repro.experiments.runner import DEFAULT_MAX_TICKS, ExperimentRunner, _execute_spec
from repro.experiments.spec import RunSpec
from repro.models import zoo
from repro.models.layers import DenseLayer, Network


class TestMixes:
    def test_paper_counts(self):
        # M(8,2) = 36, M(8,4) = 330, M(8,8) = 6435 (section 4.1.1, 4.6.2).
        assert len(all_mixes(2)) == 36
        assert len(all_mixes(4)) == 330
        assert len(all_mixes(8)) == 6435

    def test_mixes_are_multisets(self):
        mixes = all_mixes(2)
        assert ("res", "res") in mixes
        # Multisets follow the zoo's Table 1 ordering (non-decreasing index).
        order = {name: index for index, name in enumerate(zoo.NAMES)}
        for mix in mixes:
            indices = [order[name] for name in mix]
            assert indices == sorted(indices)

    def test_no_duplicates(self):
        mixes = all_mixes(4)
        assert len(set(mixes)) == len(mixes)

    def test_label(self):
        assert mix_label(("ncf", "gpt2")) == "ncf+gpt2"

    def test_subset_is_deterministic_and_spread(self):
        a = subset_mixes(4, 60)
        b = subset_mixes(4, 60)
        assert a == b
        assert len(a) == 60
        assert len(set(a)) == 60
        # Spread: both early and late regions of the full list sampled.
        full = all_mixes(4)
        assert a[0] == full[0]
        assert full.index(a[-1]) > 250

    def test_subset_larger_than_population(self):
        assert subset_mixes(2, 1000) == all_mixes(2)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            all_mixes(0)
        with pytest.raises(ValueError):
            subset_mixes(2, 0)


@pytest.fixture()
def runner(tmp_path):
    return ExperimentRunner(cache_dir=tmp_path / "cache")


def _tiny(name="tiny"):
    return Network(name, (DenseLayer("l0", 16, 32, 16),))


class TestRunnerCaching:
    def test_solo_cached_on_second_call(self, runner):
        runner.register_network(_tiny())
        first = runner.run(RunSpec.solo("tiny"))[0]
        executed = runner.runs_executed
        second = runner.run(RunSpec.solo("tiny"))[0]
        assert second == first
        assert runner.runs_executed == executed
        assert runner.cache_hits >= 1

    def test_cache_persists_across_runner_instances(self, tmp_path):
        a = ExperimentRunner(cache_dir=tmp_path / "c")
        a.register_network(_tiny())
        result = a.run(RunSpec.solo("tiny"))[0]
        b = ExperimentRunner(cache_dir=tmp_path / "c")
        b.register_network(_tiny())
        assert b.run(RunSpec.solo("tiny"))[0] == result
        assert b.runs_executed == 0

    def test_distinct_params_distinct_cache_entries(self, runner):
        runner.register_network(_tiny())
        a = runner.run(RunSpec.solo("tiny", channels=1))[0]
        b = runner.run(RunSpec.solo("tiny", channels=8))[0]
        assert a["cycles"] >= b["cycles"]
        assert runner.runs_executed == 2

    def test_mix_requires_contended_level(self, runner):
        with pytest.raises(ValueError, match="no dynamic contention"):
            RunSpec.mix(("tiny", "tiny"), SharingLevel.STATIC)

    def test_mix_returns_per_core_results(self, runner):
        runner.register_network(_tiny("a"))
        runner.register_network(_tiny("b"))
        results = runner.run(RunSpec.mix(("a", "b"), SharingLevel.DWT))
        assert len(results) == 2
        assert results[0]["workload"] == "a"
        assert results[1]["workload"] == "b"

    def test_ptw_split_validated(self, runner):
        runner.register_network(_tiny("a"))
        runner.register_network(_tiny("b"))
        with pytest.raises(ValueError, match="per core"):
            RunSpec.mix(("a", "b"), SharingLevel.D, ptw_split=(1,))

    def test_ideal_and_static_are_distinct_runs(self, runner):
        runner.register_network(_tiny())
        ideal = runner.run(RunSpec.ideal("tiny", 2))[0]
        static = runner.run(RunSpec.solo("tiny"))[0]
        # Ideal owns twice the resources, so it is a different simulation
        # (tiny latency-bound nets may not *benefit* from extra channels).
        assert runner.runs_executed == 2
        assert ideal["cycles"] > 0 and static["cycles"] > 0

    def test_zoo_workloads_resolve_at_the_spec_scale(self, runner):
        # A runner simulates (and fingerprints) the network its spec names,
        # so a full-scale spec must never run the mini topology under the
        # full-scale cache key.
        (network,) = runner._networks_for(RunSpec.solo("ncf", scale="full"))
        assert network == zoo.get("ncf", "full")
        assert network != zoo.get("ncf", "mini")

    def test_cache_files_are_json(self, runner):
        runner.register_network(_tiny())
        runner.run(RunSpec.solo("tiny"))[0]
        files = list(runner.cache_dir.glob("*.json"))
        assert files
        payload = json.loads(files[0].read_text())
        assert "descriptor" in payload and "results" in payload

    def test_no_simulator_outlives_its_spec(self):
        # A finished simulator is cyclic garbage; with automatic
        # collection off, only _execute_spec's own collection frees it.
        spec = RunSpec.solo("tiny")
        assert spec.translation
        gc.disable()
        try:
            rows = _execute_spec(spec, [_tiny()], DEFAULT_MAX_TICKS)
            alive = [
                type(obj).__name__
                for obj in gc.get_objects()
                if isinstance(obj, (MultiCoreNPUSim, Engine, Channel))
            ]
        finally:
            gc.enable()
        assert rows[0]["workload"] == "tiny" and rows[0]["cycles"] > 0
        assert alive == []


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [(1, 2.0), (333, 4.5)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "333" in lines[3]

    def test_format_table_title(self):
        text = format_table(["x"], [(1,)], title="T")
        assert text.splitlines()[0] == "T"

    def test_format_mapping(self):
        text = format_mapping("cfg", {"k": 1})
        assert "cfg" in text and "k" in text

    def test_cdf_summary(self):
        points = [(float(v), (v + 1) / 10) for v in range(10)]
        summary = cdf_summary(points)
        assert summary["p10"] <= summary["p50"] <= summary["p90"]

    def test_cdf_summary_empty(self):
        assert cdf_summary([]) == {}


class TestFiguresLight:
    """Cheap figure reducers that do not need the big sweeps."""

    def test_table1(self):
        from repro.experiments import figures
        rows = figures.table1_models()
        assert [row["model"] for row in rows] == list(zoo.NAMES)

    def test_table2_full(self):
        from repro.experiments import figures
        config = figures.table2_configuration("full")
        assert config["systolic_array"] == "128x128"
        assert config["bandwidth_per_npu_gbs"] == 128.0

    def test_fig2_shape(self):
        from repro.experiments import figures
        data = figures.fig2_burstiness("ncf")
        assert data["peak_requests_per_window"] > 0
        assert len(data["series"]) > 5
        assert data["burst_ratio"] >= 1.0
