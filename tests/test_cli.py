"""Tests for the mnpusim-style command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def config_tree(tmp_path):
    """An mNPUsim-style config-file tree for a dual-core run."""
    arch = tmp_path / "arch.cfg"
    arch.write_text(
        "name = tpu\n"
        "array_rows = 16\narray_cols = 16\n"
        "spm_bytes = 65536\n"
        "dram_transaction_bytes = 256\n"
    )
    npumem = tmp_path / "npumem.cfg"
    npumem.write_text("tlb_entries = 32\ntlb_assoc = 8\nnum_ptw = 1\n")
    dram = tmp_path / "dram.cfg"
    dram.write_text(
        "channels = 8\nchannel_bytes_per_cycle = 16\nqueue_depth = 128\n"
        "timing.tcl = 14\nmapping = ch-co-ba-bg-ro\n"
    )
    misc = tmp_path / "misc.cfg"
    misc.write_text("iterations = 0\n")
    arch_list = tmp_path / "arch_list.txt"
    arch_list.write_text(f"{arch}\n{arch}\n")
    net_list = tmp_path / "net_list.txt"
    net_list.write_text("ncf\nncf\n")
    npumem_list = tmp_path / "npumem_list.txt"
    npumem_list.write_text(f"{npumem}\n{npumem}\n")
    return {
        "arch_list": arch_list,
        "net_list": net_list,
        "dram": dram,
        "npumem_list": npumem_list,
        "misc": misc,
        "out": tmp_path / "out",
    }


class TestRunCommand:
    def test_artifact_style_run(self, config_tree, capsys):
        code = main([
            "run",
            str(config_tree["arch_list"]),
            str(config_tree["net_list"]),
            str(config_tree["dram"]),
            str(config_tree["npumem_list"]),
            str(config_tree["out"]),
            str(config_tree["misc"]),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "core0 ncf" in out and "core1 ncf" in out
        result_dir = config_tree["out"] / "result"
        # Artifact naming convention: avg_cycle_arch_<name><i>_<net><i>.txt
        cycle_file = result_dir / "avg_cycle_arch_tpu0_ncf0.txt"
        assert cycle_file.exists()
        assert int(cycle_file.read_text()) > 0
        assert (result_dir / "utilization_arch_tpu1_ncf1.txt").exists()
        assert (result_dir / "memory_footprint_arch_tpu0_ncf0.txt").exists()
        summary = json.loads((result_dir / "summary.json").read_text())
        assert len(summary) == 2

    def test_mismatched_lists_rejected(self, config_tree, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("ncf\n")
        with pytest.raises(SystemExit):
            main([
                "run",
                str(config_tree["arch_list"]),
                str(short),
                str(config_tree["dram"]),
                str(config_tree["npumem_list"]),
                str(config_tree["out"]),
                str(config_tree["misc"]),
            ])


class TestMixCommand:
    def test_mix_prints_per_core_lines(self, capsys):
        code = main(["mix", "ncf", "ncf", "--sharing", "DWT"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("cycles") == 2

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["mix", "vgg16"])

    def test_mix_agrees_with_experiment_runner(self, tmp_path, capsys):
        # The CLI and the cached runner plan the same RunSpec, so their
        # cycle counts must match exactly for identical parameters.
        from repro.core.sharing import SharingLevel
        from repro.experiments.runner import ExperimentRunner
        from repro.experiments.spec import RunSpec

        assert main(["mix", "ncf", "ncf", "--sharing", "DW"]) == 0
        out = capsys.readouterr().out
        cli_cycles = [
            int(line.split()[2]) for line in out.splitlines() if "cycles" in line
        ]
        runner = ExperimentRunner(cache_dir=tmp_path)
        results = runner.run(RunSpec.mix(("ncf", "ncf"), SharingLevel.DW))
        assert cli_cycles == [result["cycles"] for result in results]

    def test_uncontended_sharing_rejected(self):
        with pytest.raises(SystemExit, match="no dynamic contention"):
            main(["mix", "ncf", "ncf", "--sharing", "Static"])

    def test_max_ticks_safety_valve(self):
        with pytest.raises(SystemExit, match="simulation aborted"):
            main(["mix", "ncf", "ncf", "--max-ticks", "1000"])

    def test_run_max_ticks_safety_valve(self, config_tree):
        with pytest.raises(SystemExit, match="simulation aborted"):
            main([
                "run",
                str(config_tree["arch_list"]),
                str(config_tree["net_list"]),
                str(config_tree["dram"]),
                str(config_tree["npumem_list"]),
                str(config_tree["out"]),
                str(config_tree["misc"]),
                "--max-ticks", "500",
            ])


@pytest.mark.parametrize(
    "argv",
    [
        ["mix", "ncf", "dlrm", "--replay-mode", "auto"],
        ["figure", "fig15", "--replay-mode", "event"],
        ["sweep", "fig15", "--replay-mode", "batched"],
        ["run", "a", "n", "d", "m", "out", "misc", "--replay-mode", "event"],
        *(
            pytest.param([*command, "--no-trace-cache"], id=f"{name} --no-trace-cache")
            for name, command in (
                ("run", ["run", "a", "n", "d", "m", "out", "misc"]),
                ("mix", ["mix", "ncf", "dlrm"]),
                ("figure", ["figure", "fig15"]),
                ("sweep", ["sweep", "fig15"]),
                ("stats", ["stats", "ncf"]),
                ("profile run", ["profile", "run", "ncf"]),
                ("profile sweep", ["profile", "sweep", "fig15"]),
                ("serve", ["serve"]),
            )
        ),
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_unrecognized_option_exits_2(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


class TestDataflowOptions:
    def test_mix_dataflow_flag_changes_cycles(self, capsys):
        assert main(["mix", "ncf", "ncf", "--sharing", "DWT"]) == 0
        base = capsys.readouterr().out
        assert (
            main(["mix", "ncf", "ncf", "--sharing", "DWT", "--dataflow", "is"])
            == 0
        )
        alt = capsys.readouterr().out

        def cycles(text):
            return [
                int(line.split()[2])
                for line in text.splitlines()
                if "cycles" in line
            ]

        assert cycles(base) != cycles(alt)

    def test_unknown_dataflow_flag_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["mix", "ncf", "ncf", "--dataflow", "rs"])

    def test_run_dataflow_flag_overrides_config_files(self, config_tree, capsys):
        args = [
            "run",
            str(config_tree["arch_list"]),
            str(config_tree["net_list"]),
            str(config_tree["dram"]),
            str(config_tree["npumem_list"]),
            str(config_tree["out"]),
            str(config_tree["misc"]),
        ]
        assert main(args) == 0
        base = capsys.readouterr().out
        assert main(args + ["--dataflow", "ws"]) == 0
        overridden = capsys.readouterr().out
        assert base != overridden


class TestCacheStatsByDataflow:
    def test_trace_shards_grouped_by_engine_tag(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir(parents=True)
        (traces / ("os-" + "0" * 32 + ".json")).write_text("{}")
        (traces / ("os-" + "1" * 32 + ".json")).write_text("{}")
        (traces / ("ws-" + "2" * 32 + ".json")).write_text("{}")
        # A shard from before fingerprints carried the engine tag.
        (traces / ("a" * 32 + ".json")).write_text("{}")
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 shard(s) tagged os" in out
        assert "1 shard(s) tagged ws" in out
        assert "1 shard(s) tagged untagged" in out

    def test_stats_quiet_when_no_trace_shards(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "tagged" not in out


class TestCacheCommandHardening:
    """``mnpusim cache`` must degrade gracefully on every store state a
    user can plausibly be in: never-created, freshly-emptied, or a
    directory holding partial/foreign entries (quarantine subdir,
    checksum sidecars, interrupted downloads)."""

    def test_stats_on_missing_cache_dir(self, tmp_path, capsys):
        target = tmp_path / "never" / "created"
        assert main(["cache", "stats", "--cache-dir", str(target)]) == 0
        out = capsys.readouterr().out
        assert "results" in out and "traces" in out
        assert "    0 shard(s)" in out
        assert not target.exists(), "stats must not create the directory"

    def test_stats_on_empty_traces_dir(self, tmp_path, capsys):
        (tmp_path / "traces").mkdir(parents=True)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "tagged" not in out  # no shards -> no per-tag lines

    def test_stats_on_partial_traces_dir(self, tmp_path, capsys):
        """Only ``*.json`` files count; subdirectories (including the
        quarantine dir), sidecars and temp files are ignored."""
        traces = tmp_path / "traces"
        traces.mkdir(parents=True)
        (traces / ("os-" + "0" * 32 + ".json")).write_text("{}")
        (traces / ("os-" + "0" * 32 + ".json.sha256")).write_text("feed")
        (traces / ("os-" + "1" * 32 + ".json.tmp")).write_text("{")
        (traces / "quarantine").mkdir()
        (traces / "quarantine" / ("ws-" + "2" * 32 + ".json")).write_text("{}")
        (traces / "notes.txt").write_text("hello")
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 shard(s) tagged os" in out
        assert "ws" not in out  # quarantined shards are not live shards
        assert "1 quarantined" in out

    def test_stats_only_results_skips_trace_grouping(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir(parents=True)
        (traces / ("os-" + "0" * 32 + ".json")).write_text("{}")
        assert main(
            ["cache", "stats", "--only", "results", "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "results" in out
        assert "tagged" not in out

    def test_clear_on_missing_and_empty_stores(self, tmp_path, capsys):
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cleared 0 results shard(s)" in out
        assert "cleared 0 traces shard(s)" in out


class TestModelsCommand:
    def test_lists_all_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("res", "yt", "alex", "sfrnn", "ds2", "dlrm", "ncf", "gpt2"):
            assert name in out


class TestFigureCommand:
    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown figure"):
            main(["figure", "fig99", "--cache-dir", str(tmp_path)])

    def test_jobs_flag_accepted(self, tmp_path):
        # Still unknown-figure, but after --jobs parsing: the flag exists.
        with pytest.raises(SystemExit, match="unknown figure"):
            main(["figure", "fig99", "--jobs", "4", "--cache-dir", str(tmp_path)])

    def test_dataflow_flag_reaches_every_planned_spec(self, tmp_path):
        args = ["figure", "fig16", "--mixes", "1", "--dataflow", "ws", "--quiet"]
        assert main([*args, "--cache-dir", str(tmp_path)]) == 0
        shards = list(tmp_path.glob("*.json"))
        assert len(shards) == 27
        for shard in shards:
            assert json.loads(shard.read_text())["descriptor"]["dataflow"] == "ws"


class TestSweepCommand:
    def test_unknown_figures_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown figures"):
            main(["sweep", "fig4", "fig99", "--cache-dir", str(tmp_path)])

    def test_fig16_sweeps(self, tmp_path, capsys):
        args = ["sweep", "fig16", "--mixes", "1", "--quiet"]
        assert main([*args, "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fig16 (scale=mini)" in out and "64KB" in out


class TestCacheSummary:
    def test_results_and_traces_reported_separately(self, tmp_path, capsys):
        """The post-batch line gives each store its own disk usage."""
        from repro.obs.profiling import human_bytes

        args = ["figure", "fig16", "--mixes", "1", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        (line,) = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("cache: ")
        ]

        def disk(directory):
            shards = list(directory.glob("*.json"))
            size = sum(shard.stat().st_size for shard in shards)
            return f"{len(shards)} shard(s) {human_bytes(size)} on disk"

        results, traces = line.split("; ")
        assert results == f"cache: results 0/27 cached, {disk(tmp_path)}"
        assert traces.startswith("traces 8 distinct: ")
        assert traces.endswith(f", {disk(tmp_path / 'traces')}")

    def test_fully_cached_sweep_reports_no_trace_hit_rate(self, tmp_path, capsys):
        """A warm rerun resolves no frontend: no misleading 0.00 hit rate."""
        args = ["figure", "fig4", "--mixes", "1", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        (line,) = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("cache: ")
        ]
        assert "hit-rate 0.00" not in line
        results, traces = line.split("; ")
        cached, total = results.split()[2].split("/")
        assert cached == total != "0"
        assert traces.startswith("traces none needed (every result cached), ")
        assert traces.endswith(" on disk")


def _count_result_reads(monkeypatch, cache):
    """``shard name -> hits`` of result-shard reads under ``cache``."""
    from collections import Counter

    from repro.storage import ShardStore

    reads = Counter()
    read = ShardStore.read_validated

    def counting(store, name, validate):
        value = read(store, name, validate)
        if value is not None and store.directory == cache:
            reads[name] += 1
        return value

    monkeypatch.setattr(ShardStore, "read_validated", counting)
    return reads


class TestReadOnce:
    """Figures read each result shard once: one plan, one batch, no re-reads."""

    #: fig4 at two mixes: 8 Ideal + 8 Static solos + 2 mixes x 3 levels.
    SPECS = 22

    @pytest.fixture(scope="class")
    def warm_cache(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("warm")
        with pytest.MonkeyPatch.context() as monkeypatch:
            reads = _count_result_reads(monkeypatch, cache)
            args = ["figure", "fig4", "--mixes", "2", "--quiet"]
            assert main([*args, "--cache-dir", str(cache)]) == 0
        return cache, reads

    def test_cold_figure_reads_no_shard(self, warm_cache):
        _, cold_reads = warm_cache
        assert not cold_reads

    @pytest.mark.parametrize(
        "names", [["figure", "fig4"], ["sweep", "fig4", "fig6"]], ids=" ".join
    )
    def test_warm_run_reads_every_shard_once(self, warm_cache, monkeypatch, names):
        cache, _ = warm_cache
        reads = _count_result_reads(monkeypatch, cache)
        args = [*names, "--mixes", "2", "--quiet", "--cache-dir", str(cache)]
        assert main(args) == 0
        assert len(reads) == self.SPECS
        assert set(reads.values()) == {1}


class TestTraceOption:
    def test_run_with_trace_writes_logs(self, config_tree, capsys):
        code = main([
            "run",
            str(config_tree["arch_list"]),
            str(config_tree["net_list"]),
            str(config_tree["dram"]),
            str(config_tree["npumem_list"]),
            str(config_tree["out"]),
            str(config_tree["misc"]),
            "--trace",
        ])
        assert code == 0
        trace_dir = config_tree["out"] / "dramsim_output"
        assert (trace_dir / "dram.log").exists()
        assert (trace_dir / "dramreq.log").exists()
        assert (trace_dir / "tlb0.log").exists()
        assert (trace_dir / "tlb1_ptw.log").exists()
        assert (trace_dir / "dram.log").stat().st_size > 0

    def test_execution_cycle_files_written(self, config_tree, capsys):
        main([
            "run",
            str(config_tree["arch_list"]),
            str(config_tree["net_list"]),
            str(config_tree["dram"]),
            str(config_tree["npumem_list"]),
            str(config_tree["out"]),
            str(config_tree["misc"]),
        ])
        path = config_tree["out"] / "result" / "execution_cycle_arch_tpu0_ncf0.txt"
        lines = path.read_text().splitlines()
        assert len(lines) == 7  # one per ncf-mini layer
        for line in lines:
            name, cycles = line.split()
            assert int(cycles) >= 0


class TestFaultToleranceOptions:
    def test_quiet_and_run_timeout_flags_parse(self, tmp_path):
        # Still unknown-figure, but only after both flags parsed cleanly.
        with pytest.raises(SystemExit, match="unknown figure"):
            main([
                "figure", "fig99", "--quiet", "--run-timeout", "30",
                "--cache-dir", str(tmp_path),
            ])

    def test_mix_stall_window_zero_disables_watchdog(self, capsys):
        code = main(["mix", "ncf", "ncf", "--sharing", "DWT", "--stall-window", "0"])
        assert code == 0
        assert capsys.readouterr().out.count("cycles") == 2

    def test_tiny_stall_window_aborts_with_diagnostics(self):
        # A 1-tick window trips immediately; the abort message carries the
        # watchdog's per-core diagnostics rather than a bare error.
        with pytest.raises(SystemExit, match="livelocked") as excinfo:
            main(["mix", "ncf", "ncf", "--stall-window", "1"])
        message = str(excinfo.value)
        assert message.startswith("simulation aborted:")
        assert "core 0 (ncf)" in message
