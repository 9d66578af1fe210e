"""Tests for the mNPUsim-style config-file parsers."""

from pathlib import Path

import pytest

from repro.config import (
    load_arch_config,
    load_dram_config,
    load_misc_config,
    load_npumem_config,
    parse_kv_text,
)

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestParseKvText:
    def test_basic_pairs(self):
        pairs = parse_kv_text("a = 1\nb = two\n")
        assert pairs == {"a": "1", "b": "two"}

    def test_comments_and_blanks_ignored(self):
        pairs = parse_kv_text("# header\n\na = 1  # trailing\n")
        assert pairs == {"a": "1"}

    def test_keys_lowercased(self):
        assert parse_kv_text("ARRAY_ROWS = 4") == {"array_rows": "4"}

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_kv_text("just some words")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_kv_text("a = 1\na = 2")

    def test_empty_value_rejected(self):
        with pytest.raises(ValueError):
            parse_kv_text("a =")


class TestLoaders:
    def test_arch_config(self, tmp_path):
        path = tmp_path / "arch.cfg"
        path.write_text("array_rows = 16\narray_cols = 8\nspm_bytes = 0x10000\n")
        arch = load_arch_config(path)
        assert arch.array_rows == 16
        assert arch.array_cols == 8
        assert arch.spm_bytes == 65536  # hex accepted

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "arch.cfg"
        path.write_text("array_rowz = 16\n")
        with pytest.raises(ValueError, match="unknown ArchConfig key"):
            load_arch_config(path)

    @pytest.mark.parametrize(
        "loader, text, message",
        [
            (load_npumem_config, "tlb_entriez = 4\n", "unknown NpuMemConfig key"),
            (
                load_misc_config,
                "replay_mode = event\n",
                "unknown MiscConfig key 'replay_mode'",
            ),
            (
                load_npumem_config,
                "tlb_latency_cycles = 1\n",
                "unknown NpuMemConfig key 'tlb_latency_cycles'",
            ),
            (
                load_misc_config,
                "trace_dram_requests = true\n",
                "unknown MiscConfig key 'trace_dram_requests'",
            ),
        ],
        ids=[
            "npumem-typo",
            "misc-replay_mode",
            "npumem-tlb_latency_cycles",
            "misc-trace_dram_requests",
        ],
    )
    def test_unknown_key_names_its_config(self, tmp_path, loader, text, message):
        path = tmp_path / "x.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            loader(path)

    def test_npumem_booleans(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("translation_enabled = false\nwalk_in_dram = yes\n")
        cfg = load_npumem_config(path)
        assert not cfg.translation_enabled
        assert cfg.walk_in_dram

    def test_bad_boolean_rejected(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("walk_in_dram = maybe\n")
        with pytest.raises(ValueError, match="boolean"):
            load_npumem_config(path)

    def test_dram_with_timing_and_mapping(self, tmp_path):
        path = tmp_path / "d.cfg"
        path.write_text(
            "channels = 2\ntiming.tcl = 20\ntiming.trcd = 18\n"
            "mapping = ro-bg-ba-co-ch\n"
        )
        cfg = load_dram_config(path)
        assert cfg.channels == 2
        assert cfg.timing.tCL == 20
        assert cfg.timing.tRCD == 18
        assert cfg.mapping.order == ("ro", "bg", "ba", "co", "ch")

    def test_dram_unknown_timing_key(self, tmp_path):
        path = tmp_path / "d.cfg"
        path.write_text("timing.tzz = 5\n")
        with pytest.raises(ValueError, match="DramTiming"):
            load_dram_config(path)

    def test_misc_config(self, tmp_path):
        path = tmp_path / "misc.cfg"
        path.write_text("iterations = 3\nptw_upper_bound = 2\n")
        cfg = load_misc_config(path)
        assert cfg.iterations == 3
        assert cfg.ptw_upper_bound == 2

    def test_validation_still_applies(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("page_bytes = 12345\n")
        with pytest.raises(ValueError, match="page size"):
            load_npumem_config(path)


class TestShippedConfigs:
    """The configs/ directory must stay loadable (it feeds the CLI docs)."""

    def test_arch_configs(self):
        mini = load_arch_config(REPO_CONFIGS / "arch_config" / "tpu_mini.cfg")
        full = load_arch_config(REPO_CONFIGS / "arch_config" / "tpu_full.cfg")
        assert mini.array_rows == 32
        assert full.array_rows == 128
        assert full.spm_bytes == 36 * 1024 * 1024

    def test_npumem_configs(self):
        mini = load_npumem_config(REPO_CONFIGS / "npumem_config" / "mini.cfg")
        full = load_npumem_config(REPO_CONFIGS / "npumem_config" / "full.cfg")
        assert mini.num_ptw == 1
        assert full.tlb_entries == 2048

    def test_dram_config(self):
        cfg = load_dram_config(REPO_CONFIGS / "dram_config" / "dual_hbm2_mini.cfg")
        assert cfg.channels == 8
        assert cfg.mapping.order[0] == "ch"

    def test_misc_config(self):
        cfg = load_misc_config(REPO_CONFIGS / "misc_config" / "dual.cfg")
        assert cfg.iterations == 0
