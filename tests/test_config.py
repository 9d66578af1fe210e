"""Unit tests for the configuration dataclasses and validation."""

import pytest

from repro.config import (
    AddressMapping,
    ArchConfig,
    DramConfig,
    DramTiming,
    MiscConfig,
    NpuMemConfig,
    SystemConfig,
)
from repro.config.npumem import PAGE_WALK_LEVELS


class TestArchConfig:
    def test_defaults_are_table2(self):
        arch = ArchConfig()
        assert arch.array_rows == 128
        assert arch.array_cols == 128
        assert arch.spm_bytes == 36 * 1024 * 1024
        assert arch.freq_mhz == 1000

    def test_half_spm_is_double_buffer_budget(self):
        arch = ArchConfig(spm_bytes=1024)
        assert arch.half_spm_bytes == 512

    def test_num_pes(self):
        assert ArchConfig(array_rows=4, array_cols=8).num_pes == 32

    def test_rejects_nonpositive_array(self):
        with pytest.raises(ValueError):
            ArchConfig(array_rows=0)

    def test_accepts_every_registered_dataflow(self):
        from repro.compute.dataflow import registered_dataflows

        assert set(registered_dataflows()) >= {"os", "ws", "is"}
        for name in registered_dataflows():
            assert ArchConfig(dataflow=name).dataflow == name

    def test_rejects_unknown_dataflow(self):
        # The error enumerates the registry, not a hardcoded list, so
        # third-party engines show up in it automatically.
        with pytest.raises(ValueError, match="registered engines: os, ws, is"):
            ArchConfig(dataflow="rs")

    def test_rejects_non_power_of_two_transaction(self):
        with pytest.raises(ValueError):
            ArchConfig(dram_transaction_bytes=100)

    def test_rejects_tiny_spm(self):
        with pytest.raises(ValueError):
            ArchConfig(spm_bytes=64, dram_transaction_bytes=64)


class TestNpuMemConfig:
    def test_defaults_are_neummu(self):
        cfg = NpuMemConfig()
        assert cfg.tlb_entries == 2048
        assert cfg.tlb_assoc == 8
        assert cfg.num_ptw == 8

    @pytest.mark.parametrize(
        "page,levels", [(4096, 4), (65536, 3), (1048576, 2)]
    )
    def test_walk_levels_per_page_size(self, page, levels):
        assert NpuMemConfig(page_bytes=page).walk_levels == levels

    def test_page_walk_levels_table_is_consistent(self):
        for page, levels in PAGE_WALK_LEVELS.items():
            assert levels >= 2
            assert page & (page - 1) == 0

    def test_rejects_unsupported_page_size(self):
        with pytest.raises(ValueError, match="page size"):
            NpuMemConfig(page_bytes=8192)

    def test_rejects_entries_not_multiple_of_assoc(self):
        with pytest.raises(ValueError):
            NpuMemConfig(tlb_entries=100, tlb_assoc=8)

    def test_tlb_sets(self):
        assert NpuMemConfig(tlb_entries=64, tlb_assoc=8).tlb_sets == 8

    def test_rejects_negative_pwc(self):
        with pytest.raises(ValueError):
            NpuMemConfig(pwc_entries=-1)


class TestDramConfig:
    def test_peak_bandwidth_hbm2(self):
        # 4 channels x 32 B/cycle x 1 GHz = 128 GB/s (Table 2 per-NPU).
        cfg = DramConfig(channels=4, channel_bytes_per_cycle=32, freq_mhz=1000)
        assert cfg.peak_bandwidth_bytes_per_sec() == pytest.approx(128e9)

    def test_burst_cycles_rounds_up(self):
        cfg = DramConfig(channel_bytes_per_cycle=32)
        assert cfg.burst_cycles(64) == 2
        assert cfg.burst_cycles(65) == 3
        assert cfg.burst_cycles(1) == 1

    def test_burst_cycles_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DramConfig().burst_cycles(0)

    def test_capacity(self):
        cfg = DramConfig(
            channels=2, bank_groups=2, banks_per_group=2,
            rows_per_bank=16, row_bytes=1024,
        )
        assert cfg.capacity_bytes == 2 * 4 * 16 * 1024

    def test_banks_per_channel(self):
        assert DramConfig(bank_groups=4, banks_per_group=4).banks_per_channel == 16

    def test_timing_validation(self):
        with pytest.raises(ValueError):
            DramTiming(tRAS=1, tRCD=14)
        with pytest.raises(ValueError):
            DramTiming(tREFI=100, tRFC=260)

    def test_mapping_must_be_permutation(self):
        with pytest.raises(ValueError):
            AddressMapping(order=("ch", "ch", "ba", "bg", "ro"))
        AddressMapping(order=("ro", "bg", "ba", "co", "ch"))  # ok


class TestMiscConfig:
    def test_defaults(self):
        misc = MiscConfig()
        assert misc.iterations == 0
        assert misc.start_cycle == 0

    def test_rejects_inverted_ptw_bounds(self):
        with pytest.raises(ValueError):
            MiscConfig(ptw_lower_bound=4, ptw_upper_bound=2)

    def test_zero_upper_bound_means_uncapped(self):
        MiscConfig(ptw_lower_bound=2, ptw_upper_bound=0)  # ok


class TestSystemConfig:
    def _system(self, **kwargs):
        arch = ArchConfig(spm_bytes=1 << 20)
        npumem = NpuMemConfig(tlb_entries=64, tlb_assoc=8, num_ptw=2)
        return SystemConfig(
            arch=(arch, arch), npumem=(npumem, npumem), dram=DramConfig(channels=8),
            **kwargs,
        )

    def test_shared_core_sees_all_channels(self):
        system = self._system(share_dram=True)
        assert system.channels_for_core(0) == tuple(range(8))

    def test_static_split_is_disjoint_round_robin(self):
        system = self._system(share_dram=False)
        a = set(system.channels_for_core(0))
        b = set(system.channels_for_core(1))
        assert a | b == set(range(8))
        assert not a & b

    def test_custom_channel_assignment_validated(self):
        with pytest.raises(ValueError, match="two cores"):
            self._system(
                share_dram=False, channel_assignment=((0, 1), (1, 2))
            )
        with pytest.raises(ValueError, match="out of range"):
            self._system(share_dram=False, channel_assignment=((0,), (99,)))

    def test_ptw_assignment_cannot_exceed_pool(self):
        with pytest.raises(ValueError, match="exceeds"):
            self._system(share_ptw=False, ptw_assignment=(4, 4))

    def test_total_ptw(self):
        assert self._system().total_ptw == 4

    def test_mismatched_core_configs_rejected(self):
        arch = ArchConfig(spm_bytes=1 << 20)
        with pytest.raises(ValueError):
            SystemConfig(
                arch=(arch,), npumem=(NpuMemConfig(), NpuMemConfig()),
                dram=DramConfig(),
            )
