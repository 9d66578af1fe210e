"""Unit tests for the systolic timing model, tiling, and request generation."""

from array import array

import pytest

from repro.compute.dataflow import get_engine, registered_dataflows
from repro.compute.requestgen import RequestGenerator
from repro.compute.systolic import os_pass_cycles
from repro.compute.tiling import (
    TileShape,
    choose_tile_shape,
    tile_count,
    tiles_for_gemm,
)
from repro.config.arch import ArchConfig
from repro.experiments.spec import RunSpec
from repro.models import zoo
from repro.models.layers import DenseLayer, EmbeddingLayer, GemmOp, Network

ARCH = ArchConfig(
    name="t", array_rows=8, array_cols=8, spm_bytes=8192,
    dram_transaction_bytes=64,
)


class TestSystolic:
    def test_pass_cycles_formula(self):
        # SCALE-Sim OS: 2R + C + k - 2.
        assert os_pass_cycles(8, 8, 10) == 16 + 8 + 10 - 2

    def test_pass_cycles_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            os_pass_cycles(0, 8, 1)

    def test_single_pass_gemm(self):
        est = get_engine("os").estimate(ARCH, 8, 16, 8)
        assert est.cycles == os_pass_cycles(8, 8, 16)
        assert est.macs == 8 * 16 * 8

    def test_multi_pass_scales_linearly(self):
        one = get_engine("os").estimate(ARCH, 8, 16, 8)
        four = get_engine("os").estimate(ARCH, 16, 16, 16)
        assert four.cycles == 4 * one.cycles

    def test_utilization_bounded(self):
        est = get_engine("os").estimate(ARCH, 8, 128, 8)
        assert 0 < est.pe_utilization <= 1.0

    def test_small_m_wastes_pes(self):
        # M=1 fills one array row: utilization <= 1/8 of the full-M case.
        small = get_engine("os").estimate(ARCH, 1, 64, 8)
        full = get_engine("os").estimate(ARCH, 8, 64, 8)
        assert small.pe_utilization <= full.pe_utilization / 7.9


class TestTileShape:
    def test_footprint(self):
        shape = TileShape(2, 3, 4)
        assert shape.footprint_elems() == 2 * 4 + 4 * 3 + 2 * 3


class TestChooseTileShape:
    def test_small_gemm_is_single_tile(self):
        gemm = GemmOp("g", 8, 8, 8)
        shape = choose_tile_shape(gemm, ARCH)
        assert (shape.tm, shape.tn, shape.tk) == (8, 8, 8)

    def test_tile_fits_half_spm(self):
        gemm = GemmOp("g", 500, 500, 500)
        shape = choose_tile_shape(gemm, ARCH)
        budget = ARCH.half_spm_bytes // ARCH.element_bytes
        assert shape.footprint_elems() <= budget

    def test_slab_prefers_full_width_n(self):
        # N small enough to keep full-width: Tn == N.
        gemm = GemmOp("g", 1000, 1000, 40)
        shape = choose_tile_shape(gemm, ARCH)
        assert shape.tn == 40
        assert shape.footprint_elems() <= ARCH.half_spm_bytes

    def test_wide_n_falls_back_to_square(self):
        gemm = GemmOp("g", 1000, 100000, 1000)
        shape = choose_tile_shape(gemm, ARCH)
        assert shape.tn < gemm.n
        assert shape.footprint_elems() <= ARCH.half_spm_bytes

    def test_impossible_budget_raises(self):
        arch = ArchConfig(
            name="t", array_rows=2, array_cols=2, spm_bytes=256,
            dram_transaction_bytes=64,
        )
        gemm = GemmOp("g", 10000, 10000, 10000)
        shape = choose_tile_shape(gemm, arch)  # should still find a tiny tile
        assert shape.footprint_elems() <= 128


class TestTilesForGemm:
    def test_covers_iteration_space_exactly(self):
        gemm = GemmOp("g", 10, 7, 9)
        shape = TileShape(4, 3, 4)
        tiles = list(tiles_for_gemm(gemm, shape))
        assert len(tiles) == tile_count(gemm, shape)
        total_macs = sum(tile.macs for tile in tiles)
        assert total_macs == gemm.macs

    def test_reduction_is_innermost_and_flagged(self):
        gemm = GemmOp("g", 4, 10, 4)  # (m=4, k=10, n=4)
        shape = TileShape(4, 4, 4)
        tiles = list(tiles_for_gemm(gemm, shape))
        assert [t.last_k for t in tiles] == [False, False, True]
        assert [t.first_k for t in tiles] == [True, False, False]

    def test_edge_tiles_clipped(self):
        gemm = GemmOp("g", 5, 5, 5)
        shape = TileShape(4, 4, 4)
        tiles = list(tiles_for_gemm(gemm, shape))
        assert {t.tm for t in tiles} == {4, 1}
        assert all(t.tk in (4, 1) for t in tiles)


def _pairs(runs):
    """The ``(addr, count)`` pairs of a flat run array."""
    return list(zip(runs[0::2], runs[1::2]))


class TestRequestGenerator:
    def _gen(self, layers, arch=ARCH):
        return RequestGenerator(Network("n", tuple(layers)), arch)

    @pytest.mark.parametrize("dataflow", registered_dataflows())
    @pytest.mark.parametrize("model", zoo.NAMES)
    def test_every_emitted_run_is_valid(self, model, dataflow):
        # The generator builds runs unchecked; its layout invariants must
        # give every pair a non-negative, transaction-aligned address and
        # a positive count, for every zoo model under every dataflow.
        spec = RunSpec.solo(model, dataflow=dataflow)
        ((name, arch),) = spec.frontends()
        txn = arch.dram_transaction_bytes
        for traffic in RequestGenerator(zoo.get(name, spec.scale), arch).all_tiles():
            for runs in (traffic.reads, traffic.writes):
                assert isinstance(runs, array) and runs.typecode == "q"
                assert len(runs) % 2 == 0
                for addr, count in _pairs(runs):
                    assert addr >= 0 and count > 0 and addr % txn == 0

    def test_traffic_covers_operands(self):
        gen = self._gen([DenseLayer("a", 16, 16, 16)])
        tiles = list(gen.all_tiles())
        assert len(tiles) == 1  # fits in half SPM (768 B)
        traffic = tiles[0]
        # One read of A (256 B) + B (256 B), one write of C (256 B).
        assert traffic.read_txns == (256 + 256) // 64
        assert traffic.write_txns == 256 // 64

    def test_writes_only_on_last_k_step(self):
        gen = self._gen([DenseLayer("a", 32, 300, 32)])
        tiles = list(gen.all_tiles())
        assert len(tiles) > 1
        for traffic in tiles:
            if traffic.tile.last_k:
                assert traffic.write_txns > 0
            else:
                assert traffic.write_txns == 0

    def test_addresses_transaction_aligned(self):
        gen = self._gen([DenseLayer("a", 33, 70, 9)])
        for traffic in gen.all_tiles():
            for addr, _ in _pairs(traffic.reads + traffic.writes):
                assert addr % 64 == 0

    def test_layer_regions_do_not_overlap(self):
        gen = self._gen(
            [DenseLayer("a", 16, 16, 16), DenseLayer("b", 16, 16, 16)]
        )
        tiles = list(gen.all_tiles())
        layer0 = {
            addr
            for t in tiles if t.layer_index == 0
            for addr, _ in _pairs(t.reads + t.writes)
        }
        layer1 = {
            addr
            for t in tiles if t.layer_index == 1
            for addr, _ in _pairs(t.reads + t.writes)
        }
        assert not layer0 & layer1

    def test_summary_consistent_with_tiles(self):
        gen = self._gen([DenseLayer("a", 40, 60, 20)])
        summary = gen.summary()
        read = sum(t.read_txns for t in gen.all_tiles())
        write = sum(t.write_txns for t in gen.all_tiles())
        assert summary["read_txns"] == read
        assert summary["write_txns"] == write
        assert summary["traffic_bytes"] == (read + write) * 64
        assert 0 < summary["pe_utilization"] <= 1

    def test_scatter_rows_spread_beyond_contiguous_span(self):
        emb = EmbeddingLayer("e", lookups=8, dim=64, batch=16)
        gen = self._gen([emb])
        addrs = {
            addr
            for t in gen.all_tiles()
            for addr, _ in _pairs(t.reads)
        }
        gemm = emb.to_gemm()
        contiguous_span = gemm.k * gemm.n  # bytes if packed
        span = max(addrs) - min(addrs)
        assert span > contiguous_span

    def test_memory_footprint_positive_and_aligned(self):
        gen = self._gen([DenseLayer("a", 16, 16, 16)])
        assert gen.memory_footprint_bytes > 0
        assert gen.memory_footprint_bytes % (1 << 20) == 0

    def test_deterministic(self):
        gen1 = self._gen([DenseLayer("a", 64, 64, 64)])
        gen2 = self._gen([DenseLayer("a", 64, 64, 64)])
        runs1 = [(t.reads, t.writes) for t in gen1.all_tiles()]
        runs2 = [(t.reads, t.writes) for t in gen2.all_tiles()]
        assert runs1 == runs2


class TestWeightStationary:
    WS_ARCH = ArchConfig(
        name="ws", array_rows=8, array_cols=8, spm_bytes=8192,
        dram_transaction_bytes=64, dataflow="ws",
    )

    def test_ws_fold_count(self):
        from repro.compute.systolic import ws_pass_cycles
        est = get_engine("ws").estimate(self.WS_ARCH, 8, 16, 100)
        # k=16 -> 2 row folds, m=8 -> 1 col fold.
        assert est.cycles == 2 * ws_pass_cycles(8, 8, 100)

    def test_ws_fold_count_clips_partial_folds(self):
        from repro.compute.systolic import ws_pass_cycles
        # k=20 -> 3 row folds (two full, one partial), m=10 -> 2 col folds.
        est = get_engine("ws").estimate(self.WS_ARCH, 10, 20, 100)
        assert est.cycles == 6 * ws_pass_cycles(8, 8, 100)

    def test_ws_beats_os_for_long_streams(self):
        # Large n amortizes the weight load: WS wins.
        ws = get_engine("ws").estimate(self.WS_ARCH, 8, 8, 4096)
        os_est = get_engine("os").estimate(ARCH, 8, 8, 4096)
        assert ws.cycles < os_est.cycles

    def test_os_beats_ws_for_deep_reductions(self):
        # Huge k with tiny n: OS accumulates in place, WS refolds weights.
        ws = get_engine("ws").estimate(self.WS_ARCH, 8, 4096, 4)
        os_est = get_engine("os").estimate(ARCH, 8, 4096, 4)
        assert os_est.cycles < ws.cycles

    def test_ws_utilization_bounded(self):
        est = get_engine("ws").estimate(self.WS_ARCH, 64, 64, 64)
        assert 0 < est.pe_utilization <= 1.0

    def test_ws_end_to_end_simulation(self):
        from repro.config.dram import DramConfig
        from repro.config.misc import MiscConfig
        from repro.config.npumem import NpuMemConfig
        from repro.config.system import SystemConfig
        from repro.core.simulator import MultiCoreNPUSim
        system = SystemConfig(
            arch=(self.WS_ARCH,),
            npumem=(NpuMemConfig(tlb_entries=16, tlb_assoc=4, num_ptw=1),),
            dram=DramConfig(channels=2, channel_bytes_per_cycle=16),
            misc=MiscConfig(iterations=1),
        )
        net = Network("w", (DenseLayer("l0", 32, 64, 32),))
        result = MultiCoreNPUSim(system, [net]).run(max_ticks=10_000_000)
        assert result.workloads[0].cycles > 0
