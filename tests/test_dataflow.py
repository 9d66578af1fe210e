"""Unit tests for the dataflow-engine registry and the stock engines."""

import pytest

from repro.compute.dataflow import (
    STOCK_DATAFLOWS,
    _REGISTRY,
    get_engine,
    register,
    registered_dataflows,
)
from repro.compute.engines import (
    STOCK_ENGINES,
    DataflowEngine,
    InputStationary,
    OutputStationary,
    WeightStationary,
)
from repro.compute.systolic import is_pass_cycles, os_pass_cycles, ws_pass_cycles
from repro.compute.tiling import choose_tile_shape
from repro.config.arch import ArchConfig
from repro.models.layers import GemmOp

ARCH = ArchConfig(
    name="t", array_rows=8, array_cols=8, spm_bytes=8192,
    dram_transaction_bytes=64,
)


class TestRegistry:
    def test_stock_engines_registered_in_order(self):
        assert registered_dataflows() == ("os", "ws", "is")

    def test_stock_names_match_the_stock_engines(self):
        # The registry names the stock engines before they load.
        assert STOCK_DATAFLOWS == tuple(engine.name for engine in STOCK_ENGINES)
        assert [get_engine(name) for name in STOCK_DATAFLOWS] == list(STOCK_ENGINES)

    def test_get_engine_returns_singletons(self):
        assert get_engine("os") is get_engine("os")
        assert isinstance(get_engine("os"), OutputStationary)
        assert isinstance(get_engine("ws"), WeightStationary)
        assert isinstance(get_engine("is"), InputStationary)

    def test_unknown_engine_error_enumerates_registry(self):
        with pytest.raises(ValueError, match="registered engines: os, ws, is"):
            get_engine("rs")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(OutputStationary())

    def test_custom_engine_registration_end_to_end(self):
        """A third-party engine is usable everywhere a stock one is."""

        class RowStationary(DataflowEngine):
            name = "rs-test"

            def estimate(self, arch, m, k, n):
                return OutputStationary().estimate(arch, m, k, n)

        register(RowStationary())
        try:
            assert "rs-test" in registered_dataflows()
            # ArchConfig validation consults the live registry.
            arch = ArchConfig(
                name="t", array_rows=8, array_cols=8, spm_bytes=8192,
                dram_transaction_bytes=64, dataflow="rs-test",
            )
            est = get_engine(arch.dataflow).estimate(arch, 8, 16, 8)
            assert est.cycles > 0
        finally:
            _REGISTRY.pop("rs-test")
        with pytest.raises(ValueError):
            get_engine("rs-test")


class TestEngineEstimates:
    def test_os_matches_pass_formula(self):
        est = get_engine("os").estimate(ARCH, 16, 10, 16)
        assert est.cycles == 4 * os_pass_cycles(8, 8, 10)
        assert est.macs == 16 * 10 * 16

    def test_ws_matches_fold_formula(self):
        # k=16 -> 2 row folds, m=8 -> 1 col fold.
        est = get_engine("ws").estimate(ARCH, 8, 16, 100)
        assert est.cycles == 2 * ws_pass_cycles(8, 8, 100)

    def test_is_matches_fold_formula(self):
        # k=16 -> 2 row folds, n=8 -> 1 col fold; the output stream is m.
        est = get_engine("is").estimate(ARCH, 100, 16, 8)
        assert est.cycles == 2 * is_pass_cycles(8, 8, 100)
        assert est.macs == 100 * 16 * 8

    def test_is_mirrors_ws_with_m_n_swapped(self):
        ws = get_engine("ws").estimate(ARCH, 24, 40, 200)
        mirrored = get_engine("is").estimate(ARCH, 200, 40, 24)
        assert ws.cycles == mirrored.cycles
        assert ws.macs == mirrored.macs

    def test_is_beats_os_for_tall_outputs(self):
        # Huge m amortizes the input load: IS streams outputs row-long.
        is_est = get_engine("is").estimate(ARCH, 4096, 8, 8)
        os_est = get_engine("os").estimate(ARCH, 4096, 8, 8)
        assert is_est.cycles < os_est.cycles

    def test_os_beats_is_for_deep_reductions(self):
        # Huge k with tiny m: OS accumulates in place, IS refolds inputs.
        is_est = get_engine("is").estimate(ARCH, 4, 4096, 8)
        os_est = get_engine("os").estimate(ARCH, 4, 4096, 8)
        assert os_est.cycles < is_est.cycles

    def test_utilization_bounded_for_all_engines(self):
        for name in registered_dataflows():
            est = get_engine(name).estimate(ARCH, 64, 64, 64)
            assert 0 < est.pe_utilization <= 1.0

    def test_nonpositive_dims_rejected_by_all_engines(self):
        for name in registered_dataflows():
            with pytest.raises(ValueError):
                get_engine(name).estimate(ARCH, 0, 8, 8)

    def test_pass_cycle_formulas(self):
        assert is_pass_cycles(8, 8, 100) == 8 + 100 + 8 + 8 - 2
        assert is_pass_cycles(8, 8, 100) == ws_pass_cycles(8, 8, 100)
        with pytest.raises(ValueError):
            is_pass_cycles(8, 0, 100)


class TestEngineTiling:
    def test_os_tile_shape_is_shared_default_policy(self):
        gemm = GemmOp("g", 500, 500, 500)
        assert get_engine("os").tile_shape(gemm, ARCH) == choose_tile_shape(
            gemm, ARCH
        )

    def test_is_aligns_tk_to_array_rows(self):
        # The default policy picks tk=29 here; IS rounds down to a whole
        # number of row folds so partial reloads never straddle a fold.
        gemm = GemmOp("g", 64, 300, 24)
        os_shape = get_engine("os").tile_shape(gemm, ARCH)
        is_shape = get_engine("is").tile_shape(gemm, ARCH)
        assert os_shape.tk % ARCH.array_rows != 0
        assert is_shape.tk % ARCH.array_rows == 0
        assert is_shape != os_shape

    def test_k_align_never_rounds_below_the_alignment(self):
        # A tiny tk (< k_align) is kept rather than rounded to zero.
        gemm = GemmOp("g", 1000, 1000, 40)
        shape = get_engine("is").tile_shape(gemm, ARCH)
        assert shape.tk >= 1

    def test_ws_m_step_follows_array_cols(self):
        # m maps to array columns under WS; on square arrays the policy
        # coincides with OS (same step), which the goldens rely on.
        gemm = GemmOp("g", 500, 500, 500)
        assert get_engine("ws").tile_shape(gemm, ARCH) == choose_tile_shape(
            gemm, ARCH, m_step=ARCH.array_cols
        )

    def test_tile_budget_respected_by_every_engine(self):
        budget = ARCH.half_spm_bytes // ARCH.element_bytes
        gemm = GemmOp("g", 500, 700, 300)
        for name in registered_dataflows():
            shape = get_engine(name).tile_shape(gemm, ARCH)
            assert shape.footprint_elems() <= budget
