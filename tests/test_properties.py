"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compute.dataflow import get_engine
from repro.compute.requestgen import RequestGenerator
from repro.compute.tiling import choose_tile_shape, tile_count, tiles_for_gemm
from repro.config.arch import ArchConfig
from repro.core.clock import ClockDomain
from repro.core.engine import Engine
from repro.core.metrics import cdf_points, fairness, geomean, percentile
from repro.dram.controller import DramController
from repro.config.dram import DramConfig
from repro.mapping.mapper import pairings
from repro.mmu.pagetable import PageTable, PhysicalLayout
from repro.mmu.tlb import Tlb
from repro.models.layers import DenseLayer, GemmOp, Network

dims = st.integers(min_value=1, max_value=600)
small_arch = ArchConfig(
    name="p", array_rows=8, array_cols=8, spm_bytes=8192,
    dram_transaction_bytes=64,
)


def _estimate(m, k, n):
    return get_engine(small_arch.dataflow).estimate(small_arch, m, k, n)


@st.composite
def gemms(draw):
    return GemmOp("g", draw(dims), draw(dims), draw(dims))


class TestTilingProperties:
    @given(gemms())
    @settings(max_examples=60, deadline=None)
    def test_tiles_partition_the_iteration_space(self, gemm):
        shape = choose_tile_shape(gemm, small_arch)
        tiles = list(tiles_for_gemm(gemm, shape))
        assert len(tiles) == tile_count(gemm, shape)
        assert sum(tile.macs for tile in tiles) == gemm.macs
        # Exactly one last_k per (m, n) tile position.
        last_flags = sum(1 for tile in tiles if tile.last_k)
        positions = {(tile.m0, tile.n0) for tile in tiles}
        assert last_flags == len(positions)

    @given(gemms())
    @settings(max_examples=60, deadline=None)
    def test_tile_fits_budget(self, gemm):
        shape = choose_tile_shape(gemm, small_arch)
        budget = small_arch.half_spm_bytes // small_arch.element_bytes
        assert shape.footprint_elems() <= max(budget, gemm.total_bytes)

    @given(gemms())
    @settings(max_examples=40, deadline=None)
    def test_write_traffic_covers_output_exactly_once(self, gemm):
        gen = RequestGenerator(
            Network("n", (DenseLayer("l", gemm.m, gemm.k, gemm.n),)), small_arch
        )
        write_txns = sum(t.write_txns for t in gen.all_tiles())
        txn = small_arch.dram_transaction_bytes
        # Writes cover the C matrix rows; alignment may round each row
        # segment up to one extra transaction on both ends.
        min_txns = gemm.m * gemm.n // txn
        assert write_txns >= max(1, min_txns)
        shape = choose_tile_shape(gemm, small_arch)
        segments = gemm.m * -(-gemm.n // shape.tn)
        assert write_txns <= min_txns + 2 * segments + 2


class TestSystolicProperties:
    @given(gemms())
    @settings(max_examples=60, deadline=None)
    def test_utilization_in_unit_interval(self, gemm):
        est = _estimate(gemm.m, gemm.k, gemm.n)
        assert 0 < est.pe_utilization <= 1.0
        assert est.cycles > 0

    @given(gemms(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_cycles_monotone_in_k(self, gemm, factor):
        base = _estimate(gemm.m, gemm.k, gemm.n)
        bigger = _estimate(gemm.m, gemm.k * factor, gemm.n)
        assert bigger.cycles > base.cycles


class TestTlbProperties:
    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 500)), max_size=300),
        st.sampled_from([(16, 4), (8, 8), (32, 2)]),
    )
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, accesses, geometry):
        entries, assoc = geometry
        tlb = Tlb(entries, assoc)
        for asid, vpn in accesses:
            if not tlb.lookup(asid, vpn):
                tlb.fill(asid, vpn)
        assert tlb.occupancy() <= entries
        assert tlb.stats.hits <= tlb.stats.lookups

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_immediate_relookup_hits(self, vpns):
        tlb = Tlb(64, 8)
        for vpn in vpns:
            if not tlb.lookup(0, vpn):
                tlb.fill(0, vpn)
            assert tlb.lookup(0, vpn)


class TestEngineProperties:
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_events_observed_in_sorted_order(self, times):
        engine = Engine()
        seen = []
        for time in times:
            engine.at(time, lambda t=time: seen.append(t))
        engine.run()
        assert seen == sorted(times)
        assert engine.now == max(times)


class TestClockProperties:
    @given(
        st.integers(1, 4000), st.integers(1, 4000), st.integers(0, 100_000)
    )
    @settings(max_examples=80, deadline=None)
    def test_to_global_covers_duration(self, local_mhz, global_mhz, cycles):
        clock = ClockDomain(local_mhz, global_mhz)
        ticks = clock.to_global(cycles)
        # The global span must cover the local duration (never shorter).
        assert ticks * local_mhz >= cycles * global_mhz
        # ... and not overshoot by more than one global tick.
        assert (ticks - 1) * local_mhz < cycles * global_mhz or cycles == 0


class TestMetricsProperties:
    positive_lists = st.lists(
        st.floats(min_value=0.01, max_value=100, allow_nan=False),
        min_size=1, max_size=20,
    )

    @given(positive_lists)
    @settings(max_examples=80, deadline=None)
    def test_geomean_between_min_and_max(self, values):
        result = geomean(values)
        assert min(values) - 1e-9 <= result <= max(values) + 1e-9

    @given(positive_lists)
    @settings(max_examples=80, deadline=None)
    def test_fairness_at_most_one(self, values):
        assert fairness(values) <= 1.0

    @given(st.floats(0.01, 100), st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_fairness_of_identical_slowdowns_is_one(self, value, count):
        assert abs(fairness([value] * count) - 1.0) < 1e-9

    @given(positive_lists)
    @settings(max_examples=50, deadline=None)
    def test_cdf_is_monotone(self, values):
        points = cdf_points(values)
        for (v1, f1), (v2, f2) in zip(points, points[1:]):
            assert v1 <= v2 and f1 <= f2

    @given(positive_lists, st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_percentile_within_range(self, values, fraction):
        result = percentile(values, fraction)
        tolerance = 1e-9 * max(abs(v) for v in values)
        assert min(values) - tolerance <= result <= max(values) + tolerance


class TestAddressMappingProperties:
    @given(st.lists(st.integers(0, 1 << 32), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_distinct_transactions_distinct_targets_within_row_span(self, addrs):
        engine = Engine()
        cfg = DramConfig(channels=4, channel_bytes_per_cycle=32)
        controller = DramController(
            cfg, engine, transaction_bytes=64,
            channels_per_core={0: (0, 1, 2, 3)},
        )
        # Mapping is a function: same address -> same target.
        for addr in addrs:
            aligned = addr - addr % 64
            assert controller.decompose(0, aligned) == controller.decompose(0, aligned)

    @given(st.integers(0, 1 << 20))
    @settings(max_examples=50, deadline=None)
    def test_consecutive_transactions_change_channel(self, index):
        engine = Engine()
        cfg = DramConfig(channels=4, channel_bytes_per_cycle=32)
        controller = DramController(
            cfg, engine, transaction_bytes=64,
            channels_per_core={0: (0, 1, 2, 3)},
        )
        a = controller.decompose(0, index * 64)[0]
        b = controller.decompose(0, (index + 1) * 64)[0]
        assert a != b  # adjacent transactions stripe across channels


class TestPageTableProperties:
    layout = PhysicalLayout(capacity_bytes=1 << 30, num_cores=2)

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_translation_is_injective_until_wrap(self, vpns):
        table = PageTable(0, 4096, 4, self.layout)
        unique = list(dict.fromkeys(vpns))
        frames = [table.translate(vpn) for vpn in unique]
        assert len(set(frames)) == len(unique)

    @given(st.integers(0, 1 << 20))
    @settings(max_examples=50, deadline=None)
    def test_walk_addresses_pte_aligned(self, vpn):
        table = PageTable(1, 4096, 4, self.layout)
        for addr in table.walk_addresses(vpn):
            assert addr % 8 == 0


class TestPairingProperties:
    @given(st.lists(st.sampled_from("abcd"), min_size=2, max_size=8).filter(
        lambda items: len(items) % 2 == 0
    ))
    @settings(max_examples=50, deadline=None)
    def test_pairings_unique_and_complete(self, items):
        result = pairings(tuple(items))
        assert len(set(result)) == len(result)
        for pairing in result:
            flat = sorted(w for pair in pairing for w in pair)
            assert flat == sorted(items)
