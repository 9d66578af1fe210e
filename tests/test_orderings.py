"""Integration orderings the sharing model must respect.

These are the paper's qualitative invariants at mix granularity, checked
end-to-end on a handful of fast mixes (not the full sweeps, which live in
benchmarks/).
"""

import pytest

from repro.core.metrics import fairness, geomean
from repro.core.sharing import SharingLevel
from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import RunSpec


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return ExperimentRunner(cache_dir=tmp_path_factory.mktemp("cache"))


MIX = ("ncf", "dlrm")  # two small, memory-sensitive workloads: fast to run


def _ideal(runner, name):
    return runner.run(RunSpec.ideal(name, 2))[0]["cycles"]


def _static(runner, name):
    return runner.run(RunSpec.solo(name))[0]["cycles"]


def _mix(runner, level, **kwargs):
    return runner.run(RunSpec.mix(MIX, level, **kwargs))


class TestSharingOrderings:
    def test_ideal_is_an_upper_bound(self, runner):
        ideal = {name: _ideal(runner, name) for name in MIX}
        results = _mix(runner, SharingLevel.DWT)
        for name, result in zip(MIX, results):
            # Contended runs cannot beat the uncontended full pool by
            # more than scheduling noise.
            assert result["cycles"] >= ideal[name] * 0.98

    def test_static_is_a_contention_free_floor(self, runner):
        static = {name: _static(runner, name) for name in MIX}
        ideal = {name: _ideal(runner, name) for name in MIX}
        for name in MIX:
            assert static[name] >= ideal[name]

    def test_sharing_helps_this_memory_bound_mix(self, runner):
        ideal = {name: _ideal(runner, name) for name in MIX}
        static = {name: _static(runner, name) for name in MIX}
        static_gm = geomean([ideal[n] / static[n] for n in MIX])
        dwt = _mix(runner, SharingLevel.DWT)
        shared_gm = geomean(
            [ideal[n] / r["cycles"] for n, r in zip(MIX, dwt)]
        )
        assert shared_gm > static_gm

    def test_fairness_in_unit_interval(self, runner):
        ideal = {name: _ideal(runner, name) for name in MIX}
        for level in (SharingLevel.D, SharingLevel.DW, SharingLevel.DWT):
            results = _mix(runner, level)
            slowdowns = [
                r["cycles"] / ideal[n] for n, r in zip(MIX, results)
            ]
            value = fairness(slowdowns)
            assert 0.0 < value <= 1.0

    def test_larger_pages_never_slow_a_mix(self, runner):
        small = _mix(runner, SharingLevel.DWT, page_bytes=4096)
        big = _mix(runner, SharingLevel.DWT, page_bytes=65536)
        small_gm = geomean([r["cycles"] for r in small])
        big_gm = geomean([r["cycles"] for r in big])
        assert big_gm <= small_gm * 1.02

    def test_translation_off_is_fastest(self, runner):
        with_mmu = _mix(runner, SharingLevel.D, translation=True)
        without = _mix(runner, SharingLevel.D, translation=False)
        for a, b in zip(with_mmu, without):
            assert b["cycles"] <= a["cycles"]
            assert b["walks"] == 0

    def test_stagger_recorded_in_results(self, runner):
        results = _mix(runner, SharingLevel.DWT)
        # Both workloads completed exactly one iteration.
        assert all(r["completed_iterations"] == 1 for r in results)
