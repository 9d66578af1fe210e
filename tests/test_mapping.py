"""Unit tests for pairings, the predictor features, and the mapping study."""

import math

import pytest

from repro.errors import RunFailedError
from repro.experiments import faults
from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import PlanContext, RunSpec
from repro.mapping.mapper import pairings
from repro.mapping.predictor import (
    SlowdownPredictor,
    WorkloadProfile,
    profile_workloads,
    run_all,
)
from repro.models.layers import DenseLayer, Network


class TestPairings:
    def test_eight_distinct_items_give_105_pairings(self):
        items = tuple("abcdefgh")
        assert len(pairings(items)) == 7 * 5 * 3 * 1

    def test_four_items(self):
        result = pairings(("a", "b", "c", "d"))
        assert len(result) == 3

    def test_repeats_deduplicated(self):
        # aabb -> {ab,ab} and {aa,bb}: only two distinct pairings.
        result = pairings(("a", "a", "b", "b"))
        assert len(result) == 2

    def test_all_identical(self):
        result = pairings(("x",) * 8)
        assert len(result) == 1

    def test_every_pairing_covers_all_items(self):
        items = ("a", "b", "c", "d", "e", "f", "g", "h")
        for pairing in pairings(items):
            flat = sorted(w for pair in pairing for w in pair)
            assert flat == sorted(items)

    def test_pairs_sorted_canonically(self):
        for pairing in pairings(("d", "c", "b", "a")):
            for a, b in pairing:
                assert a <= b

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            pairings(("a", "b", "c"))


class TestPredictor:
    def _profile(self, name, util, traffic, cycles):
        return WorkloadProfile(
            name=name, pe_utilization=util,
            traffic_per_cycle=traffic, ideal_cycles=cycles,
        )

    def test_untrained_predict_raises(self):
        predictor = SlowdownPredictor()
        a = self._profile("a", 0.5, 1.0, 1000)
        with pytest.raises(RuntimeError):
            predictor.predict(a, a)

    def test_training_on_tiny_runner(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path / "c")
        predictor = SlowdownPredictor()
        predictor.train(PlanContext(), runner, num_random_nets=4, seed=11)
        a = self._profile("a", 0.1, 2.0, 1000)
        b = self._profile("b", 0.9, 0.1, 1000)
        # Trained: predict no longer raises (test_untrained_predict_raises).
        assert predictor.predict(a, a) >= 1.0
        assert predictor.training_error is not None
        assert predictor.training_error < 1.0  # slowdowns are O(1)
        # Predictions are finite slowdowns >= 1.
        assert 1.0 <= predictor.predict(a, b) < 10.0
        assert 1.0 <= predictor.predict(b, a) < 10.0

    def test_profile_workload_features(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path / "c")
        network = Network("prof", (DenseLayer("l0", 32, 64, 32),))
        profile = profile_workloads(PlanContext(), runner, [network])["prof"]
        assert profile.name == "prof"
        assert 0 < profile.pe_utilization <= 1
        assert profile.traffic_per_cycle > 0
        assert profile.ideal_cycles > 0
        assert math.isfinite(profile.ideal_cycles)

    def test_run_all_raises_a_failed_spec(self, tmp_path):
        # The study needs every run: a failure raises, not a silent gap.
        runner = ExperimentRunner(cache_dir=tmp_path / "c", retry_backoff=0.0)
        for name in ("ok", "bad"):
            runner.register_network(Network(name, (DenseLayer("l0", 16, 32, 16),)))
        good, bad = RunSpec.solo("ok"), RunSpec.solo("bad")
        runner.fault_plan = faults.FaultPlan.for_specs(
            {bad: faults.Fault("error")}
        )
        with pytest.raises(RunFailedError, match="injected"):
            run_all(runner, [good, bad])
        assert run_all(runner, [good]) == [runner.run(good)]
