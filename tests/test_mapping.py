"""Unit tests for pairings, the predictor, and the mapping figures."""

import hashlib
import json
import zlib

import pytest

from repro.core.sharing import SharingLevel
from repro.experiments import figures
from repro.experiments.mixes import all_mixes, subset_mixes
from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import PlanContext
from repro.mapping.mapper import pairings
from repro.mapping.predictor import (
    SlowdownPredictor,
    WorkloadProfile,
    profile_workload,
)
from repro.models.random_net import random_network


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
        # Seed-named random nets run by name, with no registration.
        runner = ExperimentRunner(cache_dir=tmp_path / "c")
        ctx = PlanContext()
        nets = ("rand11", "rand12", "rand13", "rand14")
        profiles = {}
        for name in nets:
            (ideal,) = runner.run(ctx.ideal(name, 2))
            profiles[name] = profile_workload(name, "mini", ideal["cycles"])
        pair_cycles = {
            pair: [run["cycles"] for run in runner.run(ctx.mix(pair, SharingLevel.DWT))]
            for pair in all_mixes(2, nets)
        }
        predictor = SlowdownPredictor()
        predictor.fit(profiles, pair_cycles)
        a = self._profile("a", 0.1, 2.0, 1000)
        b = self._profile("b", 0.9, 0.1, 1000)
        # Trained: predict no longer raises (test_untrained_predict_raises).
        assert predictor.predict(a, a) >= 1.0
        assert predictor.training_error is not None
        assert predictor.training_error < 1.0  # slowdowns are O(1)
        # Predictions are finite slowdowns >= 1.
        assert 1.0 <= predictor.predict(a, b) < 10.0
        assert 1.0 <= predictor.predict(b, a) < 10.0

    def test_profile_workload_features(self):
        profile = profile_workload("ncf", "mini", 1000)
        assert profile.name == "ncf"
        assert 0 < profile.pe_utilization <= 1
        assert profile.traffic_per_cycle > 0
        assert profile.ideal_cycles == 1000.0


def _synthetic(spec):
    """Deterministic cycles: a per-name base, slowed by the co-runner's."""
    base = [1000 + zlib.crc32(name.encode()) % 9000 for name in spec.workloads]
    if len(base) == 1:
        return [{"cycles": base[0]}]
    return [
        {"cycles": mine + (other * (mine % 7)) // 10}
        for mine, other in zip(base, reversed(base))
    ]


#: Six spread eight-workload sets: small enough to reduce in milliseconds.
SETS = subset_mixes(8, 6)


def _study_results(ctx=PlanContext()):
    plan = figures.mapping_specs(ctx, SETS)
    return {role: _synthetic(spec) for role, spec in plan.items()}


def _digest(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


class TestMappingFigures:
    def test_plan_is_the_whole_study(self):
        plan = figures.mapping_specs(PlanContext(), SETS)
        kinds = [role[0] for role in plan]
        # 8 zoo + 12 training Ideals; 36 zoo + 78 training +DWT pairs.
        assert kinds.count("ideal") == 8 + 12
        assert kinds.count("mix") == 36 + 78
        assert plan["ideal", "mini", "rand2023"] == PlanContext().ideal("rand2023", 2)

    def test_entries_give_the_pinned_study_dicts(self):
        # The sha256s of the dicts the mapping study gave on these
        # synthetic results when it ran its own batches, before Figs 17
        # and 18 became FIGURES entries: the entries must not change them.
        results = _study_results()
        fig17 = figures.FIGURES["fig17"].reducer(results, SETS)
        fig18 = figures.FIGURES["fig18"].reducer(results, SETS)
        assert fig17["model_improved_fraction"] == 0.5
        assert fig18["model_improved_fraction"] == pytest.approx(2 / 3)
        assert _digest(fig17) == (
            "99f6852e8b1c60b98ff231c1374aaed23c391d802d426d5447a2feea339f4eb0"
        )
        assert _digest(fig18) == (
            "85994fbecb17a88e519c74f7a16440b8381599d064c2603ffd17ee89aa577fa4"
        )

    def test_failed_pair_drops_only_the_sets_that_need_it(self):
        results = _study_results()
        del results["mix", ("ncf", "ncf")]
        data = figures.FIGURES["fig17"].reducer(results, SETS)
        needs_pair = [workloads.count("ncf") >= 2 for workloads in SETS]
        assert any(needs_pair) and not all(needs_pair)
        assert len(data["normalized"]["model"]) == needs_pair.count(False)

    def test_no_training_pair_leaves_every_set_missing(self):
        results = _study_results()
        for role in list(results):
            if role[0] == "mix" and role[1][0].startswith("rand"):
                del results[role]
        data = figures.FIGURES["fig18"].reducer(results, SETS)
        assert data["model_improved_fraction"] is None
        headline = figures.FIGURES["fig18"].headline(data)
        assert set(headline.values()) == {None}

    def test_seed_named_nets_resolve_by_name(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, journal=False)
        spec = PlanContext().ideal("rand2023", 2)
        assert runner._network_for(spec, "rand2023") == random_network(2023)
