"""Unit tests of the figure reducers' math, on synthetic result maps.

Reducers are pure functions of ``{role: results}``, so these tests build
each figure's plan with the real planner, give every role synthetic
cycle counts with known relationships, and reduce — no simulation and
no runner in the reduction.  Keying the synthetic map by the planner's
own roles also proves each reducer reads exactly the roles its planner
emits.
"""

import math
import zlib

import pytest

from repro.core.sharing import SharingLevel
from repro.experiments import figures
from repro.experiments.mixes import subset_mixes
from repro.experiments.spec import PlanContext
from repro.models import zoo

#: Synthetic solo cycles on the equal Static slice (4 channels).
BASE = {name: 1000 * (index + 1) for index, name in enumerate(zoo.NAMES)}

#: Fraction of the static loss each sharing level recovers.
RECOVER = {"D": 0.5, "DW": 0.75, "DWT": 0.80}


def _solo_cycles(name, channels=4, page_bytes=4096):
    # More channels help sub-linearly; bigger pages shave 10%.  Names
    # outside the zoo (the mapping study's random nets) hash to a base.
    factor = 1.0 + 4.0 / channels
    if page_bytes > 4096:
        factor *= 0.9
    base = name.split(":", 1)[0]
    return int(BASE.get(base, 1000 + zlib.crc32(base.encode()) % 8000) * factor)


def synthetic_run(spec):
    """Per-workload results a spec would produce in the synthetic model."""
    if spec.kind == "solo":
        (name,) = spec.workloads
        return [{"cycles": _solo_cycles(name, spec.channels or 4, spec.page_bytes)}]
    runs = []
    for index, name in enumerate(spec.workloads):
        ideal = _solo_cycles(name, channels=4 * len(spec.workloads))
        static = _solo_cycles(name)
        cycles = static - RECOVER[spec.sharing] * (static - ideal)
        if spec.ptw_split is not None:
            share = spec.ptw_split[index] / sum(spec.ptw_split)
            cycles *= 1.0 + max(0.0, 0.5 - share)  # starved side slows
        if spec.page_bytes > 4096:
            cycles *= 0.92
        runs.append({"cycles": int(cycles), "workload": name})
    return runs


def synthetic_results(plan):
    """``{role: results}`` for every role of a keyed plan."""
    return {role: synthetic_run(spec) for role, spec in plan.items()}


@pytest.fixture(scope="module")
def planner():
    """The default plan context; nothing is executed."""
    return PlanContext()


def reduce(planner, name, *params):
    """Plan figure ``name``, synthesize its results, and reduce them."""
    figure = figures.FIGURES[name]
    results = synthetic_results(figure.planner(planner, *params))
    return figure.reducer(results, *params)


MIXES2 = [("res", "yt"), ("alex", "gpt2"), ("ncf", "ncf")]

#: Each core count's mixes for the registry-wide tests.
PARAMS = {
    None: (),
    2: (MIXES2,),
    4: ([("res", "yt", "alex", "gpt2")],),
    8: (subset_mixes(8, 3),),
}


class TestSharingSweepReduction:
    def test_fig4_ordering_follows_recovery_fractions(self, planner):
        data = reduce(planner, "fig4", MIXES2)
        overall = data["overall"]
        assert overall["Static"] < overall["+D"] < overall["+DW"] < overall["+DWT"]

    def test_fig4_identical_pair_has_equal_speedups(self, planner):
        data = reduce(planner, "fig4", [("ncf", "ncf")])
        speeds = data["sweep"]["speedups"]["ncf+ncf"]["+DWT"]
        assert speeds[0] == pytest.approx(speeds[1])

    def test_fig6_fairness_is_one_for_uniform_recovery(self, planner):
        # The synthetic model slows both mix members by the same
        # slowdown factor only for identical pairs.
        data = reduce(planner, "fig6", [("ncf", "ncf")])
        assert data["per_mix"]["ncf+ncf"]["+DWT"] == pytest.approx(1.0)

    def test_fig5_cdf_fraction_axis(self, planner):
        data = reduce(planner, "fig5", [("res", "yt", "alex", "gpt2"), ("ncf",) * 4])
        for level, points in data["cdf"].items():
            assert points[-1][1] == 1.0
            values = [v for v, _ in points]
            assert values == sorted(values)


class TestPagesizeReduction:
    def test_fig15_speedup_matches_stub_factor(self, planner):
        data = reduce(planner, "fig15")
        for name in zoo.NAMES:
            assert data["per_workload"][name]["64KB"] == pytest.approx(
                1 / 0.9, rel=0.01
            )

    def test_fig16_performance_normalized_to_4kb(self, planner):
        data = reduce(planner, "fig16", MIXES2)
        for mix_label, values in data["performance"].items():
            assert values["4KB"] == pytest.approx(1.0)
            assert values["64KB"] == pytest.approx(1 / 0.92, rel=0.01)


class TestPtwPartitionReduction:
    def test_fig13_equal_split_beats_skew_in_stub(self, planner):
        data = reduce(planner, "fig13", MIXES2)
        overall = data["overall"]
        assert overall["2:2"] > overall["1:3"]
        assert overall["2:2"] > overall["3:1"]

    def test_fig14_fairness_penalizes_skew(self, planner):
        data = reduce(planner, "fig14", MIXES2)
        overall = data["overall"]
        assert overall["1:3"] < overall["2:2"]


class TestMixSpeedupsHelper:
    def test_static_level_uses_solo_results(self):
        ideal = {n: _solo_cycles(n, channels=8) for n in zoo.NAMES}
        static = {n: _solo_cycles(n) for n in zoo.NAMES}
        speeds = figures.mix_speedups(
            {}, ("res", "yt"), SharingLevel.STATIC, ideal, static
        )
        assert speeds[0] == pytest.approx(ideal["res"] / static["res"])

    def test_geomean_of_speedups_matches_manual(self, planner):
        data = reduce(planner, "fig4", [("res", "yt")])
        speeds = data["sweep"]["speedups"]["res+yt"]["+D"]
        manual = math.sqrt(speeds[0] * speeds[1])
        assert data["per_mix"]["res+yt"]["+D"] == pytest.approx(manual)


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(figures.FIGURES))
    def test_every_figure_reduces_its_own_plan(self, planner, name):
        figure = figures.FIGURES[name]
        data = reduce(planner, name, *PARAMS[figure.cores])
        headline = figure.headline(data)
        assert headline and all(value is not None for value in headline.values())

    def test_missing_role_is_a_missing_data_point(self, planner):
        plan = figures.FIGURES["fig11"].planner(planner)
        results = synthetic_results(plan)
        del results["solo", "res", 1]  # the normalization baseline
        del results["solo", "yt", 8]
        data = figures.FIGURES["fig11"].reducer(results)
        assert "res" not in data["speedup"]
        assert [count for count, _ in data["speedup"]["yt"]] == [1, 2, 4, 6]


def test_planning_opens_no_cache(tmp_path, monkeypatch):
    """Every figure, the mapping study included, plans from a context alone."""
    monkeypatch.chdir(tmp_path)
    ctx = PlanContext()
    for name, figure in figures.FIGURES.items():
        assert figure.planner(ctx, *PARAMS[figure.cores])
    assert list(tmp_path.iterdir()) == []
