"""Differential-testing harness: batched/auto replay vs per-event replay.

The replay kernel (:mod:`repro.core.replay`) claims *byte-identity*: for
any configuration, ``batched`` and ``auto`` modes produce exactly the
results of per-event replay — same integer metrics, same counter
snapshot, same pinned ``events_processed``.  This suite holds it to that
across:

* the golden corpus's own spec shapes (solo slices and contended mixes);
* hypothesis-generated random networks × {1, 2} cores × shared/private
  TLB × 1/2 DRAM channels per core × translation on/off — including the
  configurations where eligibility *fails* and the governor must fall
  back (a fallback that diverged would be the worst possible bug);
* the experiment runner path, where each mode keys a distinct cache
  shard whose simulated payload must nonetheless be identical.

``assert_equivalent`` is the reusable entry point: hand it any
:class:`RunSpec` (or a prebuilt system + networks) and it performs the
full three-way comparison.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import presets
from repro.config.misc import MiscConfig
from repro.config.system import SystemConfig
from repro.core.replay import REPLAY_MODES, TurboDma
from repro.core.simulator import MultiCoreNPUSim
from repro.experiments.spec import RunSpec
from repro.models import random_network, zoo
from repro.obs.registry import CounterRegistry

from tests.test_golden_equivalence import MAX_TICKS, metrics

# --------------------------------------------------------------------- #
# The reusable differential helper
# --------------------------------------------------------------------- #


def _counter_snapshot(sim: MultiCoreNPUSim) -> dict:
    """Post-hoc counter snapshot of a finished simulation.

    Observation is registered *after* the run (the registry only holds
    pull callables over stats the components maintain anyway), so the
    run itself executed unobserved — which is exactly the condition
    under which the batched governor engages.  Replay-kernel
    bookkeeping (``replay.*``) differs across modes by design and is
    excluded; everything else must match exactly.
    """
    registry = CounterRegistry()
    sim._register_counters(registry)
    snap = registry.snapshot()["metrics"]
    return {
        path: value
        for path, value in snap.items()
        if not path.startswith("replay.")
    }


def _run_system(system: SystemConfig, networks, mode: str):
    system = dataclasses.replace(
        system, misc=dataclasses.replace(system.misc, replay_mode=mode)
    )
    sim = MultiCoreNPUSim(system, networks)
    result = sim.run(max_ticks=MAX_TICKS)
    return sim, result


def assert_system_equivalent(
    system: SystemConfig, networks
) -> dict[str, MultiCoreNPUSim]:
    """Simulate ``system`` under every replay mode; assert byte-identity.

    Returns the per-mode simulators so callers can make additional
    assertions (e.g. that fast-forwarding actually engaged).
    """
    sims: dict[str, MultiCoreNPUSim] = {}
    baseline = None
    for mode in REPLAY_MODES:
        sim, result = _run_system(system, networks, mode)
        observed = (
            metrics(result),
            _counter_snapshot(sim),
            sim.engine.events_processed,
        )
        if baseline is None:
            baseline = observed
        else:
            assert observed[0] == baseline[0], f"{mode}: metrics diverged"
            assert observed[1] == baseline[1], f"{mode}: counters diverged"
            assert observed[2] == baseline[2], f"{mode}: event count diverged"
        sims[mode] = sim
    return sims


def assert_equivalent(spec: RunSpec) -> dict[str, MultiCoreNPUSim]:
    """Three-way differential run of one :class:`RunSpec`."""
    networks = [zoo.get(name, spec.scale) for name in spec.workloads]
    return assert_system_equivalent(spec.system(), networks)


# --------------------------------------------------------------------- #
# Fixed corpus: the spec shapes behind the golden suite
# --------------------------------------------------------------------- #

SPEC_CORPUS: tuple[tuple[str, RunSpec], ...] = (
    (
        "solo-dlrm-1ch-notrans",
        RunSpec.solo("dlrm", scale="mini", channels=1, translation=False),
    ),
    ("solo-ncf-2ch", RunSpec.solo("ncf", scale="mini", channels=2)),
    ("mix-ncf-dlrm-D", RunSpec.mix(("ncf", "dlrm"), "D", scale="mini")),
    (
        "mix-ncf-dlrm-D-notrans",
        RunSpec.mix(("ncf", "dlrm"), "D", scale="mini", translation=False),
    ),
)


@pytest.mark.parametrize(
    "spec", [spec for _, spec in SPEC_CORPUS], ids=[name for name, _ in SPEC_CORPUS]
)
def test_spec_corpus_equivalent(spec):
    assert_equivalent(spec)


def test_solo_auto_fast_forwards():
    """The headline scenario actually exercises the analytic warp."""
    spec = RunSpec.solo("dlrm", scale="mini", channels=1, translation=False)
    sims = assert_equivalent(spec)
    turbo = sims["auto"].dmas[0]
    assert isinstance(turbo, TurboDma)
    assert turbo.rstats.fast_forwards >= 1
    assert turbo.rstats.fast_forwarded_ticks > 0


# --------------------------------------------------------------------- #
# Hypothesis sweep: random networks across the sharing/topology matrix
# --------------------------------------------------------------------- #


def _build_system(
    num_cores: int,
    channels_per_core: int,
    shared: bool,
    translation: bool,
) -> SystemConfig:
    arch = presets.cloud_arch("mini")
    npumem = presets.cloud_npumem("mini", translation_enabled=translation)
    dram = presets.hbm2_dram("mini", channels=num_cores * channels_per_core)
    misc = MiscConfig(
        iterations=1,
        start_stagger_cycles=presets.MIX_STAGGER_CYCLES if num_cores > 1 else 0,
    )
    return SystemConfig(
        arch=(arch,) * num_cores,
        npumem=(npumem,) * num_cores,
        dram=dram,
        misc=misc,
        share_dram=shared,
        share_ptw=shared,
        share_tlb=shared,
    )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_cores=st.sampled_from((1, 2)),
    channels_per_core=st.sampled_from((1, 2)),
    shared=st.booleans(),
    translation=st.booleans(),
)
def test_random_networks_equivalent(
    seed, num_cores, channels_per_core, shared, translation
):
    system = _build_system(num_cores, channels_per_core, shared, translation)
    networks = [
        random_network(seed + core, min_layers=2, max_layers=4)
        for core in range(num_cores)
    ]
    assert_system_equivalent(system, networks)


# --------------------------------------------------------------------- #
# Runner path: distinct cache shards, identical simulated payloads
# --------------------------------------------------------------------- #


def test_runner_results_identical_across_modes(tmp_path):
    from repro.experiments.runner import ExperimentRunner

    base = RunSpec.solo("dlrm", scale="mini", channels=1, translation=False)
    results = {}
    keys = {}
    for mode in REPLAY_MODES:
        spec = dataclasses.replace(base, replay_mode=mode)
        runner = ExperimentRunner(cache_dir=tmp_path / mode)
        # run() returns the serialized per-workload result rows — the
        # exact payload the cache shard stores.
        results[mode] = runner.run(spec)
        keys[mode] = spec.cache_key()
    assert len(set(keys.values())) == len(REPLAY_MODES), (
        "each replay mode must key a distinct cache shard"
    )
    assert results["batched"] == results["event"]
    assert results["auto"] == results["event"]
