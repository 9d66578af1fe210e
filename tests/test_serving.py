"""LLM-serving frontend: routing invariants, determinism, name resolution.

The serving module's contract is that every stochastic choice (request
arrival, decode budgets, token-to-expert routing) is a pure function of
:class:`ServingParams` — same params, same network, in any process.
The hypothesis suites pin the MoE conservation law (capacity overflow
reassigns tokens, never drops them) and the cross-process tests pin the
networks and cache keys CI's serving lane depends on.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compute.tracecache import frontend_key
from repro.config import presets
from repro.core.sharing import SharingLevel
from repro.experiments.spec import RunSpec
from repro.models import serving, zoo
from repro.models.serving import ServingParams, route_tokens


# --------------------------------------------------------------------- #
# MoE routing: conservation, capacity, determinism
# --------------------------------------------------------------------- #

routing_cases = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**32 - 1),
        "tokens": st.integers(min_value=0, max_value=400),
        "experts": st.integers(min_value=1, max_value=16),
        "capacity_factor": st.floats(
            min_value=1.0, max_value=4.0, allow_nan=False
        ),
        "skew": st.sampled_from(serving.SKEWS),
        "zipf_alpha": st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
    }
)


def _route(case):
    return route_tokens(
        random.Random(case["seed"]),
        case["tokens"],
        case["experts"],
        capacity_factor=case["capacity_factor"],
        skew=case["skew"],
        zipf_alpha=case["zipf_alpha"],
    )


class TestRouting:
    @given(routing_cases)
    @settings(max_examples=120, deadline=None)
    def test_no_token_is_ever_dropped(self, case):
        """Conservation: overflow reassigns to the least-loaded expert,
        so the counts always sum to the token count — silently dropping
        tokens would shrink the expert GEMMs and skew every figure."""
        counts = _route(case)
        assert len(counts) == case["experts"]
        assert sum(counts) == max(case["tokens"], 0)
        assert all(count >= 0 for count in counts)

    @given(routing_cases)
    @settings(max_examples=120, deadline=None)
    def test_capacity_is_respected(self, case):
        counts = _route(case)
        if case["tokens"] <= 0:
            return
        capacity = math.ceil(
            case["capacity_factor"] * case["tokens"] / case["experts"]
        )
        assert max(counts) <= capacity

    @given(routing_cases)
    @settings(max_examples=60, deadline=None)
    def test_same_seed_same_routing(self, case):
        assert _route(case) == _route(case)

    def test_zipf_skews_toward_low_ranks(self):
        """With generous capacity, rank 0 gets the lion's share."""
        counts = route_tokens(
            random.Random(7), 1000, 4, capacity_factor=4.0, skew="zipf"
        )
        assert counts[0] == max(counts)
        assert counts[0] > counts[-1]

    def test_uniform_is_roughly_balanced(self):
        counts = route_tokens(random.Random(7), 1000, 4, capacity_factor=4.0)
        assert min(counts) > 150  # no expert starves under uniform routing


# --------------------------------------------------------------------- #
# Arrival model and decode schedule
# --------------------------------------------------------------------- #


class TestArrivalModel:
    def test_closed_loop_is_one_burst(self):
        params = ServingParams(arrival="closed", batch=6)
        assert serving.prefill_waves(params) == ((0, 6),)

    def test_poisson_waves_admit_every_request(self):
        params = ServingParams(batch=8, arrival_rate=0.3, seed=11)
        waves = serving.prefill_waves(params)
        assert sum(count for _, count in waves) == 8
        steps = [step for step, _ in waves]
        assert steps == sorted(set(steps))  # strictly increasing

    def test_decode_schedule_shape(self):
        params = ServingParams()
        schedule = serving.decode_schedule(params)
        assert schedule, "step 0 always runs the full batch"
        assert schedule[0].step == 0
        assert schedule[0].active == params.batch
        for load in schedule:
            assert 0 < load.active <= params.batch
            # every active slot holds at least its prompt in KV context
            assert load.ctx_total >= load.active * params.prompt
            assert load.step < params.decode_steps

    @pytest.mark.parametrize("stream", ["prefill_waves", "decode_schedule"])
    def test_schedules_are_deterministic(self, stream):
        params = ServingParams(batch=5, decode_steps=6, seed=99)
        build = getattr(serving, stream)
        assert build(params) == build(params)

    def test_arrival_and_routing_streams_are_independent(self):
        """Changing MoE knobs must not perturb the arrival trace (and
        vice versa) — the streams are seeded separately by name."""
        base = ServingParams()
        moe_changed = ServingParams(experts=8, moe_skew="zipf")
        assert serving.prefill_waves(base) == serving.prefill_waves(moe_changed)
        assert serving.decode_schedule(base) == serving.decode_schedule(
            moe_changed
        )


# --------------------------------------------------------------------- #
# Network builders and name resolution
# --------------------------------------------------------------------- #


class TestNetworks:
    def test_networks_are_reproducible(self):
        params = ServingParams(moe_skew="zipf", seed=5)
        assert serving.prefill_network(params) == serving.prefill_network(params)
        assert serving.decode_network(params) == serving.decode_network(params)

    def test_phases_differ(self):
        params = ServingParams()
        prefill = serving.prefill_network(params)
        decode = serving.decode_network(params)
        assert prefill.name == "srv-gpt2-prefill"
        assert decode.name == "srv-gpt2-decode"
        assert prefill.layers != decode.layers

    def test_seed_changes_the_trace(self):
        assert serving.decode_network(ServingParams(seed=1)) != (
            serving.decode_network(ServingParams(seed=2))
        )

    def test_decode_streams_the_kv_cache(self):
        """Decode score layers are (ctx, width, 1): the A operand is the
        whole cached context, the GEMV-like signature of decode."""
        params = ServingParams()
        network = serving.decode_network(params)
        scores = [layer for layer in network.layers if "score" in layer.name]
        assert scores
        assert all(layer.n == 1 for layer in scores)
        # each step scans at least one request's prompt-sized context
        assert all(layer.m >= params.prompt for layer in scores)

    def test_resolve_qualified_names(self):
        assert serving.resolve("gpt2:prefill").name == "srv-gpt2-prefill"
        assert serving.resolve("gpt2:decode").name == "srv-gpt2-decode"
        assert serving.resolve("ncf") is None
        assert serving.resolve("gpt2") is None  # bare name: the zoo's gpt2

    @pytest.mark.parametrize("name", ["ncf:prefill", "gpt2:flarp", "gpt2:"])
    def test_resolve_rejects_bad_qualified_names(self, name):
        with pytest.raises(ValueError):
            serving.resolve(name)

    def test_networks_for_mixes_serving_and_zoo(self):
        networks = serving.networks_for(["gpt2:prefill", "ncf"])
        assert networks[0].name == "srv-gpt2-prefill"
        assert networks[1].name == zoo.get("ncf", "mini").name

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch": 0},
            {"prompt": 0},
            {"capacity_factor": 0.5},
            {"moe_skew": "bimodal"},
            {"arrival": "open"},
            {"arrival_rate": 0.0},
            {"zipf_alpha": -1.0},
        ],
    )
    def test_params_validate(self, kwargs):
        with pytest.raises(ValueError):
            ServingParams(**kwargs)


# --------------------------------------------------------------------- #
# Cross-process determinism
# --------------------------------------------------------------------- #


def _network_in_worker(phase: str):
    """Module-level so ProcessPoolExecutor can pickle it by reference."""
    return serving.resolve(f"gpt2:{phase}")


def _serving_spec() -> RunSpec:
    return RunSpec.mix(
        ("gpt2:prefill", "gpt2:decode"),
        SharingLevel.DWT,
        serving=ServingParams(moe_skew="zipf"),
    )


def _cache_key_in_worker() -> str:
    return _serving_spec().cache_key()


class TestDeterminism:
    def test_fingerprints_match_across_processes(self):
        """Arrival/routing traces must not depend on process state: a
        sweep worker building a serving network has to build the very
        network the parent planned and compiled."""
        with ProcessPoolExecutor(max_workers=1) as pool:
            for phase in serving.PHASES:
                theirs = pool.submit(_network_in_worker, phase).result()
                assert theirs == _network_in_worker(phase)

    def test_cache_key_matches_across_processes(self):
        with ProcessPoolExecutor(max_workers=1) as pool:
            theirs = pool.submit(_cache_key_in_worker).result()
        assert theirs == _serving_spec().cache_key()

    def test_phase_fingerprints_are_distinct(self):
        # The phases key the trace memo apart from each other and from
        # the zoo's single-pass gpt2.
        arch = presets.cloud_arch("mini")
        keys = {
            frontend_key(serving.resolve(name), arch)
            for name in serving.SERVING_NAMES
        }
        keys.add(frontend_key(zoo.get("gpt2", "mini"), arch))
        assert len(keys) == len(serving.SERVING_NAMES) + 1
