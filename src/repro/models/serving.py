"""LLM-serving shapes: prefill/decode phases + MoE expert routing.

The zoo's ``gpt2`` entry is a *layer topology* — one forward pass over a
fixed sequence.  Batched LLM inference does not look like that: serving
splits into an explicit **prefill** phase (GEMM-heavy and bursty — whole
prompts arrive and are processed as wide matrix multiplies) and a
**decode** phase (GEMV-like and latency-bound — one token per request
per step, dominated by streaming reads of the growing KV cache).  On top
of both, Mixture-of-Experts layers route tokens to experts, and the
*skew* of that routing decides how balanced the FFN work is.

This module turns those serving dynamics into ordinary
:class:`~repro.models.layers.Network` objects, so the whole existing
pipeline — frontend compilation, the content-addressed trace cache,
replay, sharing experiments — works unchanged:

* every stochastic choice (request arrival, per-request decode budget,
  token-to-expert routing) draws from ``random.Random`` seeded with a
  string derived from :class:`ServingParams`, so the same parameters
  produce the same layer list in every process — traces stay
  content-addressable and cache keys stay stable;
* phases are named workloads: ``"gpt2:prefill"`` / ``"gpt2:decode"``
  (see :func:`split_name`), resolvable next to plain zoo names;
* serving networks carry a ``srv-`` name prefix that the trace cache
  surfaces in its shard keys (see
  :func:`repro.compute.tracecache.frontend_fingerprint`), so serving
  traces are identifiable on disk.

Shape conventions (one GEMM is ``M x K x N``, ``A[M,K] @ B[K,N]``; the
A operand streams weights, the B operand streams activations):

* prefill, per arrival wave of ``T = requests x prompt`` tokens and per
  block: ``qkv (3w, w, T)``, ``score (prompt, w, T)``,
  ``attnv (w, prompt, T)``, ``proj (w, w, T)``, then per routed expert
  ``fc1 (4w, w, tokens_e)`` / ``fc2 (w, 4w, tokens_e)``;
* decode, per step with ``B`` active requests holding ``ctx`` total KV
  entries: ``qkv (3w, w, B)``, ``score (ctx, w, 1)`` (the A operand *is*
  the streamed K cache), ``attnv (w, ctx, 1)`` (streamed V cache),
  ``proj (w, w, B)``, and the routed expert FFNs over the ``B`` new
  tokens.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import Any, Sequence

from repro.models import zoo
from repro.models.layers import DenseLayer, Layer, Network

__all__ = [
    "PHASES",
    "SERVING_BASES",
    "SERVING_NAMES",
    "ServingParams",
    "StepLoad",
    "decode_network",
    "decode_schedule",
    "networks_for",
    "prefill_network",
    "prefill_waves",
    "resolve",
    "route_tokens",
    "split_name",
]

#: The two serving phases, in pipeline order.
PHASES: tuple[str, ...] = ("prefill", "decode")

#: Zoo topologies that have a serving frontend.
SERVING_BASES: frozenset[str] = frozenset({"gpt2"})

#: Every phase-qualified serving workload name, for CLI choices.
SERVING_NAMES: tuple[str, ...] = tuple(
    f"{base}:{phase}" for base in sorted(SERVING_BASES) for phase in PHASES
)

#: Arrival disciplines of the request model.
ARRIVALS: tuple[str, ...] = ("poisson", "closed")

#: MoE routing skews.
SKEWS: tuple[str, ...] = ("uniform", "zipf")

#: Name prefix marking serving networks for trace-cache tagging.
NAME_PREFIX = "srv-"


@dataclass(frozen=True)
class ServingParams:
    """Everything that shapes a serving trace, hashable and picklable.

    Defaults are deliberately small (mini-scale CI budgets); the whole
    object at defaults is treated as "no serving override" by
    :class:`~repro.experiments.spec.RunSpec`, which normalizes it to
    ``None`` so default-parameter specs keep their pre-serving cache
    keys.

    ``batch`` is the continuous-batching slot count (prefill: total
    requests; decode: concurrent requests), ``prompt`` the per-request
    prompt length in tokens, ``decode_steps`` the decode-schedule
    horizon.  ``experts`` / ``capacity_factor`` / ``moe_skew`` /
    ``zipf_alpha`` configure MoE routing; ``arrival`` / ``arrival_rate``
    the request-arrival process; ``seed`` makes all of it deterministic.
    """

    batch: int = 4
    prompt: int = 32
    decode_steps: int = 4
    experts: int = 4
    capacity_factor: float = 1.25
    moe_skew: str = "uniform"
    zipf_alpha: float = 1.2
    arrival: str = "poisson"
    arrival_rate: float = 0.5
    seed: int = 2023

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ValueError("batch must be at least 1")
        if self.prompt < 1:
            raise ValueError("prompt must be at least 1 token")
        if self.decode_steps < 1:
            raise ValueError("decode_steps must be at least 1")
        if self.experts < 1:
            raise ValueError("experts must be at least 1")
        if self.capacity_factor < 1.0:
            raise ValueError(
                "capacity_factor below 1.0 cannot place every token; "
                "routing never drops tokens, so require >= 1.0"
            )
        if self.moe_skew not in SKEWS:
            raise ValueError(
                f"unknown moe_skew {self.moe_skew!r}; choose from "
                + ", ".join(SKEWS)
            )
        if self.zipf_alpha <= 0:
            raise ValueError("zipf_alpha must be positive")
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"unknown arrival {self.arrival!r}; choose from "
                + ", ".join(ARRIVALS)
            )
        if not 0.0 < self.arrival_rate <= 1.0:
            raise ValueError("arrival_rate must be in (0, 1]")

    def descriptor(self) -> dict[str, Any]:
        """JSON-stable field dict, in declaration order (cache identity)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def tag(self) -> str:
        """Compact non-default summary for labels, e.g. ``moe_skew=zipf``."""
        defaults = ServingParams()
        parts = [
            f"{f.name}={getattr(self, f.name)}"
            for f in fields(self)
            if getattr(self, f.name) != getattr(defaults, f.name)
        ]
        return ",".join(parts) or "default"


def split_name(name: str) -> tuple[str, str | None]:
    """``"gpt2:prefill"`` -> ``("gpt2", "prefill")``; plain names get ``None``."""
    base, sep, phase = name.partition(":")
    return (base, phase) if sep else (name, None)


# --------------------------------------------------------------------- #
# MoE expert routing
# --------------------------------------------------------------------- #


def route_tokens(
    rng: random.Random,
    tokens: int,
    experts: int,
    capacity_factor: float = 1.25,
    skew: str = "uniform",
    zipf_alpha: float = 1.2,
) -> tuple[int, ...]:
    """Deterministic token-to-expert counts for one MoE layer.

    Tokens draw an expert from a uniform or Zipf(``zipf_alpha``)
    distribution over expert ranks.  Each expert's capacity is
    ``ceil(capacity_factor * tokens / experts)``; tokens routed past
    capacity are reassigned to the least-loaded expert (lowest index on
    ties) rather than dropped, so ``sum(counts) == tokens`` always —
    with ``capacity_factor >= 1.0`` total capacity covers every token.
    """
    if tokens <= 0:
        return (0,) * experts
    if skew == "zipf":
        weights = [1.0 / (rank + 1) ** zipf_alpha for rank in range(experts)]
    else:
        weights = [1.0] * experts
    cumulative = list(accumulate(weights))
    total = cumulative[-1]
    counts = [0] * experts
    for _ in range(tokens):
        draw = rng.random() * total
        counts[min(bisect_right(cumulative, draw), experts - 1)] += 1
    capacity = math.ceil(capacity_factor * tokens / experts)
    overflow = 0
    for expert in range(experts):
        if counts[expert] > capacity:
            overflow += counts[expert] - capacity
            counts[expert] = capacity
    while overflow:
        target = min(range(experts), key=lambda e: (counts[e], e))
        room = capacity - counts[target]
        if room <= 0:  # impossible with capacity_factor >= 1.0
            raise RuntimeError(
                f"MoE capacity exhausted with {overflow} tokens unplaced "
                f"(tokens={tokens}, experts={experts}, capacity={capacity})"
            )
        moved = min(overflow, room)
        counts[target] += moved
        overflow -= moved
    return tuple(counts)


# --------------------------------------------------------------------- #
# Request-arrival model (seeded, continuous batching)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class StepLoad:
    """One decode step: how many requests ran and their total KV context."""

    step: int
    active: int
    ctx_total: int


def _rng(params: ServingParams, stream: str) -> random.Random:
    # String seeds hash through SHA-512 in CPython's seeding, so the
    # stream is process-independent — the cross-process determinism the
    # content-addressed caches rely on.
    return random.Random(f"serving:{params.seed}:{stream}")


def prefill_waves(params: ServingParams) -> tuple[tuple[int, int], ...]:
    """Arrival waves of the prefill phase: ``(step, request_count)`` pairs.

    Closed-loop arrival admits the whole batch at once (one maximal
    burst); Poisson arrival spaces requests by seeded geometric gaps
    (mean ``1/arrival_rate - 1`` steps), grouping same-step arrivals
    into one fused prefill wave — the burstiness knob.
    """
    if params.arrival == "closed":
        return ((0, params.batch),)
    rng = _rng(params, "arrival")
    step = 0
    waves: list[tuple[int, int]] = []
    for _ in range(params.batch):
        if waves and waves[-1][0] == step:
            waves[-1] = (step, waves[-1][1] + 1)
        else:
            waves.append((step, 1))
        while rng.random() > params.arrival_rate:
            step += 1
    return tuple(waves)


def decode_schedule(params: ServingParams) -> tuple[StepLoad, ...]:
    """Per-step decode load under seeded continuous batching.

    ``batch`` slots start warm (context = ``prompt``).  Each step, every
    active request decodes one token (context grows by one) and retires
    after a seeded budget of steps; a retired slot is refilled
    immediately under closed-loop arrival, or after a seeded geometric
    gap under Poisson arrival.  Step 0 always runs the full batch, so
    the schedule is never empty.
    """
    rng = _rng(params, "decode")

    def budget() -> int:
        return rng.randint(1, max(1, 2 * params.decode_steps - 1))

    def gap() -> int:
        if params.arrival == "closed":
            return 0
        steps = 0
        while rng.random() > params.arrival_rate:
            steps += 1
        return steps

    # slot state: [context, remaining decode budget, steps until arrival]
    slots = [[params.prompt, budget(), 0] for _ in range(params.batch)]
    schedule: list[StepLoad] = []
    for step in range(params.decode_steps):
        active = 0
        ctx_total = 0
        for slot in slots:
            if slot[2] > 0:
                slot[2] -= 1
                if slot[2] > 0:
                    continue
                slot[0] = params.prompt
                slot[1] = budget()
            active += 1
            ctx_total += slot[0]
            slot[0] += 1
            slot[1] -= 1
            if slot[1] == 0:
                slot[2] = gap() + 1
        if active:
            schedule.append(StepLoad(step, active, ctx_total))
    return tuple(schedule)


# --------------------------------------------------------------------- #
# Network builders
# --------------------------------------------------------------------- #


def _dims(scale: str) -> tuple[int, int]:
    """(width, blocks) of the serving transformer at ``scale``.

    Width matches the zoo's gpt2 at the same scale; block count is kept
    lower than the forward-pass topology because serving unrolls the
    schedule across steps (layers multiply by waves/steps).
    """
    if scale == "full":
        return 768, 12
    if scale == "mini":
        return max(96, 768 // zoo.MINI_SCALE), 2
    raise ValueError(f"unknown scale {scale!r}")


def _moe_layers(
    prefix: str,
    width: int,
    tokens: int,
    params: ServingParams,
    rng: random.Random,
) -> list[Layer]:
    """The routed expert FFNs of one block: fc1/fc2 per non-empty expert."""
    counts = route_tokens(
        rng,
        tokens,
        params.experts,
        capacity_factor=params.capacity_factor,
        skew=params.moe_skew,
        zipf_alpha=params.zipf_alpha,
    )
    layers: list[Layer] = []
    for expert, count in enumerate(counts):
        if not count:
            continue
        layers.append(DenseLayer(f"{prefix}_e{expert}_fc1", 4 * width, width, count))
        layers.append(DenseLayer(f"{prefix}_e{expert}_fc2", width, 4 * width, count))
    return layers


def prefill_network(params: ServingParams, scale: str = "mini") -> Network:
    """The prefill phase as a network: one GEMM stack per arrival wave."""
    width, blocks = _dims(scale)
    rng = _rng(params, "route:prefill")
    layers: list[Layer] = []
    for step, requests in prefill_waves(params):
        tokens = requests * params.prompt
        for block in range(blocks):
            prefix = f"s{step}b{block}"
            layers.extend(
                [
                    DenseLayer(f"{prefix}_qkv", 3 * width, width, tokens),
                    DenseLayer(f"{prefix}_score", params.prompt, width, tokens),
                    DenseLayer(f"{prefix}_attnv", width, params.prompt, tokens),
                    DenseLayer(f"{prefix}_proj", width, width, tokens),
                ]
            )
            layers.extend(_moe_layers(prefix, width, tokens, params, rng))
    return Network(f"{NAME_PREFIX}gpt2-prefill", tuple(layers))


def decode_network(params: ServingParams, scale: str = "mini") -> Network:
    """The decode phase as a network: per-step GEMV-like KV-cache stacks."""
    width, blocks = _dims(scale)
    rng = _rng(params, "route:decode")
    layers: list[Layer] = []
    for load in decode_schedule(params):
        for block in range(blocks):
            prefix = f"s{load.step}b{block}"
            layers.extend(
                [
                    DenseLayer(f"{prefix}_qkv", 3 * width, width, load.active),
                    # The A operands below are the KV cache itself: tall
                    # skinny GEMMs whose weight stream is the per-step
                    # scan over every cached key/value row.
                    DenseLayer(f"{prefix}_score", load.ctx_total, width, 1),
                    DenseLayer(f"{prefix}_attnv", width, load.ctx_total, 1),
                    DenseLayer(f"{prefix}_proj", width, width, load.active),
                ]
            )
            layers.extend(_moe_layers(prefix, width, load.active, params, rng))
    return Network(f"{NAME_PREFIX}gpt2-decode", tuple(layers))


# --------------------------------------------------------------------- #
# Name resolution
# --------------------------------------------------------------------- #


def resolve(
    name: str,
    scale: str = "mini",
    *,
    params: ServingParams | None = None,
    default_phase: str | None = None,
) -> Network | None:
    """The serving network for ``name``, or ``None`` when it isn't one.

    ``"gpt2:prefill"`` / ``"gpt2:decode"`` resolve directly; a bare
    serving base (``"gpt2"``) resolves only when ``default_phase`` is
    set (the :class:`RunSpec` ``phase`` field), otherwise it falls back
    to the plain zoo topology by returning ``None``.
    """
    base, phase = split_name(name)
    if phase is not None:
        if base not in SERVING_BASES:
            raise ValueError(
                f"{name!r}: {base!r} has no serving frontend; "
                f"serving bases: {sorted(SERVING_BASES)}"
            )
        if phase not in PHASES:
            raise ValueError(
                f"{name!r}: unknown phase {phase!r}; choose from "
                + ", ".join(PHASES)
            )
    elif base in SERVING_BASES and default_phase is not None:
        phase = default_phase
    if phase is None:
        return None
    params = params if params is not None else ServingParams()
    builder = prefill_network if phase == "prefill" else decode_network
    return builder(params, scale)


def networks_for(
    workloads: Sequence[str],
    scale: str = "mini",
    *,
    params: ServingParams | None = None,
    default_phase: str | None = None,
) -> list[Network]:
    """Resolve a workload list: serving names here, everything else zoo."""
    networks = []
    for name in workloads:
        network = resolve(
            name, scale, params=params, default_phase=default_phase
        )
        networks.append(network if network is not None else zoo.get(name, scale))
    return networks
