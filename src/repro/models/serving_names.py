"""The LLM-serving name tables: phases, serving bases, skews, arrivals.

Naming, validating and planning a serving workload (the CLI's choices,
:class:`~repro.experiments.spec.RunSpec` validation, figure plans) needs
only these tables.  :mod:`repro.models.serving` re-exports them and
builds the networks, so only what builds a network loads it.
"""

from __future__ import annotations

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


def split_name(name: str) -> tuple[str, str | None]:
    """``"gpt2:prefill"`` -> ``("gpt2", "prefill")``; plain names get ``None``."""
    base, sep, phase = name.partition(":")
    return (base, phase) if sep else (name, None)
