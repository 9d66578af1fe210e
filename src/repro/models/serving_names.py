"""The LLM-serving name tables: phases, serving bases, skews, arrivals.

Naming, validating and planning a serving workload (the CLI's choices,
:class:`~repro.experiments.spec.RunSpec` validation, figure plans) needs
only these tables.  :mod:`repro.models.serving` re-exports them and
builds the networks, so only what builds a network loads it.
"""

from __future__ import annotations

from typing import Sequence

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


def qualify(names: Sequence[str], phase: str | None) -> tuple[str, ...]:
    """Bare serving bases under ``phase``: ``gpt2`` -> ``gpt2:decode``.

    Every other name, phase-qualified ones included, passes through, as
    do all names when ``phase`` is ``None``.  This is how ``--phase``
    enters the program, so a serving workload has one name.
    """
    if phase is None:
        return tuple(names)
    return tuple(
        f"{name}:{phase}" if name in SERVING_BASES else name for name in names
    )
