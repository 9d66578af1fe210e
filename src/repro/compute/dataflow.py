"""The dataflow registry: which engines exist, by name.

The paper evaluates only the output-stationary dataflow and lists the
others as future work (section 4.1.2).  The dataflow is a *component*
rather than a branch (the SCALE-Sim v3 / ONNXim structure): each engine
(:mod:`repro.compute.engines`) is a named object owning a tiling policy
and a compute-cycle model.

Engines register themselves in a process-wide registry keyed by the
``ArchConfig.dataflow`` string.  The registry is the single source of
truth for which dataflows exist: ``ArchConfig`` validation, the CLI's
``--dataflow`` choices and the ``dataflow_compare`` figure all enumerate
it instead of hardcoding names.  The stock engines are registered by
name only (:data:`STOCK_DATAFLOWS`); :func:`get_engine` loads them, and
with them the tiling policy and the cycle model, the first time a trace
is compiled.  Naming, validating and planning a dataflow loads neither.

An engine's name is its identity in the trace memo: the memo key holds
``ArchConfig.dataflow`` (see :func:`~repro.compute.tracecache.frontend_key`),
and the memo lives only as long as the process, so no trace can outlive
the model that compiled it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.compute.engines import DataflowEngine

#: Names of :data:`repro.compute.engines.STOCK_ENGINES`, in their order.
STOCK_DATAFLOWS: tuple[str, ...] = ("os", "ws", "is")


#: Name -> engine; ``None`` marks a stock engine not loaded yet.
_REGISTRY: dict[str, DataflowEngine | None] = dict.fromkeys(STOCK_DATAFLOWS)


def register(engine: DataflowEngine) -> DataflowEngine:
    """Add an engine to the registry (its ``name`` becomes the key).

    Registration order is preserved — it is the order ``ArchConfig``
    error messages, CLI choices and ``dataflow_compare`` enumerate.
    Duplicate names raise: an engine's name is what keys its traces in
    the memo, so silently replacing one would alias two different models
    under one key.
    """
    if engine.name in _REGISTRY:
        raise ValueError(f"dataflow engine {engine.name!r} is already registered")
    _REGISTRY[engine.name] = engine
    return engine


def get_engine(name: str) -> DataflowEngine:
    """The registered engine for ``name``; raises with the known names.

    The first fetch of a stock engine loads all of them: this is where
    trace compilation reaches the tiling policy and the cycle model.
    """
    try:
        engine = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown dataflow {name!r}; registered engines: "
            + ", ".join(_REGISTRY)
        ) from None
    if engine is None:
        from repro.compute.engines import STOCK_ENGINES

        for stock in STOCK_ENGINES:
            _REGISTRY[stock.name] = stock
        engine = _REGISTRY[name]
    return engine


def registered_dataflows() -> tuple[str, ...]:
    """Names of all registered engines, in registration order."""
    return tuple(_REGISTRY)
