"""Multi-factor regression slowdown predictor (paper section 4.6.1).

Predicts the slowdown a workload suffers from a given co-runner on a
dual-core NPU, using only *profiled* per-workload information: PE
utilization (lower = more memory pressure), memory traffic per unit of
execution, and the execution-time ratio between the two workloads (the
paper's correction factor for residual effects like TLB conflicts).

To avoid overfitting the eight evaluation benchmarks, the model is
trained on DeepSniffer-style randomly generated networks (conv/GEMM
layers with realistic random dimensions) whose pairwise contention is
simulated with the same simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.compute.requestgen import RequestGenerator
from repro.config import presets
from repro.core.sharing import SharingLevel
from repro.errors import RunFailedError
from repro.experiments.spec import PlanContext, RunSpec
from repro.models.layers import Network
from repro.models.random_net import random_network

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentRunner


@dataclass(frozen=True)
class WorkloadProfile:
    """Profiled features of one workload (no co-runner knowledge)."""

    name: str
    pe_utilization: float      #: MACs per array-MAC-slot, memory-ideal
    traffic_per_cycle: float   #: bytes of DRAM traffic per ideal cycle
    ideal_cycles: float        #: profiled solo latency (Ideal resources)


def run_all(
    runner: ExperimentRunner, specs: Sequence[RunSpec]
) -> list[list[dict[str, Any]]]:
    """Results of ``specs``, in order, from one :meth:`run_many` batch.

    The mapping study needs every run, so the first failed spec raises
    its :class:`RunFailedError` instead of leaving a gap.
    """
    planned = [spec.resolve() for spec in specs]
    results = runner.run_many(planned)
    for spec in planned:
        if spec not in results:
            raise RunFailedError(runner.failures[spec])
    return [results[spec] for spec in planned]


def profile_workloads(
    ctx: PlanContext,
    runner: ExperimentRunner,
    networks: Sequence[Network],
    num_cores: int = 2,
) -> dict[str, WorkloadProfile]:
    """Profile workloads: request-generator statistics + Ideal runs.

    The Ideal runs of all ``networks`` execute as one batch.
    """
    for network in networks:
        runner.register_network(network)
    arch = presets.cloud_arch(ctx.scale)
    ideals = run_all(
        runner, [ctx.ideal(network.name, num_cores) for network in networks]
    )
    profiles = {}
    for network, (ideal,) in zip(networks, ideals):
        summary = RequestGenerator(network, arch).summary()
        profiles[network.name] = WorkloadProfile(
            name=network.name,
            pe_utilization=summary["pe_utilization"],
            traffic_per_cycle=summary["traffic_bytes"] / max(1.0, ideal["cycles"]),
            ideal_cycles=float(ideal["cycles"]),
        )
    return profiles


def _features(a: WorkloadProfile, b: WorkloadProfile) -> list[float]:
    """Feature vector for predicting the slowdown of ``a`` beside ``b``."""
    return [
        1.0,
        a.pe_utilization,
        b.pe_utilization,
        a.traffic_per_cycle,
        b.traffic_per_cycle,
        a.traffic_per_cycle * b.traffic_per_cycle,
        math.log(a.ideal_cycles / b.ideal_cycles),
    ]


class SlowdownPredictor:
    """Least-squares slowdown model over co-runner feature vectors."""

    def __init__(self) -> None:
        self._weights: np.ndarray | None = None
        self.training_error: float | None = None

    def train(
        self,
        ctx: PlanContext,
        runner: ExperimentRunner,
        *,
        num_random_nets: int = 12,
        seed: int = 2023,
    ) -> None:
        """Fit on random-network pairs simulated under +DWT.

        Every unordered pair of the generated networks contributes two
        ordered samples (each side's observed slowdown).
        """
        networks = [
            random_network(seed + index, name=f"rand{seed + index}")
            for index in range(num_random_nets)
        ]
        profiles = profile_workloads(ctx, runner, networks)
        pairs = [
            (left.name, right.name)
            for i, left in enumerate(networks)
            for right in networks[i:]
        ]
        mixes = run_all(runner, [ctx.mix(pair, SharingLevel.DWT) for pair in pairs])
        rows: list[list[float]] = []
        targets: list[float] = []
        for pair, results in zip(pairs, mixes):
            for name, result in zip(pair, results):
                other = pair[1] if name == pair[0] else pair[0]
                observed = result["cycles"] / profiles[name].ideal_cycles
                rows.append(_features(profiles[name], profiles[other]))
                targets.append(observed)
        matrix = np.asarray(rows)
        vector = np.asarray(targets)
        weights, *_ = np.linalg.lstsq(matrix, vector, rcond=None)
        self._weights = weights
        predictions = matrix @ weights
        self.training_error = float(
            np.sqrt(np.mean((predictions - vector) ** 2))
        )

    def predict(self, a: WorkloadProfile, b: WorkloadProfile) -> float:
        """Predicted slowdown of ``a`` when co-running with ``b``."""
        if self._weights is None:
            raise RuntimeError("call train() first")
        value = float(np.dot(self._weights, _features(a, b)))
        return max(1.0, value)  # co-runners cannot speed a workload up
