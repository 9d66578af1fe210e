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
from typing import Mapping, Sequence

import numpy as np

from repro.compute.requestgen import RequestGenerator
from repro.config import presets
from repro.models import random_net, zoo


@dataclass(frozen=True)
class WorkloadProfile:
    """Profiled features of one workload (no co-runner knowledge)."""

    name: str
    pe_utilization: float      #: MACs per array-MAC-slot, memory-ideal
    traffic_per_cycle: float   #: bytes of DRAM traffic per ideal cycle
    ideal_cycles: float        #: profiled solo latency (Ideal resources)


def profile_workload(name: str, scale: str, ideal_cycles: int) -> WorkloadProfile:
    """Profile a zoo or seed-named random network from its Ideal latency.

    The request generator's pre-run statistics give the utilization and
    traffic; the simulated Ideal run gives the latency.
    """
    network = random_net.by_name(name) or zoo.get(name, scale)
    summary = RequestGenerator(network, presets.cloud_arch(scale)).summary()
    return WorkloadProfile(
        name=name,
        pe_utilization=summary["pe_utilization"],
        traffic_per_cycle=summary["traffic_bytes"] / max(1.0, ideal_cycles),
        ideal_cycles=float(ideal_cycles),
    )


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

    def fit(
        self,
        profiles: Mapping[str, WorkloadProfile],
        pair_cycles: Mapping[tuple[str, str], Sequence[int]],
    ) -> None:
        """Fit on co-run pairs (of random networks, simulated under +DWT).

        Every pair contributes two ordered samples: each side's observed
        slowdown over its profiled Ideal latency, beside the other.
        """
        rows: list[list[float]] = []
        targets: list[float] = []
        for pair, cycles in pair_cycles.items():
            for name, observed in zip(pair, cycles):
                other = pair[1] if name == pair[0] else pair[0]
                rows.append(_features(profiles[name], profiles[other]))
                targets.append(observed / profiles[name].ideal_cycles)
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
            raise RuntimeError("call fit() first")
        value = float(np.dot(self._weights, _features(a, b)))
        return max(1.0, value)  # co-runners cannot speed a workload up
