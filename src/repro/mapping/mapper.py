"""Co-runner mapping over four dual-core NPUs (paper section 4.6.2).

Given a set of eight workloads, a *mapping* partitions them into four
pairs, one per dual-core chip.  The paper evaluates all M(8,8) = 6435
eight-workload multisets, comparing four selection policies per set:

* **oracle** — the pairing with the best simulated outcome,
* **worst**  — the pairing with the worst simulated outcome,
* **random** — the expected outcome over all pairings (no mapping),
* **model**  — the pairing chosen by the slowdown predictor.

Chips are independent (no inter-chip shared resources), so the outcome
of a mapping is composed from the simulated dual-core results of its
pairs — the same 36 type-pair co-simulations that back Figure 4.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.core.metrics import cdf_points, fairness, geomean
from repro.core.sharing import SharingLevel
from repro.experiments.mixes import all_mixes
from repro.experiments.spec import PlanContext
from repro.mapping.predictor import (
    SlowdownPredictor,
    WorkloadProfile,
    profile_workloads,
    run_all,
)
from repro.models import zoo

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentRunner


def pairings(items: Sequence[str]) -> list[tuple[tuple[str, str], ...]]:
    """All distinct ways to split ``items`` into unordered pairs.

    Repeated workload types make many pairings coincide; duplicates are
    removed (8 distinct items give 105 pairings, fewer with repeats).
    """
    if len(items) % 2:
        raise ValueError("need an even number of workloads")
    seen: set[tuple[tuple[str, str], ...]] = set()
    result = []
    for pairing in _enumerate_pairings(tuple(sorted(items))):
        canonical = tuple(sorted(pairing))
        if canonical not in seen:
            seen.add(canonical)
            result.append(canonical)
    return result


def _enumerate_pairings(
    items: tuple[str, ...]
) -> Iterator[tuple[tuple[str, str], ...]]:
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    used: set[str] = set()
    for index, partner in enumerate(rest):
        if partner in used:
            continue  # pairing with an identical partner repeats
        used.add(partner)
        pair = (first, partner) if first <= partner else (partner, first)
        remaining = rest[:index] + rest[index + 1 :]
        for tail in _enumerate_pairings(remaining):
            yield (pair,) + tail


class MappingStudy:
    """Precomputed pair outcomes + predictor, evaluated over 8-sets.

    ``ctx`` plans every run the study needs; ``runner`` executes them.
    """

    def __init__(
        self,
        ctx: PlanContext,
        runner: ExperimentRunner,
        *,
        train_predictor: bool = True,
    ) -> None:
        self.runner = runner
        self.profiles: dict[str, WorkloadProfile] = profile_workloads(
            ctx, runner, [zoo.get(name, ctx.scale) for name in zoo.NAMES]
        )
        # Simulated slowdown of each workload within each type pair.
        self.pair_slowdowns: dict[tuple[str, str], tuple[float, float]] = {}
        mixes = all_mixes(2)
        batch = run_all(runner, [ctx.mix(mix, SharingLevel.DWT) for mix in mixes])
        for mix, results in zip(mixes, batch):
            self.pair_slowdowns[mix] = tuple(
                result["cycles"] / self.profiles[name].ideal_cycles
                for name, result in zip(mix, results)
            )
        self.predictor = SlowdownPredictor()
        if train_predictor:
            self.predictor.train(ctx, runner)

    # ------------------------------------------------------------------ #

    def _pair_key(self, a: str, b: str) -> tuple[str, str]:
        return (a, b) if (a, b) in self.pair_slowdowns else (b, a)

    def simulated_slowdowns(
        self, pairing: Sequence[tuple[str, str]]
    ) -> list[float]:
        """Observed slowdowns of all eight workloads under a pairing."""
        values = []
        for a, b in pairing:
            key = self._pair_key(a, b)
            left, right = self.pair_slowdowns[key]
            if key == (a, b):
                values.extend([left, right])
            else:
                values.extend([right, left])
        return values

    def predicted_score(self, pairing: Sequence[tuple[str, str]]) -> float:
        """Predicted geomean speedup (inverse slowdown) of a pairing."""
        slowdowns = []
        for a, b in pairing:
            slowdowns.append(
                self.predictor.predict(self.profiles[a], self.profiles[b])
            )
            slowdowns.append(
                self.predictor.predict(self.profiles[b], self.profiles[a])
            )
        return geomean([1.0 / value for value in slowdowns])

    # ------------------------------------------------------------------ #

    def evaluate_set(self, workloads: Sequence[str]) -> dict[str, Any]:
        """Evaluate all mapping policies on one eight-workload set."""
        options = pairings(workloads)
        perf = []
        fair = []
        for pairing in options:
            slowdowns = self.simulated_slowdowns(pairing)
            perf.append(geomean([1.0 / value for value in slowdowns]))
            fair.append(fairness(slowdowns))
        model_index = max(
            range(len(options)), key=lambda i: self.predicted_score(options[i])
        )
        random_perf = sum(perf) / len(perf)
        random_fair = sum(fair) / len(fair)
        return {
            "pairings": len(options),
            "oracle_perf": max(perf),
            "worst_perf": min(perf),
            "random_perf": random_perf,
            "model_perf": perf[model_index],
            "oracle_fairness": max(fair),
            "worst_fairness": min(fair),
            "random_fairness": random_fair,
            "model_fairness": fair[model_index],
            "model_pairing": options[model_index],
        }

    def evaluate_all(
        self, sets: Sequence[tuple[str, ...]] | None = None
    ) -> list[dict[str, Any]]:
        """Evaluate every M(8,8) eight-workload multiset (or a subset)."""
        sets = list(sets) if sets is not None else all_mixes(8)
        return [self.evaluate_set(workloads) for workloads in sets]


def _policy_cdfs(
    evaluations: list[dict[str, Any]], metric: str
) -> dict[str, Any]:
    policies = ("model", "oracle", "worst", "random")
    normalized: dict[str, list[float]] = {policy: [] for policy in policies}
    improved = 0
    for row in evaluations:
        baseline = row[f"random_{metric}"]
        for policy in policies:
            normalized[policy].append(row[f"{policy}_{metric}"] / baseline)
        if row[f"model_{metric}"] > baseline:
            improved += 1
    return {
        "cdf": {policy: cdf_points(values) for policy, values in normalized.items()},
        "model_improved_fraction": improved / len(evaluations),
        "normalized": normalized,
    }


def fig17_mapping_performance(
    study: MappingStudy, sets: Sequence[tuple[str, ...]] | None = None
) -> dict[str, Any]:
    """Figure 17: CDF of mapping performance, normalized to no-mapping."""
    evaluations = study.evaluate_all(sets)
    return {"metric": "perf", **_policy_cdfs(evaluations, "perf")}


def fig18_mapping_fairness(
    study: MappingStudy, sets: Sequence[tuple[str, ...]] | None = None
) -> dict[str, Any]:
    """Figure 18: CDF of mapping fairness, normalized to no-mapping."""
    evaluations = study.evaluate_all(sets)
    return {"metric": "fairness", **_policy_cdfs(evaluations, "fairness")}
