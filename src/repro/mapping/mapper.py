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

from itertools import combinations
from typing import Any, Iterator, Mapping, Sequence

from repro.core.metrics import cdf_points, fairness, geomean
from repro.mapping.predictor import SlowdownPredictor, profile_workload


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
    """Simulated pair outcomes + a fitted predictor, evaluated over 8-sets.

    ``ideal_cycles`` maps ``(scale, network)`` to its dual-pool Ideal
    latency and ``pair_cycles`` each co-run pair (+DWT) to its per-side
    cycles.  Pairs of two ``training`` networks fit the predictor; every
    other pair is an outcome the mappings are scored on.  A pair whose
    Ideal baselines are missing is left out.
    """

    def __init__(
        self,
        ideal_cycles: Mapping[tuple[str, str], int],
        pair_cycles: Mapping[tuple[str, str], Sequence[int]],
        training: Sequence[str],
    ) -> None:
        self.profiles = {
            name: profile_workload(name, scale, cycles)
            for (scale, name), cycles in ideal_cycles.items()
        }
        # Simulated slowdown of each workload within each type pair.
        self.pair_slowdowns: dict[tuple[str, str], tuple[float, float]] = {}
        samples = {}
        training = set(training)
        for pair, cycles in pair_cycles.items():
            if not all(name in self.profiles for name in pair):
                continue
            if training.issuperset(pair):
                samples[pair] = cycles
            else:
                self.pair_slowdowns[pair] = tuple(
                    observed / self.profiles[name].ideal_cycles
                    for name, observed in zip(pair, cycles)
                )
        self.predictor = SlowdownPredictor()
        if samples:
            self.predictor.fit(self.profiles, samples)
        # Predicted slowdown per ordered (workload, co-runner) pair: a
        # set's pairings share their pairs, and so do the sets.
        self._predicted: dict[tuple[str, str], float] = {}

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

    def predicted_slowdown(self, workload: str, corunner: str) -> float:
        """The predictor's slowdown of ``workload`` next to ``corunner``,
        computed once per ordered pair."""
        key = (workload, corunner)
        slowdown = self._predicted.get(key)
        if slowdown is None:
            slowdown = self._predicted[key] = self.predictor.predict(
                self.profiles[workload], self.profiles[corunner]
            )
        return slowdown

    def predicted_slowdowns(
        self, pairing: Sequence[tuple[str, str]]
    ) -> list[float]:
        """Predicted slowdowns of all eight workloads under a pairing."""
        slowdowns = []
        for a, b in pairing:
            slowdowns.append(self.predicted_slowdown(a, b))
            slowdowns.append(self.predicted_slowdown(b, a))
        return slowdowns

    # ------------------------------------------------------------------ #

    def evaluate_set(self, workloads: Sequence[str]) -> dict[str, Any]:
        """Evaluate all mapping policies on one eight-workload set.

        The model policy picks one pairing per metric, each by the
        predicted value of that metric: the best predicted geomean
        speedup for ``model_perf`` and the best predicted fairness for
        ``model_fairness`` (ties go to the first pairing).  Scoring the
        fairness pick by predicted speedup would report the fairness of
        a placement chosen for something else.
        """
        options = pairings(workloads)
        perf = []
        fair = []
        predicted_perf = []
        predicted_fair = []
        for pairing in options:
            slowdowns = self.simulated_slowdowns(pairing)
            perf.append(geomean([1.0 / value for value in slowdowns]))
            fair.append(fairness(slowdowns))
            predicted = self.predicted_slowdowns(pairing)
            predicted_perf.append(geomean([1.0 / value for value in predicted]))
            predicted_fair.append(fairness(predicted))
        model_index = max(range(len(options)), key=predicted_perf.__getitem__)
        fair_index = max(range(len(options)), key=predicted_fair.__getitem__)
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
            "model_fairness": fair[fair_index],
            "model_pairing": options[model_index],
        }

    def evaluate_all(
        self, sets: Sequence[tuple[str, ...]]
    ) -> list[dict[str, Any]]:
        """Evaluate each eight-workload set whose pair outcomes all ran.

        A set that needs a missing pair outcome, or any set when the
        predictor has no training pair, is a missing data point.
        """
        fitted = self.predictor.training_error is not None
        return [
            self.evaluate_set(workloads)
            for workloads in sets
            if fitted
            and all(
                self._pair_key(a, b) in self.pair_slowdowns
                for a, b in combinations(workloads, 2)
            )
        ]


def policy_cdfs(
    evaluations: list[dict[str, Any]], metric: str
) -> dict[str, Any]:
    """Each policy's ``metric`` over the sets, normalized to random."""
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
        "model_improved_fraction": (
            improved / len(evaluations) if evaluations else None
        ),
        "normalized": normalized,
    }

