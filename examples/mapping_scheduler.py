"""Contention-aware workload mapping across multiple dual-core NPUs.

Section 4.6's scenario: a cluster scheduler must place eight inference
workloads onto four dual-core NPU chips.  Which workloads should share a
chip?  This example trains the paper's regression predictor on random
networks, scores every pairing of a workload set, and compares the
model's choice with the oracle, the worst case, and random placement.

Usage::

    python examples/mapping_scheduler.py [w1 ... w8]

Note: the first invocation simulates the 36 benchmark pairs and the
predictor's random-network training set (a few minutes); results are
cached in ``.repro_cache`` so later runs are instant.
"""

import argparse

from repro.core.metrics import geomean
from repro.experiments import figures
from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import PlanContext
from repro.models import zoo


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    # No ``choices``: argparse checks a ``nargs="*"`` default against
    # them as one value, so a run without arguments would be refused.
    parser.add_argument(
        "workloads", nargs="*", metavar="workload",
        help=f"eight of {', '.join(zoo.NAMES)} (default: one of each)",
    )
    args = parser.parse_args()
    args.workloads = args.workloads or list(zoo.NAMES)
    unknown = sorted(set(args.workloads) - set(zoo.NAMES))
    if unknown:
        parser.error(f"unknown workloads {unknown}; pick from {zoo.NAMES}")
    if len(args.workloads) != 8:
        parser.error("exactly eight workloads required (four dual-core chips)")

    print("building the mapping study (simulating pairs + training the "
          "predictor; cached after the first run)...")
    workloads = tuple(args.workloads)
    # Figures 17/18's plan is the whole study; one batch runs it.
    plan = figures.mapping_specs(PlanContext(), [workloads])
    by_spec = ExperimentRunner().run_many(plan.values())
    study = figures.mapping_study(
        {role: by_spec[spec.resolve()] for role, spec in plan.items()}
    )
    print(f"predictor RMS training error: {study.predictor.training_error:.3f}\n")

    outcome = study.evaluate_set(workloads)
    print(f"workload set : {'+'.join(args.workloads)}")
    print(f"pairings     : {outcome['pairings']} distinct\n")
    for policy in ("oracle", "model", "random", "worst"):
        print(
            f"{policy:7s} geomean speedup vs Ideal: "
            f"{outcome[f'{policy}_perf']:.3f}   "
            f"fairness: {outcome[f'{policy}_fairness']:.3f}"
        )

    print("\nmodel-selected placement:")
    for chip, (a, b) in enumerate(outcome["model_pairing"]):
        slowdowns = study.simulated_slowdowns([(a, b)])
        print(f"  chip {chip}: {a:6s} + {b:6s} "
              f"(geomean speedup {geomean([1/s for s in slowdowns]):.3f})")


if __name__ == "__main__":
    main()
