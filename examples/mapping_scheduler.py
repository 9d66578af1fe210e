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
from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import PlanContext
from repro.mapping import MappingStudy, pairings
from repro.models import zoo


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "workloads", nargs="*",
        default=["res", "yt", "alex", "sfrnn", "ds2", "dlrm", "ncf", "gpt2"],
        choices=zoo.NAMES,
    )
    args = parser.parse_args()
    if len(args.workloads) != 8:
        parser.error("exactly eight workloads required (four dual-core chips)")

    print("building the mapping study (simulating pairs + training the "
          "predictor; cached after the first run)...")
    runner = ExperimentRunner()
    study = MappingStudy(PlanContext(), runner)
    print(f"predictor RMS training error: {study.predictor.training_error:.3f}\n")

    outcome = study.evaluate_set(tuple(args.workloads))
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
