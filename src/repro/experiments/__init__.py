"""Experiment harness regenerating every table and figure of the paper."""

from repro.experiments.mixes import all_mixes, mix_label, mixes_for
from repro.experiments.runner import ExperimentRunner, RunProgress
from repro.experiments.spec import PlanContext, RunSpec
from repro.experiments import figures
from repro.experiments.report import format_table

__all__ = [
    "all_mixes",
    "mix_label",
    "mixes_for",
    "ExperimentRunner",
    "PlanContext",
    "RunProgress",
    "RunSpec",
    "figures",
    "format_table",
]
