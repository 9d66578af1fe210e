"""Workload mapping onto multiple multi-core NPUs (paper section 4.6).

Figures 17 and 18 plan and reduce the study through
:data:`repro.experiments.figures.FIGURES`; this package holds its math.
"""

from repro.mapping.predictor import SlowdownPredictor, WorkloadProfile
from repro.mapping.mapper import MappingStudy, pairings, policy_cdfs

__all__ = [
    "SlowdownPredictor",
    "WorkloadProfile",
    "MappingStudy",
    "pairings",
    "policy_cdfs",
]
