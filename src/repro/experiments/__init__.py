"""Experiment harness regenerating every table and figure of the paper."""

from repro._lazy import lazy_exports

# Re-exports load on first use: a spec needs neither the runner nor the
# figures, and with them the simulator.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.experiments.mixes": ("all_mixes", "mix_label", "mixes_for"),
    "repro.experiments.runner": ("ExperimentRunner", "RunProgress"),
    "repro.experiments.spec": ("PlanContext", "RunSpec"),
    "repro.experiments.figures": ("figures",),
    "repro.experiments.report": ("format_table",),
})

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
