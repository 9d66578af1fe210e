"""Execution-mode configuration (mNPUsim ``misc_config``).

Controls when each core starts, how many iterations of its workload it
runs, and the shared-PTW partition bounds (the artifact's "upper and lower
bound of available PTWs per core").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MiscConfig:
    """Run-mode knobs shared by every core in a simulation.

    Attributes:
        start_cycle: Global cycle at which cores begin issuing work.
        start_stagger_cycles: Additional per-core launch offset: core *i*
            starts at ``start_cycle + i * start_stagger_cycles`` (the
            artifact's per-core "execution initiation time").  A small
            stagger breaks the artificial phase lock of identical
            workloads launched in the same tick — real deployments never
            start two inferences on the exact same cycle.
        iterations: Iterations of each workload to run.  ``0`` means
            "loop until every co-runner finishes its first iteration" —
            the methodology used for the paper's mix experiments, which
            keeps contention present for slower co-runners while the
            reported cycle count is each workload's first completion.
        ptw_lower_bound: Minimum walkers a core may hold when the walker
            pool is shared (0 = no reservation).
        ptw_upper_bound: Maximum walkers a core may hold concurrently
            when shared (0 = no cap, i.e. fully dynamic FCFS).
        trace_window_cycles: Aggregation window for bandwidth traces.
    """

    start_cycle: int = 0
    start_stagger_cycles: int = 0
    iterations: int = 0
    ptw_lower_bound: int = 0
    ptw_upper_bound: int = 0
    trace_window_cycles: int = 1000

    def __post_init__(self) -> None:
        if self.start_cycle < 0:
            raise ValueError("start cycle cannot be negative")
        if self.start_stagger_cycles < 0:
            raise ValueError("start stagger cannot be negative")
        if self.iterations < 0:
            raise ValueError("iterations cannot be negative")
        if self.ptw_lower_bound < 0 or self.ptw_upper_bound < 0:
            raise ValueError("PTW partition bounds cannot be negative")
        if self.ptw_upper_bound and self.ptw_upper_bound < self.ptw_lower_bound:
            raise ValueError("PTW upper bound must be >= lower bound")
        if self.trace_window_cycles <= 0:
            raise ValueError("trace window must be positive")
