"""Clock-domain translation between NPU cores and the global DRAM clock.

mNPUsim handles heterogeneous core frequencies by defining a global clock
(the DRAM clock) plus per-core local clocks; shared-resource requests are
synchronized to the global clock, and latencies are translated back into
local cycles where needed (section 3.1).  :class:`ClockDomain` performs
those conversions with exact integer arithmetic, rounding *up* when a
local-duration lands between global ticks (a request cannot complete
early because of a clock boundary).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClockDomain:
    """A local clock of ``local_mhz`` against a global clock of ``global_mhz``."""

    local_mhz: int
    global_mhz: int

    def __post_init__(self) -> None:
        if self.local_mhz <= 0 or self.global_mhz <= 0:
            raise ValueError("clock frequencies must be positive")

    def to_global(self, local_cycles: int) -> int:
        """Global ticks spanning at least ``local_cycles`` local cycles."""
        if local_cycles < 0:
            raise ValueError("cycle counts cannot be negative")
        return -(-local_cycles * self.global_mhz // self.local_mhz)

    def to_local(self, global_ticks: int) -> int:
        """Local cycles spanning at least ``global_ticks`` global ticks."""
        if global_ticks < 0:
            raise ValueError("tick counts cannot be negative")
        return -(-global_ticks * self.local_mhz // self.global_mhz)
