"""Zero-overhead-when-off guarantees for the observability layer.

Two kinds of pin: *structural* proofs that the default (``observe``
off) path never constructs or touches an observability object, and a
wall-time guard asserting that having used observability in a process
does not slow its later non-observed runs by more than 2% — the registry is
pull-based and the timeline per-instance, so any cross-run slowdown
would mean state leaked into the hot path.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.simulator import MultiCoreNPUSim
from repro.experiments.spec import RunSpec
from repro.models import zoo

SPEC = RunSpec.solo("ncf", scale="mini")
MAX_TICKS = 50_000_000_000
SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def run_once(observe: bool = False):
    networks = [zoo.get(name, SPEC.scale) for name in SPEC.workloads]
    sim = MultiCoreNPUSim(SPEC.system(), networks, observe=observe)
    return sim, sim.run(max_ticks=MAX_TICKS)


class TestStructuralZeroOverhead:
    def test_default_runs_hold_no_observability_objects(self):
        sim, result = run_once(observe=False)
        assert sim.registry is None
        assert sim.timeline is None
        assert result.counters is None
        for core in sim.cores.values():
            assert core._timeline is None

    def test_default_construction_never_touches_obs_classes(self, monkeypatch):
        """If the default path so much as constructs a registry or
        tracer, these poisoned constructors blow up the run."""
        import repro.core.simulator as simulator_mod

        def boom(*args, **kwargs):
            raise AssertionError("observability object built with observe=False")

        monkeypatch.setattr(simulator_mod, "CounterRegistry", boom)
        monkeypatch.setattr(simulator_mod, "TimelineTracer", boom)
        _, result = run_once(observe=False)
        assert result.workloads[0].cycles > 0

    def test_observe_on_changes_no_metric(self):
        """The cheap in-suite equivalence check (the byte-level pin lives
        in the golden suite): identical workload metrics on/off."""
        _, off = run_once(observe=False)
        _, on = run_once(observe=True)
        assert off.total_ticks == on.total_ticks
        for a, b in zip(off.workloads, on.workloads):
            assert (a.cycles, a.traffic_bytes, a.walks, a.tlb_misses) == (
                b.cycles, b.traffic_bytes, b.walks, b.tlb_misses
            )


#: One round of the wall-time guard, in a fresh interpreter: warm up,
#: then fork pairs of children that differ only in whether they have
#: used observability, and time one unobserved run in each, alternately.
#: Forked children share their parent's heap layout, and adjacent runs
#: share the host's load, so each ratio compares like with like.  Prints
#: the ratios (used / unused - 1) as JSON.
_ROUND = r"""
import json, os, sys, time
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from repro.core.simulator import MultiCoreNPUSim
from repro.experiments.spec import RunSpec
from repro.models import zoo

SPEC = RunSpec.solo("ncf", scale="mini")
PAIRS, RUNS = 6, 10


def run(observe):
    networks = [zoo.get(name, SPEC.scale) for name in SPEC.workloads]
    MultiCoreNPUSim(SPEC.system(), networks, observe=observe).run(
        max_ticks=int(sys.argv[1])
    )


def fork_timer(observe):
    # The child runs once (observed or not), then times one unobserved
    # run for each byte it reads from ``go``.
    go_read, go_write = os.pipe()
    out_read, out_write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(go_write)
        os.close(out_read)
        try:
            run(observe)
            os.write(out_write, b"ready\n")
            while os.read(go_read, 1):
                start = time.perf_counter()
                run(False)
                os.write(out_write, b"%r\n" % (time.perf_counter() - start))
        except BaseException:
            import traceback
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    os.close(go_read)
    os.close(out_write)
    out = os.fdopen(out_read)
    assert out.readline() == "ready\n", "timer child failed"
    return pid, go_write, out


def timed(timer):
    os.write(timer[1], b"x")
    return float(timer[2].readline())


run(False)  # warm imports, zoo caches, trace memo
ratios = []
for pair in range(PAIRS):
    sides = (False, True) if pair % 2 == 0 else (True, False)
    timers = {used: fork_timer(used) for used in sides}
    for index in range(RUNS):
        order = sides if index % 2 == 0 else sides[::-1]
        seconds = {used: timed(timers[used]) for used in order}
        ratios.append(seconds[True] / seconds[False] - 1)
    for _, go_write, _ in timers.values():
        os.close(go_write)
    # A later child holds the earlier one's pipe ends: reap it first.
    for pid, _, out in reversed(list(timers.values())):
        os.waitpid(pid, 0)
        out.close()
print(json.dumps(ratios))
"""


@pytest.mark.benchmark
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_observability_off_wall_time_within_2_percent():
    """Using observability once must not slow later non-observed runs.

    Each round is a fresh interpreter (see ``_ROUND``) whose statistic is
    the median of 60 paired ratios; a couple of retry rounds keep one
    noisy round from flaking CI.
    """
    medians = []
    for _ in range(3):
        completed = subprocess.run(
            [sys.executable, "-c", _ROUND, str(MAX_TICKS)],
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        ratios = json.loads(completed.stdout.strip().splitlines()[-1])
        medians.append(statistics.median(ratios))
        if medians[-1] < 0.02:
            return
    pytest.fail(
        f"observe=False runs slowed by {min(medians):.1%} after using "
        f"observability (>{0.02:.0%} in all rounds: {medians})"
    )
