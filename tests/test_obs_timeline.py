"""Timeline tracer: ring buffers, span recording, Perfetto export schema.

The export checks validate against the Chrome trace-event JSON format
(the "JSON Object Format" Perfetto opens directly): every event needs a
``ph`` phase type, "X" complete events need ``ts`` + ``dur``, instants
carry a scope, and metadata events name processes and threads.
"""

from __future__ import annotations

import json

import pytest

from repro.core.simulator import MultiCoreNPUSim
from repro.experiments.spec import RunSpec
from repro.models import zoo
from repro.obs import CounterRegistry, RingBuffer, TimelineTracer


class TestRingBuffer:
    def test_keeps_newest_and_counts_drops(self):
        ring: RingBuffer[int] = RingBuffer(capacity=3)
        for value in range(5):
            ring.append(value)
        assert list(ring) == [2, 3, 4]
        assert len(ring) == 3
        assert ring.pushed == 5
        assert ring.dropped == 2
        assert bool(ring)

    def test_empty_and_invalid_capacity(self):
        assert not RingBuffer(capacity=1)
        with pytest.raises(ValueError):
            RingBuffer(capacity=0)
        with pytest.raises(ValueError):
            RingBuffer(capacity=-1)

    def test_unbounded_keeps_everything(self):
        ring: RingBuffer[int] = RingBuffer(None)
        for value in range(5):
            ring.append(value)
        assert list(ring) == [0, 1, 2, 3, 4]
        assert ring.pushed == 5
        assert ring.dropped == 0


def validate_chrome_trace(trace: dict) -> None:
    """Assert ``trace`` is well-formed Chrome trace-event JSON."""
    assert isinstance(trace["traceEvents"], list)
    named_threads: set[tuple[int, int]] = set()
    named_processes: set[int] = set()
    used: set[tuple[int, int]] = set()
    for event in trace["traceEvents"]:
        assert isinstance(event["name"], str) and event["name"]
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        phase = event["ph"]
        assert phase in ("X", "i", "M")
        if phase == "X":
            assert isinstance(event["ts"], int) and event["ts"] >= 0
            assert isinstance(event["dur"], int) and event["dur"] >= 0
            used.add((event["pid"], event["tid"]))
        elif phase == "i":
            assert event["s"] in ("t", "p", "g")
            assert isinstance(event["ts"], int)
            used.add((event["pid"], event["tid"]))
        else:
            assert event["name"] in ("process_name", "thread_name")
            assert isinstance(event["args"]["name"], str)
            if event["name"] == "process_name":
                named_processes.add(event["pid"])
            else:
                named_threads.add((event["pid"], event["tid"]))
    assert used <= named_threads, "every used (pid, tid) must be thread-named"
    assert {pid for pid, _ in used} <= named_processes


class TestTimelineTracer:
    def make_traced(self) -> TimelineTracer:
        tracer = TimelineTracer()
        tracer.log_dram(10, 20, 0x1000, core=0, channel=0, write=False, is_walk=False)
        tracer.log_dram(15, 30, 0x2000, core=1, channel=1, write=True, is_walk=True)
        tracer.log_tlb(12, core=0, vpn=0x7, outcome="miss")
        tracer.log_ptw(12, 14, 40, core=0, vpn=0x7, dram_reads=4)
        tracer.log_tile(0, 25, core=0, layer_index=0, phase="load")
        tracer.log_tile(25, 50, core=0, layer_index=0, phase="compute")
        tracer.log_layer(0, 50, core=0, layer_index=0, name="fc1")
        return tracer

    def test_spans_land_in_their_rings(self):
        tracer = self.make_traced()
        assert len(tracer.dram) == 2
        assert len(tracer.tlb) == 1
        assert len(tracer.ptw) == 1
        assert len(tracer.tiles) == 2
        assert len(tracer.layers) == 1
        assert tracer.total_spans() == 7
        assert tracer.total_dropped() == 0

    def test_registry_receives_latency_histograms(self):
        registry = CounterRegistry()
        tracer = TimelineTracer(registry=registry)
        tracer.log_dram(0, 10, 0, core=0, channel=0, write=False, is_walk=False)
        tracer.log_ptw(0, 5, 100, core=0, vpn=0, dram_reads=2)
        assert registry.value("timeline.dram.latency_ticks")["count"] == 1
        assert registry.value("timeline.dram.latency_ticks")["sum"] == 10
        assert registry.value("timeline.ptw.walk_ticks")["sum"] == 100
        assert registry.value("timeline.spans.dropped") == 0

    def test_chrome_trace_is_schema_valid(self):
        trace = self.make_traced().chrome_trace()
        validate_chrome_trace(trace)
        categories = {event.get("cat") for event in trace["traceEvents"]}
        assert {"dram", "tlb", "ptw", "tile", "layer"} <= categories
        assert trace["otherData"]["dropped_spans"] == 0

    def test_drops_are_reported_in_export(self):
        tracer = TimelineTracer(capacity=1)
        tracer.log_tlb(1, core=0, vpn=1, outcome="hit")
        tracer.log_tlb(2, core=0, vpn=2, outcome="hit")
        assert tracer.total_dropped() == 1
        assert tracer.chrome_trace()["otherData"]["dropped_spans"] == 1

    def test_export_writes_loadable_json(self, tmp_path):
        target = self.make_traced().export(tmp_path / "nested" / "trace.json")
        validate_chrome_trace(json.loads(target.read_text()))


class TestEndToEnd:
    def test_observed_simulation_exports_full_taxonomy(self, tmp_path):
        spec = RunSpec.mix(("ncf", "dlrm"), "DWT", scale="mini")
        networks = [zoo.get(name, spec.scale) for name in spec.workloads]
        sim = MultiCoreNPUSim(spec.system(), networks, observe=True)
        sim.run(max_ticks=50_000_000_000)
        assert sim.timeline is not None
        trace = sim.timeline.chrome_trace()
        validate_chrome_trace(trace)
        categories = {event.get("cat") for event in trace["traceEvents"]}
        assert {"dram", "tlb", "ptw", "tile", "layer"} <= categories
        # Both cores' tile pipelines and the DRAM channels appear.
        pids = {event["pid"] for event in trace["traceEvents"]}
        assert {1, 2, 10, 11} <= pids
        target = sim.timeline.export(tmp_path / "trace.json")
        assert json.loads(target.read_text())["traceEvents"]
