"""CounterRegistry semantics: registration, histograms, snapshot."""

from __future__ import annotations

import json

import pytest

from repro.obs import COUNTERS_SCHEMA, CounterRegistry, Histogram, format_tree


class TestRegistration:
    def test_owned_counter_increments(self):
        registry = CounterRegistry()
        counter = registry.counter("dram.ch0.reads")
        counter.inc()
        counter.inc(41)
        assert registry.value("dram.ch0.reads") == 42

    def test_owned_gauge_holds_level(self):
        registry = CounterRegistry()
        gauge = registry.gauge("ptw.queue_depth")
        gauge.set(7)
        assert registry.value("ptw.queue_depth") == 7

    def test_bound_counter_reads_external_state(self):
        registry = CounterRegistry()
        state = {"hits": 0}
        registry.bind_counter("mmu.core0.tlb.hits", lambda: state["hits"])
        state["hits"] = 13
        assert registry.value("mmu.core0.tlb.hits") == 13

    def test_bind_many_prefixes_paths(self):
        registry = CounterRegistry()
        registry.bind_many("dram.ch1", {"reads": lambda: 1, "writes": lambda: 2})
        assert registry.value("dram.ch1.reads") == 1
        assert registry.value("dram.ch1.writes") == 2
        with pytest.raises(ValueError):
            registry.bind_many("x", {"y": lambda: 0}, kind="histogram")

    def test_duplicate_path_rejected(self):
        registry = CounterRegistry()
        registry.counter("a.b")
        with pytest.raises(ValueError, match="already registered"):
            registry.bind_counter("a.b", lambda: 0)

    @pytest.mark.parametrize("path", ["", ".", "a..b", "a b", "a/b", ".a"])
    def test_invalid_paths_rejected(self, path):
        with pytest.raises(ValueError):
            CounterRegistry().counter(path)

    def test_paths_sorted_and_introspection(self):
        registry = CounterRegistry()
        registry.counter("z.last")
        registry.gauge("a.first")
        assert registry.paths() == ["a.first", "z.last"]
        assert "z.last" in registry
        assert "missing" not in registry
        assert len(registry) == 2


class TestHistogram:
    def test_bucket_placement_and_overflow(self):
        histogram = Histogram(bounds=(10, 100))
        for value in (5, 10, 50, 1000):
            histogram.record(value)
        read = histogram.read()
        assert read["count"] == 4
        assert read["sum"] == 1065
        assert read["buckets"] == [[10, 2], [100, 1], ["inf", 1]]

    def test_bounds_must_be_sorted_distinct(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(10, 10))
        with pytest.raises(ValueError):
            Histogram(bounds=(100, 10))
        with pytest.raises(ValueError):
            Histogram(bounds=())


class TestSnapshot:
    def test_schema_and_sorted_paths(self):
        registry = CounterRegistry()
        registry.counter("b.count").inc(2)
        registry.gauge("a.level").set(1.5)
        registry.histogram("c.dist", bounds=(10,)).record(4)
        snap = registry.snapshot()
        assert snap["schema"] == COUNTERS_SCHEMA
        assert list(snap["metrics"]) == ["a.level", "b.count", "c.dist"]
        assert snap["metrics"]["b.count"] == {"kind": "counter", "value": 2}
        assert snap["metrics"]["a.level"] == {"kind": "gauge", "value": 1.5}
        assert snap["metrics"]["c.dist"]["kind"] == "histogram"

    def test_snapshot_serializes_byte_identically(self):
        def build() -> CounterRegistry:
            registry = CounterRegistry()
            registry.counter("x.n").inc(3)
            registry.histogram("y.h").record(12)
            return registry

        a = json.dumps(build().snapshot(), sort_keys=True)
        b = json.dumps(build().snapshot(), sort_keys=True)
        assert a == b


class TestFormatTree:
    def test_renders_indented_hierarchy(self):
        registry = CounterRegistry()
        registry.counter("dram.ch0.row_hits").inc(42)
        registry.histogram("dram.latency", bounds=(10,)).record(4)
        text = format_tree(registry.snapshot())
        lines = text.splitlines()
        assert lines[0] == "dram"
        assert any(line.startswith("  ch0") for line in lines)
        assert any("row_hits" in line and "42" in line for line in lines)
        assert any("count=1 mean=4.0" in line for line in lines)

    def test_max_depth_truncates(self):
        registry = CounterRegistry()
        registry.counter("a.b.c").inc(1)
        registry.counter("top").inc(2)
        text = format_tree(registry.snapshot(), max_depth=1)
        assert "top" in text
        assert "c" not in text.replace("top", "")
