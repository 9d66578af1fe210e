"""Hierarchical counter registry with a stable JSON snapshot schema.

The paper's analysis is *about* per-resource counters — DRAM bandwidth
shares, TLB hit rates, walker queue depths — so the reproduction gives
them a first-class home.  A :class:`CounterRegistry` is a flat map from
dotted component paths (``dram.ch0.row_hits``, ``mmu.core1.tlb.misses``,
``ptw.queue_depth``) to metrics of three kinds:

* **counter** — a monotonically increasing count;
* **gauge** — an instantaneous level (queue depth, current tick);
* **histogram** — a fixed-bucket distribution (walk latency).

Metrics come in two flavours.  *Owned* metrics (:class:`Counter`,
:class:`Gauge`, :class:`Histogram`) are allocated by the registry and
mutated by whoever holds them.  *Bound* metrics wrap a zero-argument
callable reading an existing hot-path stat field — this is how simulator
components register their scattered stats without adding a single
instruction to the simulation hot path: the registry only *reads* on
:meth:`CounterRegistry.snapshot`, never on the simulated fast path.

Snapshots follow a stable, self-describing JSON schema
(:data:`COUNTERS_SCHEMA`) so they can be attached to results, journaled
and diffed across runs without the registry that produced them.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

#: Version tag embedded in every snapshot.  Bump on layout changes.
COUNTERS_SCHEMA = "repro-obs-counters/1"

#: Default histogram bucket upper bounds (ticks): powers of four give a
#: compact latency profile from L1-ish to catastrophically-queued.
DEFAULT_BUCKETS = (4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144)


def _check_path(path: str) -> str:
    if not path or any(not part for part in path.split(".")):
        raise ValueError(f"invalid metric path {path!r}")
    for ch in path:
        if not (ch.isalnum() or ch in "._-"):
            raise ValueError(f"invalid character {ch!r} in metric path {path!r}")
    return path


class Counter:
    """A registry-owned monotonic counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1)."""
        self.value += amount

    def read(self) -> int:
        return self.value


class Gauge:
    """A registry-owned instantaneous level."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def read(self) -> float:
        return self.value


class Histogram:
    """A fixed-bucket histogram of non-negative samples.

    ``bounds`` are inclusive upper bucket edges; samples above the last
    edge land in the implicit overflow bucket.  Count and sum are kept so
    means survive snapshotting.
    """

    __slots__ = ("bounds", "buckets", "count", "total")

    def __init__(self, bounds: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        if not self.bounds or list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be sorted and distinct")
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0

    def record(self, value: float) -> None:
        """Account one sample."""
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def read(self) -> dict[str, Any]:
        """The histogram's snapshot value (see :data:`COUNTERS_SCHEMA`)."""
        return {
            "count": self.count,
            "sum": self.total,
            "buckets": [
                [bound, self.buckets[index]] for index, bound in enumerate(self.bounds)
            ]
            + [["inf", self.buckets[-1]]],
        }


class _Entry:
    __slots__ = ("kind", "read")

    def __init__(self, kind: str, read: Callable[[], Any]) -> None:
        self.kind = kind
        self.read = read


class CounterRegistry:
    """A hierarchy of named metrics addressed by dotted paths."""

    def __init__(self) -> None:
        self._entries: dict[str, _Entry] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def _add(self, path: str, entry: _Entry) -> None:
        path = _check_path(path)
        if path in self._entries:
            raise ValueError(f"metric path {path!r} already registered")
        self._entries[path] = entry

    def counter(self, path: str) -> Counter:
        """Allocate an owned counter at ``path``."""
        metric = Counter()
        self._add(path, _Entry("counter", metric.read))
        return metric

    def gauge(self, path: str) -> Gauge:
        """Allocate an owned gauge at ``path``."""
        metric = Gauge()
        self._add(path, _Entry("gauge", metric.read))
        return metric

    def histogram(
        self, path: str, bounds: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Allocate an owned histogram at ``path``."""
        metric = Histogram(bounds)
        self._add(path, _Entry("histogram", metric.read))
        return metric

    def bind_counter(self, path: str, read: Callable[[], Any]) -> None:
        """Register an existing hot-path count behind ``path``.

        ``read`` is only invoked at snapshot time, so binding adds zero
        cost to the simulation itself.
        """
        self._add(path, _Entry("counter", read))

    def bind_gauge(self, path: str, read: Callable[[], Any]) -> None:
        """Register an existing instantaneous level behind ``path``."""
        self._add(path, _Entry("gauge", read))

    def bind_many(
        self, prefix: str, reads: Mapping[str, Callable[[], Any]], kind: str = "counter"
    ) -> None:
        """Bind several metrics under one prefix (``prefix.name``)."""
        for name, read in reads.items():
            if kind == "counter":
                self.bind_counter(f"{prefix}.{name}", read)
            elif kind == "gauge":
                self.bind_gauge(f"{prefix}.{name}", read)
            else:
                raise ValueError(f"bind_many cannot bind kind {kind!r}")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def paths(self) -> list[str]:
        """Every registered metric path, sorted."""
        return sorted(self._entries)

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def value(self, path: str) -> Any:
        """Current value of one metric."""
        return self._entries[path].read()

    # ------------------------------------------------------------------ #
    # Snapshot
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict[str, Any]:
        """A stable, JSON-serializable rendering of every metric.

        Schema (:data:`COUNTERS_SCHEMA`)::

            {"schema": "repro-obs-counters/1",
             "metrics": {
               "<path>": {"kind": "counter", "value": <int>},
               "<path>": {"kind": "gauge", "value": <number>},
               "<path>": {"kind": "histogram", "count": n, "sum": s,
                          "buckets": [[upper_bound, count], ..., ["inf", count]]}}}

        Paths are emitted in sorted order so two snapshots of the same
        state serialize byte-identically.
        """
        metrics: dict[str, Any] = {}
        for path in sorted(self._entries):
            entry = self._entries[path]
            if entry.kind == "histogram":
                metrics[path] = {"kind": "histogram", **entry.read()}
            else:
                metrics[path] = {"kind": entry.kind, "value": entry.read()}
        return {"schema": COUNTERS_SCHEMA, "metrics": metrics}


def format_tree(snapshot: Mapping[str, Any], *, max_depth: int | None = None) -> str:
    """Render a snapshot as an indented component tree.

    ``dram.ch0.row_hits = 42`` becomes::

        dram
          ch0
            row_hits                         42

    Histograms render as ``count=N mean=M``.  ``max_depth`` truncates the
    tree (deeper leaves are rolled up and elided).
    """
    lines: list[str] = []
    emitted_groups: set[tuple[str, ...]] = set()
    for path in sorted(snapshot["metrics"]):
        metric = snapshot["metrics"][path]
        parts = tuple(path.split("."))
        if max_depth is not None and len(parts) > max_depth:
            continue
        for depth in range(len(parts) - 1):
            group = parts[: depth + 1]
            if group not in emitted_groups:
                emitted_groups.add(group)
                lines.append("  " * depth + group[-1])
        indent = "  " * (len(parts) - 1)
        label = f"{indent}{parts[-1]}"
        if metric["kind"] == "histogram":
            mean = metric["sum"] / metric["count"] if metric["count"] else 0.0
            value = f"count={metric['count']} mean={mean:.1f}"
        else:
            value = metric["value"]
            if isinstance(value, float):
                value = f"{value:.4f}" if value != int(value) else int(value)
        lines.append(f"{label:<44s} {value}")
    return "\n".join(lines)
