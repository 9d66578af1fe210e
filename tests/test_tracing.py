"""Tests for the artifact-style request logs exported from the timeline."""

import hashlib
from pathlib import Path

from repro.cli import main
from repro.config.arch import ArchConfig
from repro.config.dram import DramConfig
from repro.config.misc import MiscConfig
from repro.config.npumem import NpuMemConfig
from repro.config.system import SystemConfig
from repro.core.simulator import MultiCoreNPUSim
from repro.core.tracing import write_request_logs
from repro.models.layers import DenseLayer, Network
from repro.obs import TimelineTracer


def _system(cores=1):
    arch = ArchConfig(
        name="t", array_rows=8, array_cols=8, spm_bytes=16 * 1024,
        dram_transaction_bytes=64,
    )
    npumem = NpuMemConfig(tlb_entries=16, tlb_assoc=4, num_ptw=1, pwc_entries=8)
    return SystemConfig(
        arch=(arch,) * cores,
        npumem=(npumem,) * cores,
        dram=DramConfig(channels=2, channel_bytes_per_cycle=16),
        misc=MiscConfig(iterations=1),
    )


def _net(name="w"):
    return Network(name, (DenseLayer(f"{name}_l0", 32, 64, 32),))


def _traced_run(cores=1, observe=False):
    sim = MultiCoreNPUSim(
        _system(cores),
        [_net(f"w{i}") for i in range(cores)],
        trace_requests=True,
        observe=observe,
    )
    result = sim.run(max_ticks=50_000_000)
    assert sim.timeline is not None
    return sim, result


class TestTraceLogger:
    """The request logs, recorded by the timeline and written from it."""

    def test_dram_log_matches_controller_stats(self):
        sim, _ = _traced_run()
        assert len(sim.timeline.dram) == sim.dram.stats.requests
        assert all(e.end_tick >= e.start_tick for e in sim.timeline.dram)

    def test_tlb_log_matches_mmu_stats(self):
        sim, _ = _traced_run()
        stats = sim.mmu.stats[0]
        outcomes = [e.outcome for e in sim.timeline.tlb]
        assert outcomes.count("hit") == stats.hits
        assert outcomes.count("miss") == stats.walks_started
        assert outcomes.count("coalesced") == stats.coalesced

    def test_ptw_log_matches_walk_stats(self):
        sim, _ = _traced_run()
        assert len(sim.timeline.ptw) == sim.walkers.stats[0].walks
        for entry in sim.timeline.ptw:
            assert entry.enqueue_tick <= entry.start_tick <= entry.end_tick
            assert entry.dram_reads >= 1

    def test_walk_dram_reads_flagged(self):
        sim, _ = _traced_run()
        walk_reads = [e for e in sim.timeline.dram if e.is_walk]
        assert walk_reads
        assert all(not e.write for e in walk_reads)
        logged_levels = sum(e.dram_reads for e in sim.timeline.ptw)
        assert len(walk_reads) == logged_levels

    def test_dram_bytes_by_core(self):
        sim, _ = _traced_run()
        by_core: dict[int, int] = {}
        for span in sim.timeline.dram:
            by_core[span.core] = by_core.get(span.core, 0) + 64
        assert by_core[0] == sim.dram.stats.bytes_per_core[0]

    def test_walk_latencies(self):
        sim, _ = _traced_run()
        latencies = [
            span.end_tick - span.enqueue_tick
            for span in sim.timeline.ptw
            if span.core == 0
        ]
        assert len(latencies) == len(sim.timeline.ptw)
        assert all(value > 0 for value in latencies)

    def test_write_files_layout(self, tmp_path):
        sim, _ = _traced_run(cores=2)
        written = write_request_logs(sim.timeline, tmp_path / "dramsim_output")
        names = {path.name for path in written}
        assert {"dram.log", "dramreq.log", "tlb0.log", "tlb0_ptw.log",
                "tlb1.log", "tlb1_ptw.log"} <= names
        dram_lines = (tmp_path / "dramsim_output" / "dram.log").read_text().splitlines()
        assert len(dram_lines) == len(sim.timeline.dram)
        # dramreq.log is completion-ordered.
        ends = [
            int(line.split()[0])
            for line in (tmp_path / "dramsim_output" / "dramreq.log")
            .read_text()
            .splitlines()
        ]
        assert ends == sorted(ends)

    def test_observed_trace_writes_the_same_logs(self, tmp_path):
        traced, _ = _traced_run(cores=2)
        both, _ = _traced_run(cores=2, observe=True)
        assert both.registry is not None
        assert both.timeline.total_dropped() == 0
        write_request_logs(traced.timeline, tmp_path / "traced")
        write_request_logs(both.timeline, tmp_path / "both")
        assert _digests(tmp_path / "both") == _digests(tmp_path / "traced")

    def test_untraced_run_has_no_logger(self):
        sim = MultiCoreNPUSim(_system(), [_net()])
        assert sim.timeline is None
        sim.run(max_ticks=50_000_000)

    def test_logger_standalone_write_empty(self, tmp_path):
        written = write_request_logs(TimelineTracer(), tmp_path)
        assert len(written) == 2  # dram.log + dramreq.log, no cores


REPO_ROOT = Path(__file__).resolve().parents[1]

#: sha256 of each artifact log a traced dual-NCF ``mnpusim run`` writes.
PINNED_LOG_SHA256 = {
    "dram.log": "86be20f359560e6521600158d162e36770db1ddbb5062b78cccf2e937daf70d6",
    "dramreq.log": "42a35bdaeee512c1704feaed1d70d181196c5b6d11152fbded775ace4e3207a0",
    "tlb0.log": "0ad6c933c3480c57be2fb01ab7a6b7cc246948bd1fccdae3efb03ac453a7cef3",
    "tlb0_ptw.log": "7a6c0732bc82c9e15bd483a25a2966fe4eea7f22c4920a4f71198e5652a58e14",
    "tlb1.log": "c8dfb720c2a784a333c202d6388dea173cdb7b02fac0dc98c3c120a18f0bb180",
    "tlb1_ptw.log": "944c0464946b06b8e624bf7f195c564587111298402694690ff33d4c8eb8814a",
}


def _digests(directory: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def test_run_trace_logs_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main([
        "run",
        "configs/lists/dual_arch.txt",
        "configs/lists/ncf_ncf.txt",
        "configs/dram_config/dual_hbm2_mini.cfg",
        "configs/lists/dual_npumem.txt",
        str(tmp_path),
        "configs/misc_config/dual.cfg",
        "--trace",
    ]) == 0
    capsys.readouterr()
    assert _digests(tmp_path / "dramsim_output") == PINNED_LOG_SHA256
