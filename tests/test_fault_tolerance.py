"""Tests of the supervised runner's fault tolerance.

Every recovery path the supervision layer promises — retries with
backoff, crash isolation, wall-clock timeouts, stall classification,
cache quarantine, journaled resume — is exercised here via the
deterministic fault-injection harness in :mod:`repro.experiments.faults`
and the shard corruptor, never by luck or timing races.
"""

import logging
import multiprocessing
from pathlib import Path

import pytest

from repro.core.sharing import SharingLevel
from repro.errors import RunFailedError
from repro.experiments import faults, figures
from repro.experiments.report import format_failures
from repro.experiments.runner import ExperimentRunner, JOURNAL_NAME, QUARANTINE_DIR
from repro.experiments.spec import PlanContext, RunSpec
from repro.models.layers import DenseLayer, Network
from repro.storage import atomic_write_bytes, checksum_path

from tests.test_figures_reduction import synthetic_results


def _tiny(name):
    return Network(name, (DenseLayer(f"{name}_l0", 16, 32, 16),))


def _make_runner(cache_dir, **kwargs):
    """A runner with instant (no-sleep) backoff and tiny named networks."""
    kwargs.setdefault("retry_backoff", 0.0)
    runner = ExperimentRunner(cache_dir=cache_dir, **kwargs)
    runner._sleep = lambda seconds: None
    for name in ("a", "b", "c", "d"):
        runner.register_network(_tiny(name))
    return runner


def _specs(names):
    return [RunSpec.solo(name) for name in names]


# --------------------------------------------------------------------- #
# Crash-safe cache: corruption -> quarantine -> re-run
# --------------------------------------------------------------------- #


class TestCacheQuarantine:
    @pytest.mark.parametrize("mode", ["truncate", "version", "payload"])
    def test_corrupt_shard_is_quarantined_and_rerun(self, tmp_path, caplog, mode):
        cache = tmp_path / "cache"
        first = _make_runner(cache)
        (spec,) = _specs(["a"])
        expected = first.run(spec)

        faults.corrupt_shard(first._cache_path(spec), mode)

        fresh = _make_runner(cache)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.runner"):
            results = fresh.run(spec)

        assert results == expected
        assert fresh.cache_hits == 0
        assert fresh.runs_executed == 1
        assert fresh.quarantined == 1
        quarantine = cache / QUARANTINE_DIR
        assert list(quarantine.iterdir())
        assert any(
            "quarantined corrupt cache shard" in r.message for r in caplog.records
        )
        # The shard was re-written and now validates again.
        rereader = _make_runner(cache)
        assert rereader.run(spec) == expected
        assert rereader.cache_hits == 1
        assert rereader.quarantined == 0

    def test_shard_without_checksum_sidecar_still_reads(self, tmp_path):
        cache = tmp_path / "cache"
        first = _make_runner(cache)
        (spec,) = _specs(["a"])
        expected = first.run(spec)
        checksum_path(first._cache_path(spec)).unlink()

        fresh = _make_runner(cache)
        assert fresh.run(spec) == expected
        assert fresh.cache_hits == 1
        assert fresh.quarantined == 0


# --------------------------------------------------------------------- #
# Atomic writes under concurrency
# --------------------------------------------------------------------- #


def _hammer_writes(path_str, payload, count):
    path = Path(path_str)
    for _ in range(count):
        atomic_write_bytes(path, payload)


def _sweep_in_child(cache_dir, names):
    runner = ExperimentRunner(cache_dir=cache_dir, retry_backoff=0.0)
    for name in names:
        runner.register_network(_tiny(name))
    runner.run_many([RunSpec.solo(name) for name in names])


class TestAtomicWrites:
    def test_concurrent_writers_never_tear(self, tmp_path):
        target = tmp_path / "shard.json"
        payload_a = b"A" * 4096
        payload_b = b"B" * 4096
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(target=_hammer_writes, args=(str(target), payload, 200))
            for payload in (payload_a, payload_b)
        ]
        for proc in writers:
            proc.start()
        observed = set()
        while any(proc.is_alive() for proc in writers):
            if target.exists():
                observed.add(target.read_bytes())
        for proc in writers:
            proc.join()
        observed.add(target.read_bytes())
        # Readers only ever see one complete payload, never a mix.
        assert observed
        assert observed <= {payload_a, payload_b}
        assert not list(tmp_path.glob("*.tmp"))

    def test_two_runners_share_a_cache_dir_safely(self, tmp_path):
        cache = tmp_path / "cache"
        names = ["a", "b"]
        ctx = multiprocessing.get_context("fork")
        children = [
            ctx.Process(target=_sweep_in_child, args=(cache, names))
            for _ in range(2)
        ]
        for proc in children:
            proc.start()
        for proc in children:
            proc.join()
            assert proc.exitcode == 0
        checker = _make_runner(cache)
        results = checker.run_many(_specs(names))
        assert len(results) == len(names)
        assert checker.cache_hits == len(names)
        assert checker.quarantined == 0


# --------------------------------------------------------------------- #
# Injected failures: isolation, classification, retry recovery
# --------------------------------------------------------------------- #


class TestInjectedFailures:
    def test_failed_specs_are_isolated_not_fatal(self, tmp_path):
        runner = _make_runner(tmp_path / "cache", max_attempts=2)
        specs = _specs(["a", "b", "c", "d"])
        runner.fault_plan = faults.FaultPlan.for_specs(
            {specs[1]: faults.Fault("crash"), specs[3]: faults.Fault("error")}
        )
        results = runner.run_many(specs)

        # N specs with k injected failures -> exactly N - k results.
        assert set(results) == {specs[0], specs[2]}
        assert runner.failures[specs[1]].kind == "crash"
        assert runner.failures[specs[1]].attempts == 2
        assert runner.failures[specs[3]].kind == "error"
        assert runner.failures[specs[3]].attempts == 1
        outcome = runner.last_outcome
        assert outcome.total == 4
        assert outcome.succeeded == 2
        assert len(outcome.failures) == 2

    def test_retry_recovers_transient_crashes(self, tmp_path):
        runner = _make_runner(tmp_path / "flaky", max_attempts=3)
        (spec,) = _specs(["a"])
        runner.fault_plan = faults.FaultPlan.for_specs(
            {spec: faults.Fault("crash", fail_attempts=2)}
        )
        recovered = runner.run(spec)
        assert not runner.failures

        clean = _make_runner(tmp_path / "clean")
        assert recovered == clean.run(_specs(["a"])[0])

    def test_run_raises_typed_error_for_failed_spec(self, tmp_path):
        runner = _make_runner(tmp_path / "cache")
        specs = _specs(["a", "b"])
        runner.fault_plan = faults.FaultPlan.for_specs(
            {specs[1]: faults.Fault("error")}
        )
        runner.run_many(specs)
        with pytest.raises(RunFailedError, match="injected deterministic failure"):
            runner.run(specs[1])

    def test_timeout_fault_classified_as_timeout(self, tmp_path):
        runner = _make_runner(tmp_path / "cache", run_timeout=0.2, max_attempts=1)
        (spec,) = _specs(["a"])
        runner.fault_plan = faults.FaultPlan.for_specs(
            {spec: faults.Fault("timeout")}
        )
        runner.run_many([spec])
        assert runner.failures[spec].kind == "timeout"
        assert "wall clock" in runner.failures[spec].error

    def test_stall_fault_classified_as_stall(self, tmp_path):
        runner = _make_runner(tmp_path / "cache", max_attempts=1)
        (spec,) = _specs(["a"])
        runner.fault_plan = faults.FaultPlan.for_specs({spec: faults.Fault("stall")})
        runner.run_many([spec])
        failure = runner.failures[spec]
        assert failure.kind == "stall"
        assert "livelocked" in failure.error

    def test_pool_mode_attributes_crash_to_culprit(self, tmp_path):
        runner = _make_runner(tmp_path / "cache", max_attempts=2)
        specs = _specs(["a", "b", "c"])
        runner.fault_plan = faults.FaultPlan.for_specs(
            {specs[1]: faults.Fault("crash")}
        )
        results = runner.run_many(specs, jobs=2)

        # The crasher is isolated and attributed; bystanders complete.
        assert set(results) == {specs[0], specs[2]}
        failure = runner.failures[specs[1]]
        assert failure.kind == "crash"
        assert failure.attempts == 2
        assert runner.last_outcome.succeeded == 2


# --------------------------------------------------------------------- #
# Journal + resume
# --------------------------------------------------------------------- #


class TestJournalAndResume:
    def test_resumed_sweep_reruns_only_missing_specs(self, tmp_path):
        cache = tmp_path / "cache"
        first = _make_runner(cache, max_attempts=1)
        specs = _specs(["a", "b", "c"])
        first.fault_plan = faults.FaultPlan.for_specs(
            {specs[1]: faults.Fault("error")}
        )
        assert len(first.run_many(specs)) == 2

        resumed = _make_runner(cache)
        results = resumed.run_many(_specs(["a", "b", "c"]))
        assert len(results) == 3
        assert resumed.cache_hits == 2
        assert resumed.runs_executed == 1
        assert not resumed.failures

    def test_journal_records_sweep_lifecycle(self, tmp_path):
        cache = tmp_path / "cache"
        runner = _make_runner(cache, max_attempts=2)
        specs = _specs(["a", "b"])
        runner.fault_plan = faults.FaultPlan.for_specs(
            {specs[1]: faults.Fault("crash")}
        )
        runner.run_many(specs)

        events = [record["event"] for record in runner.journal.read()]
        for expected in ("sweep", "done", "retry", "fail"):
            assert expected in events
        fail_record = next(
            record for record in runner.journal.read() if record["event"] == "fail"
        )
        assert fail_record["kind"] == "crash"
        assert fail_record["attempts"] == 2
        assert fail_record["label"] == specs[1].label

    def test_journal_reader_skips_corrupt_lines(self, tmp_path):
        cache = tmp_path / "cache"
        runner = _make_runner(cache)
        runner.run_many(_specs(["a"]))
        journal_path = cache / JOURNAL_NAME
        with journal_path.open("a") as handle:
            handle.write("{truncated\n")
        records = runner.journal.read()
        assert records
        assert all(isinstance(record, dict) for record in records)

    def test_journal_survives_unwritable_directory(self, tmp_path):
        # Journaling must never take the sweep down with it.
        runner = _make_runner(tmp_path / "cache")
        runner.journal.path = tmp_path / "missing" / "journal.jsonl"
        results = runner.run_many(_specs(["a"]))
        assert len(results) == 1


# --------------------------------------------------------------------- #
# Fault descriptors themselves
# --------------------------------------------------------------------- #


class TestFaultDescriptors:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.Fault("segfault")

    def test_fail_attempts_bound(self):
        fault = faults.Fault("transient", fail_attempts=2)
        assert fault.active(1) and fault.active(2)
        assert not fault.active(3)
        with pytest.raises(ValueError):
            faults.Fault("transient", fail_attempts=0)

    def test_corrupt_shard_rejects_unknown_mode(self, tmp_path):
        shard = tmp_path / "x.json"
        shard.write_text("{}")
        with pytest.raises(ValueError, match="unknown corruption mode"):
            faults.corrupt_shard(shard, "scribble")


# --------------------------------------------------------------------- #
# Graceful figure degradation
# --------------------------------------------------------------------- #


MIXES = [("res", "yt"), ("alex", "gpt2")]
CONTENDED = ("+D", "+DW", "+DWT")


def _degraded_fig4():
    """Fig 4's synthetic results with every ("res", "yt") mix run missing."""
    results = synthetic_results(figures.sharing_sweep_specs(PlanContext(), MIXES))
    for level in CONTENDED:
        del results["mix", MIXES[0], level]
    return results


@pytest.fixture()
def crashing_runner(tmp_path, monkeypatch):
    """A real runner over two tiny networks whose a+b +DWT mix crashes."""
    from repro.models import zoo

    monkeypatch.setattr(zoo, "NAMES", ("a", "b"))
    runner = _make_runner(tmp_path / "cache")
    runner.fault_plan = faults.FaultPlan.for_specs(
        {RunSpec.mix(("a", "b"), SharingLevel.DWT): faults.Fault("crash")}
    )
    return runner


class TestFigureDegradation:
    def test_mix_speedups_empty_for_failed_mix(self):
        results = _degraded_fig4()
        ideal = {name: results["ideal", name][0]["cycles"] for name in MIXES[0]}
        static = {name: results["static", name][0]["cycles"] for name in MIXES[0]}
        assert figures.mix_speedups(
            results, MIXES[0], SharingLevel.DWT, ideal, static
        ) == []

    def test_fig4_marks_failed_mix_missing_not_fatal(self):
        data = figures.reduce_fig4(_degraded_fig4(), MIXES)

        bad = data["per_mix"]["res+yt"]
        good = data["per_mix"]["alex+gpt2"]
        # Static comes from solo runs, which still succeeded; every
        # contended level of the failed mix is missing.
        assert "Static" in bad
        for level in CONTENDED:
            assert level not in bad
            assert level in good
        # The healthy mix still feeds the overall geomeans.
        assert data["overall"]["+DWT"] is not None

    def test_entry_point_attaches_runner_failures(self, crashing_runner):
        data = figures.run_figures(
            PlanContext(), crashing_runner, ["fig4"], {2: [("a", "b"), ("a", "a")]}
        )["fig4"]
        assert "+DWT" not in data["per_mix"]["a+b"]
        assert "+DW" in data["per_mix"]["a+b"]
        assert "+DWT" in data["per_mix"]["a+a"]
        summaries = data["failures"]
        assert len(summaries) == 1 and summaries[0]["kind"] == "crash"

    def test_failures_key_absent_when_sweep_healthy(self, tmp_path, monkeypatch):
        from repro.models import zoo

        monkeypatch.setattr(zoo, "NAMES", ("a", "b"))
        data = figures.run_figures(
            PlanContext(), _make_runner(tmp_path / "cache"), ["fig4"], {2: [("a", "b")]}
        )["fig4"]
        assert "failures" not in data

    def test_batch_attaches_failures_only_to_the_failing_figure(
        self, crashing_runner
    ):
        # One batch, two figures: only fig4 planned the crashing mix.
        reduced = figures.run_figures(
            PlanContext(), crashing_runner, ["fig4", "fig15"], {2: [("a", "b")]}
        )
        assert len(reduced["fig4"]["failures"]) == 1
        assert "failures" not in reduced["fig15"]

    def test_later_figure_omits_earlier_figures_failures(self, crashing_runner):
        ctx = PlanContext()
        data = figures.run_figures(ctx, crashing_runner, ["fig4"], {2: [("a", "b")]})
        assert len(data["fig4"]["failures"]) == 1
        data = figures.run_figures(ctx, crashing_runner, ["fig15"])
        assert "failures" not in data["fig15"]

    def test_format_failures_renders_summaries(self, crashing_runner):
        data = figures.run_figures(
            PlanContext(), crashing_runner, ["fig4"], {2: [("a", "b")]}
        )["fig4"]
        text = format_failures(data["failures"])
        assert "crash" in text
        assert "1 run(s) failed" in text
        assert format_failures([]) == ""


# --------------------------------------------------------------------- #
# Backoff jitter and the per-spec retry budget
# --------------------------------------------------------------------- #


class TestBackoffJitterAndBudget:
    def test_backoff_without_jitter_is_exact_exponential(self, tmp_path):
        runner = _make_runner(
            tmp_path / "cache", retry_backoff=1.0, retry_jitter=0.0
        )
        assert [runner._backoff(n) for n in (1, 2, 3)] == [1.0, 2.0, 4.0]

    def test_jitter_inflates_within_its_bound(self, tmp_path):
        import random

        from repro.experiments.runner import MAX_BACKOFF_SECONDS

        runner = _make_runner(
            tmp_path / "cache", retry_backoff=1.0, retry_jitter=0.5
        )
        runner._random = random.Random(7)
        for attempt in (1, 2, 3):
            base = 2 ** (attempt - 1)
            observed = [runner._backoff(attempt) for _ in range(50)]
            assert all(base <= pause <= 1.5 * base for pause in observed)
            assert len(set(observed)) > 1  # actually randomized
        # The cap is absolute, jitter included.
        assert runner._backoff(30) == MAX_BACKOFF_SECONDS

    def test_zero_base_backoff_stays_zero_with_jitter(self, tmp_path):
        runner = _make_runner(tmp_path / "cache", retry_jitter=0.9)
        assert runner._backoff(5) == 0.0

    def test_budget_cuts_retries_short_in_serial(self, tmp_path):
        # Backoff alone (10s for the first retry) would bust the 5s
        # budget, so the spec fails terminally after one attempt even
        # though max_attempts allows ten.
        runner = _make_runner(
            tmp_path / "cache",
            max_attempts=10,
            retry_backoff=10.0,
            retry_jitter=0.0,
            retry_budget=5.0,
        )
        (spec,) = _specs(["a"])
        runner.fault_plan = faults.FaultPlan.for_specs(
            {spec: faults.Fault("transient")}
        )
        runner.run_many([spec])
        failure = runner.failures[spec]
        assert failure.kind == "crash"
        assert failure.attempts == 1

    def test_budget_cuts_retries_short_in_pool(self, tmp_path):
        runner = _make_runner(
            tmp_path / "cache",
            max_attempts=10,
            retry_backoff=10.0,
            retry_jitter=0.0,
            retry_budget=5.0,
        )
        (spec,) = _specs(["a"])
        runner.fault_plan = faults.FaultPlan.for_specs(
            {spec: faults.Fault("crash")}
        )
        runner.run_many([spec], jobs=2)
        failure = runner.failures[spec]
        assert failure.kind == "crash"
        assert failure.attempts == 1

    def test_no_budget_keeps_retrying_to_max_attempts(self, tmp_path):
        runner = _make_runner(
            tmp_path / "cache", max_attempts=3, retry_backoff=10.0,
            retry_jitter=0.0,
        )
        (spec,) = _specs(["a"])
        runner.fault_plan = faults.FaultPlan.for_specs(
            {spec: faults.Fault("transient")}
        )
        runner.run_many([spec])
        assert runner.failures[spec].attempts == 3

    def test_budget_permits_recovery_within_limit(self, tmp_path):
        # Tiny backoffs inside a generous budget: the crash-twice spec
        # still recovers on its third attempt.
        runner = _make_runner(
            tmp_path / "cache",
            max_attempts=5,
            retry_backoff=0.001,
            retry_jitter=0.25,
            retry_budget=60.0,
        )
        (spec,) = _specs(["a"])
        runner.fault_plan = faults.FaultPlan.for_specs(
            {spec: faults.Fault("transient", fail_attempts=2)}
        )
        results = runner.run_many([spec])
        assert spec in results
        assert not runner.failures


# --------------------------------------------------------------------- #
# Journal resume with a truncated final line (crash mid-write)
# --------------------------------------------------------------------- #


class TestJournalTruncation:
    def _truncate_final_line(self, journal_path):
        raw = journal_path.read_bytes()
        assert raw.endswith(b"}\n")
        journal_path.write_bytes(raw[:-7])  # chop mid-record, no newline

    def test_truncated_final_line_is_skipped_with_warning(
        self, tmp_path, caplog
    ):
        cache = tmp_path / "cache"
        runner = _make_runner(cache)
        runner.run_many(_specs(["a", "b"]))
        intact = runner.journal.read()
        self._truncate_final_line(cache / JOURNAL_NAME)

        with caplog.at_level(logging.WARNING, logger="repro.experiments.runner"):
            records = runner.journal.read()
        assert records == intact[:-1]
        assert any(
            "skipping unparseable line" in record.message
            for record in caplog.records
        )

    def test_resume_after_truncation_appends_cleanly(self, tmp_path):
        cache = tmp_path / "cache"
        first = _make_runner(cache)
        first.run_many(_specs(["a"]))
        self._truncate_final_line(cache / JOURNAL_NAME)

        resumed = _make_runner(cache)
        results = resumed.run_many(_specs(["a", "b"]))
        assert len(results) == 2
        assert resumed.cache_hits == 1  # cache survived the torn journal
        events = [record["event"] for record in resumed.journal.read()]
        # Old intact records, then the new sweep's, all parseable again.
        assert events.count("sweep") == 2
        assert events[-1] in ("done", "profile")
