"""CLI robustness: quarantine maintenance, graceful signals, the daemon.

Signal-delivery tests run the CLI as a real subprocess — the handler
installation, the KeyboardInterrupt unwind and the exit code are all
process-level behaviour that in-process ``main([...])`` calls cannot
prove.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _cli_subprocess(args, cwd, **options):
    return subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
            *args,
        ],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **options,
    )


# --------------------------------------------------------------------- #
# Quarantine maintenance (mnpusim cache)
# --------------------------------------------------------------------- #


class TestQuarantineMaintenance:
    def _seed_stores(self, tmp_path):
        quarantine = tmp_path / "quarantine"
        quarantine.mkdir(parents=True)
        (quarantine / "deadbeef.json").write_text("{torn")
        (tmp_path / ("a" * 24 + ".json")).write_text("{}")

    def test_stats_reports_quarantine_count_and_bytes(self, tmp_path, capsys):
        self._seed_stores(tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        results_line = next(line for line in out.splitlines() if "results" in line)
        assert "1 quarantined" in results_line
        assert "(5 B)" in results_line  # quarantined bytes are visible

    def test_clear_quarantine_prunes_only_quarantined_shards(
        self, tmp_path, capsys
    ):
        self._seed_stores(tmp_path)
        code = main(
            ["cache", "clear", "--quarantine", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cleared 1 quarantined results shard(s)" in out
        # Healthy shards survive; the quarantine dir is now empty.
        assert (tmp_path / ("a" * 24 + ".json")).exists()
        assert not list((tmp_path / "quarantine").iterdir())

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 quarantined" in out

    def test_plain_clear_still_clears_live_shards(self, tmp_path, capsys):
        self._seed_stores(tmp_path)
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert not (tmp_path / ("a" * 24 + ".json")).exists()

    def test_clear_quarantine_on_missing_dir(self, tmp_path, capsys):
        assert main(
            ["cache", "clear", "--quarantine", "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "cleared 0 quarantined results shard(s)" in out


# --------------------------------------------------------------------- #
# Graceful SIGTERM/SIGINT during a sweep
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_sweep_interrupted_by_signal_exits_130(tmp_path, signum):
    cache = tmp_path / "cache"
    process = _cli_subprocess(
        ["sweep", "fig4", "--mixes", "4", "--cache-dir", str(cache)],
        cwd=tmp_path,
    )
    try:
        # Wait for the first *completion* line ("[1/N] ..."): the sweep
        # is mid-execute, with plenty of specs still cold, when the
        # signal lands — the path where partial results must survive.
        while True:
            line = process.stderr.readline()
            assert line, "sweep ended before any spec settled"
            if line.startswith("[1/"):
                break
        process.send_signal(signum)
        stdout, stderr = process.communicate(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 130, stderr
    assert "interrupted:" in stderr
    assert "settled" in stderr
    # The journal recorded the interruption for post-mortem/resume audit.
    events = [
        json.loads(record)["event"]
        for record in (cache / "journal.jsonl").read_text().splitlines()
        if record.strip()
    ]
    assert "interrupt" in events


def test_sweep_completes_normally_without_signal(tmp_path, capsys):
    # The signal plumbing must not change the healthy exit path.
    code = main(
        [
            "sweep",
            "fig15",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--quiet",
        ]
    )
    assert code == 0
    assert "fig15" in capsys.readouterr().out


def test_parallel_figure_tears_its_pool_down_quietly(tmp_path):
    # Pool teardown kills every worker, idle ones included.  None of
    # them may print a KeyboardInterrupt traceback from the CLI's own
    # SIGTERM mapping.
    process = _cli_subprocess(
        ["figure", "fig4", "--mixes", "1", "--jobs", "2", "--quiet",
         "--cache-dir", str(tmp_path / "cache")],
        cwd=tmp_path,
    )
    stdout, stderr = process.communicate(timeout=300)
    assert process.returncode == 0, stderr
    assert "fig4" in stdout
    assert "Traceback" not in stderr


# --------------------------------------------------------------------- #
# The serve daemon as a process: boot, probe, SIGTERM, clean exit
# --------------------------------------------------------------------- #


def test_serve_daemon_boots_and_drains_on_sigterm(tmp_path):
    from repro.serve.client import ServeClient

    process = _cli_subprocess(
        ["serve", "--port", "0", "--cache-dir", str(tmp_path / "cache"),
         "--jobs", "1"],
        cwd=tmp_path,
    )
    try:
        banner = process.stdout.readline().strip()
        assert banner.startswith("serving on http://"), banner
        url = banner.split()[-1]
        client = ServeClient(url)
        assert client.wait_ready(20.0)
        assert client.healthy()
        stats = client.stats()
        assert stats["breaker"] == "closed"
        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, stderr
    assert "stopped (clean drain)" in stderr
    # Liveness is really gone, not just unresponsive.
    deadline = time.monotonic() + 5.0
    while client.healthy():
        assert time.monotonic() < deadline
        time.sleep(0.05)


def _child_pids(pid: int) -> list[str]:
    """Live children of ``pid``, whichever of its threads forked them."""
    return [
        child
        for children in Path(f"/proc/{pid}/task").glob("*/children")
        for child in children.read_text().split()
    ]


def test_serve_drain_outlasts_a_group_sigterm(tmp_path):
    # A supervisor may SIGTERM the daemon's whole process group.  The
    # daemon drains, and its pool's workers ignore the signal, so the
    # run in flight settles once instead of dying and being re-run.
    import threading

    from repro.experiments.spec import RunSpec
    from repro.serve.client import ServeClient

    cache = tmp_path / "cache"
    process = _cli_subprocess(
        ["serve", "--port", "0", "--cache-dir", str(cache), "--jobs", "1"],
        cwd=tmp_path,
        start_new_session=True,
    )
    if not Path(f"/proc/{process.pid}/task/{process.pid}/children").exists():
        process.kill()
        process.communicate()
        pytest.skip("needs /proc/<pid>/task/<tid>/children to find the worker")
    outcome = {}
    try:
        banner = process.stdout.readline().strip()
        assert banner.startswith("serving on http://"), banner
        client = ServeClient(banner.split()[-1])
        assert client.wait_ready(20.0)
        # Simulating takes the worker several seconds.
        spec = RunSpec.solo("res", scale="full")

        def submit():
            outcome["result"] = client.run(spec)

        thread = threading.Thread(target=submit, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30.0
        while not _child_pids(process.pid):
            assert time.monotonic() < deadline, "no worker was forked"
            time.sleep(0.02)
        time.sleep(0.5)  # past the worker's initializer, into the run
        os.killpg(process.pid, signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=120)
        thread.join(30.0)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
    assert process.returncode == 0, stderr
    assert "stopped (clean drain)" in stderr
    assert outcome["result"].source == "cold"
    events = [
        json.loads(record)["event"]
        for record in (cache / "journal.jsonl").read_text().splitlines()
        if record.strip()
    ]
    assert events.count("done") == 1
    assert "requeue" not in events and "retry" not in events
