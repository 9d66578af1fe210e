#!/usr/bin/env python
"""CI smoke test of the ``mnpusim serve`` daemon, end to end.

Boots the daemon as a real subprocess, then proves the service contract
from the outside:

1. two concurrent clients submit the *same* spec — exactly one cold
   simulation runs (counters prove it) and both receive byte-identical
   payloads;
2. the payload's sha256 matches the shard an independent cold CLI-style
   run of the same spec writes, so served results are indistinguishable
   from local ones;
3. a warm resubmission is served from cache with zero recompute;
4. on Linux, the daemon has mapped neither ``libssl`` nor ``libcrypto``
   (it speaks HTTP without ``http.client``); its ``VmHWM`` is printed;
5. SIGTERM drains the daemon and it exits 0.

Usage (from the repository root)::

    python scripts/serve_smoke.py [--out .ci_serve]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.runner import ExperimentRunner  # noqa: E402
from repro.experiments.spec import RunSpec  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_no_openssl(pid: int) -> None:
    """Fail if process ``pid`` maps OpenSSL; print its peak RSS (Linux)."""
    proc = Path(f"/proc/{pid}")
    if not (proc / "maps").exists():
        print("no /proc: OpenSSL check skipped")
        return
    mapped = sorted({
        line.rsplit("/", 1)[-1]
        for line in (proc / "maps").read_text().splitlines()
        if "libssl" in line or "libcrypto" in line
    })
    if mapped:
        fail(f"daemon maps OpenSSL: {', '.join(mapped)}")
    status = (proc / "status").read_text().splitlines()
    hwm = next(
        line.split(":", 1)[1].strip() for line in status if line.startswith("VmHWM")
    )
    print(f"daemon maps no OpenSSL; VmHWM {hwm}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=".ci_serve", help="scratch directory")
    args = parser.parse_args()
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)

    spec = RunSpec.solo("ncf")
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
            "serve",
            "--port", "0",
            "--cache-dir", str(out / "serve_cache"),
            "--jobs", "2",
        ],
        cwd=out,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        # Its own process group, so a failed check can kill the pool
        # workers too: they hold the daemon's pipes open.
        start_new_session=True,
    )
    try:
        banner = daemon.stdout.readline().strip()
        if not banner.startswith("serving on http://"):
            fail(f"unexpected daemon banner: {banner!r}")
        url = banner.split()[-1]
        print(f"daemon up at {url}")
        client = ServeClient(url, deadline_seconds=300.0)
        if not client.wait_ready(30.0):
            fail("daemon never became ready")

        # Two concurrent clients, one spec -> one cold run, equal bytes.
        results, errors = [], []

        def fetch() -> None:
            try:
                results.append(ServeClient(url, deadline_seconds=300.0).run(spec))
            except Exception as error:  # noqa: BLE001 - report, don't hang
                errors.append(error)

        threads = [threading.Thread(target=fetch) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            fail(f"client error: {errors[0]}")
        payloads = {result.payload for result in results}
        if len(payloads) != 1:
            fail("concurrent clients received different payloads")
        sources = sorted(result.source for result in results)
        print(f"concurrent sources: {sources}")

        stats = json.loads(json.dumps(client.stats()))  # plain-JSON sanity
        metrics = stats["counters"]["metrics"]
        cold_runs = metrics["serve.cold_runs"]["value"]
        executed = metrics["runner.runs_executed"]["value"]
        if cold_runs != 1 or executed != 1:
            fail(f"expected exactly one cold run, got {cold_runs=} {executed=}")
        print("exactly one cold simulation ran")

        # Warm resubmission: served from cache, still zero recompute.
        warm = client.run(spec)
        if warm.payload != results[0].payload:
            fail("warm payload diverged from the cold one")
        if warm.source not in ("memo", "disk"):
            fail(f"warm request was not cache-served: {warm.source}")
        after = client.stats()["counters"]["metrics"]
        if after["runner.runs_executed"]["value"] != 1:
            fail("warm request recomputed")
        print(f"warm resubmission served from {warm.source}")

        # The served bytes match an independent cold run's shard.
        served_sha = hashlib.sha256(warm.payload).hexdigest()
        solo = ExperimentRunner(
            cache_dir=out / "solo_cache", jobs=1, progress=None
        )
        solo.run_many([spec])
        local = solo.cached_payload(spec)
        if local is None or hashlib.sha256(local).hexdigest() != served_sha:
            fail("served payload does not match an independent cold run")
        print(f"payload sha256 matches independent cold run: {served_sha[:16]}")

        check_no_openssl(daemon.pid)

        # Graceful shutdown on SIGTERM.
        daemon.send_signal(signal.SIGTERM)
        stdout, stderr = daemon.communicate(timeout=120)
        if daemon.returncode != 0:
            fail(f"daemon exited {daemon.returncode}: {stderr}")
        if "stopped (clean drain)" not in stderr:
            fail(f"no clean-drain confirmation in stderr: {stderr}")
        print("daemon drained and exited 0")
    finally:
        if daemon.poll() is None:
            os.killpg(daemon.pid, signal.SIGKILL)
            daemon.communicate()
    print("serve smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
