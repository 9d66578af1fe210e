"""Tests of the serve daemon's robustness machinery.

The transport-independent :class:`SweepService` is exercised directly
(single-flight dedup, load shedding, deadline expiry, circuit breaker,
drain-then-resume), then one HTTP slice proves the daemon end to end:
concurrent clients, byte-identical payloads, typed errors on the wire.
Raw-socket tests pin the HTTP/1.1 transport itself: pipelining,
connection close, refusals and client hang-ups.
"""

import hashlib
import http.client
import json
import logging
import socket
import struct
import threading
import time

import pytest

from repro.errors import (
    DeadlineExceededError,
    RunFailedError,
    ServerOverloadedError,
    ServiceUnavailableError,
)
from repro.experiments import faults
from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import RunSpec
from repro.models.layers import DenseLayer, Network
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.server import CircuitBreaker, ServeDaemon, SweepService


def _tiny(name):
    return Network(name, (DenseLayer(f"{name}_l0", 16, 32, 16),))


def _make_runner(cache_dir, **kwargs):
    kwargs.setdefault("retry_backoff", 0.0)
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("keep_pool", True)
    runner = ExperimentRunner(cache_dir=cache_dir, **kwargs)
    runner._sleep = lambda seconds: None
    for name in ("a", "b", "c", "d"):
        runner.register_network(_tiny(name))
    return runner


def _make_service(cache_dir, **kwargs):
    runner_kwargs = kwargs.pop("runner_kwargs", {})
    kwargs.setdefault("default_deadline_seconds", None)
    return SweepService(_make_runner(cache_dir, **runner_kwargs), **kwargs)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# --------------------------------------------------------------------- #
# Circuit breaker unit behaviour
# --------------------------------------------------------------------- #


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_crashes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown=30.0, clock=clock)
        breaker.record_crash()
        breaker.record_crash()
        assert breaker.state == "closed" and breaker.admit() is None
        breaker.record_crash()
        assert breaker.state == "open"
        assert breaker.admit() == pytest.approx(30.0)

    def test_success_resets_the_crash_streak(self):
        breaker = CircuitBreaker(threshold=2, clock=FakeClock())
        breaker.record_crash()
        breaker.record_success()
        breaker.record_crash()
        assert breaker.state == "closed"

    def test_half_open_probe_and_recovery(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=30.0, clock=clock)
        breaker.record_crash()
        assert not breaker.allow_probe()
        clock.advance(31.0)
        assert breaker.admit() is None
        assert breaker.allow_probe()
        assert breaker.state == "half-open"
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_crash_reopens_immediately(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=5, cooldown=30.0, clock=clock)
        for _ in range(5):
            breaker.record_crash()
        clock.advance(31.0)
        assert breaker.allow_probe()
        breaker.record_crash()  # one probe crash, not five, reopens
        assert breaker.state == "open"
        assert breaker.retry_after() == pytest.approx(30.0)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)


# --------------------------------------------------------------------- #
# Admission: dedup, shedding, deadlines
# --------------------------------------------------------------------- #


class TestAdmission:
    def test_single_flight_dedup_under_concurrent_submitters(self, tmp_path):
        service = _make_service(tmp_path / "cache")
        spec = RunSpec.solo("a")
        service.start()
        try:
            outcomes = []

            def submit():
                future, source = service.submit(spec)
                outcomes.append((future.result(timeout=60), source))

            threads = [threading.Thread(target=submit) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            payloads = {payload for payload, _ in outcomes}
            assert len(payloads) == 1  # byte-identical for every waiter
            assert service.runner.runs_executed == 1
            sources = sorted(source for _, source in outcomes)
            assert "dedup" in sources or "memo" in sources
            assert sources.count("cold") == 1
        finally:
            service.shutdown(drain_timeout=10)

    def test_payload_matches_an_independent_cold_run(self, tmp_path):
        service = _make_service(tmp_path / "cache")
        spec = RunSpec.solo("a")
        service.start()
        try:
            future, source = service.submit(spec)
            payload = future.result(timeout=60)
            assert source == "cold"
        finally:
            service.shutdown(drain_timeout=10)
        solo = _make_runner(tmp_path / "other", keep_pool=False, jobs=1)
        solo.run_many([spec])
        expected = solo.cached_payload(spec)
        assert hashlib.sha256(payload).hexdigest() == (
            hashlib.sha256(expected).hexdigest()
        )

    def test_memo_then_disk_hits_without_recompute(self, tmp_path):
        cache = tmp_path / "cache"
        service = _make_service(cache)
        spec = RunSpec.solo("a")
        service.start()
        try:
            first, _ = service.submit(spec)
            payload = first.result(timeout=60)
            warm, source = service.submit(spec)
            assert source == "memo"
            assert warm.result(timeout=1) == payload
        finally:
            service.shutdown(drain_timeout=10)

        resumed = _make_service(cache)
        resumed.start()
        try:
            future, source = resumed.submit(spec)
            assert source == "disk"
            assert future.result(timeout=1) == payload
            assert resumed.runner.runs_executed == 0
            assert resumed.registry.value("serve.cold_runs") == 0
        finally:
            resumed.shutdown(drain_timeout=10)

    def test_full_queue_sheds_with_retry_after(self, tmp_path):
        # No dispatch thread: the queue cannot drain, so overflow is
        # deterministic rather than a race against execution speed.
        service = _make_service(
            tmp_path / "cache", queue_limit=1, shed_retry_after=2.5
        )
        runner = service.runner
        try:
            _, source = service.submit(RunSpec.solo("a"))
            assert source == "cold"
            with pytest.raises(ServerOverloadedError) as excinfo:
                service.submit(RunSpec.solo("b"))
            assert excinfo.value.retry_after == 2.5
            assert service.registry.value("serve.shed") == 1
            # Identical specs still dedup instead of shedding.
            _, source = service.submit(RunSpec.solo("a"))
            assert source == "dedup"
        finally:
            runner.close()

    def test_deadline_expires_while_queued(self, tmp_path):
        clock = FakeClock()
        service = _make_service(tmp_path / "cache", clock=clock)
        spec = RunSpec.solo("a")
        future, _ = service.submit(spec, deadline_seconds=5.0)
        clock.advance(10.0)
        service.start()
        try:
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=30)
            assert service.registry.value("serve.deadline_expired") == 1
        finally:
            service.shutdown(drain_timeout=10)

    def test_draining_service_rejects_submissions(self, tmp_path):
        service = _make_service(tmp_path / "cache")
        service.begin_drain()
        try:
            with pytest.raises(ServiceUnavailableError):
                service.submit(RunSpec.solo("a"))
            assert not service.ready()
        finally:
            service.runner.close()


# --------------------------------------------------------------------- #
# Breaker integration: crash-looping specs open it, probes close it
# --------------------------------------------------------------------- #


class TestBreakerIntegration:
    def test_trip_shed_and_half_open_recovery(self, tmp_path):
        clock = FakeClock()
        service = _make_service(
            tmp_path / "cache",
            breaker=CircuitBreaker(threshold=1, cooldown=100.0, clock=clock),
            clock=clock,
            runner_kwargs={"max_attempts": 1},
        )
        runner = service.runner
        bad = RunSpec.solo("a")
        runner.fault_plan = faults.FaultPlan.for_specs(
            {bad: faults.Fault("crash")}
        )
        service.start()
        try:
            future, _ = service.submit(bad)
            with pytest.raises(RunFailedError) as excinfo:
                future.result(timeout=60)
            assert excinfo.value.failure.kind == "crash"
            assert service.breaker.state == "open"
            assert not service.ready()

            with pytest.raises(ServiceUnavailableError) as unavailable:
                service.submit(RunSpec.solo("b"))
            assert unavailable.value.retry_after is not None
            assert service.registry.value("serve.unavailable") == 1

            clock.advance(150.0)  # cooldown over: next job is the probe
            probe, source = service.submit(RunSpec.solo("b"))
            assert source == "cold"
            assert probe.result(timeout=60)
            assert service.breaker.state == "closed"
            assert service.ready()
        finally:
            service.shutdown(drain_timeout=10)

    def test_deterministic_failure_does_not_trip_breaker(self, tmp_path):
        service = _make_service(
            tmp_path / "cache", runner_kwargs={"max_attempts": 1}
        )
        runner = service.runner
        bad = RunSpec.solo("a")
        runner.fault_plan = faults.FaultPlan.for_specs(
            {bad: faults.Fault("error")}
        )
        service.start()
        try:
            future, _ = service.submit(bad)
            with pytest.raises(RunFailedError):
                future.result(timeout=60)
            # A misconfigured spec is the spec's fault, not the pool's.
            assert service.breaker.state == "closed"
            assert service.ready()
            assert service.registry.value("serve.run_failures") == 1
        finally:
            service.shutdown(drain_timeout=10)


# --------------------------------------------------------------------- #
# Drain and resume
# --------------------------------------------------------------------- #


class TestDrainAndResume:
    def test_shutdown_fails_abandoned_jobs_and_journals_them(self, tmp_path):
        # Never started: the queued job cannot run, so shutdown must
        # abandon it — journaled, and its waiter gets a retriable error.
        service = _make_service(tmp_path / "cache")
        spec = RunSpec.solo("a")
        future, _ = service.submit(spec)
        service.shutdown(drain_timeout=0.2)
        with pytest.raises(ServiceUnavailableError):
            future.result(timeout=1)
        events = service.runner.journal.read()
        abandon = [r for r in events if r["event"] == "serve_abandon"]
        assert abandon and spec.cache_key() in abandon[0]["keys"]
        assert any(r["event"] == "serve_stop" for r in events)

    def test_restart_serves_completed_work_from_cache(self, tmp_path):
        cache = tmp_path / "cache"
        service = _make_service(cache)
        specs = [RunSpec.solo(n) for n in ("a", "b")]
        service.start()
        try:
            futures = [service.submit(spec)[0] for spec in specs]
            payloads = [future.result(timeout=60) for future in futures]
        finally:
            assert service.shutdown(drain_timeout=10)

        resumed = _make_service(cache)
        resumed.start()
        try:
            for spec, expected in zip(specs, payloads):
                future, source = resumed.submit(spec)
                assert source == "disk"
                assert future.result(timeout=1) == expected
            # Zero recompute, proven by counters on both layers.
            assert resumed.runner.runs_executed == 0
            assert resumed.registry.value("serve.cold_runs") == 0
            assert resumed.registry.value("serve.disk_hits") == 2
            events = [r["event"] for r in resumed.runner.journal.read()]
            assert events.count("serve_start") == 2
        finally:
            resumed.shutdown(drain_timeout=10)

    def test_stats_reports_state_and_hit_rate(self, tmp_path):
        service = _make_service(tmp_path / "cache")
        spec = RunSpec.solo("a")
        service.start()
        try:
            service.submit(spec)[0].result(timeout=60)
            service.submit(spec)
            stats = service.stats()
            assert stats["ready"] is True
            assert stats["breaker"] == "closed"
            assert stats["cache_hit_rate"] == 0.5
            metrics = stats["counters"]["metrics"]
            assert metrics["serve.requests"]["value"] == 2
            assert metrics["serve.memo_hits"]["value"] == 1
            assert metrics["serve.queue_depth"]["value"] == 0
        finally:
            service.shutdown(drain_timeout=10)


# --------------------------------------------------------------------- #
# The HTTP slice, end to end
# --------------------------------------------------------------------- #


@pytest.fixture()
def daemon(tmp_path):
    daemon = ServeDaemon(_make_service(tmp_path / "cache"))
    daemon.start()
    yield daemon
    daemon.stop(drain_timeout=10)


class TestHTTPDaemon:
    def test_concurrent_clients_share_one_cold_run(self, daemon):
        spec = RunSpec.solo("a")
        client = ServeClient(daemon.url, deadline_seconds=60.0)
        assert client.wait_ready(10.0)

        results = []

        def fetch():
            results.append(client.run(spec))

        threads = [threading.Thread(target=fetch) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({r.payload for r in results}) == 1
        assert len({r.key for r in results}) == 1
        assert daemon.service.runner.runs_executed == 1
        assert {r.source for r in results} <= {"cold", "dedup", "memo"}
        digest = hashlib.sha256(results[0].payload).hexdigest()
        cached = daemon.service.runner.cached_payload(spec)
        assert hashlib.sha256(cached).hexdigest() == digest

    def test_keep_alive_memo_requests_do_not_stall(self, daemon):
        # Each response leaves in one send with TCP_NODELAY set; a
        # kept-alive response held back for the client's delayed ACK
        # would cost ~40 ms each.
        spec = RunSpec.solo("a")
        client = ServeClient(daemon.url, deadline_seconds=60.0)
        assert client.wait_ready(10.0)
        client.run(spec)  # warms the memo
        body = protocol.encode_request(protocol.RunRequest(spec, None))
        connection = http.client.HTTPConnection(
            daemon.host, daemon.port, timeout=10
        )
        try:
            start = time.perf_counter()
            for _ in range(20):
                connection.request("POST", protocol.RUN_PATH, body=body)
                response = connection.getresponse()
                response.read()
                assert response.status == 200
                assert response.getheader(protocol.SOURCE_HEADER) == "memo"
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        assert elapsed < 0.5, f"20 kept-alive memo requests took {elapsed:.3f}s"

    def test_health_ready_stats_endpoints(self, daemon):
        client = ServeClient(daemon.url)
        assert client.healthy()
        assert client.wait_ready(10.0)
        stats = client.stats()
        assert stats["breaker"] == "closed"
        assert "serve.requests" in stats["counters"]["metrics"]

    def test_malformed_body_is_a_typed_400(self, daemon):
        client = ServeClient(daemon.url)
        status, _, raw = client._request(
            "POST", "/v1/run", b"not json", timeout=10
        )
        assert status == 400
        assert b'"protocol"' in raw

    def test_unknown_path_is_404(self, daemon):
        client = ServeClient(daemon.url)
        status, _, _ = client._request("GET", "/v1/nonsense", timeout=10)
        assert status == 404

    def test_stopped_daemon_refuses_connections(self, tmp_path):
        daemon = ServeDaemon(_make_service(tmp_path / "cache"))
        daemon.start()
        client = ServeClient(daemon.url)
        assert client.wait_ready(10.0)
        daemon.request_stop()
        assert daemon.wait_for_stop(1.0)
        assert daemon.stop(drain_timeout=10)
        assert not client.healthy()


# --------------------------------------------------------------------- #
# The HTTP transport over raw sockets
# --------------------------------------------------------------------- #


def _read_response(stream):
    """``(status, headers, body)`` of one response; names lower-cased."""
    status_line = stream.readline()
    assert status_line, "connection closed before a response"
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


def _run_request(spec, version=b"HTTP/1.1", extra=b""):
    body = protocol.encode_request(protocol.RunRequest(spec, None))
    return (
        b"POST /v1/run " + version + b"\r\nContent-Length: %d\r\n" % len(body)
        + extra + b"\r\n" + body
    )


def _protocol_error(body):
    return json.loads(body)["error"]["code"] == "protocol"


class TestHTTPTransport:
    @pytest.fixture()
    def connection(self, daemon):
        """A raw socket to the daemon and a reader over it."""
        address = (daemon.host, daemon.port)
        with socket.create_connection(address, timeout=10) as sock:
            yield sock, sock.makefile("rb")

    def test_pipelined_requests_are_answered_in_order(self, connection):
        sock, stream = connection
        sock.sendall(
            _run_request(RunSpec.solo("a")) + b"GET /healthz HTTP/1.1\r\n\r\n"
        )
        status, headers, payload = _read_response(stream)
        assert (status, headers[protocol.SOURCE_HEADER.lower()]) == (200, "cold")
        assert json.loads(payload)  # the result shard
        status, headers, body = _read_response(stream)
        assert (status, body) == (200, b'{"status": "ok"}')
        assert "connection" not in headers  # still open
        sock.sendall(b"GET /readyz HTTP/1.1\r\n\r\n")
        assert _read_response(stream)[0] == 200

    @pytest.mark.parametrize(
        "version, extra",
        [(b"HTTP/1.0", b""), (b"HTTP/1.1", b"Connection: close\r\n")],
        ids=["http-1.0", "connection-close"],
    )
    def test_connection_closes_after_the_response(self, connection, version, extra):
        sock, stream = connection
        sock.sendall(b"GET /healthz " + version + b"\r\n" + extra + b"\r\n")
        status, headers, _ = _read_response(stream)
        assert (status, headers["connection"]) == (200, "close")
        assert stream.read(1) == b""

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"garbage\r\n\r\n", 400),
            (b"GET /healthz HTTP/2.0\r\n\r\n", 400),
            (b"PUT /v1/run HTTP/1.1\r\n\r\n", 501),
            (b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 101 + b"\r\n", 431),
            (b"POST /v1/run HTTP/1.1\r\n\r\n{}", 411),
            (
                b"POST /v1/run HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % (protocol.MAX_BODY_BYTES + 1),
                413,
            ),
            (b"POST /v1/nonsense HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 404),
        ],
        ids=["request-line", "version", "method", "headers", "length", "body", "path"],
    )
    def test_rejections_are_typed_and_close(self, connection, request_bytes, status):
        sock, stream = connection
        sock.sendall(request_bytes)
        got, headers, body = _read_response(stream)
        assert (got, headers["connection"]) == (status, "close")
        assert _protocol_error(body)
        assert stream.read(1) == b""

    @pytest.mark.parametrize("length", [-1, -5])
    def test_negative_content_length_is_a_typed_400(self, daemon, connection, length):
        # A negative length once reached rfile.read: -1 read until EOF,
        # so the reply waited on the client or the socket timeout, and
        # -5 raised and dropped the connection without a response.
        sock, stream = connection
        sock.sendall(
            b"POST /v1/run HTTP/1.1\r\nContent-Length: %d\r\n\r\n{}" % length
        )
        status, _, body = _read_response(stream)
        assert status == 400 and _protocol_error(body)
        assert b"negative" in body
        assert ServeClient(daemon.url).healthy()

    def test_client_hangup_leaves_the_daemon_serving(
        self, daemon, caplog, capsys, monkeypatch
    ):
        caplog.set_level(logging.DEBUG, logger="repro.serve")
        runner = daemon.service.runner
        run_many = runner.run_many
        reset = threading.Event()

        def run_after_the_reset(*args, **kwargs):
            # The run starts only once the client has reset the
            # connection, so the daemon always answers a dead socket.
            reset.wait(10.0)
            return run_many(*args, **kwargs)

        monkeypatch.setattr(runner, "run_many", run_after_the_reset)
        sock = socket.create_connection((daemon.host, daemon.port), timeout=10)
        sock.sendall(_run_request(RunSpec.solo("b")))
        # Reset instead of closing, so the daemon's next read or write
        # on the connection fails at once.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        reset.set()
        deadline = time.monotonic() + 10.0
        while not any(
            "connection dropped" in record.getMessage() for record in caplog.records
        ):
            assert time.monotonic() < deadline, "hang-up never reached the handler"
            time.sleep(0.02)
        assert ServeClient(daemon.url).healthy()
        assert "Traceback" not in capsys.readouterr().err
