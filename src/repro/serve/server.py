"""The sweep-as-a-service daemon behind ``mnpusim serve``.

Architecture — one :class:`SweepService` (transport-independent core)
fronted by a thin HTTP/1.1 layer on :mod:`socketserver` (:class:`ServeDaemon`):

* **Cache-first, three levels.**  A bounded in-process memo of payload
  bytes, then the runner's crash-safe disk :class:`~repro.storage.ShardStore`,
  then a cold run on the supervised worker pool.  Payloads are always the
  exact shard bytes (:func:`repro.storage.encode_result_shard`), so a
  served response hashes identically to a cold CLI run's shard.
* **Single-flight dedup.**  Cold submissions are keyed by the spec's
  cache key; concurrent identical specs attach to one in-flight job and
  all receive the same payload from the one simulation.
* **Bounded admission.**  The queue never grows past ``queue_limit``;
  excess load is shed immediately with 429 + ``Retry-After`` so an
  overloaded daemon stays responsive instead of building an unbounded
  backlog it can never serve within anyone's deadline.
* **Deadline propagation.**  A request's remaining budget rides into the
  runner's per-run wall-clock timeout; jobs whose deadline expires while
  queued are dropped with 504 before they waste a worker.
* **Circuit breaker.**  Repeated worker-pool crash attributions trip the
  breaker: admission sheds with 503 while open, a half-open probe run
  decides recovery, and ``/readyz`` reflects the state so orchestrators
  stop routing to a sick instance.
* **Graceful drain.**  Shutdown stops admission, lets queued and
  in-flight runs settle (bounded by ``drain_timeout``), journals anything
  abandoned, and releases the pool.  Because every settled result is in
  the content-addressed store, a restarted daemon serves the whole
  history from cache without recomputing a single shard.

The dispatch loop is deliberately a single thread: it serializes pool
ownership (the supervised pool is not thread-safe), makes the breaker's
probe semantics trivial, and cannot die — every batch executes under a
catch-all that converts surprises into failed futures, never a dead
daemon.
"""

from __future__ import annotations

# The daemon always runs cold requests on a process pool, and the runner
# loads the pool machinery only when it makes one.  Load it here, before
# the daemon reports ready, so the first cold request does not pay for it.
import concurrent.futures.process  # noqa: F401
import http  # HTTPStatus only; http.server would load http.client and OpenSSL
import json
import logging
import socketserver
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import (
    DeadlineExceededError,
    ProtocolError,
    RunFailedError,
    ServerOverloadedError,
    ServiceUnavailableError,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import RunSpec
from repro.obs import CounterRegistry
from repro.serve import protocol
from repro.storage import encode_result_shard

__all__ = ["CircuitBreaker", "ServeDaemon", "SweepService"]

_LOG = logging.getLogger("repro.serve")

#: Dispatch-loop wakeup period while idle or breaker-gated, seconds.
_POLL_SECONDS = 0.05

#: Numeric encoding of breaker states for the ``serve.breaker_state`` gauge.
BREAKER_GAUGE = {"closed": 0, "open": 1, "half-open": 2}


class CircuitBreaker:
    """Trip-after-N-crashes breaker with a half-open probe recovery.

    ``record_crash`` counts *consecutive* pool-crash attributions; at
    ``threshold`` the breaker opens for ``cooldown`` seconds, during
    which admission is shed.  After the cooldown the next dispatched job
    runs as a half-open probe: success closes the breaker, another crash
    re-opens it (and restarts the cooldown).  ``clock`` is injectable so
    tests advance time explicitly.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.cooldown = max(0.0, cooldown)
        self.clock = clock
        self._state = "closed"
        self._crashes = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"``."""
        return self._state

    def retry_after(self) -> float:
        """Seconds until a probe may run (0 when not open)."""
        if self._state != "open":
            return 0.0
        return max(0.0, self.cooldown - (self.clock() - self._opened_at))

    def admit(self) -> float | None:
        """``None`` to admit, else the suggested ``Retry-After`` seconds."""
        if self._state != "open":
            return None
        remaining = self.retry_after()
        if remaining <= 0.0:
            return None  # cooldown over: admit; dispatch will probe it
        return max(remaining, 0.1)

    def allow_probe(self) -> bool:
        """May the dispatcher execute right now?  Transitions open→half-open."""
        if self._state == "closed" or self._state == "half-open":
            return True
        if self.retry_after() <= 0.0:
            self._state = "half-open"
            _LOG.warning("circuit breaker half-open: dispatching a probe run")
            return True
        return False

    def record_success(self) -> None:
        if self._state != "closed":
            _LOG.warning("circuit breaker closed: probe run succeeded")
        self._state = "closed"
        self._crashes = 0

    def record_crash(self) -> None:
        self._crashes += 1
        if self._state == "half-open" or self._crashes >= self.threshold:
            self._state = "open"
            self._opened_at = self.clock()
            _LOG.warning(
                "circuit breaker open after %d consecutive pool crash(es); "
                "shedding for %.1fs",
                self._crashes,
                self.cooldown,
            )


@dataclass
class _Job:
    """One cold submission in flight (queued or executing)."""

    spec: RunSpec
    key: str
    deadline: float | None
    future: Future = field(default_factory=Future)


def _done_future(payload: bytes) -> Future:
    future: Future = Future()
    future.set_result(payload)
    return future


def _settle(future: Future, *, payload: bytes | None = None,
            error: BaseException | None = None) -> None:
    """Resolve a future exactly once (drain may have failed it already)."""
    if future.done():
        return
    if error is not None:
        future.set_exception(error)
    else:
        assert payload is not None
        future.set_result(payload)


class SweepService:
    """The daemon core: admission, dedup, dispatch, breaker, drain."""

    def __init__(
        self,
        runner: ExperimentRunner,
        *,
        queue_limit: int = 64,
        default_deadline_seconds: float | None = 300.0,
        drain_timeout: float = 30.0,
        shed_retry_after: float = 1.0,
        memo_entries: int = 256,
        breaker: CircuitBreaker | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """``runner`` executes the cold runs (build it with
        ``keep_pool=True`` so the supervised pool stays warm across
        requests); ``queue_limit`` bounds admitted-but-unstarted jobs;
        ``default_deadline_seconds`` applies when a request carries no
        deadline (``None`` = wait forever); ``shed_retry_after`` is the
        ``Retry-After`` hint sent with 429s.
        """
        self.runner = runner
        self.queue_limit = max(1, queue_limit)
        self.default_deadline_seconds = default_deadline_seconds
        self.drain_timeout = drain_timeout
        self.shed_retry_after = shed_retry_after
        self.memo_entries = max(0, memo_entries)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._clock = clock
        self._cond = threading.Condition()
        self._queue: deque[_Job] = deque()
        self._jobs: dict[str, _Job] = {}        # single-flight index
        self._inflight: list[_Job] = []
        self._memo: OrderedDict[str, bytes] = OrderedDict()
        self._draining = False
        self._stopped = False
        self._thread: threading.Thread | None = None
        self._started_at = clock()

        registry = CounterRegistry()
        self.registry = registry
        self._requests = registry.counter("serve.requests")
        self._memo_hits = registry.counter("serve.memo_hits")
        self._disk_hits = registry.counter("serve.disk_hits")
        self._dedup_hits = registry.counter("serve.dedup_hits")
        self._cold_submits = registry.counter("serve.cold_submits")
        self._cold_runs = registry.counter("serve.cold_runs")
        self._shed = registry.counter("serve.shed")
        self._unavailable = registry.counter("serve.unavailable")
        self._deadline_expired = registry.counter("serve.deadline_expired")
        self._run_failures = registry.counter("serve.run_failures")
        registry.bind_gauge("serve.queue_depth", lambda: len(self._queue))
        registry.bind_gauge("serve.inflight", lambda: len(self._inflight))
        registry.bind_gauge(
            "serve.breaker_state", lambda: BREAKER_GAUGE[self.breaker.state]
        )
        registry.bind_counter("runner.cache_hits", lambda: runner.cache_hits)
        registry.bind_counter(
            "runner.runs_executed", lambda: runner.runs_executed
        )
        registry.bind_counter("runner.quarantined", lambda: runner.quarantined)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Arm the dispatch thread and journal the (possibly resumed) boot."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        resumed = 0
        if self.runner.journal is not None:
            # Reading the journal exercises the truncation-tolerant
            # resume path; the count makes restarts auditable.
            resumed = len(self.runner.journal.read())
        usage = self.runner.cache_usage()
        self._journal(
            "serve_start",
            journal_records=resumed,
            cached_shards=usage["shards"],
        )
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch", daemon=True
        )
        self._thread.start()

    def ready(self) -> bool:
        """Readiness: accepting work and the breaker is not open."""
        return not (self._draining or self._stopped) and (
            self.breaker.state != "open"
        )

    def begin_drain(self) -> None:
        """Stop admission; queued and in-flight work keeps running."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def shutdown(self, *, drain_timeout: float | None = None) -> bool:
        """Drain and stop.  Returns True when everything settled in time.

        Admission stops immediately (submissions answer 503); the
        dispatch thread finishes the queue; anything still unsettled at
        the timeout is journaled (``serve_abandon``) and its waiters are
        failed with a retriable 503 — the results of *completed* runs
        are already durable in the shard store, so a restarted daemon
        serves them without recomputation.
        """
        timeout = self.drain_timeout if drain_timeout is None else drain_timeout
        self.begin_drain()
        if self._thread is not None:
            self._thread.join(timeout)
        drained = self._thread is None or not self._thread.is_alive()
        with self._cond:
            self._stopped = True
            leftovers = list(self._queue) + list(self._inflight)
            self._queue.clear()
            self._cond.notify_all()
        if leftovers:
            self._journal(
                "serve_abandon", keys=sorted(job.key for job in leftovers)
            )
            for job in leftovers:
                _settle(
                    job.future,
                    error=ServiceUnavailableError(
                        "daemon stopped before the run settled; resubmit "
                        "after restart (completed work is cached)"
                    ),
                )
        self.runner.close()
        self._journal("serve_stop", drained=drained)
        return drained

    def _journal(self, event: str, **fields: Any) -> None:
        if self.runner.journal is not None:
            self.runner.journal.append(event, **fields)

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #

    def submit(
        self, spec: RunSpec, deadline_seconds: float | None = None
    ) -> tuple[Future, str]:
        """Admit one spec; returns ``(future, source)``.

        ``source`` is where the result comes from (``memo`` / ``disk`` /
        ``dedup`` / ``cold``); memo and disk futures are already
        resolved.  Raises :class:`ServiceUnavailableError` (draining or
        breaker open) or :class:`ServerOverloadedError` (queue full).
        """
        spec = spec.resolve()
        key = spec.cache_key()
        self._requests.inc()
        with self._cond:
            self._check_accepting()
            payload = self._memo.get(key)
            if payload is not None:
                self._memo.move_to_end(key)
                self._memo_hits.inc()
                return _done_future(payload), "memo"
            job = self._jobs.get(key)
            if job is not None:
                return self._attach(job, deadline_seconds), "dedup"
        # Disk probe outside the lock: a slow filesystem must not block
        # admission of unrelated requests.
        payload = self.runner.cached_payload(spec)
        with self._cond:
            self._check_accepting()
            if payload is not None:
                self._disk_hits.inc()
                self._remember(key, payload)
                return _done_future(payload), "disk"
            job = self._jobs.get(key)
            if job is not None:  # lost a race with an identical submitter
                return self._attach(job, deadline_seconds), "dedup"
            retry_after = self.breaker.admit()
            if retry_after is not None:
                self._unavailable.inc()
                raise ServiceUnavailableError(
                    "circuit breaker open (worker pool crashing); "
                    f"retry in {retry_after:.1f}s",
                    retry_after=retry_after,
                )
            if len(self._queue) >= self.queue_limit:
                self._shed.inc()
                raise ServerOverloadedError(
                    f"admission queue full ({self.queue_limit} cold jobs); "
                    "retry after backing off",
                    retry_after=self.shed_retry_after,
                )
            job = _Job(spec, key, self._deadline(deadline_seconds))
            self._jobs[key] = job
            self._queue.append(job)
            self._cold_submits.inc()
            self._cond.notify_all()
            return job.future, "cold"

    def _check_accepting(self) -> None:
        if self._draining or self._stopped:
            self._unavailable.inc()
            raise ServiceUnavailableError(
                "daemon is draining; completed results remain cached"
            )

    def _attach(self, job: _Job, deadline_seconds: float | None) -> Future:
        """Join an in-flight identical spec (single-flight dedup)."""
        self._dedup_hits.inc()
        deadline = self._deadline(deadline_seconds)
        if job.deadline is not None:
            # The job must survive for its most patient waiter.
            job.deadline = None if deadline is None else max(
                job.deadline, deadline
            )
        return job.future

    def _deadline(self, deadline_seconds: float | None) -> float | None:
        seconds = (
            deadline_seconds
            if deadline_seconds is not None
            else self.default_deadline_seconds
        )
        if seconds is None:
            return None
        return self._clock() + seconds

    def _remember(self, key: str, payload: bytes) -> None:
        if self.memo_entries <= 0:
            return
        self._memo[key] = payload
        self._memo.move_to_end(key)
        while len(self._memo) > self.memo_entries:
            self._memo.popitem(last=False)

    # ------------------------------------------------------------------ #
    # Dispatch (single thread; owns the runner and its pool)
    # ------------------------------------------------------------------ #

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not (self._draining or self._stopped):
                    self._cond.wait(_POLL_SECONDS)
                if not self._queue:
                    break  # draining/stopped with an empty queue: done
                if not self.breaker.allow_probe():
                    # Breaker open mid-cooldown: keep queued jobs parked
                    # (admission already sheds new ones).
                    self._cond.wait(
                        min(_POLL_SECONDS, self.breaker.retry_after() or
                            _POLL_SECONDS)
                    )
                    continue
                if self.breaker.state == "half-open":
                    batch = [self._queue.popleft()]
                else:
                    batch = list(self._queue)
                    self._queue.clear()
                self._inflight = batch
            try:
                self._execute_batch(batch)
            except Exception as error:  # noqa: BLE001 - the loop must survive
                _LOG.exception("serve dispatch: batch failed unexpectedly")
                self.breaker.record_crash()
                for job in batch:
                    _settle(
                        job.future,
                        error=ServiceUnavailableError(
                            f"internal execution failure: {error}"
                        ),
                    )
            finally:
                with self._cond:
                    self._inflight = []
                    for job in batch:
                        self._jobs.pop(job.key, None)
                    self._cond.notify_all()

    def _execute_batch(self, batch: list[_Job]) -> None:
        now = self._clock()
        live: list[_Job] = []
        for job in batch:
            if job.deadline is not None and job.deadline <= now:
                self._deadline_expired.inc()
                _settle(
                    job.future,
                    error=DeadlineExceededError(
                        f"deadline expired while queued: {job.spec.label}"
                    ),
                )
            else:
                live.append(job)
        if not live:
            return
        # Deadline propagation: the batch runs under the tightest
        # remaining budget (conservative for mixed-deadline batches; the
        # breaker-probe path batches singly, so probes are exact).
        budgets = [
            job.deadline - now for job in live if job.deadline is not None
        ]
        timeout = self.runner.run_timeout
        if budgets:
            tightest = max(0.1, min(budgets))
            timeout = tightest if timeout is None else min(timeout, tightest)
        results = self.runner.run_many(
            [job.spec for job in live],
            run_timeout=timeout,
            force_pool=True,
        )
        for job in live:
            payload_results = results.get(job.spec)
            if payload_results is not None:
                payload = encode_result_shard(
                    job.spec.descriptor(), payload_results
                )
                with self._cond:
                    self._remember(job.key, payload)
                self._cold_runs.inc()
                self.breaker.record_success()
                _settle(job.future, payload=payload)
                continue
            self._run_failures.inc()
            failure = self.runner.failures.get(job.spec)
            if failure is not None:
                if failure.kind == "crash":
                    self.breaker.record_crash()
                _settle(job.future, error=RunFailedError(failure))
            else:  # pragma: no cover - run_many lost a spec silently
                _settle(
                    job.future,
                    error=ServiceUnavailableError(
                        f"no result produced for {job.spec.label}"
                    ),
                )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> dict[str, Any]:
        """The ``/statz`` payload: state + counters + derived rates."""
        requests = self._requests.read()
        hits = (
            self._memo_hits.read()
            + self._disk_hits.read()
            + self._dedup_hits.read()
        )
        return {
            "protocol": protocol.PROTOCOL,
            "ready": self.ready(),
            "draining": self._draining,
            "breaker": self.breaker.state,
            "uptime_seconds": round(self._clock() - self._started_at, 3),
            "cache_hit_rate": round(hits / requests, 4) if requests else 0.0,
            "counters": self.registry.snapshot(),
        }


# ---------------------------------------------------------------------- #
# HTTP transport
# ---------------------------------------------------------------------- #


#: Longest request or header line, and most header lines per request
#: (the limits ``http.server`` applies).
_MAX_LINE = 65536
_MAX_HEADERS = 100

_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)


def _http_date() -> str:
    """The current time as an HTTP ``Date`` value (IMF-fixdate)."""
    now = time.gmtime()
    return "%s, %02d %s %04d %02d:%02d:%02d GMT" % (
        _DAYS[now.tm_wday], now.tm_mday, _MONTHS[now.tm_mon - 1],
        now.tm_year, now.tm_hour, now.tm_min, now.tm_sec,
    )


class _Rejected(Exception):
    """A request the transport refuses before routing it."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _ServeHandler(socketserver.StreamRequestHandler):
    """A small HTTP/1.1 server routing the wire protocol onto a
    :class:`SweepService`.

    It parses what the protocol uses: a request line, bounded header
    lines, a ``Content-Length`` body and keep-alive.  ``http.server``
    would do the same, but it imports ``http.client`` and with it
    ``email`` and OpenSSL, in the daemon and in every pool worker it
    forks.
    """

    server_version = "mnpusim-serve/1"
    #: Each response leaves in one send, but one longer than a segment
    #: ends in a short one, which Nagle would hold until the client's
    #: delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    #: Socket read timeout: a stalled client costs one thread for at most
    #: this long, never forever.
    timeout = 30.0

    @property
    def service(self) -> SweepService:
        return self.server.service  # type: ignore[attr-defined]

    def handle(self) -> None:
        try:
            # Set per request: close the connection after the response.
            self.close_connection = False
            while not self.close_connection:
                self._handle_one()
        except (ConnectionError, TimeoutError) as error:
            _LOG.debug("%s: connection dropped: %r", self.client_address[0], error)

    def _handle_one(self) -> None:
        """Read one request and answer it."""
        self.close_connection = True
        line = self.rfile.readline(_MAX_LINE + 1)
        if not line:
            return  # the client closed the connection
        if not line.strip():
            self.close_connection = False  # a stray CRLF between requests
            return
        self.requestline = line.decode("latin-1").rstrip("\r\n")
        try:
            if len(line) > _MAX_LINE:
                raise _Rejected(414, "request line too long")
            words = self.requestline.split()
            if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
                raise _Rejected(
                    400, f"malformed request line: {self.requestline[:80]!r}"
                )
            method, self.path, version = words
            self.headers = self._read_headers()
            route = {"GET": self.do_GET, "POST": self.do_POST}.get(method)
            if route is None:
                raise _Rejected(501, f"unsupported method: {method[:80]}")
        except _Rejected as rejection:
            self._respond_error("protocol", str(rejection), status=rejection.status)
            return
        tokens = self.headers.get("connection", "").lower().split(",")
        self.close_connection = version == "HTTP/1.0" or "close" in map(
            str.strip, tokens
        )
        route()

    def _read_headers(self) -> dict[str, str]:
        """The request's header fields, names lower-cased."""
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                raise _Rejected(431, "header line too long")
            if not line.strip():
                return headers
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or not name or name != name.strip():
                raise _Rejected(400, "malformed header line")
            headers[name.lower()] = value.strip()
        raise _Rejected(431, f"more than {_MAX_HEADERS} header lines")

    # -- responses ----------------------------------------------------- #

    def _respond(
        self,
        status: int,
        body: bytes,
        *,
        headers: dict[str, str] | None = None,
    ) -> None:
        lines = [
            f"HTTP/1.1 {status} {http.HTTPStatus(status).phrase}",
            f"Server: {self.server_version}",
            f"Date: {_http_date()}",
            f"{protocol.PROTOCOL_HEADER}: {protocol.PROTOCOL}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
        if self.close_connection:
            lines.append("Connection: close")
        lines.append("\r\n")
        self.wfile.write("\r\n".join(lines).encode("latin-1") + body)
        _LOG.debug('%s "%s" %d', self.client_address[0], self.requestline, status)

    def _respond_error(
        self,
        code: str,
        message: str,
        *,
        retry_after: float | None = None,
        status: int | None = None,
        **extra: Any,
    ) -> None:
        headers = {}
        if retry_after is not None:
            # HTTP Retry-After is integral seconds; round up so clients
            # never come back early.
            headers["Retry-After"] = str(max(1, int(retry_after + 0.999)))
        self._respond(
            status if status is not None else protocol.error_status(code),
            protocol.encode_error(
                code, message, retry_after=retry_after, **extra
            ),
            headers=headers,
        )

    def _refuse_body(self, message: str, status: int) -> None:
        """A typed protocol error sent without reading the request body;
        the unread body would garble the next request, so the connection
        closes."""
        self.close_connection = True
        self._respond_error("protocol", message, status=status)

    # -- routes -------------------------------------------------------- #

    def do_GET(self) -> None:  # noqa: N802 - the HTTP method name
        if self.path == protocol.HEALTH_PATH:
            self._respond(200, b'{"status": "ok"}')
        elif self.path == protocol.READY_PATH:
            service = self.service
            if service.ready():
                self._respond(200, b'{"status": "ready"}')
            else:
                reason = (
                    "draining" if service._draining else
                    f"breaker {service.breaker.state}"
                )
                self._respond_error(
                    "unavailable",
                    f"not ready: {reason}",
                    retry_after=service.breaker.retry_after() or None,
                )
        elif self.path == protocol.STATS_PATH:
            body = json.dumps(self.service.stats(), sort_keys=True).encode()
            self._respond(200, body)
        else:
            self._respond_error(
                "protocol", f"no such path: {self.path}", status=404
            )

    def do_POST(self) -> None:  # noqa: N802 - the HTTP method name
        if self.path != protocol.RUN_PATH:
            self._refuse_body(f"no such path: {self.path}", 404)
            return
        try:
            length = int(self.headers.get("content-length", ""))
        except ValueError:
            self._refuse_body("Content-Length required", 411)
            return
        if length < 0:
            self._refuse_body("Content-Length must not be negative", 400)
            return
        if length > protocol.MAX_BODY_BYTES:
            self._refuse_body(
                f"body exceeds {protocol.MAX_BODY_BYTES} bytes", 413
            )
            return
        try:
            request = protocol.decode_request(self.rfile.read(length))
        except ProtocolError as error:
            self._respond_error("protocol", str(error))
            return
        service = self.service
        try:
            future, source = service.submit(
                request.spec, request.deadline_seconds
            )
        except ServerOverloadedError as error:
            self._respond_error(
                "overloaded", str(error), retry_after=error.retry_after
            )
            return
        except ServiceUnavailableError as error:
            self._respond_error(
                "unavailable", str(error), retry_after=error.retry_after
            )
            return
        wait = request.deadline_seconds
        if wait is None:
            wait = service.default_deadline_seconds
        try:
            payload = future.result(timeout=wait)
        except FutureTimeoutError:
            self._respond_error(
                "deadline",
                f"deadline expired awaiting {request.spec.label}",
            )
            return
        except DeadlineExceededError as error:
            self._respond_error("deadline", str(error))
            return
        except RunFailedError as error:
            failure = error.failure
            self._respond_error(
                "run-failed",
                str(error),
                kind=failure.kind,
                label=failure.label,
                attempts=failure.attempts,
            )
            return
        except ServiceUnavailableError as error:
            self._respond_error(
                "unavailable", str(error), retry_after=error.retry_after
            )
            return
        self._respond(
            200,
            payload,
            headers={
                protocol.KEY_HEADER: request.spec.cache_key(),
                protocol.SOURCE_HEADER: source,
            },
        )


class _ServeHTTPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: SweepService


class ServeDaemon:
    """Bind a :class:`SweepService` to a listening HTTP socket."""

    def __init__(
        self,
        service: SweepService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self._httpd = _ServeHTTPServer((host, port), _ServeHandler)
        self._httpd.service = service
        self._thread: threading.Thread | None = None
        self._stop_requested = threading.Event()

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Start the dispatch thread and the HTTP accept loop."""
        self.service.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="serve-http",
            daemon=True,
        )
        self._thread.start()

    def request_stop(self) -> None:
        """Signal-handler-safe shutdown request (sets an event only)."""
        self._stop_requested.set()

    def wait_for_stop(self, timeout: float | None = None) -> bool:
        return self._stop_requested.wait(timeout)

    def stop(self, *, drain_timeout: float | None = None) -> bool:
        """Drain the service, then close the socket.  True = clean drain.

        The HTTP listener stays up through the drain so late clients get
        a typed 503 (and in-flight waiters get their results) instead of
        a connection refusal.
        """
        drained = self.service.shutdown(drain_timeout=drain_timeout)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
        return drained
