"""``mnpusim serve`` — the sweep-as-a-service daemon.

* :mod:`repro.serve.protocol` — the typed HTTP/JSON wire format shared
  by server and client;
* :mod:`repro.serve.server` — the daemon: warm memo + disk cache,
  single-flight dedup, bounded admission with load shedding, deadline
  propagation, a circuit breaker around the worker pool, and graceful
  drain;
* :mod:`repro.serve.client` — the retrying client (backoff with jitter,
  ``Retry-After`` aware, deadline-bounded).
"""

from repro._lazy import lazy_exports

# Re-exports load on first use: the daemon never loads the client (and
# with it http.client and OpenSSL), and a client never loads the daemon.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.serve.client": ("ServeClient", "ServeResult"),
    "repro.serve.protocol": ("PROTOCOL",),
    "repro.serve.server": ("CircuitBreaker", "ServeDaemon", "SweepService"),
})

__all__ = [
    "PROTOCOL",
    "CircuitBreaker",
    "ServeClient",
    "ServeDaemon",
    "ServeResult",
    "SweepService",
]
