"""The serve daemon's typed HTTP/JSON wire protocol.

One module owns every byte that crosses the wire, so server and client
cannot drift: spec encoding (:func:`spec_to_wire` / :func:`spec_from_wire`),
run-request framing, the error envelope, and the status-code mapping
between HTTP and the typed :mod:`repro.errors` service exceptions.

Design rules:

* **Result payloads are shard bytes.**  A successful ``POST /v1/run``
  response body is *exactly* the result shard the spec's cold run writes
  to disk (:func:`repro.storage.encode_result_shard`), so a client can
  sha256 the body and compare it against any cache, local or remote.
* **Specs travel as field dicts**, not cache keys: the server re-derives
  the key itself, which makes submission idempotent (two clients posting
  the same spec converge on one cache entry) and keeps the client unable
  to poison the cache with a mismatched key/spec pair.
* **Errors are structured**: ``{"error": {"code", "message",
  "retry_after"?, ...}}`` with a small closed set of codes, each mapped
  to one HTTP status and one typed exception.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import (
    DeadlineExceededError,
    ProtocolError,
    RemoteRunFailedError,
    ServeError,
    ServerOverloadedError,
    ServiceUnavailableError,
)
from repro.experiments.spec import RunSpec

#: Protocol identity, sent as the ``X-Repro-Protocol`` header both ways.
#: Bump on breaking wire changes.
PROTOCOL = "repro-serve/1"

#: Routes.
RUN_PATH = "/v1/run"
HEALTH_PATH = "/healthz"
READY_PATH = "/readyz"
STATS_PATH = "/statz"

#: Headers.
PROTOCOL_HEADER = "X-Repro-Protocol"
KEY_HEADER = "X-Repro-Key"          #: the spec's cache key, echoed back
SOURCE_HEADER = "X-Repro-Source"    #: memo | disk | dedup | cold

#: Largest accepted request body; a RunSpec is a few hundred bytes, so
#: anything bigger is a confused or malicious client, not a big spec.
MAX_BODY_BYTES = 1 << 20

#: Where a served result came from.
SOURCES = ("memo", "disk", "dedup", "cold")

#: ``error.code`` -> (HTTP status, exception type).  The inverse mapping
#: (status -> code) is what the server uses when writing an error.
ERROR_CODES: dict[str, tuple[int, type[ServeError]]] = {
    "protocol": (400, ProtocolError),
    "overloaded": (429, ServerOverloadedError),
    "run-failed": (502, RemoteRunFailedError),
    "unavailable": (503, ServiceUnavailableError),
    "deadline": (504, DeadlineExceededError),
}

#: RunSpec fields a client may set.  ``version`` is deliberately not
#: wire-settable: the server's RESULTS_VERSION is authoritative, so an
#: old client can never fabricate cache keys for a different schema.
_SPEC_FIELDS = tuple(
    field.name for field in dataclasses.fields(RunSpec) if field.name != "version"
)


def spec_to_wire(spec: RunSpec) -> dict[str, Any]:
    """The JSON-ready field dict of a spec (``version`` omitted)."""
    payload = dataclasses.asdict(spec)
    payload.pop("version", None)
    payload["workloads"] = list(spec.workloads)
    if spec.ptw_split is not None:
        payload["ptw_split"] = list(spec.ptw_split)
    return payload


def spec_from_wire(payload: Mapping[str, Any]) -> RunSpec:
    """Rebuild (and resolve) a spec from its wire dict.

    Every constraint violation — unknown field, wrong shape, an invalid
    combination the :class:`RunSpec` constructor rejects — surfaces as
    :class:`ProtocolError` so the server can answer 400 instead of 500.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"spec must be an object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(_SPEC_FIELDS))
    if unknown:
        raise ProtocolError(f"unknown spec field(s): {', '.join(unknown)}")
    kwargs = dict(payload)
    workloads = kwargs.get("workloads")
    if not isinstance(workloads, (list, tuple)) or not all(
        isinstance(name, str) for name in workloads or ()
    ):
        raise ProtocolError("spec.workloads must be a list of strings")
    kwargs["workloads"] = tuple(workloads)
    if kwargs.get("ptw_split") is not None:
        split = kwargs["ptw_split"]
        if not isinstance(split, (list, tuple)):
            raise ProtocolError("spec.ptw_split must be a list of ints")
        kwargs["ptw_split"] = tuple(split)
    serving = kwargs.get("serving")
    if serving is not None and not isinstance(serving, Mapping):
        raise ProtocolError("spec.serving must be an object")
    try:
        if serving is not None:
            # Loaded only for serving specs, so other clients stay light.
            from repro.models.serving import ServingParams

            kwargs["serving"] = ServingParams(**serving)
        return RunSpec(**kwargs).resolve()
    except (TypeError, ValueError, KeyError) as error:
        # KeyError covers enum lookups (e.g. an unknown sharing level).
        raise ProtocolError(f"invalid spec: {error}") from error


@dataclass(frozen=True)
class RunRequest:
    """One ``POST /v1/run`` body: the spec plus an optional deadline.

    ``deadline_seconds`` is the client's *remaining* budget at send time
    (relative, so clock skew between client and server is irrelevant);
    the server propagates it into the run's wall-clock timeout and sheds
    the job with 504 if it expires while queued.
    """

    spec: RunSpec
    deadline_seconds: float | None = None


def encode_request(request: RunRequest) -> bytes:
    body: dict[str, Any] = {"spec": spec_to_wire(request.spec)}
    if request.deadline_seconds is not None:
        body["deadline_seconds"] = request.deadline_seconds
    return json.dumps(body, sort_keys=True).encode("utf-8")


def decode_request(raw: bytes) -> RunRequest:
    """Parse a run request; any malformation is a :class:`ProtocolError`."""
    if len(raw) > MAX_BODY_BYTES:
        raise ProtocolError(f"request body exceeds {MAX_BODY_BYTES} bytes")
    try:
        body = json.loads(raw)
    except ValueError as error:
        raise ProtocolError(f"request body is not valid JSON: {error}") from error
    if not isinstance(body, dict) or "spec" not in body:
        raise ProtocolError('request body must be {"spec": {...}}')
    unknown = sorted(set(body) - {"spec", "deadline_seconds"})
    if unknown:
        raise ProtocolError(f"unknown request field(s): {', '.join(unknown)}")
    deadline = body.get("deadline_seconds")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) or deadline != deadline:
            raise ProtocolError("deadline_seconds must be a number")
        if deadline <= 0:
            raise ProtocolError("deadline_seconds must be positive")
    return RunRequest(spec=spec_from_wire(body["spec"]), deadline_seconds=deadline)


def encode_error(
    code: str, message: str, *, retry_after: float | None = None, **extra: Any
) -> bytes:
    """The error envelope for one failed request."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    error: dict[str, Any] = {"code": code, "message": message, **extra}
    if retry_after is not None:
        error["retry_after"] = round(retry_after, 3)
    return json.dumps({"error": error}, sort_keys=True).encode("utf-8")


def error_status(code: str) -> int:
    """The HTTP status an error code travels under."""
    return ERROR_CODES[code][0]


def decode_error(status: int, raw: bytes) -> ServeError:
    """Turn an error response into its typed exception (client side).

    Unknown statuses and unparseable bodies degrade to
    :class:`ProtocolError` — a client must never crash on a garbled
    error path.
    """
    code = message = None
    retry_after = None
    extra: dict[str, Any] = {}
    try:
        envelope = json.loads(raw)
        error = envelope["error"]
        code = error["code"]
        message = error["message"]
        retry_after = error.get("retry_after")
        extra = {
            key: value
            for key, value in error.items()
            if key not in ("code", "message", "retry_after")
        }
    except (ValueError, KeyError, TypeError):
        pass
    if code not in ERROR_CODES or error_status(code) != status:
        return ProtocolError(
            f"unexpected server response (HTTP {status}): "
            + (message or raw[:200].decode("utf-8", "replace"))
        )
    expected_status, exc_type = ERROR_CODES[code]
    if exc_type in (ServerOverloadedError, ServiceUnavailableError):
        return exc_type(message, retry_after=retry_after)
    if exc_type is RemoteRunFailedError:
        return RemoteRunFailedError(
            message,
            kind=str(extra.get("kind", "error")),
            label=str(extra.get("label", "")),
            attempts=int(extra.get("attempts", 0) or 0),
        )
    return exc_type(message)
