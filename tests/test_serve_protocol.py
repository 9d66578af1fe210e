"""Round-trip tests of the serve daemon's wire protocol.

Every encoder/decoder pair in :mod:`repro.serve.protocol` must be an
exact inverse — a spec that crosses the wire has to land on the same
cache key, and a typed error has to come back as the same typed error —
because the whole service contract (idempotent resubmission, dedup,
byte-identical payloads) rests on that.
"""

import json

import pytest

from repro.errors import (
    DeadlineExceededError,
    ProtocolError,
    RemoteRunFailedError,
    ServerOverloadedError,
    ServiceUnavailableError,
)
from repro.experiments.spec import RunSpec
from repro.models.serving import ServingParams
from repro.serve import protocol


def _specs():
    return [
        RunSpec.solo("ncf"),
        RunSpec.solo("ncf", channels=4, num_ptw=2, tlb_entries=32),
        RunSpec.mix(["ncf", "ncf"], "DWT"),
        RunSpec.mix(["ncf", "ncf"], "DW", ptw_split=(3, 1)),
        RunSpec.ideal("ncf", 2),
        RunSpec.solo("gpt2:decode", serving=ServingParams(moe_skew="zipf")),
    ]


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", _specs(), ids=lambda s: s.label)
    def test_wire_round_trip_preserves_cache_key(self, spec):
        wire = protocol.spec_to_wire(spec)
        json.dumps(wire)  # must be JSON-serializable as-is
        rebuilt = protocol.spec_from_wire(wire)
        assert rebuilt == spec.resolve()
        assert rebuilt.cache_key() == spec.resolve().cache_key()

    def test_version_is_not_wire_settable(self):
        wire = protocol.spec_to_wire(RunSpec.solo("ncf"))
        assert "version" not in wire
        wire["version"] = 1
        with pytest.raises(ProtocolError, match="unknown spec field"):
            protocol.spec_from_wire(wire)

    def test_unknown_field_rejected(self):
        wire = protocol.spec_to_wire(RunSpec.solo("ncf"))
        wire["workloadz"] = ["ncf"]
        with pytest.raises(ProtocolError, match="workloadz"):
            protocol.spec_from_wire(wire)

    @pytest.mark.parametrize("bad", ["ncf", [1, 2], None])
    def test_malformed_workloads_rejected(self, bad):
        wire = protocol.spec_to_wire(RunSpec.solo("ncf"))
        wire["workloads"] = bad
        with pytest.raises(ProtocolError, match="workloads"):
            protocol.spec_from_wire(wire)

    def test_invalid_spec_combination_is_protocol_error(self):
        wire = protocol.spec_to_wire(RunSpec.mix(["ncf", "ncf"], "DWT"))
        wire["sharing"] = "NOPE"
        with pytest.raises(ProtocolError, match="invalid spec"):
            protocol.spec_from_wire(wire)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("zipf", "serving must be an object"),
            ({"moe_skew": "zipf", "expertz": 4}, "invalid spec"),
            ({"moe_skew": "bogus"}, "invalid spec: unknown moe_skew"),
        ],
        ids=["not-object", "unknown-field", "invalid-value"],
    )
    def test_malformed_serving_rejected(self, bad, message):
        wire = protocol.spec_to_wire(
            RunSpec.solo("gpt2:decode", serving=ServingParams(moe_skew="zipf"))
        )
        wire["serving"] = bad
        with pytest.raises(ProtocolError, match=message):
            protocol.spec_from_wire(wire)

    def test_non_object_spec_rejected(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            protocol.spec_from_wire(["ncf"])


class TestRequestFraming:
    def test_round_trip_with_deadline(self):
        request = protocol.RunRequest(
            spec=RunSpec.solo("ncf"), deadline_seconds=12.5
        )
        decoded = protocol.decode_request(protocol.encode_request(request))
        assert decoded.deadline_seconds == 12.5
        assert decoded.spec.cache_key() == request.spec.resolve().cache_key()

    def test_round_trip_without_deadline(self):
        request = protocol.RunRequest(spec=RunSpec.solo("ncf"))
        decoded = protocol.decode_request(protocol.encode_request(request))
        assert decoded.deadline_seconds is None

    @pytest.mark.parametrize("deadline", [0, -1, "soon", float("nan")])
    def test_bad_deadline_rejected(self, deadline):
        body = json.loads(
            protocol.encode_request(protocol.RunRequest(RunSpec.solo("ncf")))
        )
        body["deadline_seconds"] = deadline
        with pytest.raises(ProtocolError, match="deadline_seconds"):
            protocol.decode_request(json.dumps(body).encode())

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"", "not valid JSON"),
            (b"not json", "not valid JSON"),
            (b"[]", "must be"),
            (b'{"no_spec": 1}', "must be"),
            (
                b'{"spec": {"kind": "solo", "workloads": ["ncf"],'
                b' "replay_mode": "auto"}}',
                r"unknown spec field\(s\): replay_mode",
            ),
        ],
        ids=["empty", "garbage", "array", "missing-spec", "spec-replay-mode"],
    )
    def test_malformed_body_rejected(self, raw, message):
        with pytest.raises(ProtocolError, match=message):
            protocol.decode_request(raw)

    def test_unknown_request_field_rejected(self):
        body = json.loads(
            protocol.encode_request(protocol.RunRequest(RunSpec.solo("ncf")))
        )
        body["priority"] = "high"
        with pytest.raises(ProtocolError, match="priority"):
            protocol.decode_request(json.dumps(body).encode())

    def test_oversized_body_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.decode_request(b" " * (protocol.MAX_BODY_BYTES + 1))


class TestErrorEnvelope:
    @pytest.mark.parametrize(
        "code,exc_type",
        [
            ("protocol", ProtocolError),
            ("overloaded", ServerOverloadedError),
            ("run-failed", RemoteRunFailedError),
            ("unavailable", ServiceUnavailableError),
            ("deadline", DeadlineExceededError),
        ],
    )
    def test_every_code_round_trips_to_its_type(self, code, exc_type):
        raw = protocol.encode_error(code, "boom")
        error = protocol.decode_error(protocol.error_status(code), raw)
        assert type(error) is exc_type
        assert "boom" in str(error)

    def test_retry_after_survives(self):
        raw = protocol.encode_error("overloaded", "full", retry_after=2.5)
        error = protocol.decode_error(429, raw)
        assert isinstance(error, ServerOverloadedError)
        assert error.retry_after == 2.5

    def test_run_failed_extras_survive(self):
        raw = protocol.encode_error(
            "run-failed", "sim died", kind="crash", label="solo_a", attempts=3
        )
        error = protocol.decode_error(502, raw)
        assert isinstance(error, RemoteRunFailedError)
        assert (error.kind, error.label, error.attempts) == ("crash", "solo_a", 3)

    def test_unknown_code_rejected_at_encode(self):
        with pytest.raises(ValueError, match="unknown error code"):
            protocol.encode_error("teapot", "short and stout")

    def test_garbled_body_degrades_to_protocol_error(self):
        error = protocol.decode_error(429, b"<html>gateway sadness</html>")
        assert isinstance(error, ProtocolError)
        assert "429" in str(error)

    def test_status_code_mismatch_degrades_to_protocol_error(self):
        # A proxy rewriting statuses must not produce a misleading type.
        raw = protocol.encode_error("overloaded", "full")
        error = protocol.decode_error(500, raw)
        assert isinstance(error, ProtocolError)
