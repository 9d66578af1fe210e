"""``repro.digest`` gives exactly the digests ``hashlib`` gives.

Every content address in the repository goes through it: result-shard
checksum sidecars, ``RunSpec.cache_key``, ``SystemConfig`` fingerprints
(sha256) and ``frontend_fingerprint`` (blake2b at its default 64-byte
size, hex-truncated).  A digest that drifted from ``hashlib`` would
silently re-key every cache on disk.
"""

import hashlib

import pytest

from repro import digest

PAYLOADS = {
    "empty": b"",
    "short": b'{"version":1,"engine":["os",1]}',
    "1MiB": bytes(range(256)) * 4096,
}


@pytest.mark.parametrize("payload", PAYLOADS.values(), ids=PAYLOADS.keys())
def test_sha256_matches_hashlib(payload):
    assert digest.sha256(payload).hexdigest() == hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("payload", PAYLOADS.values(), ids=PAYLOADS.keys())
@pytest.mark.parametrize("digest_size", [64, 32, 16])
def test_blake2b_matches_hashlib(payload, digest_size):
    ours = digest.blake2b(payload, digest_size=digest_size).hexdigest()
    assert ours == hashlib.blake2b(payload, digest_size=digest_size).hexdigest()
    if digest_size == 64:  # the default, as frontend_fingerprint calls it
        assert digest.blake2b(payload).hexdigest() == ours
