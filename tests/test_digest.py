"""``repro.digest`` gives exactly the digest ``hashlib`` gives.

Every content address in the repository goes through it: result-shard
checksum sidecars and ``RunSpec.cache_key`` (sha256).  A digest that
drifted from ``hashlib`` would silently re-key every cache on disk.
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
