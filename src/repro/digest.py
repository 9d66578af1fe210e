"""sha256 and blake2b without OpenSSL.

``import hashlib`` loads ``_hashlib``, which maps ``libcrypto`` (about
3.6 MB of resident memory) into every process that imports it.  The
content addresses here need only two digests, and CPython builds both
into modules that do not link OpenSSL: ``_sha2`` (3.12+) or ``_sha256``
(3.10/3.11) for sha256, and ``_blake2`` for blake2b, which is the very
object ``hashlib.blake2b`` re-exports.  The digests are the standard
algorithms, so every shard sidecar, spec key and fingerprint is the
same bytes ``hashlib`` would give.  An interpreter built without the
builtin sha256 falls back to ``hashlib``.
"""

from __future__ import annotations

from _blake2 import blake2b

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # pragma: no cover - builtin sha256 compiled out
        from hashlib import sha256

__all__ = ["blake2b", "sha256"]
