"""sha256 without OpenSSL.

``import hashlib`` loads ``_hashlib``, which maps ``libcrypto`` (about
3.6 MB of resident memory) into every process that imports it.  The
content addresses here need only sha256, and CPython builds it into a
module that does not link OpenSSL: ``_sha2`` (3.12+) or ``_sha256``
(3.10/3.11).  The digest is the standard algorithm, so every shard
sidecar and spec key is the same bytes ``hashlib`` would give.  An
interpreter built without the builtin sha256 falls back to ``hashlib``.
"""

from __future__ import annotations

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # pragma: no cover - builtin sha256 compiled out
        from hashlib import sha256

__all__ = ["sha256"]
