"""Crash-safe content shards: atomic writes, checksums, quarantine.

Both on-disk caches — the experiment runner's result shards in
``.repro_cache/`` and the compile frontend's trace shards in
``.repro_cache/traces/`` — need the same durability contract:

* **Atomic publication.**  A shard is written to a unique temp file and
  published with ``os.replace``, so readers only ever observe an absent
  or a complete file, even with concurrent runners sharing one
  directory.
* **Integrity sidecar.**  Each shard carries a ``<name>.sum`` sidecar
  holding the sha256 of the payload.  The shard's *own* byte format
  never changes for integrity metadata (the golden-equivalence suite
  pins result-shard bytes), which is why the checksum lives next to the
  shard instead of inside it.
* **Quarantine, never crash.**  A shard that fails validation — torn
  JSON, version/descriptor mismatch, checksum mismatch — is moved to a
  ``quarantine/`` subdirectory with a logged warning, and the caller
  simply regenerates it.  Corruption costs one re-run, not a sweep.

:class:`ShardStore` packages that contract once;
:class:`~repro.experiments.runner.ExperimentRunner` and
:class:`~repro.compute.tracecache.TraceCache` both build on it.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any, Callable

from repro.digest import sha256

_LOG = logging.getLogger("repro.storage")

#: Subdirectory of a store holding quarantined corrupt shards.
QUARANTINE_DIR = "quarantine"


def encode_result_shard(descriptor: dict[str, Any], results: list[Any]) -> bytes:
    """The canonical result-shard byte encoding.

    This exact byte sequence is what the experiment runner publishes to
    disk *and* what ``mnpusim serve`` returns over HTTP, so a served
    payload's sha256 always matches the shard a cold CLI run of the same
    spec would write.  The format is pinned by the golden-equivalence
    suite — do not change it without bumping ``RESULTS_VERSION``.
    """
    return json.dumps(
        {"descriptor": descriptor, "results": results}, indent=1
    ).encode("utf-8")


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` so readers only ever see absent or complete files.

    The temp name embeds the pid, so concurrent runners sharing one
    cache directory never clobber each other's in-progress writes;
    ``os.replace`` makes publication atomic on POSIX filesystems.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def checksum_path(path: Path) -> Path:
    """The sha256 sidecar file belonging to a shard."""
    return path.with_name(path.name + ".sum")


class ShardStore:
    """One directory of checksummed shards with a quarantine policy.

    ``on_quarantine(shard_name, reason)`` is invoked after a corrupt
    shard has been moved aside, so callers can count/journal the event.
    """

    def __init__(
        self,
        directory: Path,
        *,
        on_quarantine: Callable[[str, str], None] | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.on_quarantine = on_quarantine

    # ------------------------------------------------------------------ #

    def path(self, name: str) -> Path:
        """Absolute path of the shard called ``name``."""
        return self.directory / name

    @property
    def quarantine_dir(self) -> Path:
        return self.directory / QUARANTINE_DIR

    def write(self, name: str, payload: bytes) -> Path:
        """Atomically publish ``payload`` as shard ``name`` + its sidecar."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path(name)
        atomic_write_bytes(path, payload)
        atomic_write_bytes(
            checksum_path(path),
            sha256(payload).hexdigest().encode("ascii"),
        )
        return path

    def read_bytes(self, name: str) -> bytes | None:
        """Raw shard bytes, or ``None`` when the shard does not exist."""
        try:
            return self.path(name).read_bytes()
        except OSError:
            return None

    def checksum_ok(self, name: str, raw: bytes) -> bool:
        """True when the sidecar is absent (legacy shard) or matches."""
        try:
            expected = checksum_path(self.path(name)).read_text("ascii").strip()
        except OSError:
            return True  # sidecar optional: pre-existing caches lack it
        return not expected or expected == sha256(raw).hexdigest()

    def read_validated(
        self,
        name: str,
        validate: Callable[[bytes], tuple[Any, str | None]],
    ) -> Any:
        """Read + validate shard ``name``; quarantine anything unsound.

        ``validate(raw)`` returns ``(value, None)`` for a sound shard or
        ``(None, reason)`` otherwise; the checksum sidecar is verified
        only for semantically-valid shards (mirroring the historical
        runner behaviour, so quarantine reasons stay stable).  Returns
        the validated value, or ``None`` when the shard is absent or was
        quarantined.
        """
        raw = self.read_bytes(name)
        if raw is None:
            return None
        value, reason = validate(raw)
        if value is not None and not self.checksum_ok(name, raw):
            value, reason = None, "payload checksum mismatch"
        if value is None:
            self.quarantine(name, reason or "unknown corruption")
            return None
        return value

    def quarantine(self, name: str, reason: str) -> None:
        """Move a corrupt shard (and its sidecar) out of the store."""
        path = self.path(name)
        quarantine = self.quarantine_dir
        quarantine.mkdir(parents=True, exist_ok=True)
        target = quarantine / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = quarantine / f"{path.name}.{suffix}"
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - lost a race with another runner
            path.unlink(missing_ok=True)
        checksum_path(path).unlink(missing_ok=True)
        _LOG.warning(
            "quarantined corrupt cache shard %s (%s); it will be regenerated",
            path.name,
            reason,
        )
        if self.on_quarantine is not None:
            self.on_quarantine(path.name, reason)

    # ------------------------------------------------------------------ #
    # Maintenance (the ``mnpusim cache`` subcommand)
    # ------------------------------------------------------------------ #

    def shard_names(self, suffix: str = ".json") -> list[str]:
        """Names of the shards currently in the store (sidecars excluded).

        An absent or unreadable directory is an empty store, never an
        error — ``mnpusim cache stats`` must work before any run exists.
        """
        try:
            return sorted(
                entry.name
                for entry in self.directory.iterdir()
                if entry.is_file() and entry.name.endswith(suffix)
            )
        except OSError:
            return []

    def usage(self, suffix: str = ".json") -> dict[str, int]:
        """Disk usage: ``shards``/``bytes`` plus quarantine count/bytes.

        The quarantine numbers make the store's *hidden* disk footprint
        inspectable — quarantined shards are dead weight that only
        ``clear_quarantine`` reclaims, so a long-running daemon's
        operator needs to see them growing.
        """
        shards = self.shard_names(suffix)
        total = 0
        for name in shards:
            try:
                total += self.path(name).stat().st_size
            except OSError:  # pragma: no cover - racing deletion
                pass
        quarantined = 0
        quarantine_bytes = 0
        try:
            for entry in self.quarantine_dir.iterdir():
                if not entry.is_file():
                    continue
                quarantined += 1
                try:
                    quarantine_bytes += entry.stat().st_size
                except OSError:  # pragma: no cover - racing cleanup
                    pass
        except OSError:  # absent quarantine dir, or racing cleanup
            pass
        return {
            "shards": len(shards),
            "bytes": total,
            "quarantined": quarantined,
            "quarantine_bytes": quarantine_bytes,
        }

    def clear(self, suffix: str = ".json") -> int:
        """Delete every shard (+sidecar) in the store; returns the count."""
        removed = 0
        for name in self.shard_names(suffix):
            path = self.path(name)
            path.unlink(missing_ok=True)
            checksum_path(path).unlink(missing_ok=True)
            removed += 1
        return removed

    def clear_quarantine(self) -> int:
        """Delete every quarantined shard; returns the count removed."""
        removed = 0
        try:
            entries = list(self.quarantine_dir.iterdir())
        except OSError:  # absent quarantine dir: nothing to prune
            return 0
        for entry in entries:
            if not entry.is_file():
                continue
            try:
                entry.unlink()
            except OSError:  # pragma: no cover - racing cleanup
                continue
            removed += 1
        return removed
