"""Persistent cache for computed spectra, keyed by operation parameters.

Entries are JSON files named by a hash of their key. Payloads carry a
checksum that is verified on read; a corrupt or mismatching entry is
discarded and recomputed. Writes go through a temporary file and an atomic
rename, so concurrent readers never observe partial entries.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

ENV_VAR = "CLASS_SPECTRUM_CACHE"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "class-spectrum"


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class SpectrumCache:
    """File-backed key/payload store with checksum validation."""

    def __init__(self, root: Path | None = None, enabled: bool = True):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.enabled = enabled

    def _path(self, key: dict) -> Path:
        digest = hashlib.sha256(_canonical(key)).hexdigest()
        return self.root / f"{digest}.json"

    def get(self, key: dict) -> dict | None:
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        payload = entry.get("payload") if isinstance(entry, dict) else None
        if (
            not isinstance(payload, dict)
            or entry.get("key") != key
            or entry.get("checksum") != hashlib.sha256(_canonical(payload)).hexdigest()
        ):
            # corrupt, stale or malformed entry: drop it so the caller recomputes
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return payload

    def put(self, key: dict, payload: dict) -> None:
        if not self.enabled:
            return
        entry = {
            "key": key,
            "checksum": hashlib.sha256(_canonical(payload)).hexdigest(),
            "payload": payload,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle, sort_keys=True, indent=2)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
