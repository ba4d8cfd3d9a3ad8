"""Persistent cache for spectrum value lists, keyed by operation parameters.

An entry is a file named by a hash of its key. It holds three parts, each
ended by a newline except the last: the key as one canonical JSON line, the
sha256 of the body in hex, and the body, one decimal value per line (empty
for an empty family). A read hashes the body bytes it read, compares the
key line and checks that every line is ASCII digits; an entry that fails a
check is discarded, and one that cannot be read or split is a miss, so the
caller recomputes either way. Writes go through a temporary file and an
atomic rename, so concurrent readers never observe partial entries.
"""

from __future__ import annotations

import json
import os
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


def _sha256(data: bytes) -> str:
    import hashlib  # here, not at module level: only a command that uses the cache pays for the import

    return hashlib.sha256(data).hexdigest()


class SpectrumCache:
    """File-backed store of decimal-string lists, each checksummed over the bytes written."""

    def __init__(self, root: Path | None = None, enabled: bool = True):
        # a disabled cache never looks up the default directory, whose lookup may need a home directory
        self.root = Path(root) if root is not None else default_cache_dir() if enabled else None
        self.enabled = enabled

    def _path(self, key: dict) -> Path:
        # still .json: an entry in the older JSON format fails the key-line check and is replaced, not orphaned
        digest = _sha256(_canonical(key))
        return self.root / f"{digest}.json"

    def get(self, key: dict) -> list[str] | None:
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            head, digest, body = path.read_bytes().split(b"\n", 2)
        except (OSError, ValueError):
            return None
        lines = body.split(b"\n") if body else []
        # bytes.isdigit is ASCII-only and false on an empty line
        if (
            head != _canonical(key)
            or digest != _sha256(body).encode()
            or not all(map(bytes.isdigit, lines))
        ):
            # corrupt, stale or malformed entry: drop it so the caller recomputes
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return [line.decode() for line in lines]

    def put(self, key: dict, values: list[str]) -> None:
        if not self.enabled:
            return
        import tempfile  # here, not at module level, like hashlib in _sha256

        body = "\n".join(values).encode()
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.writelines((_canonical(key), b"\n", _sha256(body).encode(), b"\n", body))
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
