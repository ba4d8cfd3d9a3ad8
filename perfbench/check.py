"""Reference comparison and failure accounting.

References are committed under ``reference/``. A record is compared on
the keys the reference lists and no others, so a program that adds a
field still matches, while a changed or missing field does not.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MAX_PROBLEMS = 20


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def digest(obj) -> str:
    """Short content hash of a JSON-able object."""
    return hashlib.sha256(canonical(obj)).hexdigest()[:16]


def project(record: dict, keys) -> dict | None:
    """record restricted to keys, or None when one of them is missing."""
    try:
        return {k: record[k] for k in keys}
    except KeyError:
        return None


def matches_digest(record: dict, keys, expected: str) -> bool:
    """Does record, restricted to the reference keys, hash to the reference digest?"""
    projected = project(record, keys)
    return projected is not None and digest(projected) == expected


def mismatched_keys(actual: dict, expected: dict) -> list[str]:
    """Keys of expected whose value in actual differs or is missing."""
    return sorted(k for k, v in expected.items() if k not in actual or actual[k] != v)


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


class Tally:
    """Operations attempted and failed; an operation is a certificate, a CLI request or a sweep."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(what)
        return ok

    def merge(self, attempted: int, failed: int, problems) -> None:
        """Add the counts of a pass that was checked in another process."""
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems[: max(0, MAX_PROBLEMS - len(self.problems))])

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
