"""Bundled reference data for merged chamber fans.

The merge steps (which walls disappear, what base locus each chamber
carries) are not derivable from the grading matrix alone, so they ship
as a JSON fixture.  The payload is checksummed; a mismatch, or a file
that is not JSON, means the file was damaged or edited by hand and is
treated as corruption (:class:`InternalError`), not as data.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .chambers import Chamber, Wall
from .errors import InternalError, NoReferenceData
from .reports import canonical_json, fan_from_report, space_from_json
from .spaces import SpaceSpec

_DATA_DIR = Path(__file__).resolve().parent / "data"
FIXTURE_NAME = "sbl_fixtures.json"

__all__ = [
    "SblFixture",
    "space_key",
    "fixture_path",
    "bundled_fan_keys",
    "bundled_spaces",
    "load_sbl_fixture",
]


@dataclass(frozen=True)
class SblFixture:
    key: str
    chambers: tuple[Chamber, ...]
    walls: tuple[Wall, ...]
    gkz_chamber_count: int
    notes: tuple[str, ...]


def space_key(s: SpaceSpec) -> str | None:
    """Fixture key for a space, or None when no key class exists.

    Wide formats share one key per n because the chamber coordinates do
    not depend on the number of columns, and every first-stage space of
    a given n has the same fan.
    """
    if s.stage is not None:
        return f"stage1-{s.n}" if s.stage == 1 else None
    if s.family == "quadrics":
        return f"quadrics-{s.n}"
    return f"collineations-{s.n}-{'eq' if s.n == s.m else 'wide'}"


def fixture_path(fixtures_dir: str | Path | None = None) -> Path:
    base = Path(fixtures_dir) if fixtures_dir is not None else _DATA_DIR
    return base / FIXTURE_NAME


def _load_payload(path: Path) -> dict:
    """The checksummed payload of a fixture file.

    Parsed payloads are cached by path, modification time and size, so a
    file rewritten in place is read again while repeated loads of an
    unchanged file cost one ``stat``.
    """
    if not path.is_file():
        raise NoReferenceData(f"no reference fixture file at {path}")
    st = path.stat()
    return _parse_payload(str(path), st.st_mtime_ns, st.st_size)


@lru_cache(maxsize=8)
def _parse_payload(path_str: str, mtime_ns: int, size: int) -> dict:
    try:
        doc = json.loads(Path(path_str).read_text(encoding="utf-8"))
    except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
        raise InternalError(f"fixture file {path_str} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise InternalError(f"fixture file {path_str} holds no JSON object")
    payload = doc.get("payload")
    digest = hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()
    if digest != doc.get("sha256"):
        raise InternalError(f"fixture checksum mismatch in {path_str}")
    return payload


def bundled_fan_keys(fixtures_dir: str | Path | None = None) -> tuple[str, ...]:
    payload = _load_payload(fixture_path(fixtures_dir))
    return tuple(sorted(payload["fans"]))


def bundled_spaces(fixtures_dir: str | Path | None = None) -> tuple[tuple[str, SpaceSpec], ...]:
    """Each bundled key with the representative space its fan was built from."""
    payload = _load_payload(fixture_path(fixtures_dir))
    return tuple(
        (key, space_from_json(payload["fans"][key]["space"]))
        for key in sorted(payload["fans"])
    )


def load_sbl_fixture(s: SpaceSpec,
                     fixtures_dir: str | Path | None = None) -> SblFixture:
    key = space_key(s)
    payload = _load_payload(fixture_path(fixtures_dir))
    entry = payload["fans"].get(key) if key else None
    if entry is None:
        raise NoReferenceData(f"no merged-fan data bundled for {s.describe()}")
    fan = fan_from_report(s, entry)
    return SblFixture(
        key=key,
        chambers=fan.chambers,
        walls=fan.walls,
        gkz_chamber_count=entry["meta"]["gkz_chamber_count"],
        notes=tuple(entry["fan"]["notes"]),
    )
