"""Serialization: canonical JSON documents and plain-text tables.

Every integer coordinate is emitted as a decimal string so values above
2**53 survive JSON readers that parse numbers as doubles.  Documents are
rendered with sorted keys and no whitespace; repeated runs must produce
byte-identical output, which is why timing metadata is opt-in.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple, Sequence

from .chambers import Chamber, ChamberFan
from .cones import Cone
from .spaces import SpaceSpec

VERSION = "0.1.0"

__all__ = [
    "VERSION",
    "canonical_json",
    "vector_json",
    "vectors_json",
    "divisor_basis_labels",
    "curve_basis_labels",
    "space_json",
    "cone_report",
    "fan_report",
    "BenchRecord",
    "format_ns",
    "bench_table",
]


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def vector_json(v: Sequence[int]) -> list[str]:
    return [str(x) for x in v]


def vectors_json(vs: Sequence[Sequence[int]]) -> list[list[str]]:
    return [vector_json(v) for v in vs]


def divisor_basis_labels(s: SpaceSpec) -> list[str]:
    return ["H"] + [f"E_{h}" for h in range(1, s.picard_rank)]


def curve_basis_labels(s: SpaceSpec) -> list[str]:
    return ["l"] + [f"e_{h}" for h in range(1, s.picard_rank)]


def space_json(s: SpaceSpec) -> dict:
    return {"family": s.family, "n": s.n, "m": s.m, "stage": s.stage}


def _meta(duration_ns: int | None) -> dict:
    meta: dict[str, Any] = {"version": VERSION}
    if duration_ns is not None:
        meta["duration_ns"] = str(duration_ns)
    return meta


def cone_report(s: SpaceSpec, name: str, cone: Cone, *,
                duration_ns: int | None = None) -> dict:
    basis = curve_basis_labels(s) if name in ("mori", "movcurves") \
        else divisor_basis_labels(s)
    return {
        "space": space_json(s),
        "basis": basis,
        "cone": name,
        "rays": vectors_json(cone.rays),
        "ray_count": len(cone.rays),
        "facets": vectors_json(cone.facets),
        "meta": _meta(duration_ns),
    }


def _chamber_json(ch: Chamber) -> dict:
    return {
        "rays": vectors_json(ch.rays),
        "sample": vector_json(ch.sample),
        "label": ch.label,
        "pieces": [vectors_json(piece) for piece in ch.pieces],
        "erased": vectors_json(ch.erased_walls),
    }


def fan_report(fan: ChamberFan, *, duration_ns: int | None = None) -> dict:
    """The JSON document of a fan, in the basis of its own space."""
    return {
        "space": space_json(fan.space),
        "basis": divisor_basis_labels(fan.space),
        "fan": {
            "kind": fan.kind,
            "notes": list(fan.notes),
            "chambers": [_chamber_json(ch) for ch in fan.chambers],
            "walls": [
                {"first": w.first, "second": w.second,
                 "normal": vector_json(w.normal)}
                for w in fan.walls
            ],
        },
        "meta": _meta(duration_ns),
    }


class BenchRecord(NamedTuple):
    space: str
    expected: int
    measured: int
    duration_ns: int

    @property
    def ok(self) -> bool:
        return self.measured == self.expected


def format_ns(ns: int) -> str:
    # millisecond resolution, rendered with integer arithmetic only
    return f"{ns // 1_000_000_000}.{ns % 1_000_000_000 // 1_000_000:03d}s"


def bench_table(records: Sequence[BenchRecord]) -> str:
    # The work runs serially, so the threads column always reads 1; it stays
    # because readers of the table, perfbench among them, expect six fields.
    headers = ["space", "expected", "rays", "time", "threads", "status"]
    rows = [
        [r.space, str(r.expected), str(r.measured), format_ns(r.duration_ns),
         "1", "ok" if r.ok else "MISMATCH"]
        for r in records
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
