"""Regenerate the bundled merged-fan fixture file.

Computes the chamber fan for every supported space class, attaches the
base-locus labels and wall removals, validates samples and coverage,
and writes src/formcones/data/sbl_fixtures.json with a payload checksum.

Run from the repository root:  python3 tools/make_fixtures.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from formcones.chambers import Chamber, ChamberFan, Wall, gkz_fan, locate
from formcones.cones import cone_from_rays, intersect
from formcones.linalg import primitive
from formcones.reports import (
    VERSION,
    canonical_json,
    divisor_basis_labels,
    fan_report,
    space_json,
)
from formcones.spaces import collineations, quadrics

OUT = Path(__file__).resolve().parent.parent / "src" / "formcones" / "data" / "sbl_fixtures.json"

MCD_NOTE = "coincides with the Mori chamber decomposition"

EMPTY = "∅"          # no base locus
CUP = "∪"            # union of base loci


def rank2_labels(n: int, *, top: str | None = None) -> dict[frozenset, str]:
    def D(k):
        return (k, -(k - 1))

    labels = {frozenset({(0, 1), D(1)}): "E_1", frozenset({D(1), D(2)}): EMPTY}
    for k in range(2, n + 1):
        labels[frozenset({D(k), D(k + 1)})] = top if (top and k == n) else f"sec_{k}"
    return labels


# per key: (representative space, {chamber rays -> label}, [(piece A, piece B, merged label)])
def build_specs():
    D1, D2, D3 = (1, 0, 0), (2, -1, 0), (3, -2, -1)
    DM, E3 = (6, -3, -2), (4, -3, -2)
    E1, E2 = (0, 1, 0), (0, 0, 1)

    rank3_square = {
        frozenset({D1, D2, D3}): EMPTY,
        frozenset({D1, D3, DM}): "small",
        frozenset({D1, E1, DM}): "E_1",
        frozenset({DM, E1, E3}): f"E_1{CUP}E_3",
        frozenset({D3, E3, DM}): "E_3",
        frozenset({D3, E2, E3}): f"E_2{CUP}E_3",
        frozenset({D1, E1, E2}): f"E_1{CUP}E_2",
    }
    rank3_wide = {
        frozenset({D1, D2, D3}): EMPTY,
        frozenset({E1, D1, D3}): "E_1",
        frozenset({E1, D1, E2}): f"E_1{CUP}E_2",
    }
    merge_e2 = [(frozenset({D1, D2, E2}), frozenset({D2, D3, E2}), "E_2")]

    specs = {
        "collineations-3-eq": (collineations(3), rank3_square, merge_e2),
        "quadrics-3": (quadrics(3), rank3_square, merge_e2),
        "collineations-2-wide": (collineations(2, 3), rank3_wide, merge_e2),
        "collineations-2-eq": (collineations(2), rank2_labels(2, top="E_2"), []),
        "quadrics-2": (quadrics(2), rank2_labels(2, top="E_2"), []),
        "collineations-1-wide": (collineations(1, 2), rank2_labels(1), []),
    }
    for n in range(2, 11):
        specs[f"stage1-{n}"] = (collineations(n, stage=1), rank2_labels(n), [])
    return specs


def merge_fan(space, fan: ChamberFan, labels, merges) -> ChamberFan:
    rho = space.picard_rank
    by_rays = {frozenset(ch.rays): i for i, ch in enumerate(fan.chambers)}
    merged_of = {}
    new_chambers = []
    erased_walls = set()

    for a, b, label in merges:
        i, j = by_rays[a], by_rays[b]
        wall = [w for w in fan.walls if {w.first, w.second} == {i, j}]
        assert len(wall) == 1, f"pieces {i},{j} share {len(wall)} walls"
        erased_walls.add((min(i, j), max(i, j)))
        ci = cone_from_rays(rho, fan.chambers[i].rays)
        cj = cone_from_rays(rho, fan.chambers[j].rays)
        patch = intersect(ci, cj).rays
        sample = primitive(tuple(map(sum, zip(*patch))))
        rays = tuple(sorted(set(fan.chambers[i].rays) | set(fan.chambers[j].rays)))
        new_chambers.append(Chamber(
            rays=rays, sample=sample, label=label,
            pieces=(fan.chambers[i].rays, fan.chambers[j].rays),
            erased_walls=(wall[0].normal,),
        ))
        merged_of[i] = merged_of[j] = len(new_chambers) - 1

    for i, ch in enumerate(fan.chambers):
        if i in merged_of:
            continue
        label = labels[frozenset(ch.rays)]
        merged_of[i] = len(new_chambers)
        new_chambers.append(Chamber(rays=ch.rays, sample=ch.sample, label=label))

    order = sorted(range(len(new_chambers)), key=lambda i: new_chambers[i].rays)
    new_index = {old: new for new, old in enumerate(order)}
    chambers = tuple(new_chambers[i] for i in order)

    walls = []
    for w in fan.walls:
        if (w.first, w.second) in erased_walls:
            continue
        a = new_index[merged_of[w.first]]
        b = new_index[merged_of[w.second]]
        walls.append(Wall(min(a, b), max(a, b), w.normal))
    walls = sorted(set(walls), key=lambda w: (w.first, w.second, w.normal))
    return ChamberFan(space, chambers, tuple(walls), kind="sbl", notes=(MCD_NOTE,))


def validate(space, fan: ChamberFan, gkz: ChamberFan):
    pieces = {p for ch in fan.chambers for p in ch.convex_pieces()}
    assert pieces == {ch.rays for ch in gkz.chambers}, "pieces must cover the fan"
    assert all(ch.label for ch in fan.chambers), "every chamber needs a label"
    for i, ch in enumerate(fan.chambers):
        assert locate(fan, ch.sample) == i, \
            f"sample {ch.sample} does not locate to chamber {i}"


def build_payload() -> dict:
    """The fixture payload: every bundled fan, recomputed and merged."""
    fans = {}
    for key, (space, labels, merges) in sorted(build_specs().items()):
        gkz = gkz_fan(space)
        expect = {frozenset(r) for r in labels} | {a for a, _, _ in merges} \
            | {b for _, b, _ in merges}
        assert {frozenset(ch.rays) for ch in gkz.chambers} == expect, \
            f"{key}: computed chambers differ from the label table"
        fan = merge_fan(space, gkz, labels, merges)
        validate(space, fan, gkz)
        doc = fan_report(space, fan)
        doc["meta"]["gkz_chamber_count"] = len(gkz.chambers)
        fans[key] = doc
    return {"fans": fans}


def main():
    payload = build_payload()
    for key, doc in payload["fans"].items():
        print(f"{key}: {doc['meta']['gkz_chamber_count']} chambers -> "
              f"{len(doc['fan']['chambers'])} merged")
    digest = hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"payload": payload, "sha256": digest},
                              sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
