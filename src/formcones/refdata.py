"""Bundled reference data for merged chamber fans.

The merge steps (which walls disappear, what base locus each chamber
carries) are not derivable from the grading matrix alone, so they are
entered here by hand, one table per key: a representative space, the
base-locus label of every computed chamber by its rays, and the pairs of
chambers that merge across an erased wall.
:func:`formcones.chambers.sbl_merge` applies a table to a computed fan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoReferenceData
from .linalg import Vec
from .spaces import SpaceSpec, collineations, quadrics

__all__ = [
    "MCD_NOTE",
    "SblTable",
    "space_key",
    "bundled_fan_keys",
    "bundled_spaces",
    "load_sbl_fixture",
]

MCD_NOTE = "coincides with the Mori chamber decomposition"

EMPTY = "∅"          # no base locus
CUP = "∪"            # union of base loci

Rays = frozenset[Vec]


@dataclass(frozen=True)
class SblTable:
    """The merge table of one key.

    ``labels`` maps the rays of each chamber kept as it is to its label;
    each of ``merges`` names two chambers by their rays and the label of
    their union.
    """

    space: SpaceSpec
    labels: dict[Rays, str]
    merges: tuple[tuple[Rays, Rays, str], ...]

    @property
    def gkz_chamber_count(self) -> int:
        return len(self.labels) + 2 * len(self.merges)

    @property
    def sbl_chamber_count(self) -> int:
        return len(self.labels) + len(self.merges)


def _rank2_labels(n: int, *, top: str | None = None) -> dict[Rays, str]:
    def D(k):
        return (k, -(k - 1))

    labels = {frozenset({(0, 1), D(1)}): "E_1", frozenset({D(1), D(2)}): EMPTY}
    for k in range(2, n + 1):
        labels[frozenset({D(k), D(k + 1)})] = top if (top and k == n) else f"sec_{k}"
    return labels


def _tables() -> dict[str, SblTable]:
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
    merge_e2 = ((frozenset({D1, D2, E2}), frozenset({D2, D3, E2}), "E_2"),)

    specs = {
        "collineations-3-eq": (collineations(3), rank3_square, merge_e2),
        "quadrics-3": (quadrics(3), rank3_square, merge_e2),
        "collineations-2-wide": (collineations(2, 3), rank3_wide, merge_e2),
        "collineations-2-eq": (collineations(2), _rank2_labels(2, top="E_2"), ()),
        "quadrics-2": (quadrics(2), _rank2_labels(2, top="E_2"), ()),
        "collineations-1-wide": (collineations(1, 2), _rank2_labels(1), ()),
    }
    for n in range(2, 11):
        specs[f"stage1-{n}"] = (collineations(n, stage=1), _rank2_labels(n), ())
    return {key: SblTable(*spec) for key, spec in sorted(specs.items())}


_TABLES = _tables()


def space_key(s: SpaceSpec) -> str | None:
    """Table key for a space, or None when no key class exists.

    Wide formats share one key per n because the chamber coordinates do
    not depend on the number of columns, and every first-stage space of
    a given n has the same fan.
    """
    if s.stage is not None:
        return f"stage1-{s.n}" if s.stage == 1 else None
    if s.family == "quadrics":
        return f"quadrics-{s.n}"
    return f"collineations-{s.n}-{'eq' if s.n == s.m else 'wide'}"


def bundled_fan_keys() -> tuple[str, ...]:
    return tuple(_TABLES)


def bundled_spaces() -> tuple[tuple[str, SpaceSpec], ...]:
    """Each bundled key with the representative space of its table."""
    return tuple((key, table.space) for key, table in _TABLES.items())


def load_sbl_fixture(s: SpaceSpec) -> SblTable:
    """The merge table for ``s``; :class:`NoReferenceData` when none is bundled."""
    table = _TABLES.get(space_key(s))
    if table is None:
        raise NoReferenceData(f"no merged-fan data bundled for {s.describe()}")
    return table
