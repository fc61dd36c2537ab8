"""Chamber decompositions of the effective cone for Picard rank 2 and 3.

The chamber fan is computed from the grading-matrix columns: two divisor
classes share a chamber exactly when they lie in the same positive hulls
of column subsets.  One breadth-first walk serves every rank: it starts
at the chamber holding an interior point of Nef, and for each chamber
facet inside the effective cone it classifies a point just past the
facet's relative interior, found by exact symbolic perturbation, as the
intersection of the simplicial column cones that hold it.  The walk
yields the walls directly, and every interior wall must be crossed from
both of its chambers, which is checked.  Arithmetic is integer only.
Picard rank 4 and above is refused until invariant checks for it exist.

Merged fans (stable-base-locus decompositions) are data-driven: the wall
removals and base-locus labels are hand-entered tables in
:mod:`formcones.refdata`, because the geometry behind them is not
reproduced algorithmically, and they are applied to the computed fan at
run time.  A merged chamber need not be convex, so each one keeps its
list of convex pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from . import refdata
from .cones import (
    Cone,
    cone_from_halfspaces,
    cone_from_rays,
    extremal_rays,
    interior_point,
    intersect,
)
from .errors import (
    BoundaryPoint,
    DegenerateSpace,
    DimensionMismatch,
    InternalError,
    OutsideEffective,
    RankUnsupported,
)
from .linalg import Vec, dot, negate, primitive
from .spaces import SpaceSpec, effective_cone, grading_matrix, nef_cone

__all__ = [
    "Chamber",
    "Wall",
    "ChamberFan",
    "gkz_fan",
    "locate",
    "adjacency_graph",
    "sbl_merge",
]


@dataclass(frozen=True)
class Chamber:
    """A full-dimensional chamber of the effective cone.

    ``rays`` bound the chamber; ``pieces`` are the convex cones whose
    union it is (a single piece unless chambers were merged); ``sample``
    is strictly interior to the union.
    """

    rays: tuple[Vec, ...]
    sample: Vec
    label: str | None = None
    pieces: tuple[tuple[Vec, ...], ...] = ()
    erased_walls: tuple[Vec, ...] = ()

    def convex_pieces(self) -> tuple[tuple[Vec, ...], ...]:
        return self.pieces if self.pieces else (self.rays,)


@dataclass(frozen=True)
class Wall:
    """Interior wall between two chambers, with its primitive normal."""

    first: int
    second: int
    normal: Vec


@dataclass(frozen=True)
class ChamberFan:
    space: SpaceSpec
    chambers: tuple[Chamber, ...]
    walls: tuple[Wall, ...]
    kind: str = "gkz"
    notes: tuple[str, ...] = ()


@lru_cache(maxsize=None)
def _cone_of(rho: int, rays: tuple[Vec, ...]) -> Cone:
    return cone_from_rays(rho, rays)


def _undirected(v: Vec) -> Vec:
    for x in v:
        if x:
            return v if x > 0 else tuple(-y for y in v)
    raise InternalError("zero vector has no direction")


def _chamber_at(rho: int, hulls: list[tuple[Vec, ...]], q: Vec, d: Vec
                ) -> tuple[Vec, ...]:
    """Rays of the chamber that holds ``q + e*d`` for every small ``e > 0``.

    ``hulls`` are the facet lists of the full-dimensional column cones.  A
    cone holds the point exactly when each facet normal ``g`` has
    ``<g, q> > 0``, or ``<g, q> = 0`` and ``<g, d> >= 0``, so no ``e`` is
    ever chosen.
    """
    normals: set[Vec] = set()
    for facets in hulls:
        if all(dot(g, q) > 0 or (dot(g, q) == 0 and dot(g, d) >= 0)
               for g in facets):
            normals.update(facets)
    if not normals:
        raise InternalError(f"point {q} escapes every column hull")
    return cone_from_halfspaces(rho, tuple(sorted(normals))).rays


def _walk(s: SpaceSpec, cols: tuple[Vec, ...]) -> tuple[list[Chamber], list[Wall]]:
    """Breadth-first walk of the chamber fan, starting at Nef."""
    rho = s.picard_rank
    # By Caratheodory, intersecting the simplicial column cones that hold a
    # generic point gives the same chamber as intersecting all column hulls.
    hulls = [cone.facets for cone in (_cone_of(rho, tuple(sorted(c)))
                                      for c in combinations(cols, rho))
             if cone.is_full_dimensional]
    boundary = set(effective_cone(s).facets)
    found = [_chamber_at(rho, hulls, interior_point(nef_cone(s)), (0,) * rho)]
    index = {found[0]: 0}
    crossed: set[tuple[int, int, Vec]] = set()
    for i, rays in enumerate(found):  # ``found`` grows as the walk goes
        for f in _cone_of(rho, rays).facets:
            if f in boundary:
                continue
            q = tuple(map(sum, zip(*(r for r in rays if dot(f, r) == 0))))
            beyond = _chamber_at(rho, hulls, q, negate(f))
            if beyond not in index:
                index[beyond] = len(found)
                found.append(beyond)
            crossed.add((i, index[beyond], _undirected(f)))
    for i, j, normal in crossed:
        if i == j or (j, i, normal) not in crossed:
            raise InternalError(
                f"wall {normal} was crossed from chamber {i} into {j} "
                "but not back"
            )
    chambers = [Chamber(rays=rays, sample=interior_point(_cone_of(rho, rays)))
                for rays in found]
    walls = [Wall(i, j, normal) for i, j, normal in crossed if i < j]
    return chambers, walls


def gkz_fan(s: SpaceSpec) -> ChamberFan:
    """Chamber decomposition of the effective cone from the grading columns.

    Walks the fan from the Nef chamber across each interior facet; see the
    module docstring.  The walk itself works in any Picard rank, but only
    rank 2 and 3 are checked against reference counts, so higher ranks
    raise :class:`RankUnsupported` as a matter of policy.  Chambers are
    sorted by their rays and walls by their chamber indices.
    """
    rho = s.picard_rank
    if rho < 2:
        raise DegenerateSpace(
            f"{s.describe()} has Picard rank 1; there is no chamber structure"
        )
    if rho > 3:
        raise RankUnsupported(
            f"chamber enumeration supports Picard rank 2 and 3, "
            f"got rank {rho} for {s.describe()}"
        )
    chambers, walls = _walk(s, grading_matrix(s).distinct_coords())
    nef_rays = extremal_rays(nef_cone(s))
    chambers = [Chamber(rays=ch.rays, sample=ch.sample,
                        label="Nef" if ch.rays == nef_rays else None)
                for ch in chambers]
    return _sorted_fan(s, chambers, walls, kind="gkz")


def _sorted_fan(s: SpaceSpec, chambers: list[Chamber], walls, *, kind: str,
                notes: tuple[str, ...] = ()) -> ChamberFan:
    """The fan with chambers sorted by their rays, walls renumbered to match."""
    order = sorted(range(len(chambers)), key=lambda i: chambers[i].rays)
    rank_of = {old: new for new, old in enumerate(order)}
    remapped = {Wall(*sorted((rank_of[w.first], rank_of[w.second])), w.normal)
                for w in walls}
    return ChamberFan(s, tuple(chambers[i] for i in order),
                      tuple(sorted(remapped, key=lambda w: (w.first, w.second, w.normal))),
                      kind=kind, notes=notes)


def _strictly_inside(ch: Chamber, rho: int, d: Vec) -> bool:
    erased = {_undirected(n) for n in ch.erased_walls}
    inside_closed = False
    for piece in ch.convex_pieces():
        cone = _cone_of(rho, piece)
        if not cone.contains(d):
            continue
        inside_closed = True
        for f in cone.facets:
            if sum(a * b for a, b in zip(f, d)) == 0 and _undirected(f) not in erased:
                return False
    return inside_closed


def locate(f: ChamberFan, d: Sequence[int]) -> int:
    """Index of the chamber whose interior contains the divisor class ``d``.

    Raises :class:`OutsideEffective` when ``d`` is not effective and
    :class:`BoundaryPoint` when it sits on a wall or on the boundary of
    the effective cone.
    """
    rho = f.space.picard_rank
    d = d.coords if hasattr(d, "coords") else tuple(d)
    if len(d) != rho:
        raise DimensionMismatch(
            f"class of rank {len(d)} located in a rank-{rho} fan"
        )
    if not effective_cone(f.space).contains(d):
        raise OutsideEffective(f"{d} is not an effective class of {f.space.describe()}")
    containing = [
        i for i, ch in enumerate(f.chambers)
        if any(_cone_of(rho, piece).contains(d) for piece in ch.convex_pieces())
    ]
    if not containing:
        raise InternalError(f"{d} is effective but lies in no chamber")
    if len(containing) > 1:
        raise BoundaryPoint(f"{d} lies on a wall between chambers {containing}")
    idx = containing[0]
    if not _strictly_inside(f.chambers[idx], rho, d):
        raise BoundaryPoint(f"{d} lies on the boundary of chamber {idx}")
    return idx


def adjacency_graph(f: ChamberFan) -> tuple[Wall, ...]:
    """Interior walls only; facets of the effective cone are not listed."""
    return f.walls


def sbl_merge(f: ChamberFan, s: SpaceSpec) -> ChamberFan:
    """Merge chambers that share a stable base locus, using bundled data.

    The table for ``s`` in :mod:`formcones.refdata` labels each computed
    chamber by its rays and names the pairs that merge across their common
    wall.  The computed chambers must be exactly the table's ray sets, so
    the hand-entered table also checks the chamber walk.  Raises
    :class:`NoReferenceData` when no table is bundled for ``s``.
    """
    if f.space != s:
        raise ValueError(
            f"fan belongs to {f.space.describe()}, not {s.describe()}"
        )
    table = refdata.load_sbl_fixture(s)
    by_rays = {frozenset(ch.rays): i for i, ch in enumerate(f.chambers)}
    expected = set(table.labels) | {p for a, b, _ in table.merges for p in (a, b)}
    if set(by_rays) != expected:
        raise InternalError(
            f"merge table for {s.describe()} does not match the computed "
            f"fan: computed {len(f.chambers)} chambers, table covers "
            f"{len(expected)}"
        )
    rho = s.picard_rank
    merged_of: dict[int, int] = {}
    chambers: list[Chamber] = []
    erased: set[Wall] = set()
    for a, b, label in table.merges:
        i, j = by_rays[a], by_rays[b]
        shared = [w for w in f.walls if {w.first, w.second} == {i, j}]
        if len(shared) != 1:
            raise InternalError(
                f"chambers {i} and {j} of {s.describe()} share "
                f"{len(shared)} walls, not one"
            )
        erased.add(shared[0])
        pi, pj = f.chambers[i].rays, f.chambers[j].rays
        patch = intersect(_cone_of(rho, pi), _cone_of(rho, pj)).rays
        chambers.append(Chamber(
            rays=tuple(sorted(set(pi) | set(pj))),
            sample=primitive(tuple(map(sum, zip(*patch)))),
            label=label, pieces=(pi, pj), erased_walls=(shared[0].normal,),
        ))
        merged_of[i] = merged_of[j] = len(chambers) - 1
    for i, ch in enumerate(f.chambers):
        if i not in merged_of:
            merged_of[i] = len(chambers)
            chambers.append(Chamber(rays=ch.rays, sample=ch.sample,
                                    label=table.labels[frozenset(ch.rays)]))
    walls = [Wall(merged_of[w.first], merged_of[w.second], w.normal)
             for w in f.walls if w not in erased]
    return _sorted_fan(s, chambers, walls, kind="sbl", notes=(refdata.MCD_NOTE,))
