"""Chamber decompositions of the effective cone for Picard rank 2 and 3.

The chamber fan is computed from the grading-matrix columns: two divisor
classes share a chamber exactly when they lie in the same positive hulls
of column subsets, so a chamber is named by the set of hulls holding it.
One breadth-first walk serves every rank.  It starts at Nef, and across
each chamber facet inside the effective cone it finds the hull set of a
point just past the facet's relative interior, by exact symbolic
perturbation.  Each new hull set is cut out once, by one halfspace pass.
Every interior wall must be crossed from both of its chambers, and
exactly one chamber must have Nef's rays; both are checked.  Arithmetic
is integer only.  The walk is cached on the space's shape record (its
rank and grading columns) with Eff and Nef, so spaces of one shape share
it; each fan keeps its space.
Picard rank 4 and above is refused until invariant checks for it exist.

Merged fans (stable-base-locus decompositions) are data-driven: the wall
removals and base-locus labels are hand-entered tables in
:mod:`formcones.refdata`, because the geometry behind them is not
reproduced algorithmically, and they are applied to the computed fan at
run time.  A merged chamber need not be convex, so each one keeps its
list of convex pieces.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Sequence

from . import refdata
from .cones import (
    Cone,
    cone_from_halfspaces,
    cone_from_rays,
    extremal_rays,
    interior_point,
)
from .errors import (
    BoundaryPoint,
    DimensionMismatch,
    InternalError,
    OutsideEffective,
)
from .linalg import Vec, dot, negate, primitive
from .spaces import (_MAX_FAN_RANK, SpaceSpec, _require_rank, _Shape, _shape,
                     effective_cone, nef_cone)

__all__ = [
    "Chamber",
    "Wall",
    "ChamberFan",
    "gkz_fan",
    "locate",
    "sbl_merge",
]


class Chamber(NamedTuple):
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


class Wall(NamedTuple):
    """Interior wall between two chambers, with its primitive normal."""

    first: int
    second: int
    normal: Vec


class ChamberFan(NamedTuple):
    space: SpaceSpec
    chambers: tuple[Chamber, ...]
    walls: tuple[Wall, ...]
    kind: str = "gkz"
    notes: tuple[str, ...] = ()


def _undirected(v: Vec) -> Vec:
    for x in v:
        if x:
            return v if x > 0 else tuple(-y for y in v)
    raise InternalError("zero vector has no direction")


def _chamber_at(normals: list[Vec], hulls: list[int], q: Vec,
                d: Vec) -> frozenset[int]:
    """Hull set of the chamber holding ``q + e*d`` for every small ``e > 0``.

    ``normals`` are the distinct facet normals of the full-dimensional
    column cones, and ``hulls`` each cone as a bitmask over them.  A
    normal ``g`` holds the point exactly when ``(<g, q>, <g, d>) >= (0,
    0)`` lexicographically, so no ``e`` is ever chosen, and a cone holds it
    when all its normals do.  Each normal is tested once per point, and
    ``<g, d>`` is computed only where ``<g, q> = 0``.
    """
    passing = sum(1 << k for k, g in enumerate(normals)
                  if (s := dot(g, q)) > 0 or s == 0 and dot(g, d) >= 0)
    held = frozenset(i for i, mask in enumerate(hulls) if mask & passing == mask)
    if not held:
        raise InternalError(f"point {q} escapes every column hull")
    return held


@lru_cache(maxsize=16)
def _walk(shape: _Shape, eff: Cone,
          nef: Cone) -> tuple[tuple[Chamber, ...], tuple[Wall, ...]]:
    """Breadth-first walk of a chamber fan, starting at Nef.

    Chambers are keyed by their hull sets, and each one is cut out by a
    single halfspace pass, whose cone gives its rays, facets and sample.
    """
    rho = shape.rank
    # By Caratheodory, intersecting the simplicial column cones that hold a
    # generic point gives the same chamber as intersecting all column hulls.
    hulls = [cone.facets for cone in (cone_from_rays(rho, c)
                                      for c in combinations(shape.columns, rho))
             if cone.is_full_dimensional]
    normals = sorted({g for facets in hulls for g in facets})
    bit = {g: 1 << k for k, g in enumerate(normals)}
    masks = [sum(bit[g] for g in facets) for facets in hulls]
    boundary = set(eff.facets)
    nef_rays = extremal_rays(nef)
    found = [_chamber_at(normals, masks, interior_point(nef), (0,) * rho)]
    index = {found[0]: 0}
    chambers: list[Chamber] = []
    crossed: set[tuple[int, int, Vec]] = set()
    for i, held in enumerate(found):  # ``found`` grows as the walk goes
        cone = cone_from_halfspaces(rho, {g for h in held for g in hulls[h]})
        rays = cone.rays
        chambers.append(Chamber(rays=rays, sample=interior_point(cone),
                                label="Nef" if rays == nef_rays else None))
        for f in cone.facets:
            if f in boundary:
                continue
            q = tuple(map(sum, zip(*(r for r in rays if dot(f, r) == 0))))
            beyond = _chamber_at(normals, masks, q, negate(f))
            if beyond not in index:
                index[beyond] = len(found)
                found.append(beyond)
            crossed.add((i, index[beyond], _undirected(f)))
    for i, j, normal in crossed:
        if i == j or (j, i, normal) not in crossed:
            raise InternalError(f"wall {normal} was crossed from chamber {i} "
                                f"into {j} but not back")
    nef_count = sum(ch.label == "Nef" for ch in chambers)
    if nef_count != 1:
        raise InternalError(f"{nef_count} chambers of a rank-{rho} fan are Nef, not one")
    walls = tuple(Wall(i, j, normal) for i, j, normal in crossed if i < j)
    return tuple(chambers), walls


def gkz_fan(s: SpaceSpec) -> ChamberFan:
    """Chamber decomposition of the effective cone from the grading columns.

    Walks the fan from the Nef chamber and cuts out each chamber, named by
    its hull set, once; see the module docstring.  The walk works in any
    Picard rank, but only rank 2 and 3 are checked against reference
    counts, so higher ranks raise :class:`RankUnsupported` as a matter of
    policy.  Chambers are sorted by their rays, walls by chamber indices.
    """
    _require_rank(s, "chamber fans", _MAX_FAN_RANK)
    chambers, walls = _walk(_shape(s), effective_cone(s), nef_cone(s))
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
    eff = effective_cone(f.space)
    if not eff.contains(d):
        raise OutsideEffective(f"{d} is not an effective class of {f.space.describe()}")
    containing = [
        i for i, ch in enumerate(f.chambers)
        if any(cone_from_rays(rho, piece).contains(d) for piece in ch.convex_pieces())
    ]
    if not containing:
        raise InternalError(f"{d} is effective but lies in no chamber")
    if len(containing) > 1:
        raise BoundaryPoint(f"{d} lies on a wall between chambers {containing}")
    # The chambers cover Eff, so a point of Eff's interior on the boundary
    # of its chamber lies in a second chamber as well.
    idx = containing[0]
    if not eff.strictly_contains(d):
        raise BoundaryPoint(f"{d} lies on the boundary of chamber {idx}")
    return idx


def sbl_merge(f: ChamberFan) -> ChamberFan:
    """Merge chambers that share a stable base locus, using bundled data.

    The table for the fan's space in :mod:`formcones.refdata` labels each
    computed chamber by its rays and names the pairs that merge across
    their common wall.  The computed chambers must be exactly the table's
    ray sets, so the hand-entered table also checks the chamber walk.
    Raises :class:`NoReferenceData` when no table is bundled for the space.
    """
    s = f.space
    table = refdata.load_sbl_fixture(s)
    by_rays = {frozenset(ch.rays): i for i, ch in enumerate(f.chambers)}
    expected = set(table.labels) | {p for a, b, _ in table.merges for p in (a, b)}
    if set(by_rays) != expected:
        raise InternalError(
            f"merge table for {s.describe()} does not match the computed "
            f"fan: computed {len(f.chambers)} chambers, table covers "
            f"{len(expected)}"
        )
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
        # Two chambers of a fan meet in the face spanned by their common rays.
        patch = set(pi) & set(pj)
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
