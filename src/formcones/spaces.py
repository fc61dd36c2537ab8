"""Divisor-class catalog for spaces of complete collineations and quadrics.

Classes live in the Picard basis ``(H, E_1, ..., E_{rho-1})`` where H is
the hyperplane pull-back and the E_h are the exceptional divisors of the
secant-variety blow-ups; curve classes live in the basis
``(l, e_1, ..., e_{rho-1})``.  The intersection pairing is
``<c, d> = c_0 d_0 - sum_{i>=1} c_i d_i``.

The three families share one coordinate scheme:

* collineations with n < m: Picard rank n+1,
* collineations with n = m and quadrics: Picard rank n (the degree-(n+1)
  minor divisor coincides with the last exceptional divisor),
* blow-up stage i of any family: Picard rank i+1, coordinates truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Sequence

from .cones import (
    Cone,
    cone_from_halfspaces,
    cone_from_rays,
    extremal_rays,
    omit_one_hulls,
)
from .errors import DegenerateSpace, DimensionMismatch, RankUnsupported
from .formulas import ambient_projective_dim, dim_section_space, secant_codim
from .linalg import Vec

__all__ = [
    "SpaceSpec",
    "DivisorClass",
    "CurveClass",
    "GradingMatrix",
    "collineations",
    "quadrics",
    "divisor_D",
    "divisor_E",
    "canonical_class",
    "anticanonical_class",
    "grading_matrix",
    "effective_cone",
    "nef_cone",
    "movable_cone",
    "require_movable",
    "mori_cone",
    "moving_curve_cone",
    "pairing",
    "is_fano",
]


@dataclass(frozen=True)
class SpaceSpec:
    """Which space: family, matrix format, and optional blow-up stage.

    ``stage=None`` is the fully blown-up space; ``stage=i`` is the i-th
    intermediate blow-up (valid for 1 <= i <= n-1).  Use the
    :func:`collineations` and :func:`quadrics` helpers instead of the raw
    constructor.
    """

    family: str
    n: int
    m: int
    stage: int | None = None

    def __post_init__(self):
        if self.family not in ("collineations", "quadrics"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.family == "quadrics" and self.m != self.n:
            raise ValueError("quadrics are square: m must equal n")
        if self.n > self.m:
            raise ValueError(
                f"n <= m is required (got n={self.n}, m={self.m}); "
                "transpose the format instead"
            )
        if self.stage is not None and not 1 <= self.stage <= self.n - 1:
            raise ValueError(
                f"stage {self.stage} out of range 1..{self.n - 1}"
            )

    @property
    def is_square(self) -> bool:
        return self.n == self.m

    @property
    def picard_rank(self) -> int:
        if self.stage is not None:
            return self.stage + 1
        if self.family == "quadrics" or self.n == self.m:
            return self.n
        return self.n + 1

    def describe(self) -> str:
        base = {
            ("collineations", False): f"collineations({self.n},{self.m})",
            ("collineations", True): f"collineations({self.n})",
            ("quadrics", True): f"quadrics({self.n})",
        }[(self.family, self.is_square)]
        if self.stage is not None:
            return f"{base} stage {self.stage}"
        return base


def collineations(n: int, m: int | None = None, *, stage: int | None = None) -> SpaceSpec:
    """The space of complete collineations of (n+1) x (m+1) matrices."""
    return SpaceSpec("collineations", n, n if m is None else m, stage)


def quadrics(n: int, *, stage: int | None = None) -> SpaceSpec:
    """The space of complete quadrics of rank n+1."""
    return SpaceSpec("quadrics", n, n, stage)


@dataclass(frozen=True)
class DivisorClass:
    coords: tuple[int, ...]
    label: str | None = field(default=None, compare=False)

    def __neg__(self) -> DivisorClass:
        lbl = None
        if self.label is not None:
            lbl = self.label[1:] if self.label.startswith("-") else "-" + self.label
        return DivisorClass(tuple(-x for x in self.coords), lbl)


@dataclass(frozen=True)
class CurveClass:
    coords: tuple[int, ...]
    label: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class GradingMatrix:
    """Multiset of Picard degrees of a Cox ring generating set."""

    space: SpaceSpec
    columns: tuple[tuple[DivisorClass, int], ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(mult for _, mult in self.columns)

    def distinct_coords(self) -> tuple[Vec, ...]:
        return tuple(cls.coords for cls, _ in self.columns)

    def multiplicity_one_coords(self) -> tuple[Vec, ...]:
        return tuple(cls.coords for cls, mult in self.columns if mult == 1)


def _require_cones(s: SpaceSpec) -> int:
    rho = s.picard_rank
    if rho < 2:
        raise DegenerateSpace(
            f"{s.describe()} has Picard rank 1; its cones of divisors are "
            "single rays and are not modeled"
        )
    return rho


def divisor_D(s: SpaceSpec, k: int) -> DivisorClass:
    """Class of the strict transform of the degree-k minor hypersurface.

    ``k = n+1`` gives the determinant divisor; in the square and quadric
    cases that class coincides with the last exceptional divisor.
    """
    if not 1 <= k <= s.n + 1:
        raise ValueError(f"k={k} out of range 1..{s.n + 1}")
    rho = s.picard_rank
    coords = (k,) + tuple(-max(k - h, 0) for h in range(1, rho))
    return DivisorClass(coords, f"D_{k}")


def divisor_E(s: SpaceSpec, h: int) -> DivisorClass:
    """The h-th exceptional class; for square formats E_n is the determinant."""
    if s.stage is not None:
        top = s.stage
    else:
        top = s.n
    if not 1 <= h <= top:
        raise ValueError(f"h={h} out of range 1..{top}")
    rho = s.picard_rank
    if h <= rho - 1:
        coords = tuple(1 if j == h else 0 for j in range(rho))
        return DivisorClass(coords, f"E_{h}")
    # square format, h = n: same class as the determinant divisor
    return DivisorClass(divisor_D(s, s.n + 1).coords, f"E_{h}")


def canonical_class(s: SpaceSpec) -> DivisorClass:
    """The canonical class K (negate for the anticanonical class)."""
    n_plus_1 = ambient_projective_dim(s) + 1
    rho = s.picard_rank
    coeffs = []
    for h in range(1, rho):
        if s.family == "quadrics":
            codim = secant_codim("veronese", s.n, None, h)
        else:
            codim = secant_codim("segre", s.n, s.m, h)
        coeffs.append(codim - 1)
    return DivisorClass((-n_plus_1,) + tuple(coeffs), "K")


def anticanonical_class(s: SpaceSpec) -> DivisorClass:
    return -canonical_class(s)


# perfbench's fans-verify command list fills 35 entries here, 37 in
# effective_cone and 19 in nef_cone, in one process.
@lru_cache(maxsize=64)
def grading_matrix(s: SpaceSpec) -> GradingMatrix:
    """Degrees and multiplicities of the minor and exceptional sections.

    Multiplicities count actual sections (entries of the k-th compound
    matrix, respectively section-space dimensions for quadrics), so the
    total doubles as a generator count check.
    """
    cols: list[tuple[DivisorClass, int]] = []
    n, m = s.n, s.m
    for k in range(1, n + 2):
        if s.family == "quadrics":
            mult = dim_section_space(n, k - 1) if k <= n else 1
        else:
            mult = comb(n + 1, k) * comb(m + 1, k)
        if k == n + 1 and n == m and s.stage is None:
            cols.append((divisor_E(s, n), mult))
        else:
            cols.append((divisor_D(s, k), mult))
    units = s.stage if s.stage is not None else (n if n < m else n - 1)
    for h in range(1, units + 1):
        cols.append((divisor_E(s, h), 1))
    return GradingMatrix(s, tuple(cols))


@lru_cache(maxsize=64)
def effective_cone(s: SpaceSpec) -> Cone:
    """Cone of effective divisor classes.

    Generated by the exceptional classes together with the determinant
    divisor, uniformly across families and stages.
    """
    rho = _require_cones(s)
    rays = [tuple(1 if j == h else 0 for j in range(rho)) for h in range(1, rho)]
    rays.append(divisor_D(s, s.n + 1).coords)
    return cone_from_rays(rho, rays)


@lru_cache(maxsize=32)
def nef_cone(s: SpaceSpec) -> Cone:
    """Cone of nef divisor classes, generated by the minor divisors."""
    rho = _require_cones(s)
    return cone_from_rays(rho, [divisor_D(s, k).coords for k in range(1, rho + 1)])


def _involution(v: Sequence[int]) -> Vec:
    """Coordinate form of the intersection pairing: flip all but the first."""
    return (v[0],) + tuple(-x for x in v[1:])


def mori_cone(s: SpaceSpec) -> Cone:
    """Cone of effective curve classes: the dual of the nef cone."""
    rho = _require_cones(s)
    rays = extremal_rays(nef_cone(s))
    return cone_from_halfspaces(rho, [_involution(r) for r in rays])


def moving_curve_cone(s: SpaceSpec) -> Cone:
    """Cone of curve classes moving in a family that covers the space.

    Dual of the effective cone; equivalently cut out by ``m_i >= 0`` and
    ``d(n+1) - sum (n-i+1) m_i >= 0`` on classes ``d l - sum m_i e_i``.
    """
    rho = _require_cones(s)
    rays = extremal_rays(effective_cone(s))
    return cone_from_halfspaces(rho, [_involution(r) for r in rays])


def pairing(c, d) -> int:
    """Intersection number of a curve class against a divisor class."""
    cv = c.coords if hasattr(c, "coords") else tuple(c)
    dv = d.coords if hasattr(d, "coords") else tuple(d)
    if len(cv) != len(dv):
        raise DimensionMismatch(
            f"curve class of rank {len(cv)} against divisor class of rank {len(dv)}"
        )
    return cv[0] * dv[0] - sum(a * b for a, b in zip(cv[1:], dv[1:]))


def is_fano(s: SpaceSpec) -> bool:
    """Whether the anticanonical class is ample (positive on the Mori cone)."""
    if s.picard_rank == 1:
        return True
    mk = anticanonical_class(s)
    return all(pairing(r, mk) > 0 for r in extremal_rays(mori_cone(s)))


# quadrics(16) has 2^15 movable rays and takes 2.3-2.8 s on a 2-vCPU Xeon VM
# (quadrics(15): 1.0-1.1 s), omit-one hulls included.  Each further rank
# doubles the ray count; rank 17 has not been timed or its memory measured,
# so larger ranks stay refused.
_MAX_MOVABLE_RANK = 16


def require_movable(s: SpaceSpec) -> int:
    """The Picard rank of ``s``, or the error :func:`movable_cone` raises for it."""
    rho = _require_cones(s)
    if rho > _MAX_MOVABLE_RANK:
        raise RankUnsupported(
            f"movable cones are computed up to Picard rank {_MAX_MOVABLE_RANK}, "
            f"got rank {rho} for {s.describe()}"
        )
    return rho


def movable_cone(s: SpaceSpec, *, brute_force: bool = False) -> Cone:
    """Cone of movable divisor classes.

    Computed as the intersection of the positive hulls of the grading
    columns with one generator left out, over all generators.  Leaving out
    one copy of a repeated column changes nothing, so by default only the
    multiplicity-1 columns are omitted and the effective cone supplies the
    rest.  Their hulls share every column but one, so
    :func:`~formcones.cones.omit_one_hulls` computes all of them in one
    divide-and-conquer pass that inserts the shared columns once.
    ``brute_force=True`` runs the unoptimized omit-every-generator version
    for cross-checking, one pass per hull.

    Picard rank above 16 raises :class:`RankUnsupported`, as does
    :func:`require_movable`.
    """
    rho = require_movable(s)
    gm = grading_matrix(s)
    distinct = set(gm.distinct_coords())
    normals: set[Vec] = set()
    if brute_force:
        omitted = {frozenset(distinct - {cls.coords} if mult == 1 else distinct)
                   for cls, mult in gm.columns}
        for gens in omitted:
            normals.update(cone_from_rays(rho, sorted(gens)).facets)
    else:
        once = set(gm.multiplicity_one_coords())
        normals.update(effective_cone(s).facets)
        for facets in omit_one_hulls(rho, distinct - once, once).values():
            normals.update(facets)
    return cone_from_halfspaces(rho, tuple(sorted(normals)))
