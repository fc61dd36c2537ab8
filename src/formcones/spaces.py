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

from math import comb
from typing import NamedTuple, Sequence

from .cones import (
    Cone,
    cone_from_halfspaces,
    cone_from_rays,
    extremal_rays,
    omit_one_hulls,
)
from .errors import DegenerateSpace, DimensionMismatch, InternalError, RankUnsupported
from .formulas import (
    ambient_projective_dim,
    dim_section_space,
    minor_multiplicity,
    movable_facets,
    secant_codim,
)
from .linalg import Vec, dot

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
    "mori_cone",
    "moving_curve_cone",
    "pairing",
    "is_fano",
]


class _SpaceFields(NamedTuple):
    family: str
    n: int
    m: int
    stage: int | None = None


class SpaceSpec(_SpaceFields):
    """Which space: family, matrix format, and optional blow-up stage.

    ``stage=None`` is the fully blown-up space; ``stage=i`` is the i-th
    intermediate blow-up (valid for 1 <= i <= n-1).  Use the
    :func:`collineations` and :func:`quadrics` helpers instead of the raw
    constructor.  Every construction is validated; ``_replace`` is not, so
    build a changed space with the constructor.
    """

    __slots__ = ()

    def __new__(cls, family: str, n: int, m: int, stage: int | None = None):
        if family not in ("collineations", "quadrics"):
            raise ValueError(f"unknown family {family!r}")
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if family == "quadrics" and m != n:
            raise ValueError("quadrics are square: m must equal n")
        if n > m:
            raise ValueError(
                f"n <= m is required (got n={n}, m={m}); "
                "transpose the format instead"
            )
        if stage is not None and not 1 <= stage <= n - 1:
            raise ValueError(f"stage {stage} out of range 1..{n - 1}")
        return super().__new__(cls, family, n, m, stage)

    @property
    def is_square(self) -> bool:
        return self.n == self.m

    @property
    def picard_rank(self) -> int:
        if self.stage is not None:
            return self.stage + 1
        if self.is_square:
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


class _LatticeClass:
    """An integer class with an optional label that takes no part in equality.

    Immutable, equal and hashed by ``coords`` alone, and never equal to an
    instance of another class.
    """

    __slots__ = ("coords", "label")

    def __init__(self, coords: tuple[int, ...], label: str | None = None):
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.coords, self.label)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash((self.coords,))

    def __repr__(self):
        return (f"{type(self).__name__}(coords={self.coords!r}, "
                f"label={self.label!r})")


class DivisorClass(_LatticeClass):
    __slots__ = ()

    def __neg__(self) -> DivisorClass:
        lbl = None
        if self.label is not None:
            lbl = self.label[1:] if self.label.startswith("-") else "-" + self.label
        return DivisorClass(tuple(-x for x in self.coords), lbl)


class CurveClass(_LatticeClass):
    __slots__ = ()


class GradingMatrix(NamedTuple):
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


# The largest Picard rank each computation accepts; _require_rank raises
# every refusal.  Eff and Nef are cones over rho generators in rank rho, so
# their passes cost about rho^3; the Mori and moving-curve cones are their
# flipped duals and run none.  At rank 128 (quadrics(128)) on a 2-vCPU Xeon
# VM with Python 3.11, `cone --format json` took 0.38-0.60 s for Eff,
# 0.35-0.56 s for Nef, 0.46-0.80 s for the Mori cone and 0.71-1.22 s for the
# moving-curve cone, and `info` 0.41-0.57 s, each in a fresh process.  At
# rank 200 the moving-curve cone alone took 3.5 s.
_MAX_CONE_RANK = 128
# quadrics(16) has 2^15 movable rays.  On a 2-vCPU Xeon VM with Python 3.11,
# each run in a fresh process, `movable_cone(quadrics(16)).rays` took
# 0.35-0.41 s after import, omit-one hulls included, at 48.4-49.0 MB peak RSS
# over seven runs (quadrics(15): 0.16-0.21 s at 30.6 MB, five runs).  Each
# further rank doubles the ray count: quadrics(17), with this bound raised,
# took 0.83-1.16 s at 85.5 MB (3 runs).  Rank 17 stays refused until tested.
_MAX_MOVABLE_RANK = 16
# The chamber walk runs in any rank, but only ranks 2 and 3 are checked
# against reference counts.
_MAX_FAN_RANK = 3


def _require_rank(s: SpaceSpec, what: str = "cones of divisors and curves",
                  top: int = _MAX_CONE_RANK) -> int:
    """The Picard rank of ``s``: rank 1 and ranks above ``top`` are refused."""
    rho = s.picard_rank
    if rho < 2:
        raise DegenerateSpace(
            f"{s.describe()} has Picard rank 1; its cones of divisors are "
            "single rays and are not modeled"
        )
    if rho > top:
        raise RankUnsupported(
            f"{what} are computed up to Picard rank {top}, "
            f"got rank {rho} for {s.describe()}"
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
    coords = (k,) + tuple(-minor_multiplicity(k, h + 1) for h in range(1, rho))
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
    for h in range(1, s.picard_rank):
        cols.append((divisor_E(s, h), 1))
    return GradingMatrix(s, tuple(cols))


def effective_cone(s: SpaceSpec) -> Cone:
    """Cone of effective divisor classes.

    Generated by the exceptional classes together with the determinant
    divisor, uniformly across families and stages.
    """
    rho = _require_rank(s)
    rays = [divisor_E(s, h).coords for h in range(1, rho)]
    rays.append(divisor_D(s, s.n + 1).coords)
    return cone_from_rays(rho, rays)


def nef_cone(s: SpaceSpec) -> Cone:
    """Cone of nef divisor classes, generated by the minor divisors."""
    rho = _require_rank(s)
    return cone_from_rays(rho, [divisor_D(s, k).coords for k in range(1, rho + 1)])


def _involution(v: Sequence[int]) -> Vec:
    """Coordinate form of the intersection pairing: flip all but the first."""
    return (v[0],) + tuple(-x for x in v[1:])


def _curves_against(divisors: Cone) -> Cone:
    """Curve classes pairing nonnegatively with ``divisors``: J·D^∨.

    J = diag(1, -1, ..., -1) maps the facets and rays of a pointed,
    full-dimensional D to canonical rays and facets, so no pass runs.
    """
    rays = extremal_rays(divisors)
    if not divisors.is_full_dimensional:
        raise InternalError(f"divisor cone of dimension {divisors.dim} is not full")
    return Cone(divisors.ambient_rank, pairs=tuple(
        ((), tuple(sorted(map(_involution, side)))) for side in (divisors.facets, rays)))


def mori_cone(s: SpaceSpec) -> Cone:
    """Cone of effective curve classes: the dual of the nef cone."""
    return _curves_against(nef_cone(s))


def moving_curve_cone(s: SpaceSpec) -> Cone:
    """Cone of curve classes moving in a family that covers the space.

    Dual of the effective cone; equivalently cut out by ``m_i >= 0`` and
    ``d(n+1) - sum (n-i+1) m_i >= 0`` on classes ``d l - sum m_i e_i``.
    """
    return _curves_against(effective_cone(s))


def pairing(c, d) -> int:
    """Intersection number of a curve class against a divisor class."""
    cv = c.coords if hasattr(c, "coords") else tuple(c)
    dv = d.coords if hasattr(d, "coords") else tuple(d)
    if len(cv) != len(dv):
        raise DimensionMismatch(
            f"curve class of rank {len(cv)} against divisor class of rank {len(dv)}"
        )
    return dot(_involution(cv), dv)


def is_fano(s: SpaceSpec) -> bool:
    """Whether the anticanonical class is ample: interior to Nef, by Kleiman."""
    if s.picard_rank == 1:
        return True
    return nef_cone(s).strictly_contains(anticanonical_class(s).coords)


def require_movable(s: SpaceSpec) -> int:
    """The Picard rank of ``s``, or the error :func:`movable_cone` raises for it."""
    return _require_rank(s, "movable cones", _MAX_MOVABLE_RANK)


class _Shape(NamedTuple):
    """What Mov and the walk read of a space; Eff is the cone over ``columns``."""

    rank: int
    columns: tuple[Vec, ...]
    once: tuple[Vec, ...]


def _shape(s: SpaceSpec) -> _Shape:
    """Rank, distinct and multiplicity-1 columns of ``s``, after a rank check."""
    gm = grading_matrix(s)
    return _Shape(s.picard_rank, gm.distinct_coords(), gm.multiplicity_one_coords())


# One slot, emptied on a miss before the next hulls run: a cache that kept
# every movable cone raised `bench --family qn --n 14..16` from 54 to 70 MB.
_last_movable: dict[_Shape, Cone] = {}


def movable_cone(s: SpaceSpec, *, brute_force: bool = False) -> Cone:
    """Cone of movable divisor classes.

    Computed as the intersection of the positive hulls of the grading
    columns with one generator left out, over all generators.  Leaving out
    one copy of a repeated column changes nothing, so by default only the
    multiplicity-1 columns are omitted and the effective cone supplies the
    rest.  Their hulls share every column but one, so
    :func:`~formcones.cones.omit_one_hulls` computes all of them in one
    divide-and-conquer pass that inserts the shared columns once.
    The cone depends only on the shape of ``s``, so spaces of one shape,
    such as ``quadrics(n)`` and ``collineations(n)``, share the last cone
    computed.  Its pass is seeded with
    :func:`~formcones.formulas.movable_facets`, so it inserts only the rows
    that cut the cone those facets give; the seed never changes the cone.
    ``brute_force=True`` runs one unseeded pass per hull, leaving out each
    column of ``once``, as a cross-check that shares nothing.

    Picard rank above ``_MAX_MOVABLE_RANK`` raises :class:`RankUnsupported`,
    as does :func:`require_movable`.
    """
    require_movable(s)
    shape = _shape(s)
    rho, distinct, once = shape.rank, frozenset(shape.columns), frozenset(shape.once)
    if brute_force:
        normals: set[Vec] = set()
        for gens in {distinct - {c} if c in once else distinct for c in shape.columns}:
            normals.update(cone_from_rays(rho, gens).facets)
        return cone_from_halfspaces(rho, normals)
    if shape not in _last_movable:
        _last_movable.clear()
        normals = set(effective_cone(s).facets)
        for facets in omit_one_hulls(rho, distinct - once, once).values():
            normals.update(facets)
        mov = cone_from_halfspaces(rho, normals)
        mov._seed = movable_facets(s)
        _last_movable[shape] = mov
    return _last_movable[shape]
