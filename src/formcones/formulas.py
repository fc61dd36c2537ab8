"""Closed-form counts: section-space dimensions, codimensions, Cox data.

Everything returns plain Python ints computed with exact arithmetic.
Where two independent routes to the same number exist they are both
evaluated and compared (see :func:`dim_section_space`), so a silent
formula transcription bug cannot survive.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .errors import InternalError, RouteMismatch
from .linalg import primitive

if TYPE_CHECKING:
    from .spaces import SpaceSpec

__all__ = [
    "FormulaResult",
    "minor_multiplicity",
    "secant_codim",
    "dim_section_space",
    "section_space_routes",
    "weyl_dim",
    "plucker_relation_count",
    "ambient_projective_dim",
    "cox_generator_count",
    "dim_cox",
    "movable_ray_count",
    "movable_facets",
]


class FormulaResult(NamedTuple):
    """A computed count together with the identifier of the route used."""

    value: int
    route: str


def minor_multiplicity(k: int, h: int) -> int:
    """Vanishing order of the k x k minors along the matrices of rank < h.

    ``k`` is the size of the minor, so the degree of its hypersurface, and
    ``h - 1`` the rank of the locus: there the minor vanishes to order
    ``k - h + 1``, and not at all when ``h > k``.  The exceptional divisor
    E_h lies over the matrices of rank at most h, so the degree-k minor
    hypersurface has coefficient ``-minor_multiplicity(k, h + 1)`` at E_h
    (:func:`~formcones.spaces.divisor_D`).
    """
    if k < 1 or h < 1:
        raise ValueError(f"minor_multiplicity needs k, h >= 1, got k={k}, h={h}")
    return max(k - h + 1, 0)


def secant_codim(kind: str, n: int, m: int | None, h: int) -> int:
    """Codimension of the h-th secant variety of a Segre or Veronese variety.

    For ``segre`` the ambient is the space of (n+1) x (m+1) matrices; for
    ``veronese`` it is the space of symmetric (n+1) x (n+1) matrices and
    ``m`` is ignored.
    """
    if not 1 <= h <= n:
        raise ValueError(f"secant index h={h} out of range 1..{n}")
    if kind == "segre":
        if m is None:
            raise ValueError("segre codimension needs m")
        if m < n:
            raise ValueError(f"segre codimension needs n <= m, got n={n}, m={m}")
        return (n - h + 1) * (m - h + 1)
    if kind == "veronese":
        num = n * n + 3 * n - h * (2 * n - h + 3) + 2
        if num % 2:
            raise InternalError(
                f"veronese secant codimension numerator {num} is odd "
                f"at n={n}, h={h}"
            )
        return num // 2
    raise ValueError(f"unknown secant kind {kind!r}")


def section_space_routes(n: int, k: int) -> tuple[FormulaResult, FormulaResult]:
    """Both evaluations behind :func:`dim_section_space`, unreconciled."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"section space index k={k} out of range 0..{n - 1}")
    closed = comb(n + 1, k + 1) * comb(n + 2, k + 1) // (k + 2)
    num = den = 1
    for j in range(k + 2, n + 2):
        num *= comb(j + 1, 2)
        den *= comb(j - k, 2)
    if num % den:
        raise InternalError(
            f"product route for dim_section_space({n}, {k}) is not integral"
        )
    return (
        FormulaResult(closed, "binomial-quotient"),
        FormulaResult(num // den, "telescoping-product"),
    )


def dim_section_space(n: int, k: int) -> int:
    """Dimension of the space of sections cutting the rank-(k+1) quadric locus.

    Evaluated by two independent formulas; a disagreement raises
    :class:`RouteMismatch` because it can only mean a transcription bug.
    """
    closed, prod = section_space_routes(n, k)
    if closed.value != prod.value:
        raise RouteMismatch(
            f"dim_section_space({n}, {k}): {closed.route} gives "
            f"{closed.value} but {prod.route} gives {prod.value}"
        )
    return closed.value


def weyl_dim(n: int, k: int) -> int:
    """Dimension of the irreducible GL(n+1) representation of weight 2w_{k+1}.

    Weyl's formula specializes to a product over pairs i <= k+1 < j; every
    other factor is 1.
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"weight index k={k} out of range 0..{n - 1}")
    num = 1
    den = 1
    for i in range(1, k + 2):
        for j in range(k + 2, n + 2):
            num *= j - i + 2
            den *= j - i
    if num % den:
        raise InternalError(f"weyl_dim({n}, {k}) product is not integral")
    return num // den


def plucker_relation_count(n: int, k: int) -> int:
    """Number of quadratic relations among the (k+1)-minors of a symmetric matrix.

    Counted as dim Sym^2 of the Pluecker coordinate space minus the span of
    the minors themselves.
    """
    b = comb(n + 1, k + 1)
    return comb(b + 1, 2) - dim_section_space(n, k)


def ambient_projective_dim(s: SpaceSpec) -> int:
    """Dimension of the projective space the tower of blow-ups starts from."""
    if s.family == "quadrics":
        return comb(s.n + 2, 2) - 1
    return s.n * s.m + s.n + s.m


def cox_generator_count(s: SpaceSpec) -> int:
    """Number of Cox ring generators of a full (not intermediate) space."""
    if s.stage is not None:
        raise ValueError("Cox generator count applies to full-stage spaces only")
    n, m = s.n, s.m
    if s.family == "quadrics":
        return sum(dim_section_space(n, k) for k in range(n)) + n
    total = sum(comb(n + 1, k) * comb(m + 1, k) for k in range(1, n + 2))
    return total + (n - 1 if n == m else n)


def movable_ray_count(s: SpaceSpec) -> int:
    """Ray count of the movable cone of a full space: 2^(n-1), plus 1 if n < m."""
    if s.stage is not None:
        raise ValueError("movable ray count applies to full-stage spaces only")
    return 2 ** (s.n - 1) + (1 if s.n < s.m else 0)


def movable_facets(s: SpaceSpec) -> frozenset[tuple[int, ...]]:
    """The facet normals of the movable cone of ``s``, in closed form.

    In the basis ``H = e_0, E_h = e_h`` put ``k = rho - 1``,
    ``A_h = -(n-h) e_h + (n-h+1) e_{h+1}`` and
    ``B_h = e_0 + (h+1) e_h - h e_{h+1}``.  Every space of Picard rank
    ``rho >= 2``, stages included, has ``A_h`` and ``B_h`` for
    h = 1..k-1 and ``-e_k``.  A square format adds the primitive form of
    ``(n-k) e_0 + n e_k``, and a wide one ``n e_0 + (n+1) e_1`` when
    ``k = 1``.  A full space is ``k = n-1`` (square, 2n - 2 facets) or
    ``k = n`` (wide, 2n - 1 facets).  These were read off the computed
    cones and are checked against them, not quoted from the paper.  Rank
    1 gets the empty set.
    """
    n, rho = s.n, s.picard_rank
    if rho < 2:
        return frozenset()

    def vec(*terms: tuple[int, int]) -> tuple[int, ...]:
        v = [0] * rho
        for i, c in terms:
            v[i] += c
        return tuple(v)

    k = rho - 1
    out = {vec((k, -1))}
    if s.is_square:
        out.add(primitive(vec((0, n - k), (k, n))))
    elif k == 1:
        out.add(vec((0, n), (1, n + 1)))
    for h in range(1, k):
        out.add(vec((h, -(n - h)), (h + 1, n - h + 1)))
        out.add(vec((0, 1), (h, h + 1), (h + 1, -h)))
    return frozenset(out)


def dim_cox(s: SpaceSpec) -> int:
    """Krull dimension of the Cox ring: ambient dimension plus Picard rank."""
    return ambient_projective_dim(s) + s.picard_rank
